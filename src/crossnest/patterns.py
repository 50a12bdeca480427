"""0/1 pattern matrices and their occurrences in fillings.

An occurrence of an s x t pattern is a strictly increasing selection of s
rows and t columns such that every 1-entry lands on a nonempty cell and the
bottom-right corner of the selection lies inside the diagram.  The corner
condition is what distinguishes diagram containment from plain submatrix
containment: on a staircase the antidiagonal patterns can fail it even when
all their cells are nonempty.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Optional

from . import _kernel
from .shapes import Filling

Cell = tuple[int, int]


@dataclass(frozen=True)
class PatternMatrix:
    """Rectangular 0/1 matrix with at least one 1-entry."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.rows or not self.rows[0]:
            raise ValueError("pattern must have at least one row and column")
        width = len(self.rows[0])
        for row in self.rows:
            if len(row) != width:
                raise ValueError("pattern rows must have equal length")
            for value in row:
                if value not in (0, 1):
                    raise ValueError("pattern entries must be 0 or 1")
        if not any(any(row) for row in self.rows):
            raise ValueError("all-zero patterns are contained trivially; rejected")

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def num_cols(self) -> int:
        return len(self.rows[0])


@dataclass(frozen=True)
class Occurrence:
    """Strictly increasing row and column selections, 1-based."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self) -> None:
        for sel in (self.rows, self.cols):
            if any(b <= a for a, b in zip(sel, sel[1:])):
                raise ValueError("selections must be strictly increasing")


@lru_cache(maxsize=None)
def identity(k: int) -> PatternMatrix:
    """k x k matrix with 1s on the main diagonal."""
    if k < 1:
        raise ValueError("order must be at least 1")
    return PatternMatrix(
        tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))
    )


@lru_cache(maxsize=None)
def antiidentity(k: int) -> PatternMatrix:
    """k x k matrix with 1s on the main antidiagonal."""
    if k < 1:
        raise ValueError("order must be at least 1")
    return PatternMatrix(
        tuple(tuple(1 if i + j == k - 1 else 0 for j in range(k)) for i in range(k))
    )


def block_diag(a: PatternMatrix, b: PatternMatrix) -> PatternMatrix:
    """Block matrix with ``a`` top-left, ``b`` bottom-right, zeros elsewhere."""
    top = tuple(row + (0,) * b.num_cols for row in a.rows)
    bottom = tuple((0,) * a.num_cols + row for row in b.rows)
    return PatternMatrix(top + bottom)


@lru_cache(maxsize=None)
def f_matrix(t: int) -> PatternMatrix:
    """The t x t block matrix with an antidiagonal of order t-1 top-left and
    a single 1 bottom-right; the intermediate pattern of the avoidance
    bijection.  For t = 1 the antidiagonal block is empty, leaving I_1."""
    if t < 1:
        raise ValueError("order must be at least 1")
    if t == 1:
        return identity(1)
    return block_diag(antiidentity(t - 1), identity(1))


def m213() -> PatternMatrix:
    return PatternMatrix(((0, 0, 1), (1, 0, 0), (0, 1, 0)))


def m132() -> PatternMatrix:
    return PatternMatrix(((0, 1, 0), (0, 0, 1), (1, 0, 0)))


def contains(filling: Filling, pattern: PatternMatrix) -> bool:
    """Whether the filling contains the pattern (short-circuiting)."""
    return _kernel.contains(filling.shape.parts, filling.rows, pattern.rows)


def occurrences(filling: Filling, pattern: PatternMatrix) -> list[Occurrence]:
    """All occurrences, ordered lexicographically by (rows, cols)."""
    parts = filling.shape.parts
    grid = filling.rows
    s, t = pattern.num_rows, pattern.num_cols
    nrows, ncols = len(parts), (parts[0] if parts else 0)
    if s > nrows or t > ncols:
        return []
    ones_by_col = [
        [i for i in range(s) if pattern.rows[i][j]] for j in range(t)
    ]
    found: list[Occurrence] = []
    for rows in combinations(range(1, nrows + 1), s):
        corner_limit = parts[rows[-1] - 1]

        def extend(j: int, chosen: list[int]) -> None:
            if j == t:
                found.append(Occurrence(rows, tuple(chosen)))
                return
            start = chosen[-1] + 1 if chosen else 1
            # Columns beyond the corner limit can never finish the selection.
            for col in range(start, corner_limit - (t - 1 - j) + 1):
                ok = True
                for i in ones_by_col[j]:
                    row = grid[rows[i] - 1]
                    if col > len(row) or row[col - 1] == 0:
                        ok = False
                        break
                if ok:
                    chosen.append(col)
                    extend(j + 1, chosen)
                    chosen.pop()

        extend(0, [])
    return found


def _entries(filling: Filling) -> list[tuple[int, int, int]]:
    """``(row, column, entry)`` of every nonempty cell, 0-based, as the
    kernels take cells."""
    return [
        (i, j, value)
        for i, row in enumerate(filling.rows)
        for j, value in enumerate(row)
        if value
    ]


def max_identity_order(filling: Filling) -> int:
    """Largest k such that the order-k identity pattern is contained: the
    longest chain of nonempty cells going strictly down and to the right.
    The last cell of such a chain is the corner of its selection and is
    nonempty, so the corner condition holds by itself."""
    return _kernel.longest_chain(filling.shape.parts, _entries(filling))


def max_antiidentity_order(filling: Filling) -> int:
    """Largest k such that the order-k antidiagonal pattern is contained:
    the longest chain of nonempty cells going strictly up and to the right
    whose last column fits in the row of its first (bottom-left) cell,
    which is the corner condition."""
    return _kernel.longest_chain(filling.shape.parts, _entries(filling), anti=True)


def antidiagonal_cells(occ: Occurrence) -> list[Cell]:
    """Cells of an antidiagonal occurrence listed left to right, so the
    first cell is the bottom-left one."""
    t = len(occ.cols)
    return [(occ.rows[t - 1 - i], occ.cols[i]) for i in range(t)]


def f_cells(occ: Occurrence) -> list[Cell]:
    """Cells of an order-t ``f_matrix`` occurrence listed left to right:
    the t-1 antidiagonal cells, then the bottom-right corner cell."""
    t = len(occ.cols)
    cells = [(occ.rows[t - 2 - i], occ.cols[i]) for i in range(t - 1)]
    cells.append((occ.rows[t - 1], occ.cols[t - 1]))
    return cells


def first_j_occurrence(filling: Filling, t: int) -> Optional[Occurrence]:
    """Minimum occurrence of the order-t antidiagonal pattern.

    Occurrences are compared cell by cell from left to right: at the first
    differing cell the higher one precedes, and at equal height the one
    further left precedes.  Returns None when the pattern is absent.

    The search is depth first and lists nothing: it picks the cells left
    to right, tries the candidates for each in that same order (row-major),
    and returns the first complete occurrence, which is the minimum.  The
    first cell's row length bounds every later column (the corner
    condition).
    """
    if t < 1:
        raise ValueError("order must be at least 1")
    parts = filling.shape.parts
    cells = filling.nonempty_cells()

    def extend(chain: list[Cell], limit: int) -> Optional[list[Cell]]:
        if len(chain) == t:
            return chain
        row, col = chain[-1]
        after = t - len(chain) - 1  # cells still needed after this one
        for r, c in cells:
            if r >= row:
                break
            if col < c <= limit - after and r > after:
                found = extend(chain + [(r, c)], limit)
                if found is not None:
                    return found
        return None

    for r, c in cells:
        limit = parts[r - 1]
        if c + t - 1 <= limit and r >= t:
            found = extend([(r, c)], limit)
            if found is not None:
                return Occurrence(
                    tuple(row for row, _ in reversed(found)),
                    tuple(col for _, col in found),
                )
    return None


def first_f_occurrence(filling: Filling, t: int) -> Optional[Occurrence]:
    """Minimum occurrence of ``f_matrix(t)`` under the mirrored order.

    Occurrences are compared cell by cell from right to left: at the first
    differing cell the lower one precedes, and at equal height the one
    further right precedes.  Returns None when the pattern is absent.

    The search is depth first and lists nothing: it picks the corner cell,
    then the antidiagonal cells right to left, tries the candidates for
    each in that same order (reverse row-major), and returns the first
    complete occurrence, which is the minimum.  The corner cell is
    nonempty, so the corner condition holds by itself.
    """
    if t < 2:
        raise ValueError("order must be at least 2")
    cells = filling.nonempty_cells()
    cells.reverse()

    def extend(chain: list[Cell]) -> Optional[list[Cell]]:
        if len(chain) == t:
            return chain
        corner_row = chain[0][0]
        # Rows of the antidiagonal cells grow right to left, below the
        # previous one and above the corner; columns shrink.
        top = chain[-1][0] if len(chain) > 1 else 0
        col = chain[-1][1]
        after = t - len(chain) - 1  # cells still needed after this one
        for r, c in cells:
            if r <= top:
                break
            if r < corner_row - after and after < c < col:
                found = extend(chain + [(r, c)])
                if found is not None:
                    return found
        return None

    for r, c in cells:
        if r >= t and c >= t:
            found = extend([(r, c)])
            if found is not None:
                anti = found[1:]
                return Occurrence(
                    tuple(row for row, _ in anti) + (r,),
                    tuple(col for _, col in reversed(anti)) + (c,),
                )
    return None


def parse_pattern(spec: str) -> PatternMatrix:
    """Parse a pattern spec string.

    Accepts ``I<k>``, ``J<k>``, ``F<t>``, ``M213``, ``M132``, or literal
    rows such as ``"0,1;1,0"`` (rows separated by ``;``, entries by ``,``).
    """
    text = spec.strip()
    upper = text.upper()
    if upper == "M213":
        return m213()
    if upper == "M132":
        return m132()
    if upper[:1] in ("I", "J", "F") and upper[1:].isdigit():
        order = int(upper[1:])
        if upper[0] == "I":
            return identity(order)
        if upper[0] == "J":
            return antiidentity(order)
        return f_matrix(order)
    if ";" in text or "," in text:
        try:
            rows = tuple(
                tuple(int(tok) for tok in chunk.split(","))
                for chunk in text.split(";")
            )
        except ValueError as exc:
            raise ValueError(f"bad pattern literal: {spec!r}") from exc
        return PatternMatrix(rows)
    raise ValueError(f"unrecognized pattern spec: {spec!r}")
