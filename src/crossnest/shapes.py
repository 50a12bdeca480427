"""Ferrers diagrams, integer fillings, and prescribed-sum enumeration.

A shape is a weakly decreasing sequence of positive row lengths, drawn
left-justified with row 1 on top.  A filling assigns a nonnegative integer
to each cell; a cell holding 0 is empty.  Rows and columns are 1-based in
the public API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from . import _kernel


class NotWeaklyDecreasing(ValueError):
    """Raised when row lengths increase or a part is not positive."""


@dataclass(frozen=True)
class Shape:
    """Integer partition giving the diagram's row lengths, top to bottom."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        for part in self.parts:
            if part < 1:
                raise NotWeaklyDecreasing(f"parts must be positive: {self.parts}")
        for prev, cur in zip(self.parts, self.parts[1:]):
            if cur > prev:
                raise NotWeaklyDecreasing(f"parts must weakly decrease: {self.parts}")

    @property
    def num_rows(self) -> int:
        return len(self.parts)

    @property
    def num_cols(self) -> int:
        return self.parts[0] if self.parts else 0

    @property
    def num_cells(self) -> int:
        return sum(self.parts)


@dataclass(frozen=True)
class SumProfile:
    """Prescribed row and column sums for fillings of a fixed shape."""

    row_sums: tuple[int, ...]
    col_sums: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(v < 0 for v in self.row_sums) or any(v < 0 for v in self.col_sums):
            raise ValueError("sums must be nonnegative")
        if sum(self.row_sums) != sum(self.col_sums):
            raise ValueError(
                f"row total {sum(self.row_sums)} != column total {sum(self.col_sums)}"
            )

    @property
    def total(self) -> int:
        return sum(self.row_sums)


@dataclass(frozen=True)
class Filling:
    """A shape plus one nonnegative integer per cell."""

    shape: Shape
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if tuple(len(row) for row in self.rows) != self.shape.parts:
            raise ValueError("grid dimensions do not match the shape")
        for row in self.rows:
            for value in row:
                if value < 0:
                    raise ValueError("entries must be nonnegative")

    def entry(self, row: int, col: int) -> int:
        """Value at cell (row, col), 1-based."""
        return self.rows[row - 1][col - 1]

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.rows)

    def nonempty_cells(self) -> list[tuple[int, int]]:
        """1-based coordinates of all cells holding a positive entry."""
        return [
            (i, j)
            for i, row in enumerate(self.rows, start=1)
            for j, value in enumerate(row, start=1)
            if value
        ]


def validate_shape(parts: Iterable[int]) -> Shape:
    """Build a Shape, rejecting nonpositive or increasing parts.

    No reordering is performed; the caller's sequence must already be
    weakly decreasing.
    """
    return Shape(tuple(int(p) for p in parts))


def filling_from_rows(rows: Iterable[Iterable[int]]) -> Filling:
    """Build a Filling from raw rows, inferring the shape."""
    grid = tuple(tuple(int(v) for v in row) for row in rows)
    return Filling(validate_shape(tuple(len(row) for row in grid)), grid)


def sums_of(filling: Filling) -> SumProfile:
    """Row and column sums of a filling; the two totals always agree."""
    row_sums = tuple(sum(row) for row in filling.rows)
    col_sums = [0] * filling.shape.num_cols
    for row in filling.rows:
        for j, value in enumerate(row):
            col_sums[j] += value
    return SumProfile(row_sums, tuple(col_sums))


def check_profile(shape: Shape, profile: SumProfile) -> None:
    """Raise ValueError unless the profile has one row sum per row and one
    column sum per column of the shape."""
    if len(profile.row_sums) != shape.num_rows:
        raise ValueError(
            f"profile has {len(profile.row_sums)} row sums, shape has "
            f"{shape.num_rows} rows"
        )
    if len(profile.col_sums) != shape.num_cols:
        raise ValueError(
            f"profile has {len(profile.col_sums)} column sums, shape has "
            f"{shape.num_cols} columns"
        )


def enumerate_fillings(shape: Shape, profile: SumProfile) -> Iterator[Filling]:
    """All fillings of ``shape`` whose sums match ``profile``, each once.

    The stream is deterministic: row-major lexicographic on cell values.
    Yields nothing when the prescription is infeasible.
    """
    check_profile(shape, profile)
    for grid in _kernel.iter_fillings(shape.parts, profile.row_sums, profile.col_sums):
        yield Filling(shape, grid)


def parse_filling(text: str) -> Filling:
    """Parse the filling text format: one line per row, space-separated
    entries, weakly decreasing row lengths.  A blank line or end of input
    terminates.  Empty input is the empty filling."""
    grid: list[tuple[int, ...]] = []
    for line in text.splitlines():
        if not line.strip():
            break
        try:
            row = tuple(int(tok) for tok in line.split())
        except ValueError as exc:
            raise ValueError(f"bad filling row: {line!r}") from exc
        grid.append(row)
    return filling_from_rows(grid)


def format_filling(filling: Filling) -> str:
    """Render a filling in the text format (no trailing newline)."""
    return "\n".join(" ".join(str(v) for v in row) for row in filling.rows)
