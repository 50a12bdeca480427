"""Encodings between graphs and fillings of Ferrers diagrams.

Two codecs live here.  The staircase codec stores any multigraph on [n] in
the staircase diagram with n-1 rows, one cell per vertex pair.  The
shape-carrying codec stores a left-right graph (every vertex only opens or
only closes edges) in a diagram whose shape records how openings and
closings interleave, with row sums the left degrees of closings and column
sums the right degrees of openings.

Under both codecs, k nested edges become an order-k identity occurrence
and k crossing edges an order-k antidiagonal occurrence; the antidiagonal
corner condition is exactly the interleaving condition of a crossing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import DegreeSequence, Multigraph, degree_sequence
from .patterns import antidiagonal_cells, first_j_occurrence
from .shapes import Filling, validate_shape

Cell = tuple[int, int]


class EncodingError(ValueError):
    """Raised when a graph cannot be written into a positive-parts shape."""


@dataclass(frozen=True)
class LeftRightGraph:
    """A multigraph in which every vertex is opening (no edges to smaller
    vertices) or closing (no edges to larger ones).

    Degrees decide the side of every non-isolated vertex; isolated vertices
    carry an explicit tag, the members of ``isolated_openings`` opening and
    the remaining isolated vertices closing.
    """

    graph: Multigraph
    isolated_openings: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        degrees = degree_sequence(self.graph)
        for vertex, (left, right) in enumerate(degrees.pairs, start=1):
            if left and right:
                raise ValueError(
                    f"vertex {vertex} both opens and closes edges; split it first"
                )
        isolated = {
            vertex
            for vertex, (left, right) in enumerate(degrees.pairs, start=1)
            if left == 0 and right == 0
        }
        if not self.isolated_openings <= isolated:
            raise ValueError("isolated_openings may only tag isolated vertices")

    def _sides(self) -> list[str]:
        """'opening' or 'closing' for every vertex, from one degree sequence."""
        return [
            "opening"
            if right or (not left and vertex in self.isolated_openings)
            else "closing"
            for vertex, (left, right) in enumerate(
                degree_sequence(self.graph).pairs, start=1
            )
        ]

    def side(self, vertex: int) -> str:
        """'opening' or 'closing' for a 1-based vertex."""
        return self._sides()[vertex - 1]

    def openings(self) -> list[int]:
        return [v for v, side in enumerate(self._sides(), start=1) if side == "opening"]

    def closings(self) -> list[int]:
        return [v for v, side in enumerate(self._sides(), start=1) if side == "closing"]


def delta_encode(graph: Multigraph) -> Filling:
    """Staircase filling of a multigraph on [n]: d parallel edges between
    i < j land in column i, row n - j + 1 of the staircase with n - 1 rows."""
    n = graph.n
    if n < 1:
        raise ValueError("staircase encoding needs at least one vertex")
    parts = tuple(range(n - 1, 0, -1))
    grid = [[0] * length for length in parts]
    for u, v, mult in graph.edges:
        grid[n - v][u - 1] = mult
    return Filling(validate_shape(parts), tuple(tuple(row) for row in grid))


def delta_decode(filling: Filling, n: int) -> Multigraph:
    """Inverse of :func:`delta_encode`; the shape must be the staircase
    with n - 1 rows."""
    expected = tuple(range(n - 1, 0, -1))
    if filling.shape.parts != expected:
        raise ValueError(
            f"expected staircase shape {expected}, got {filling.shape.parts}"
        )
    pairs = []
    for i, row in enumerate(filling.rows, start=1):
        for j, mult in enumerate(row, start=1):
            if mult:
                pairs.append((j, n - i + 1, mult))
    return Multigraph.from_pairs(n, pairs)


def lr_encode(graph: LeftRightGraph) -> Filling:
    """Shape-carrying filling of a left-right graph.

    The diagram has one column per opening vertex (in order) and one row
    per closing vertex, the bottom row belonging to the first closing; the
    length of a closing's row is the number of openings before it.  The d
    edges from the s-th opening to the r-th closing fill that cell with d.

    Raises EncodingError when a closing precedes every opening or an
    opening follows every closing (possible only for tagged isolated
    vertices): such rows or columns would need length zero.
    """
    openings = graph.openings()
    closings = graph.closings()
    opening_rank = {v: s for s, v in enumerate(openings, start=1)}
    closing_rank = {v: r for r, v in enumerate(closings, start=1)}
    c = len(closings)

    preceding = []
    for v in closings:
        count = sum(1 for u in openings if u < v)
        if count == 0:
            raise EncodingError(
                f"closing vertex {v} has no opening before it; untaggable"
            )
        preceding.append(count)
    if openings and (not closings or openings[-1] > closings[-1]):
        raise EncodingError(
            f"opening vertex {openings[-1]} has no closing after it; untaggable"
        )

    parts = tuple(preceding[c - 1 - i] for i in range(c))
    grid = [[0] * length for length in parts]
    for u, v, mult in graph.graph.edges:
        s = opening_rank[u]
        r = closing_rank[v]
        grid[c - r][s - 1] = mult
    return Filling(validate_shape(parts), tuple(tuple(row) for row in grid))


def lr_decode(filling: Filling) -> LeftRightGraph:
    """Inverse of :func:`lr_encode` under the canonical interleaving.

    Columns become openings and rows closings; a closing whose row length
    is p is placed immediately after the p-th opening (openings first at
    an equal boundary), equal-length rows keeping their bottom-to-top
    order.  Zero-sum columns decode to isolated vertices tagged opening
    and zero-sum rows to isolated vertices tagged closing.
    """
    c = filling.shape.num_rows
    o = filling.shape.num_cols
    preceding = [filling.shape.parts[c - r] for r in range(1, c + 1)]

    opening_vertex: dict[int, int] = {}
    closing_vertex: dict[int, int] = {}
    next_vertex = 1
    next_closing = 1
    for s in range(1, o + 1):
        opening_vertex[s] = next_vertex
        next_vertex += 1
        while next_closing <= c and preceding[next_closing - 1] == s:
            closing_vertex[next_closing] = next_vertex
            next_vertex += 1
            next_closing += 1

    pairs = []
    for i, row in enumerate(filling.rows, start=1):
        for s, mult in enumerate(row, start=1):
            if mult:
                pairs.append((opening_vertex[s], closing_vertex[c - i + 1], mult))
    graph = Multigraph.from_pairs(o + c, pairs)

    col_sums = [0] * o
    for row in filling.rows:
        for j, value in enumerate(row):
            col_sums[j] += value
    tags = frozenset(
        opening_vertex[s] for s in range(1, o + 1) if col_sums[s - 1] == 0
    )
    return LeftRightGraph(graph, tags)


def lr_degree_sequence(filling: Filling) -> DegreeSequence:
    """Left-right degree sequence read off a filling without decoding."""
    return degree_sequence(lr_decode(filling).graph)


@dataclass(frozen=True)
class JtFrame:
    """The frame of the minimal order-t antidiagonal occurrence.

    ``a_cells`` are its cells left to right (bottom-left first);
    ``b_cells`` are the cells one step up the staircase plus the corner,
    the occurrence the transfer map creates; ``region_e`` is the strip
    strictly between the two boundary paths, empty by minimality.
    """

    a_cells: tuple[Cell, ...]
    b_cells: tuple[Cell, ...]
    region_e: frozenset[Cell]


def b_cells_of(a_cells: tuple[Cell, ...]) -> tuple[Cell, ...]:
    """Companion cells of an antidiagonal cell list: (r_{s+1}, c_s) for
    s < t, plus (r_1, c_t)."""
    t = len(a_cells)
    cells = [(a_cells[s + 1][0], a_cells[s][1]) for s in range(t - 1)]
    cells.append((a_cells[0][0], a_cells[t - 1][1]))
    return tuple(cells)


def _path_a_cells(a_cells: tuple[Cell, ...]) -> set[Cell]:
    """Boundary path through the a-cells: along the bottom row, then up and
    right through each a-cell, then up the last column to the top."""
    t = len(a_cells)
    rows = [cell[0] for cell in a_cells]
    cols = [cell[1] for cell in a_cells]
    path: set[Cell] = set()
    path.update((rows[0], col) for col in range(1, cols[1] + 1))
    for s in range(t - 1):
        path.update((row, cols[s + 1]) for row in range(rows[s + 1], rows[s] + 1))
    for s in range(1, t - 1):
        path.update((rows[s], col) for col in range(cols[s], cols[s + 1] + 1))
    path.update((row, cols[t - 1]) for row in range(1, rows[t - 1] + 1))
    return path


def _path_b_cells(a_cells: tuple[Cell, ...]) -> set[Cell]:
    """Boundary path through the b-cells, one staircase step inside."""
    t = len(a_cells)
    rows = [cell[0] for cell in a_cells]
    cols = [cell[1] for cell in a_cells]
    path: set[Cell] = set()
    path.update((rows[1], col) for col in range(1, cols[0] + 1))
    for s in range(t - 2):
        path.update((row, cols[s]) for row in range(rows[s + 2], rows[s + 1] + 1))
    for s in range(1, t - 1):
        path.update((rows[s + 1], col) for col in range(cols[s - 1], cols[s] + 1))
    path.update((row, cols[t - 2]) for row in range(1, rows[t - 1] + 1))
    return path


def jt_frame(filling: Filling, t: int) -> Optional[JtFrame]:
    """Frame of the first order-t antidiagonal occurrence, or None."""
    if t < 2:
        raise ValueError("order must be at least 2")
    occ = first_j_occurrence(filling, t)
    if occ is None:
        return None
    a_cells = tuple(antidiagonal_cells(occ))
    b_cells = b_cells_of(a_cells)

    path_a = _path_a_cells(a_cells)
    path_b = _path_b_cells(a_cells)
    bottom_row = a_cells[0][0]
    region: set[Cell] = set()
    for row in range(1, bottom_row + 1):
        a_bound = min((c for (r, c) in path_a if r == row), default=None)
        if a_bound is None:
            continue
        b_bound = max((c for (r, c) in path_b if r == row), default=0)
        for col in range(b_bound + 1, a_bound):
            region.add((row, col))
    return JtFrame(a_cells, b_cells, frozenset(region))
