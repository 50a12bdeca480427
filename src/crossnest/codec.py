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

from dataclasses import dataclass, field

from .graphs import Multigraph, degree_sequence, staircase, staircase_cells
# ``first_j_occurrence`` is not called here.  It stays bound because
# perfbench's tracer times the minimal-occurrence search by replacing this
# name in this module's namespace, and fails where it is missing.
from .patterns import first_j_occurrence  # noqa: F401
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
    # 'opening' or 'closing' for every vertex, set once from the degrees.
    sides: tuple[str, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        degrees = degree_sequence(self.graph).pairs
        for vertex, (left, right) in enumerate(degrees, start=1):
            if left and right:
                raise ValueError(
                    f"vertex {vertex} both opens and closes edges; split it first"
                )
        isolated = {
            vertex
            for vertex, (left, right) in enumerate(degrees, start=1)
            if left == 0 and right == 0
        }
        if not self.isolated_openings <= isolated:
            raise ValueError("isolated_openings may only tag isolated vertices")
        sides = tuple(
            "opening"
            if right or (not left and vertex in self.isolated_openings)
            else "closing"
            for vertex, (left, right) in enumerate(degrees, start=1)
        )
        object.__setattr__(self, "sides", sides)

    def side(self, vertex: int) -> str:
        """'opening' or 'closing' for a 1-based vertex."""
        return self.sides[vertex - 1]

    def openings(self) -> list[int]:
        return [v for v, side in enumerate(self.sides, start=1) if side == "opening"]

    def closings(self) -> list[int]:
        return [v for v, side in enumerate(self.sides, start=1) if side == "closing"]


def tag_isolated(graph: Multigraph) -> LeftRightGraph:
    """The left-right graph of a graph with no two-sided vertex, its
    isolated vertices tagged by the rule that ``encode --mode lr`` uses.

    An isolated vertex opens when it comes before the later of the last
    closing vertex (one with left edges) and the last isolated vertex;
    otherwise it closes.  So every isolated vertex but the last opens, and
    the last opens too when a closing vertex follows it.  Every graph then
    encodes under :func:`lr_encode` except a lone isolated vertex, which
    stays untaggable.
    """
    ends = {vertex for u, v, _ in graph.edges for vertex in (u, v)}
    isolated = [v for v in range(1, graph.n + 1) if v not in ends]
    last_closing = max((v for _, v, _ in graph.edges), default=0)
    boundary = max([last_closing, *isolated])
    return LeftRightGraph(graph, frozenset(v for v in isolated if v < boundary))


def delta_encode(graph: Multigraph) -> Filling:
    """Staircase filling of a multigraph on [n]: the staircase with n - 1
    rows, its cells laid out by :func:`graphs.staircase_cells`."""
    if graph.n < 1:
        raise ValueError("staircase encoding needs at least one vertex")
    parts = staircase(graph.n)
    grid = [[0] * length for length in parts]
    for i, j, mult in staircase_cells(graph):
        grid[i][j] = mult
    return Filling(validate_shape(parts), tuple(tuple(row) for row in grid))


def delta_decode(filling: Filling, n: int) -> Multigraph:
    """Inverse of :func:`delta_encode`; the shape must be the staircase
    with n - 1 rows."""
    expected = staircase(n)
    if filling.shape.parts != expected:
        raise ValueError(
            f"expected staircase shape {expected}, got {filling.shape.parts}"
        )
    # Column u - 1 read bottom-up lists the edges (u, v) by increasing v,
    # so the edges come out sorted and distinct.
    rows = filling.rows
    edges = tuple(
        (u, v, mult)
        for u in range(1, n)
        for v in range(u + 1, n + 1)
        if (mult := rows[n - v][u - 1])
    )
    return Multigraph(n, edges)


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


def b_cells_of(a_cells: tuple[Cell, ...]) -> tuple[Cell, ...]:
    """Companion cells of an antidiagonal cell list: (r_{s+1}, c_s) for
    s < t, plus (r_1, c_t)."""
    t = len(a_cells)
    cells = [(a_cells[s + 1][0], a_cells[s][1]) for s in range(t - 1)]
    cells.append((a_cells[0][0], a_cells[t - 1][1]))
    return tuple(cells)
