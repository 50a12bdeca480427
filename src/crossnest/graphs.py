"""Loopless multigraphs on a vertex line and their crossing statistics.

Vertices are 1..n drawn on a line; edges are arcs above it.  Two edges
cross when their endpoints strictly interleave and nest when one strictly
encloses the other.  The weak variants allow repeated endpoints, so a
multi-edge can participate with several of its copies.

The staircase layout is stated here once: a graph on [n] is a filling of
the staircase with n - 1 rows, its d parallel edges between u < v the
cell in row n - v + 1, column u, holding d.  There k nested edges are a
strict identity chain and k crossing edges a strict antidiagonal chain,
the corner condition being their interleaving; weak chains repeat
endpoints and count every copy of a multi-edge.  So the four statistics
are taken by the kernel's one chain scan, ``_purekern.longest_chain``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from typing import Iterable, Iterator, Optional

from . import _kernel
from .patterns import PatternMatrix


@dataclass(frozen=True)
class Multigraph:
    """Vertex count plus a multiset of loopless edges.

    Identity is the edge multiset: two half-edge matchings that induce the
    same multiset are the same graph.  ``edges`` is the canonical sorted
    tuple of (u, v, multiplicity) with u < v.
    """

    n: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        seen = set()
        for u, v, mult in self.edges:
            if not (1 <= u < v <= self.n):
                raise ValueError(f"bad edge ({u}, {v}) on {self.n} vertices")
            if mult < 1:
                raise ValueError("edge multiplicity must be at least 1")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge entry ({u}, {v})")
            seen.add((u, v))
        if self.edges != tuple(sorted(self.edges)):
            raise ValueError("edges must be sorted; use Multigraph.from_pairs")

    @classmethod
    def from_pairs(
        cls, n: int, pairs: Iterable[tuple[int, ...]]
    ) -> "Multigraph":
        """Build from (u, v) or (u, v, mult) items, aggregating repeats."""
        counts: dict[tuple[int, int], int] = {}
        for item in pairs:
            if len(item) == 2:
                u, v = item  # type: ignore[misc]
                mult = 1
            else:
                u, v, mult = item  # type: ignore[misc]
            counts[(u, v)] = counts.get((u, v), 0) + mult
        return cls(n, tuple((u, v, m) for (u, v), m in sorted(counts.items())))

    @property
    def edge_count(self) -> int:
        """Number of edges counted with multiplicity."""
        return sum(m for _, _, m in self.edges)

    def edge_pairs(self) -> list[tuple[int, int]]:
        """Distinct edges, without multiplicities."""
        return [(u, v) for u, v, _ in self.edges]

    def multiplicity(self, u: int, v: int) -> int:
        for a, b, m in self.edges:
            if (a, b) == (u, v):
                return m
        return 0

    def is_simple(self) -> bool:
        return all(m == 1 for _, _, m in self.edges)


@dataclass(frozen=True)
class DegreeSequence:
    """Per-vertex (left, right) edge-endpoint counts."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for left, right in self.pairs:
            if left < 0 or right < 0:
                raise ValueError("degrees must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.pairs)

    @property
    def total_left(self) -> int:
        return sum(left for left, _ in self.pairs)

    @property
    def total_right(self) -> int:
        return sum(right for _, right in self.pairs)


@dataclass(frozen=True)
class SplitGraph:
    """Simple graph whose opening vertices 1..openings all precede its
    closing vertices, every edge joining an opening to a later closing."""

    graph: Multigraph
    openings: int

    def __post_init__(self) -> None:
        if not 0 <= self.openings <= self.graph.n:
            raise ValueError("split index out of range")
        if not self.graph.is_simple():
            raise ValueError("split graph patterns must be simple")
        for u, v, _ in self.graph.edges:
            if not (u <= self.openings < v):
                raise ValueError(
                    f"edge ({u}, {v}) does not go from an opening to a closing"
                )

    @property
    def closings(self) -> int:
        return self.graph.n - self.openings


def degree_sequence(graph: Multigraph) -> DegreeSequence:
    """Left and right degrees of every vertex, with multiplicity."""
    left = [0] * graph.n
    right = [0] * graph.n
    for u, v, mult in graph.edges:
        right[u - 1] += mult
        left[v - 1] += mult
    return DegreeSequence(tuple(zip(left, right)))


def is_feasible(degrees: DegreeSequence) -> bool:
    """Whether some multigraph realizes the left-right degree sequence.

    Totals must balance and every prefix of left degrees must be coverable
    by the right degrees strictly before it.
    """
    if degrees.total_left != degrees.total_right:
        return False
    left_prefix = 0
    right_prefix = 0
    for left, right in degrees.pairs:
        left_prefix += left
        if left_prefix > right_prefix:
            return False
        right_prefix += right
    return True


def split_vertex(degrees: DegreeSequence, index: int) -> DegreeSequence:
    """Replace entry (l, r) at 1-based ``index`` by (l, 0), (0, r)."""
    if not 1 <= index <= degrees.n:
        raise IndexError(f"vertex index {index} out of range")
    left, right = degrees.pairs[index - 1]
    return DegreeSequence(
        degrees.pairs[: index - 1]
        + ((left, 0), (0, right))
        + degrees.pairs[index:]
    )


def staircase(n: int) -> tuple[int, ...]:
    """Row lengths of the staircase that stores graphs on [n]: n - 1 rows,
    the top one holding the edges that end at vertex n."""
    return tuple(range(n - 1, 0, -1))


def staircase_cells(graph: Multigraph) -> list[tuple[int, int, int]]:
    """The graph's nonzero cells in its staircase filling, 0-based as the
    kernels take them: row n - v, column u - 1, entry d for the d parallel
    edges between u < v."""
    return [(graph.n - v, u - 1, mult) for u, v, mult in graph.edges]


def _chain(graph: Multigraph, anti: bool, weak: bool) -> int:
    """Longest chain of the graph's staircase filling."""
    return _kernel.longest_chain(
        staircase(graph.n), staircase_cells(graph), anti=anti, weak=weak
    )


def cross(graph: Multigraph) -> int:
    """Largest k admitting k pairwise crossing edges."""
    return _chain(graph, anti=True, weak=False)


def nest(graph: Multigraph) -> int:
    """Largest k admitting k pairwise nested edges."""
    return _chain(graph, anti=False, weak=False)


def cross_weak(graph: Multigraph) -> int:
    """Largest k admitting a weak k-crossing; multi-edges supply copies."""
    return _chain(graph, anti=True, weak=True)


def nest_weak(graph: Multigraph) -> int:
    """Largest k admitting a weak k-nesting; multi-edges supply copies."""
    return _chain(graph, anti=False, weak=True)


def is_k_noncrossing(graph: Multigraph, k: int) -> bool:
    if k < 1:
        raise ValueError("k must be at least 1")
    return cross(graph) < k


def is_k_nonnesting(graph: Multigraph, k: int) -> bool:
    if k < 1:
        raise ValueError("k must be at least 1")
    return nest(graph) < k


def enumerate_graphs(
    degrees: DegreeSequence, *, max_multiplicity: Optional[int] = None
) -> Iterator[Multigraph]:
    """All multigraphs with the given left-right degree sequence, each once.

    Graphs are identified by their edge multisets; the stream is empty
    exactly when the sequence is infeasible.  ``max_multiplicity=1``
    restricts to simple graphs.
    """
    if not is_feasible(degrees):
        return
    n = degrees.n
    pairs = degrees.pairs
    rem_right = [right for _, right in pairs]
    chosen: list[tuple[int, int, int]] = []

    def assign(v: int) -> Iterator[Multigraph]:
        # v is the 0-based vertex whose left edges are being attached.
        if v == n:
            yield Multigraph(n, tuple(sorted(chosen)))
            return
        need = pairs[v][0]
        if sum(rem_right[:v]) < need:
            return

        def pick(u: int, remaining: int) -> Iterator[Multigraph]:
            if u == v:
                if remaining == 0:
                    yield from assign(v + 1)
                return
            cap = min(rem_right[u], remaining)
            if max_multiplicity is not None:
                cap = min(cap, max_multiplicity)
            for count in range(cap + 1):
                if count:
                    rem_right[u] -= count
                    chosen.append((u + 1, v + 1, count))
                yield from pick(u + 1, remaining - count)
                if count:
                    rem_right[u] += count
                    chosen.pop()

        yield from pick(0, need)

    yield from assign(0)


def enumerate_graphs_by_size(
    n: int, m: int, *, simple: bool = False
) -> Iterator[Multigraph]:
    """All multigraphs (or simple graphs) with n vertices and m edges."""
    all_pairs = list(combinations(range(1, n + 1), 2))
    chooser = combinations if simple else combinations_with_replacement
    for multiset in chooser(all_pairs, m):
        yield Multigraph.from_pairs(n, multiset)


def enumerate_perfect_matchings(n: int) -> Iterator[Multigraph]:
    """All perfect matchings on n vertices (n even)."""
    if n % 2:
        raise ValueError("perfect matchings need an even vertex count")
    edges: list[tuple[int, int]] = []

    def pair_up(free: tuple[int, ...]) -> Iterator[Multigraph]:
        if not free:
            yield Multigraph.from_pairs(n, tuple(edges))
            return
        first = free[0]
        for idx in range(1, len(free)):
            partner = free[idx]
            edges.append((first, partner))
            yield from pair_up(free[1:idx] + free[idx + 1:])
            edges.pop()

    yield from pair_up(tuple(range(1, n + 1)))


def contains_subgraph(
    graph: Multigraph,
    pattern: "SplitGraph | Multigraph",
    *,
    isolated_openings: Optional[frozenset[int]] = None,
) -> bool:
    """Whether an order-preserving injection maps the simple pattern's
    edges onto edges of ``graph``.

    A bare Multigraph pattern constrains nothing beyond its edges.  A
    SplitGraph pattern additionally fixes the side of every pattern
    vertex, so its isolated vertices must land on vertices of ``graph``
    able to play that side: edge degrees decide the side of non-isolated
    vertices, and isolated vertices of ``graph`` count as both sides
    unless ``isolated_openings`` pins their tags.  For patterns without
    isolated vertices the side conditions are implied by the edges, so
    the two behaviours agree.
    """
    if isinstance(pattern, SplitGraph):
        h = pattern.graph
        h_side: Optional[dict[int, bool]] = {
            v: v <= pattern.openings for v in range(1, h.n + 1)
        }
    else:
        h = pattern
        h_side = None
    if not h.is_simple():
        raise ValueError("subgraph patterns must be simple")
    if h.n > graph.n:
        return False

    # Only a SplitGraph pattern's sides read the degrees.
    degrees = degree_sequence(graph).pairs if h_side is not None else ()

    def can_play(vertex: int, opening: bool) -> bool:
        left, right = degrees[vertex - 1]
        if left == 0 and right == 0:
            if isolated_openings is None:
                return True
            return (vertex in isolated_openings) == opening
        return right > 0 if opening else left > 0

    have = set(graph.edge_pairs())
    wanted = h.edge_pairs()
    for mapping in combinations(range(1, graph.n + 1), h.n):
        if h_side is not None and not all(
            can_play(mapping[v - 1], h_side[v]) for v in range(1, h.n + 1)
        ):
            continue
        if all((mapping[u - 1], mapping[v - 1]) in have for u, v in wanted):
            return True
    return False


def k_crossing_pattern(k: int) -> SplitGraph:
    """The split graph of k pairwise crossing edges on 2k vertices."""
    return SplitGraph(
        Multigraph.from_pairs(2 * k, [(i, k + i) for i in range(1, k + 1)]), k
    )


def k_nesting_pattern(k: int) -> SplitGraph:
    """The split graph of k pairwise nested edges on 2k vertices."""
    return SplitGraph(
        Multigraph.from_pairs(2 * k, [(i, 2 * k + 1 - i) for i in range(1, k + 1)]), k
    )


def split_graph_of_matrix(matrix: PatternMatrix) -> SplitGraph:
    """Split graph on [t + s] with the t columns as openings and the s rows
    as closings; row i (top to bottom) becomes closing t + (s - i + 1)."""
    s, t = matrix.num_rows, matrix.num_cols
    pairs = [
        (j, t + (s - i + 1))
        for i, row in enumerate(matrix.rows, start=1)
        for j, value in enumerate(row, start=1)
        if value
    ]
    return SplitGraph(Multigraph.from_pairs(t + s, pairs), t)


def matrix_of_split_graph(split: SplitGraph) -> PatternMatrix:
    """Inverse of :func:`split_graph_of_matrix`."""
    t = split.openings
    s = split.closings
    grid = [[0] * t for _ in range(s)]
    for u, v, _ in split.graph.edges:
        grid[s - (v - t)][u - 1] = 1
    return PatternMatrix(tuple(tuple(row) for row in grid))


def parse_graph(text: str) -> Multigraph:
    """Parse the graph text format: first line ``n``, then lines ``u v m``."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty graph input")
    try:
        n = int(lines[0].strip())
    except ValueError as exc:
        raise ValueError(f"bad vertex count line: {lines[0]!r}") from exc
    pairs = []
    for line in lines[1:]:
        tokens = line.split()
        if len(tokens) != 3:
            raise ValueError(f"bad edge line (expected 'u v m'): {line!r}")
        u, v, mult = (int(tok) for tok in tokens)
        pairs.append((u, v, mult))
    return Multigraph.from_pairs(n, pairs)


def format_graph(graph: Multigraph) -> str:
    """Render a graph in the text format (no trailing newline)."""
    lines = [str(graph.n)]
    lines.extend(f"{u} {v} {m}" for u, v, m in graph.edges)
    return "\n".join(lines)


def parse_degree_sequence(text: str) -> DegreeSequence:
    """Parse whitespace-separated ``l:r`` tokens."""
    pairs = []
    for token in text.split():
        left, sep, right = token.partition(":")
        if not sep:
            raise ValueError(f"bad degree token (expected 'l:r'): {token!r}")
        pairs.append((int(left), int(right)))
    return DegreeSequence(tuple(pairs))


def format_degree_sequence(degrees: DegreeSequence) -> str:
    return " ".join(f"{left}:{right}" for left, right in degrees.pairs)
