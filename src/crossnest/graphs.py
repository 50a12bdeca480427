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
``enumerate_graphs`` lists the graphs of a degree sequence as these rows,
bottom-up, by the kernel's row-fill rule and row walk, without recursion,
walking only the rows of vertices that carry an edge.

Perfect matchings are also counted without being listed, by their
numbers of k-crossings and k-nestings: see ``matching_chain_counts``.
``contains_subgraph`` tests a graph for a simple pattern graph by its
edges alone; no pattern vertex has a fixed side.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from operator import sub
from typing import Iterable, Iterator

from . import _kernel, _purekern


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
        previous = (0, 0)
        for u, v, mult in self.edges:
            if not (1 <= u < v <= self.n):
                raise ValueError(f"bad edge ({u}, {v}) on {self.n} vertices")
            if mult < 1:
                raise ValueError("edge multiplicity must be at least 1")
            if (u, v) <= previous:
                if (u, v) == previous:
                    raise ValueError(f"duplicate edge entry ({u}, {v})")
                raise ValueError("edges must be sorted; use Multigraph.from_pairs")
            previous = (u, v)

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
    """Longest chain of the graph's staircase filling.  The scan reads only
    the rows that hold an edge, so the staircase is passed as a range."""
    return _kernel.longest_chain(
        range(graph.n - 1, 0, -1), staircase_cells(graph), anti=anti, weak=weak
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


def enumerate_graphs(degrees: DegreeSequence) -> Iterator[Multigraph]:
    """All multigraphs with the given left-right degree sequence, each once,
    in lexicographic order of their multiplicities read vertex by vertex
    (v ascending, then u ascending, for the edge (u, v)); none exactly when
    the sequence is infeasible.  Vertex v's row holds its left edges, a row
    fill of its left degree under the right degrees still open before it.
    An isolated vertex has a zero row and column, so only the core, the
    vertices that carry an edge, is walked, and its labels are mapped back
    through the increasing list of those vertices: a graph costs its core,
    not the whole sequence.
    """
    if not is_feasible(degrees):
        return
    pairs = degrees.pairs
    ends = [v for v, pair in enumerate(pairs, 1) if pair != (0, 0)]

    def rows(v: int, open_right: tuple[int, ...]):
        """``(row, open right degrees of core vertices 1..v+1)`` for every
        row of core vertex v + 1 under the open right degrees of 1..v."""
        left, right = pairs[ends[v] - 1]
        for after, _ in _purekern._row_fills(open_right, left):
            yield tuple(map(sub, open_right, after)), after + (right,)

    for grid, _ in _kernel.walk_rows(len(ends), rows, ()):
        edges = [
            (ends[u], ends[v], mult)
            for v, row in enumerate(grid)
            for u, mult in enumerate(row)
            if mult
        ]
        edges.sort()
        yield Multigraph(degrees.n, tuple(edges))


def enumerate_graphs_by_size(n: int, m: int) -> Iterator[Multigraph]:
    """All multigraphs with n vertices and m edges."""
    all_pairs = list(combinations(range(1, n + 1), 2))
    for multiset in combinations_with_replacement(all_pairs, m):
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


def _monotone_subsequences(labels: list[int], k: int, increasing: bool) -> int:
    """Number of increasing (or decreasing) (k-1)-subsequences of the
    distinct ``labels``, for k = 2 or 3."""
    if k == 2:
        return len(labels)
    return sum(
        1
        for i, x in enumerate(labels)
        for y in labels[i + 1:]
        if (x < y) == increasing
    )


def _matching_moves(
    word: tuple[int, ...], k: int
) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Each way to pair the leftmost free point ``a`` with a later free
    point ``b``, as ``(next word, k-crossings, k-nestings)`` completed by
    the arc (a, b).  ``word`` describes the points right of ``a``; see
    ``matching_chain_counts``."""
    label = len(word) - word.count(0) + 1
    for b, point in enumerate(word):
        if point:
            continue
        crossings = _monotone_subsequences([x for x in word[:b] if x], k, True)
        nestings = _monotone_subsequences([x for x in word[b + 1:] if x], k, False)
        placed = word[:b] + (label,) + word[b + 1:]
        if 0 in placed:
            rest = placed[placed.index(0) + 1:]
            rank = {x: r for r, x in enumerate(sorted(x for x in rest if x), 1)}
            after = tuple(rank.get(x, 0) for x in rest)
        else:
            after = ()
        yield after, crossings, nestings


def matching_chain_counts(vertices: int, k: int) -> Counter:
    """Perfect matchings on ``vertices`` points counted by their numbers of
    k-crossings and k-nestings, each capped at 2, for k = 2 or 3.

    Returns a ``Counter`` from ``(min(#k-crossings, 2), min(#k-nestings,
    2))`` to the number of matchings; no matching is listed.  Arcs are
    placed as ``enumerate_perfect_matchings`` places them: the leftmost
    free point ``a`` is paired with each later free point ``b``.  The
    state is the word of the points right of ``a``: 0 marks a free point,
    and r the right end of the arc whose left end is the r-th leftmost of
    the arcs ending in the word, so labels are ranked again after each
    arc.  The arcs whose right ends lie between ``a`` and ``b`` are those
    that cross (a, b), and two of them cross each other exactly when their
    labels increase left to right, so (a, b) completes one k-crossing per
    increasing (k-1)-subsequence of their labels; likewise one k-nesting
    per decreasing (k-1)-subsequence of the labels right of ``b``.  Each
    k-crossing or k-nesting is counted once, at its arc with the largest
    left end.  The pass is layered, one layer per arc, each mapping a word
    to a ``Counter`` of the capped counts so far.  A word's number of free
    points fixes its layer, so each word's moves are computed once.
    """
    if vertices < 0:
        raise ValueError("vertex count must be nonnegative")
    if vertices % 2:
        raise ValueError("perfect matchings need an even vertex count")
    if k not in (2, 3):
        raise ValueError(f"k-crossings and k-nestings are counted for k = 2 or 3: {k}")
    layer = {(0,) * (vertices - 1): Counter({(0, 0): 1})}
    for _ in range(vertices // 2):
        below: dict[tuple[int, ...], Counter] = {}
        for word, tallies in layer.items():
            for after, crossings, nestings in _matching_moves(word, k):
                target = below.get(after)
                if target is None:
                    target = below[after] = Counter()
                for (c, n), number in tallies.items():
                    target[min(c + crossings, 2), min(n + nestings, 2)] += number
        layer = below
    return layer[()]


def contains_subgraph(graph: Multigraph, pattern: Multigraph) -> bool:
    """Whether an order-preserving injection maps the simple pattern's
    edges onto edges of ``graph``.  Only the edges constrain the
    injection: an isolated pattern vertex may land on any vertex."""
    if not pattern.is_simple():
        raise ValueError("subgraph patterns must be simple")
    if pattern.n > graph.n:
        return False
    have = set(graph.edge_pairs())
    wanted = pattern.edge_pairs()
    for mapping in combinations(range(1, graph.n + 1), pattern.n):
        if all((mapping[u - 1], mapping[v - 1]) in have for u, v in wanted):
            return True
    return False


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
