"""Independent brute-force oracles and constructions used only by the tests.

Each oracle deliberately takes a different route from the library code it
checks: plain product enumeration instead of pruned search, selection
scans instead of greedy column picking, pairwise checks instead of chain
dynamic programming, and half-edge matchings instead of multiplicity
assignment.  ``cor3_9_by_listing`` takes ``cor3_9``'s counts by listing
every graph and testing it for both patterns with ``contains_subgraph``
instead of counting staircase fillings.  ``partitions`` and
``compositions`` recurse once per part or slot where the library steps
from one tuple to the next.  ``split_graph_biject`` maps a
graph through the shape-carrying codec, every two-sided vertex split into
a closing and an opening half, instead of through the staircase codec on
the graph's core.  ``stepwise`` runs ``a1`` or ``a2`` one transfer step at
a time and checks every step, and the ``last_*_occurrence`` searches pick
the last occurrence in the order where the library picks the first.  The
constructions at the end build the
split-graph patterns, split degree sequences and simple graphs that the
tests feed the library.  ``SplitGraph`` and ``split_contains`` hold the
split-graph dictionary's side rule, which the library does not need:
``cor3_9``'s patterns, ``kh_patterns``, have no isolated vertex, so their
edges fix every side.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, product

from crossnest.bijection import _transfer, a1, a2, b_cells_of, it_jt_biject
from crossnest.codec import lr_decode, lr_encode, tag_isolated
from crossnest.graphs import (
    DegreeSequence,
    Multigraph,
    contains_subgraph,
    degree_sequence,
    enumerate_graphs_by_size,
)
from crossnest.patterns import (
    Occurrence,
    PatternMatrix,
    antidiagonal_cells,
    antiidentity,
    f_matrix,
    first_f_occurrence,
    first_j_occurrence,
    max_antiidentity_order,
)
from crossnest.shapes import Filling, Shape


def partitions(total, max_part=None):
    """Partitions by first part, largest first, the rest recursively."""
    if total == 0:
        return [()]
    cap = total if max_part is None else min(max_part, total)
    result = []
    for first in range(cap, 0, -1):
        for rest in partitions(total - first, first):
            result.append((first,) + rest)
    return result


def compositions(total, slots):
    """Compositions by first slot, smallest first, the rest recursively."""
    if slots == 0:
        return [()] if total == 0 else []
    result = []
    for head in range(total + 1):
        for rest in compositions(total - head, slots - 1):
            result.append((head,) + rest)
    return result


def brute_fillings(parts, row_sums, col_sums):
    """All fillings by filtering the product of per-row compositions."""
    if len(row_sums) != len(parts):
        raise ValueError("row sum count mismatch")
    per_row = [compositions(row_sums[i], parts[i]) for i in range(len(parts))]
    ncols = parts[0] if parts else 0
    found = []
    for grid in product(*per_row):
        sums = [0] * ncols
        for row in grid:
            for j, value in enumerate(row):
                sums[j] += value
        if tuple(sums) == tuple(col_sums):
            found.append(tuple(grid))
    return found


def brute_counts_by_col_sums(parts, row_sums):
    """Count assignments with the given row sums, keyed by column sums."""
    from collections import Counter

    per_row = [compositions(row_sums[i], parts[i]) for i in range(len(parts))]
    ncols = parts[0] if parts else 0
    counter = Counter()
    for grid in product(*per_row):
        sums = [0] * ncols
        for row in grid:
            for j, value in enumerate(row):
                sums[j] += value
        counter[tuple(sums)] += 1
    return counter


def brute_contains(parts, grid, pat):
    """Containment by scanning every row and column selection."""
    s = len(pat)
    t = len(pat[0]) if s else 0
    nrows = len(parts)
    ncols = parts[0] if nrows else 0
    ones = [(i, j) for i in range(s) for j in range(t) if pat[i][j]]
    for rows in combinations(range(nrows), s):
        for cols in combinations(range(ncols), t):
            if parts[rows[-1]] < cols[-1] + 1:
                continue
            ok = True
            for i, j in ones:
                r, c = rows[i], cols[j]
                if c >= len(grid[r]) or grid[r][c] == 0:
                    ok = False
                    break
            if ok:
                return True
    return False


def fillings_within(parts, max_total):
    """Every filling of the diagram with total at most ``max_total``, as
    ``(support, filling, row_sums, col_sums)``; bit k of ``support`` is set
    when the k-th cell in row-major order is nonzero."""
    cells = [(i, j) for i, length in enumerate(parts) for j in range(length)]
    ncols = parts[0] if parts else 0

    def values(k, budget):
        if k == len(cells):
            yield ()
            return
        for value in range(budget + 1):
            for rest in values(k + 1, budget - value):
                yield (value,) + rest

    found = []
    for entries in values(0, max_total):
        grid = [[0] * length for length in parts]
        row_sums = [0] * len(parts)
        col_sums = [0] * ncols
        support = 0
        for k, ((i, j), value) in enumerate(zip(cells, entries)):
            grid[i][j] = value
            row_sums[i] += value
            col_sums[j] += value
            if value:
                support |= 1 << k
        grid = tuple(map(tuple, grid))
        found.append((support, grid, tuple(row_sums), tuple(col_sums)))
    return found


def avoiders_by_sums(parts, fillings, pat):
    """Avoiders of the pattern among ``fillings``, keyed by
    ``(row_sums, col_sums)``; containment is tested once per support."""
    from collections import Counter

    contained = {}
    avoiders = Counter()
    for support, grid, row_sums, col_sums in fillings:
        if support not in contained:
            contained[support] = brute_contains(parts, grid, pat)
        if not contained[support]:
            avoiders[row_sums, col_sums] += 1
    return avoiders


def brute_occurrences(parts, grid, pat):
    """All occurrences as (rows, cols) pairs of 1-based selections."""
    s = len(pat)
    t = len(pat[0]) if s else 0
    nrows = len(parts)
    ncols = parts[0] if nrows else 0
    ones = [(i, j) for i in range(s) for j in range(t) if pat[i][j]]
    found = []
    for rows in combinations(range(nrows), s):
        for cols in combinations(range(ncols), t):
            if parts[rows[-1]] < cols[-1] + 1:
                continue
            ok = True
            for i, j in ones:
                r, c = rows[i], cols[j]
                if c >= len(grid[r]) or grid[r][c] == 0:
                    ok = False
                    break
            if ok:
                found.append(
                    (tuple(r + 1 for r in rows), tuple(c + 1 for c in cols))
                )
    return found


def j_order(occ):
    """Key of the order that ``first_j_occurrence`` minimises: the cells
    left to right, higher cells first, ties broken leftward."""
    return tuple(antidiagonal_cells(occ))


def f_order(occ):
    """Key of the order that ``first_f_occurrence`` minimises: the cells of
    the ``f_matrix`` occurrence right to left, lower cells first, ties
    broken rightward."""
    cells = b_cells_of(tuple(antidiagonal_cells(occ)))
    return tuple((-r, -c) for (r, c) in reversed(cells))


def _last_occurrence(filling, pattern, order):
    parts, grid = filling.shape.parts, filling.rows
    occs = [
        Occurrence(rows, cols)
        for rows, cols in brute_occurrences(parts, grid, pattern.rows)
    ]
    return max(occs, key=order) if occs else None


def last_j_occurrence(filling, t):
    """The maximum order-t antidiagonal occurrence, or None."""
    return _last_occurrence(filling, antiidentity(t), j_order)


def last_f_occurrence(filling, t):
    """The maximum ``f_matrix(t)`` occurrence, or None."""
    return _last_occurrence(filling, f_matrix(t), f_order)


def transfer_step(filling, t, forward):
    """One step of ``a1`` (forward) or ``a2`` (backward) as ``(image,
    antidiagonal cells)``, or None where the search finds no occurrence."""
    occ = (first_j_occurrence if forward else first_f_occurrence)(filling, t)
    if occ is None:
        return None
    a_cells = tuple(antidiagonal_cells(occ))
    b_cells = b_cells_of(a_cells)
    if forward:
        return _transfer(filling, a_cells, b_cells), a_cells
    return _transfer(filling, b_cells, a_cells), a_cells


def stepwise(filling, t, forward):
    """``a1`` (forward) or ``a2`` (backward) of the filling, run one
    transfer step at a time with every step checked.

    The opposite step must undo each step, and after a forward step the
    rows above the moved antidiagonal's bottom-left cell must avoid the
    order-t antidiagonal.  The stepped result must be the loop's.
    """
    # The loop checks the precondition and, when it returns, has taken the
    # same steps, so the walk below ends.
    expected = (a1 if forward else a2)(filling, t)
    current = filling
    while (step := transfer_step(current, t, forward)) is not None:
        image, a_cells = step
        undone = transfer_step(image, t, not forward)
        assert undone is not None and undone[0] == current, "step not undone"
        if forward:
            above = a_cells[0][0] - 1
            rows = Filling(Shape(image.shape.parts[:above]), image.rows[:above])
            assert max_antiidentity_order(rows) < t, "antidiagonal above the step"
        current = image
    assert current == expected, "stepped result differs from the loop's"
    return current


def longest_increasing_chain(grid):
    """Longest chain of nonempty cells strictly increasing in both
    coordinates; dynamic-programming oracle for the identity order."""
    cells = [
        (i, j)
        for i, row in enumerate(grid)
        for j, value in enumerate(row)
        if value
    ]
    cells.sort()
    best = 0
    scores = []
    for idx, (i, j) in enumerate(cells):
        cur = 1
        for idx2 in range(idx):
            i2, j2 = cells[idx2]
            if i2 < i and j2 < j:
                cur = max(cur, scores[idx2] + 1)
        scores.append(cur)
        best = max(best, cur)
    return best


def _is_crossing_set(edges):
    return all(
        a[0] < b[0] < a[1] < b[1] or b[0] < a[0] < b[1] < a[1]
        for a, b in combinations(edges, 2)
    )


def _is_nesting_set(edges):
    return all(
        a[0] < b[0] < b[1] < a[1] or b[0] < a[0] < a[1] < b[1]
        for a, b in combinations(edges, 2)
    )


def pairwise_cross(graph):
    """Max crossing order by testing every subset of distinct edges."""
    edges = graph.edge_pairs()
    best = 0
    for size in range(1, len(edges) + 1):
        for subset in combinations(edges, size):
            if _is_crossing_set(subset):
                best = max(best, size)
    return best


def pairwise_nest(graph):
    edges = graph.edge_pairs()
    best = 0
    for size in range(1, len(edges) + 1):
        for subset in combinations(edges, size):
            if _is_nesting_set(subset):
                best = max(best, size)
    return best


def _weak_sortable(copies, nesting):
    ordered = sorted(copies, key=(lambda e: (e[0], -e[1])) if nesting else None)
    for a, b in zip(ordered, ordered[1:]):
        if a[0] > b[0]:
            return False
        if nesting and a[1] < b[1]:
            return False
        if not nesting and a[1] > b[1]:
            return False
    max_left = max(e[0] for e in ordered)
    min_right = min(e[1] for e in ordered)
    return max_left < min_right


def pairwise_cross_weak(graph):
    """Max weak crossing order over subsets of edge copies."""
    copies = [(u, v) for u, v, m in graph.edges for _ in range(m)]
    best = 0
    for size in range(1, len(copies) + 1):
        for subset in combinations(copies, size):
            if _weak_sortable(subset, nesting=False):
                best = max(best, size)
    return best


def pairwise_nest_weak(graph):
    copies = [(u, v) for u, v, m in graph.edges for _ in range(m)]
    best = 0
    for size in range(1, len(copies) + 1):
        for subset in combinations(copies, size):
            if _weak_sortable(subset, nesting=True):
                best = max(best, size)
    return best


def graphs_by_halfedge_matching(pairs):
    """Edge multisets of every half-edge matching of a degree sequence.

    Left slots of each vertex are matched, one at a time, to any remaining
    right slot of a smaller vertex; the resulting edge multisets are
    deduplicated into a set of canonical tuples.
    """
    n = len(pairs)
    left_slots = [v for v in range(1, n + 1) for _ in range(pairs[v - 1][0])]
    right_remaining = [right for _, right in pairs]
    found = set()

    def match(idx, edges):
        if idx == len(left_slots):
            if any(right_remaining):
                return  # unmatched right slots: not a graph on this sequence
            counted = {}
            for edge in edges:
                counted[edge] = counted.get(edge, 0) + 1
            found.add(tuple(sorted((u, v, m) for (u, v), m in counted.items())))
            return
        target = left_slots[idx]
        for source in range(1, target):
            if right_remaining[source - 1] > 0:
                right_remaining[source - 1] -= 1
                match(idx + 1, edges + [(source, target)])
                right_remaining[source - 1] += 1

    match(0, [])
    return found


def catalan_closed_form(n):
    from math import comb

    return comb(2 * n, n) // (n + 1)


def graphs_by_size(n, m, simple):
    """All multigraphs (or, when ``simple``, simple graphs) with n vertices
    and m edges."""
    all_pairs = list(combinations(range(1, n + 1), 2))
    chooser = combinations if simple else combinations_with_replacement
    for multiset in chooser(all_pairs, m):
        yield Multigraph.from_pairs(n, multiset)


def cor3_9_by_listing(bounds, patterns=None):
    """``cor3_9``'s ``(counts, failures)`` from every graph within the
    bounds, tallied per degree sequence by ``contains_subgraph``, for
    ``kh_patterns(k)`` or the two given pattern graphs."""
    pattern_x, pattern_y = patterns or kh_patterns(bounds["k"])
    counts = {"sequences": 0, "graphs": 0}
    failures = []
    for n in range(bounds["n"] + 1):
        per_degrees = {}
        for m in range(bounds["m"] + 1):
            for graph in enumerate_graphs_by_size(n, m):
                counts["graphs"] += 1
                tally = per_degrees.setdefault(degree_sequence(graph).pairs, [0, 0])
                tally[0] += not contains_subgraph(graph, pattern_x)
                tally[1] += not contains_subgraph(graph, pattern_y)
        counts["sequences"] += len(per_degrees)
        for pairs, (avoid_x, avoid_y) in sorted(per_degrees.items()):
            if avoid_x != avoid_y:
                failures.append(f"n={n} D={pairs}: {avoid_x} != {avoid_y}")
    return counts, failures


def split_two_sided(graph):
    """Split every two-sided vertex into a closing half followed by an
    opening half, and tag the isolated vertices by ``tag_isolated``.

    Returns the left-right graph and the original vertex of each of its
    vertices.
    """
    origin = []
    open_pos = {}
    close_pos = {}
    opens = {u for u, _, _ in graph.edges}
    closes = {v for _, v, _ in graph.edges}
    for vertex in range(1, graph.n + 1):
        left, right = vertex in closes, vertex in opens
        if left:
            origin.append(vertex)
            close_pos[vertex] = len(origin)
        if right:
            origin.append(vertex)
            open_pos[vertex] = len(origin)
        if not left and not right:
            origin.append(vertex)
    pairs = [(open_pos[u], close_pos[v], mult) for u, v, mult in graph.edges]
    return tag_isolated(Multigraph.from_pairs(len(origin), pairs)), origin


def split_graph_biject(graph, k, direction):
    """``graph_biject``'s image by the split route: split the two-sided
    vertices, encode the left-right graph by ``lr_encode``, run
    ``it_jt_biject``, decode, and merge the halves back.  Assumes the
    input meets ``graph_biject``'s precondition."""
    if graph.edge_count == 0:
        return graph
    lrg, origin = split_two_sided(graph)
    decoded = lr_decode(it_jt_biject(lr_encode(lrg), k, direction))
    return Multigraph.from_pairs(
        graph.n,
        [(origin[u - 1], origin[v - 1], mult) for u, v, mult in decoded.graph.edges],
    )


def split_vertex(degrees, index):
    """Replace entry (l, r) at 1-based ``index`` by (l, 0), (0, r)."""
    if not 1 <= index <= degrees.n:
        raise IndexError(f"vertex index {index} out of range")
    left, right = degrees.pairs[index - 1]
    return DegreeSequence(
        degrees.pairs[: index - 1] + ((left, 0), (0, right)) + degrees.pairs[index:]
    )


@dataclass(frozen=True)
class SplitGraph:
    """Simple graph whose opening vertices 1..openings all precede its
    closing vertices, every edge joining an opening to a later closing."""

    graph: Multigraph
    openings: int

    def __post_init__(self):
        if not 0 <= self.openings <= self.graph.n:
            raise ValueError("split index out of range")
        if not self.graph.is_simple():
            raise ValueError("split graph patterns must be simple")
        for u, v, _ in self.graph.edges:
            if not (u <= self.openings < v):
                raise ValueError(
                    f"edge ({u}, {v}) does not go from an opening to a closing"
                )


def split_contains(graph, split, isolated_openings=None):
    """Whether an order-preserving injection maps the split pattern's edges
    onto edges of ``graph`` and each pattern vertex onto a vertex able to
    play its side.

    Edge degrees decide the side of a non-isolated vertex of ``graph``; an
    isolated one plays both sides unless ``isolated_openings`` pins its
    tag.  For patterns without isolated vertices the edges imply the
    sides, so this agrees with ``contains_subgraph(graph, split.graph)``.
    """
    h = split.graph
    if h.n > graph.n:
        return False
    degrees = degree_sequence(graph).pairs

    def can_play(vertex, opening):
        left, right = degrees[vertex - 1]
        if left == 0 and right == 0:
            if isolated_openings is None:
                return True
            return (vertex in isolated_openings) == opening
        return right > 0 if opening else left > 0

    have = set(graph.edge_pairs())
    wanted = h.edge_pairs()
    for mapping in combinations(range(1, graph.n + 1), h.n):
        if not all(
            can_play(mapping[v - 1], v <= split.openings) for v in range(1, h.n + 1)
        ):
            continue
        if all((mapping[u - 1], mapping[v - 1]) in have for u, v in wanted):
            return True
    return False


def k_crossing_pattern(k):
    """The split graph of k pairwise crossing edges on 2k vertices."""
    return SplitGraph(
        Multigraph.from_pairs(2 * k, [(i, k + i) for i in range(1, k + 1)]), k
    )


def k_nesting_pattern(k):
    """The split graph of k pairwise nested edges on 2k vertices."""
    return SplitGraph(
        Multigraph.from_pairs(2 * k, [(i, 2 * k + 1 - i) for i in range(1, k + 1)]), k
    )


def kh_patterns(k):
    """``cor3_9``'s crossing-over-an-edge and nesting-over-an-edge
    patterns: k mutually crossing (resp. nested) edges around an isolated
    middle edge."""
    h = 2
    crossing = [(i, k + h + i) for i in range(1, k + 1)]
    nesting = [(i, 2 * k + h + 1 - i) for i in range(1, k + 1)]
    middle = [(k + 1, k + 2)]
    return (
        Multigraph.from_pairs(2 * k + h, crossing + middle),
        Multigraph.from_pairs(2 * k + h, nesting + middle),
    )


def split_graph_of_matrix(matrix):
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


def matrix_of_split_graph(split):
    """Inverse of :func:`split_graph_of_matrix`."""
    t = split.openings
    s = split.graph.n - t
    grid = [[0] * t for _ in range(s)]
    for u, v, _ in split.graph.edges:
        grid[s - (v - t)][u - 1] = 1
    return PatternMatrix(tuple(tuple(row) for row in grid))
