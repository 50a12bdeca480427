"""Exact counting experiments and the equirestrictive sweep.

Each experiment is a self-contained check of one counting identity,
declared once in ``EXPERIMENTS``: the bound keys it reads, with a default
and a least value for each, the constants it fixes, and a function from
the filled-in bounds to its counts and failures.  The graph counts of
``cor2_2``, ``cor2_6``, ``cor3_3`` and ``cor3_9`` are avoider counts of
staircase fillings under ``codec.delta_encode``, taken by the kernel's
transfer without listing a graph.  ``noy_matchings`` and ``catalan``
count perfect matchings by their k-crossings and k-nestings in one
layered pass over the open arcs, ``graphs.matching_chain_counts``, and
list no matching either.  The equirestrictive sweep lists only the
fillings on the supports where the two patterns disagree, found by the
kernel's support walk, and buckets them by prescription with a sign.
``cor2_4``, ``cor3_9`` and ``thm3_5`` run per core, a degree sequence
without its isolated vertices, walked by ``_cores``: isolated vertices
neither cross nor nest, and a core on c vertices stands for C(n, c)
sequences on n vertices.  A failing core fails once per sequence, and
its sequences are its placements among isolated vertices, so a failure
costs its own lines, not a walk of every sequence.  ``cor2_4`` and
``thm3_5`` list each core's graphs once, and ``counterexample_simple``
lists the graphs of its one sequence.  The bijection-backed experiment
additionally verifies the map itself: images must land in the target
set, be distinct, invert, and cover everything.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from copy import deepcopy
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations, combinations_with_replacement, product
from math import comb
from typing import Callable, Iterator, Optional

from . import _kernel
from .bijection import graph_biject
from .graphs import (
    DegreeSequence,
    cross,
    cross_weak,
    enumerate_graphs,
    matching_chain_counts,
    nest,
    nest_weak,
    staircase,
)

# Not called here.  They stay bound because perfbench's tracer replaces
# these names in this module's namespace, and fails where one is missing.
from .graphs import (  # noqa: F401
    degree_sequence,
    enumerate_graphs_by_size,
    enumerate_perfect_matchings,
)
from .patterns import PatternMatrix, antiidentity, f_matrix, identity, m132, m213
from .shapes import Shape, SumProfile, check_profile


@dataclass
class ExperimentReport:
    """Outcome of one experiment run.

    The verdict is derived from the counts: it is "pass" exactly when the
    ``violations`` entry is zero.
    """

    experiment_id: str
    parameters: dict
    counts: dict[str, int]
    verdict: str
    elapsed: float
    failures: tuple[str, ...] = field(default=())

    def to_json(self) -> str:
        return json.dumps(
            {
                "experimentId": self.experiment_id,
                "parameters": self.parameters,
                "counts": self.counts,
                "verdict": self.verdict,
                "elapsed": self.elapsed,
                "failures": list(self.failures),
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentReport":
        data = json.loads(text)
        return cls(
            experiment_id=data["experimentId"],
            parameters=data["parameters"],
            counts=data["counts"],
            verdict=data["verdict"],
            elapsed=data["elapsed"],
            failures=tuple(data["failures"]),
        )

    def human_table(self) -> str:
        lines = [f"experiment {self.experiment_id}: {self.verdict.upper()}"]
        lines.append(f"  parameters: {self.parameters}")
        lines.append(f"  elapsed: {self.elapsed:.2f}s")
        width = max((len(k) for k in self.counts), default=0)
        for key in self.counts:
            lines.append(f"  {key:<{width}}  {self.counts[key]}")
        for failure in self.failures:
            lines.append(f"  FAIL {failure}")
        return "\n".join(lines)


def _finish(
    experiment_id: str,
    parameters: dict,
    counts: dict[str, int],
    failures: list[str],
    started: float,
) -> ExperimentReport:
    counts["violations"] = len(failures)
    verdict = "pass" if counts["violations"] == 0 else "fail"
    return ExperimentReport(
        experiment_id=experiment_id,
        parameters=parameters,
        counts=counts,
        verdict=verdict,
        elapsed=time.perf_counter() - started,
        failures=tuple(failures),
    )


# ── sweep helpers ─────────────────────────────────────────────


def partitions(total: int, max_part: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """Weakly decreasing positive tuples summing to ``total``, in reverse
    lexicographic order."""
    if total == 0:
        yield ()
        return
    cap = total if max_part is None else min(max_part, total)
    if cap < 1:
        return
    # The first takes the largest parts it can; each next one lowers the
    # last part above 1 by one and refills the rest with parts no larger.
    parts = [cap] * (total // cap)
    left = total % cap
    while True:
        if left:
            parts.append(left)
        yield tuple(parts)
        left = 1
        while parts[-1] == 1:
            parts.pop()
            left += 1
            if not parts:
                return
        part = parts[-1] = parts[-1] - 1
        parts.extend([part] * (left // part))
        left %= part


def iter_shapes(max_cells: int) -> Iterator[Shape]:
    """Every Ferrers shape with at most ``max_cells`` cells, empty included."""
    for cells in range(max_cells + 1):
        for parts in partitions(cells):
            yield Shape(parts)


def compositions(total: int, slots: int) -> Iterator[tuple[int, ...]]:
    """Nonnegative integer tuples of length ``slots`` summing to ``total``,
    in lexicographic order."""
    if total < 0 or (not slots and total):
        return
    # The first puts everything in the last slot; each next one moves a
    # unit from the last nonzero slot to the one before it and the rest of
    # that slot to the last.
    entries = [0] * slots
    if slots:
        entries[-1] = total
    while True:
        yield tuple(entries)
        k = slots - 1
        while k > 0 and not entries[k]:
            k -= 1
        if k <= 0:
            return
        rest = entries[k] - 1
        entries[k] = 0
        entries[k - 1] += 1
        entries[-1] = rest


def iter_profiles(shape: Shape, max_total: int) -> Iterator[SumProfile]:
    """Every prescription with total at most ``max_total`` for the shape."""
    for total in range(max_total + 1):
        for row_sums in compositions(total, shape.num_rows):
            for col_sums in compositions(total, shape.num_cols):
                yield SumProfile(row_sums, col_sums)


def count_avoiders(shape: Shape, profile: SumProfile, pattern: PatternMatrix) -> int:
    """Number of fillings with the prescribed sums avoiding the pattern.

    The kernel counts by a row-by-row transfer and lists no filling; see
    ``_purekern.count_avoiders``.
    """
    check_profile(shape, profile)
    return _kernel.count_avoiders(
        shape.parts, profile.row_sums, profile.col_sums, pattern.rows
    )


def _count_compositions(total: int, slots: int) -> int:
    """How many tuples ``compositions(total, slots)`` yields."""
    if slots == 0:
        return int(total == 0)
    return comb(total + slots - 1, slots - 1)


def _verify_shape_worker(args) -> tuple[int, list[str]]:
    """``(instances, mismatch lines)`` of one shape of the sweep.

    Only the supports on which exactly one pattern occurs are listed, by
    ``_purekern.disagreeing_supports``; every other filling adds the same
    to both avoider counts.  Each listed support's fillings with positive
    entries and total at most ``max_total`` add its sign to the bucket of
    their (row sums, column sums), so a bucket is the first pattern's
    avoider count less the second's, and a profile mismatches exactly when
    its bucket is nonzero.
    """
    parts, p1_rows, p2_rows, max_total = args
    ncols = parts[0] if parts else 0
    instances = sum(
        _count_compositions(total, len(parts)) * _count_compositions(total, ncols)
        for total in range(max_total + 1)
    )
    buckets: Counter = Counter()
    for support, sign in _kernel.disagreeing_supports(
        parts, p1_rows, p2_rows, max_total
    ):
        cells = [
            (i, j) for i, mask in enumerate(support) for j in range(ncols) if mask >> j & 1
        ]
        base_rows = [mask.bit_count() for mask in support]
        base_cols = [0] * ncols
        for _, j in cells:
            base_cols[j] += 1
        # A filling on the support is the support plus a multiset of
        # extra units on its cells.
        for extra in range(max_total - len(cells) + 1):
            for units in combinations_with_replacement(cells, extra):
                row_sums, col_sums = base_rows[:], base_cols[:]
                for i, j in units:
                    row_sums[i] += 1
                    col_sums[j] += 1
                buckets[tuple(row_sums), tuple(col_sums)] += sign
    mismatches = []
    # (total, row_sums, col_sums) is the order iter_profiles visits them in.
    for row_sums, col_sums in sorted(
        (sums for sums, diff in buckets.items() if diff),
        key=lambda sums: (sum(sums[0]), sums),
    ):
        count1 = _kernel.count_avoiders(parts, row_sums, col_sums, p1_rows)
        count2 = count1 - buckets[row_sums, col_sums]
        mismatches.append(
            f"shape={parts} rows={row_sums} cols={col_sums}: {count1} != {count2}"
        )
    return instances, mismatches


def process_pool(processes: int):
    """A ``ProcessPoolExecutor`` of spawned workers.  It raises
    ``BrokenProcessPool`` when a worker dies, where ``multiprocessing.Pool``
    would start a new one and wait forever.  Its modules are imported on
    first use: only a parallel sweep needs them, and importing them adds to
    the memory of every process that does."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    spawn = multiprocessing.get_context("spawn")
    return ProcessPoolExecutor(processes, mp_context=spawn)


def verify_equirestrictive(
    p1: PatternMatrix,
    p2: PatternMatrix,
    max_cells: int = 8,
    max_total: int = 5,
    jobs: int = 1,
) -> ExperimentReport:
    """Sweep every shape and prescription within bounds and compare the
    avoider counts of the two patterns.  The sweep runs smallest shapes
    first, so the first recorded mismatch is a minimal counterexample.

    The avoider counts of a prescription differ only through its fillings
    on which exactly one pattern occurs, and an occurrence only asks which
    cells are nonzero, never what they hold.  So each shape's supports (sets
    of nonzero cells) are walked once, and only the fillings of total at
    most ``max_total`` on the supports where the patterns disagree are
    listed, each adding +1 or -1 to a bucket keyed by its (row sums, column
    sums); see ``_verify_shape_worker``.  A shape on which neither pattern
    occurs with every cell nonzero lists nothing.  Mismatches are listed in
    the order of ``iter_profiles``.

    Shapes are split over ``min(jobs, os.cpu_count(), shapes)`` worker
    processes; a worker that dies raises ``BrokenProcessPool``.  Negative
    bounds and ``jobs < 1`` raise ``ValueError``.
    """
    if max_cells < 0 or max_total < 0:
        raise ValueError(
            f"bounds must be nonnegative: max_cells={max_cells}, max_total={max_total}"
        )
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1: {jobs}")
    started = time.perf_counter()
    tasks = [
        (shape.parts, p1.rows, p2.rows, max_total) for shape in iter_shapes(max_cells)
    ]
    processes = min(jobs, os.cpu_count() or 1, len(tasks))
    if processes > 1:
        with process_pool(processes) as pool:
            results = list(pool.map(_verify_shape_worker, tasks))
    else:
        results = [_verify_shape_worker(task) for task in tasks]
    instances = sum(r[0] for r in results)
    failures = [line for r in results for line in r[1]]
    counts = {"shapes": len(tasks), "instances": instances}
    parameters = {
        "p1": [list(row) for row in p1.rows],
        "p2": [list(row) for row in p2.rows],
        "max_cells": max_cells,
        "max_total": max_total,
        "jobs": jobs,
    }
    return _finish("verify_equirestrictive", parameters, counts, failures, started)


# ── canned experiments ─────────────────────────────────────────


def _staircase_avoiders(
    n: int, k: int, max_m: int, simple: bool
) -> tuple[Counter, Counter]:
    """Graphs on [n] with at most ``max_m`` edges and crossing order below
    k, then those with nesting order below k, counted by their staircase
    row sums (the left degrees of vertices n, n-1, ..., 2).

    Under ``codec.delta_encode`` a k-crossing is a J_k occurrence and a
    k-nesting an I_k occurrence, so both are avoider counts of staircase
    fillings, with entries at most 1 for simple graphs.
    """
    parts = staircase(n)
    return (
        _kernel.count_by_row_sums(parts, antiidentity(k).rows, max_m, simple),
        _kernel.count_by_row_sums(parts, identity(k).rows, max_m, simple),
    )


# The crossing and nesting orders that cor2_2, cor2_6 and cor3_3 check.
KS = (2, 3)


def _order_size_counts(bounds: dict, simple: bool) -> tuple[dict[str, int], list[str]]:
    """Graphs of each order n and size m within the bounds with crossing
    order below k versus nesting order below k, for each k in ``KS``,
    counted through the staircase codec: multigraphs for ``cor2_2``,
    simple graphs for ``cor2_6``."""
    max_n, max_m = bounds["n"], bounds["m"]
    counts: dict[str, int] = {}
    failures: list[str] = []
    for n in range(max_n + 1):
        # For each k, the noncrossing and nonnesting graphs by size.
        by_size: dict[int, list[Counter]] = {k: [] for k in KS}
        for k in KS:
            for by_rows in _staircase_avoiders(n, k, max_m, simple):
                sizes: Counter = Counter()
                for row_sums, number in by_rows.items():
                    sizes[sum(row_sums)] += number
                by_size[k].append(sizes)
        for m in range(max_m + 1):
            for k in KS:
                noncrossing, nonnesting = (sizes[m] for sizes in by_size[k])
                counts[f"n={n} m={m} k={k} noncrossing"] = noncrossing
                counts[f"n={n} m={m} k={k} nonnesting"] = nonnesting
                if noncrossing != nonnesting:
                    failures.append(
                        f"n={n} m={m} k={k}: {noncrossing} != {nonnesting}"
                    )
    return counts, failures


def _exp_cor2_4(bounds: dict) -> tuple[dict[str, int], list[str]]:
    """Joint symmetry: #(crossing order r, weak nesting order s) equals
    #(weak crossing order s, nesting order r), by order and size.

    An isolated vertex neither crosses nor nests, so the graphs of each
    core are listed once and tabulated by the core's order c and size m;
    a table of order c counts C(n, c) times in order n.
    """
    max_n, max_m = bounds["n"], bounds["m"]
    tables: dict[tuple[int, int], tuple[Counter, Counter]] = {}
    for core in _cores(max_n, max_m):
        strict_weak, weak_strict = tables.setdefault(
            (core.n, core.total_left), (Counter(), Counter())
        )
        for graph in enumerate_graphs(core):
            strict_weak[(cross(graph), nest_weak(graph))] += 1
            weak_strict[(cross_weak(graph), nest(graph))] += 1
    counts: dict[str, int] = {}
    failures: list[str] = []
    for n in range(max_n + 1):
        for m in range(max_m + 1):
            strict_weak, weak_strict = Counter(), Counter()
            for c in range(n + 1):
                for total, table in zip(
                    (strict_weak, weak_strict), tables.get((c, m), ())
                ):
                    for key, number in table.items():
                        total[key] += comb(n, c) * number
            keys = {(r, s) for r, s in strict_weak} | {
                (r, s) for s, r in weak_strict
            }
            for r, s in sorted(keys):
                lhs = strict_weak.get((r, s), 0)
                rhs = weak_strict.get((s, r), 0)
                counts[f"n={n} m={m} cross={r} nest*={s}"] = lhs
                counts[f"n={n} m={m} cross*={s} nest={r}"] = rhs
                if lhs != rhs:
                    failures.append(f"n={n} m={m} (r={r}, s={s}): {lhs} != {rhs}")
    return counts, failures


def _exp_cor3_3(bounds: dict) -> tuple[dict[str, int], list[str]]:
    """Simple graphs with every left degree fixed: crossing-order counts
    match nesting-order counts vector by vector.

    Every vector with 0 <= l_v < v is the left-degree vector of some
    simple graph, so there are n! of them.  Each is read from one
    staircase count per pattern, whose row sums are the left degrees of
    vertices n, n-1, ..., 2.
    """
    counts: dict[str, int] = {}
    failures: list[str] = []
    for n in range(bounds["n"] + 1):
        tables = {
            k: _staircase_avoiders(n, k, n * (n - 1) // 2, simple=True) for k in KS
        }
        vectors = agreeing = 0
        for lefts in product(*(range(v) for v in range(1, n + 1))):
            row_sums = lefts[:0:-1]
            vector_ok = True
            for k in KS:
                noncrossing, nonnesting = (table[row_sums] for table in tables[k])
                if noncrossing != nonnesting:
                    vector_ok = False
                    failures.append(
                        f"n={n} lefts={lefts} k={k}: {noncrossing} != {nonnesting}"
                    )
            vectors += 1
            agreeing += vector_ok
        counts[f"n={n} left-degree vectors"] = vectors
        counts[f"n={n} agreeing vectors"] = agreeing
    return counts, failures


def _cores(max_n: int, max_m: int) -> Iterator[DegreeSequence]:
    """The cores of the feasible degree sequences on at most ``max_n``
    vertices with at most ``max_m`` edges: the feasible sequences with no
    (0, 0) pair, by their number c of vertices and then in lexicographic
    order of ``pairs``.  A core on c vertices stands for the C(n, c)
    sequences on n vertices that place it among isolated ones.

    The cores are walked vertex by vertex under ``is_feasible``'s prefix
    condition: no prefix of left degrees exceeds the right degrees before
    it, and the last vertex closes the shortfall of left degrees.  A core
    has no vertex or at least two, and every vertex is an edge end, so
    c <= 2 * max_m.  A pair is taken only if the vertices after it can
    still leave the last one a shortfall to close, so no branch of the
    walk ends without a core.
    """

    def rows(v: int, state: tuple[int, int]):
        """``(degrees of vertex v + 1, left shortfall and edges left)`` on
        a core of c vertices."""
        short, budget = state
        if v == c - 1:
            yield (short, 0), state
            return
        # The last vertex needs a shortfall to close.  Each vertex between
        # it and this one takes a right degree, which spends budget and
        # raises the shortfall, or else only a left degree, which lowers it.
        between = c - 2 - v
        for left in range(short + 1):
            for right in range(budget + 1):
                after, rest = short - left + right, budget - right
                if (left or right) and after + 2 * min(rest, between) > between:
                    yield (left, right), (after, rest)

    for c in (0, *range(2, min(max_n, 2 * max_m) + 1)):
        for pairs, _ in _kernel.walk_rows(c, rows, (0, max_m)):
            yield DegreeSequence(pairs)


def _weight(max_n: int, c: int) -> int:
    """How many sequences on at most ``max_n`` vertices a core on c
    vertices stands for: the sum of C(n, c) over n, C(max_n + 1, c + 1)."""
    return comb(max_n + 1, c + 1)


def _sequences_of(by_core: dict, max_n: int) -> Iterator[tuple]:
    """``(n, pairs, by_core[core])`` for each sequence on at most ``max_n``
    vertices whose core is a key of ``by_core``, in order of n and then of
    ``pairs``.  The sequences of a core on c vertices are its placements
    at c of the n vertices, the others isolated."""
    for n in range(max_n + 1):
        placed = []
        for core, value in by_core.items():
            for spots in combinations(range(n), len(core)):
                pairs = [(0, 0)] * n
                for spot, pair in zip(spots, core):
                    pairs[spot] = pair
                placed.append((tuple(pairs), value))
        placed.sort(key=lambda item: item[0])
        for pairs, value in placed:
            yield n, pairs, value


def _biject_core(core: DegreeSequence, k: int) -> tuple[int, int, list[str]]:
    """``(graphs, graphs mapped forward, failures)`` of ``thm3_5`` on the
    graphs of one core."""
    graphs = 0
    nonnesting = []
    noncrossing = set()
    for graph in enumerate_graphs(core):
        graphs += 1
        if nest(graph) < k:
            nonnesting.append(graph)
        if cross(graph) < k:
            noncrossing.add(graph)
    if len(nonnesting) != len(noncrossing):
        return graphs, 0, [
            f"{len(nonnesting)} nonnesting != {len(noncrossing)} noncrossing"
        ]
    failures = []
    image = set()
    for graph in nonnesting:
        mapped = graph_biject(graph, k, "forward")
        if mapped not in noncrossing:
            failures.append("image leaves the target set")
            continue
        if mapped in image:
            failures.append("bijection collided")
            continue
        image.add(mapped)
        back = graph_biject(mapped, k, "backward")
        if back != graph:
            failures.append("backward failed to invert")
    if image != noncrossing:
        failures.append("image does not cover the target")
    return graphs, len(nonnesting), failures


def _exp_thm3_5(bounds: dict) -> tuple[dict[str, int], list[str]]:
    """Per degree sequence: count equality AND a verified bijection.

    For every feasible left-right degree sequence within bounds, the
    graphs with nesting order below k are mapped forward, checked to land
    in the k-noncrossing set without collisions, checked to invert, and
    the image must exhaust the target set.  Isolated vertices carry no
    edge and ``graph_biject`` maps a graph on its core, so each core's
    graphs are checked once and count for every sequence with that core;
    a failing core fails once per such sequence.  Raises ``ValueError``
    for an odd ``total_degree``: every edge adds 2 to it, so an odd bound
    would count as the even one below it.
    """
    if bounds["total_degree"] % 2:
        raise ValueError(
            f"total_degree={bounds['total_degree']} is odd; every edge adds 2 to it"
        )
    max_n, max_m, k = bounds["n"], bounds["total_degree"] // 2, bounds["k"]
    counts = {"sequences": 0, "graphs": 0, "bijected": 0}
    failing: dict[tuple[tuple[int, int], ...], list[str]] = {}
    for core in _cores(max_n, max_m):
        graphs, bijected, failures = _biject_core(core, k)
        weight = _weight(max_n, core.n)
        counts["sequences"] += weight
        counts["graphs"] += weight * graphs
        counts["bijected"] += weight * bijected
        if failures:
            failing[core.pairs] = failures
    return counts, [
        f"D={pairs}: {failure}"
        for _, pairs, failures in _sequences_of(failing, max_n)
        for failure in failures
    ]


def _exp_cor3_9(bounds: dict) -> tuple[dict[str, int], list[str]]:
    """Avoider counts per degree sequence agree for a crossing over an
    extra edge versus a nesting over an extra edge.

    Both patterns put every opener before every closer, so under
    ``codec.delta_encode`` they are ``f_matrix(k + 1)`` and
    ``identity(k + 1)`` on the staircase.  Isolated vertices are zero rows
    and columns, so each core is counted once and stands for every
    sequence with that core; a core whose counts split fails once per such
    sequence.  The graphs with m edges are the multisets of m vertex pairs.
    """
    max_n, max_m, k = bounds["n"], bounds["m"], bounds["k"]
    crossing, nesting = f_matrix(k + 1).rows, identity(k + 1).rows
    counts: dict[str, int] = {
        "sequences": 0,
        "graphs": sum(
            _count_compositions(m, comb(n, 2))
            for n in range(max_n + 1)
            for m in range(max_m + 1)
        ),
    }
    split: dict[tuple[tuple[int, int], ...], tuple[int, int]] = {}
    for core in _cores(max_n, max_m):
        counts["sequences"] += _weight(max_n, core.n)
        # Row sums are the left degrees of the core's vertices c..2,
        # column sums the right degrees of its vertices 1..c-1.
        parts = staircase(core.n)
        rows = tuple(left for left, _ in reversed(core.pairs[1:]))
        cols = tuple(right for _, right in core.pairs[:-1])
        avoid_x = _kernel.count_avoiders(parts, rows, cols, crossing)
        avoid_y = _kernel.count_avoiders(parts, rows, cols, nesting)
        if avoid_x != avoid_y:
            split[core.pairs] = (avoid_x, avoid_y)
    return counts, [
        f"n={n} D={pairs}: {avoid_x} != {avoid_y}"
        for n, pairs, (avoid_x, avoid_y) in _sequences_of(split, max_n)
    ]


# counterexample_simple's fixed degree sequence and order, as reported.
COUNTEREXAMPLE = {"degrees": [[0, 2], [0, 2], [1, 1], [2, 0], [2, 0]], "k": 2}


def _exp_counterexample_simple(bounds: dict) -> tuple[dict[str, int], list[str]]:
    """The fixed degree sequence whose simple-graph counts split 1 vs 0
    while its multigraph counts agree."""
    degrees = DegreeSequence(tuple(map(tuple, COUNTEREXAMPLE["degrees"])))
    k = COUNTEREXAMPLE["k"]
    failures: list[str] = []
    simple_nonnesting = simple_noncrossing = 0
    multi_nonnesting = multi_noncrossing = 0
    for graph in enumerate_graphs(degrees):
        if nest(graph) < k:
            multi_nonnesting += 1
            if graph.is_simple():
                simple_nonnesting += 1
        if cross(graph) < k:
            multi_noncrossing += 1
            if graph.is_simple():
                simple_noncrossing += 1
    counts = {
        "simple nonnesting": simple_nonnesting,
        "simple noncrossing": simple_noncrossing,
        "multigraph nonnesting": multi_nonnesting,
        "multigraph noncrossing": multi_noncrossing,
    }
    if (simple_nonnesting, simple_noncrossing) != (1, 0):
        failures.append(
            f"simple counts ({simple_nonnesting}, {simple_noncrossing}) != (1, 0)"
        )
    if multi_nonnesting != multi_noncrossing:
        failures.append(
            f"multigraph counts differ: {multi_nonnesting} != {multi_noncrossing}"
        )
    return counts, failures


def _exp_noy_matchings(bounds: dict) -> tuple[dict[str, int], list[str]]:
    """Among perfect matchings with six edges, strictly more have exactly
    one 3-crossing than exactly one 3-nesting.  Below 12 vertices the two
    counts tie, so 12 is the least vertex count the claim holds at."""
    tallies = matching_chain_counts(bounds["vertices"], 3)
    one_crossing = sum(
        number for (crossings, _), number in tallies.items() if crossings == 1
    )
    one_nesting = sum(
        number for (_, nestings), number in tallies.items() if nestings == 1
    )
    counts = {
        "matchings": sum(tallies.values()),
        "exactly one 3-crossing": one_crossing,
        "exactly one 3-nesting": one_nesting,
    }
    failures = []
    if not one_crossing > one_nesting:
        failures.append(f"expected {one_crossing} > {one_nesting}")
    return counts, failures


def catalan_numbers(limit: int) -> list[int]:
    """First ``limit + 1`` Catalan numbers via the convolution recurrence."""
    values = [1]
    for n in range(1, limit + 1):
        values.append(sum(values[i] * values[n - 1 - i] for i in range(n)))
    return values


def _exp_catalan(bounds: dict) -> tuple[dict[str, int], list[str]]:
    """Noncrossing perfect matchings on 2n points against the Catalan
    recurrence, for n from 1 up to the bound."""
    max_n = bounds["n"]
    expected = catalan_numbers(max_n)
    counts: dict[str, int] = {}
    failures: list[str] = []
    for n in range(1, max_n + 1):
        observed = sum(
            number
            for (crossings, _), number in matching_chain_counts(2 * n, 2).items()
            if crossings == 0
        )
        counts[f"2n={2 * n} noncrossing matchings"] = observed
        counts[f"catalan({n})"] = expected[n]
        if observed != expected[n]:
            failures.append(f"n={n}: {observed} != {expected[n]}")
    return counts, failures


def _exp_m213_m132_spot(bounds: dict) -> tuple[dict[str, int], list[str]]:
    """Avoider counts of the two 3x3 permutation patterns agree on every
    shape with all row and column sums equal to one."""
    counts: dict[str, int] = {"shapes": 0}
    failures: list[str] = []
    for shape in iter_shapes(bounds["max_cells"]):
        if shape.num_rows != shape.num_cols:
            continue
        profile = SumProfile((1,) * shape.num_rows, (1,) * shape.num_cols)
        counts["shapes"] += 1
        lhs = count_avoiders(shape, profile, m213())
        rhs = count_avoiders(shape, profile, m132())
        counts[f"shape={shape.parts} m213-avoiders"] = lhs
        counts[f"shape={shape.parts} m132-avoiders"] = rhs
        if lhs != rhs:
            failures.append(f"shape={shape.parts}: {lhs} != {rhs}")
    return counts, failures


@dataclass(frozen=True)
class Experiment:
    """A canned experiment.  ``bounds`` maps each bound key it reads to
    ``(default, least value)``; ``run`` takes every key filled in and
    returns ``(counts, failures)``; ``fixed`` holds the constants it does
    not let a caller change, which a report lists with the bounds."""

    bounds: dict[str, tuple[int, int]]
    run: Callable[[dict], tuple[dict[str, int], list[str]]]
    fixed: dict = field(default_factory=dict)


EXPERIMENTS: dict[str, Experiment] = {
    "cor2_2": Experiment(
        {"n": (6, 0), "m": (5, 0)},
        partial(_order_size_counts, simple=False),
        {"ks": list(KS)},
    ),
    "cor2_4": Experiment({"n": (5, 0), "m": (4, 0)}, _exp_cor2_4),
    "cor2_6": Experiment(
        {"n": (7, 0), "m": (6, 0)},
        partial(_order_size_counts, simple=True),
        {"ks": list(KS)},
    ),
    "cor3_3": Experiment({"n": (6, 0)}, _exp_cor3_3, {"ks": list(KS)}),
    "thm3_5": Experiment(
        {"n": (6, 0), "total_degree": (8, 0), "k": (2, 1)}, _exp_thm3_5
    ),
    "cor3_9": Experiment({"n": (7, 0), "m": (4, 0), "k": (2, 1)}, _exp_cor3_9),
    "counterexample_simple": Experiment({}, _exp_counterexample_simple, COUNTEREXAMPLE),
    "noy_matchings": Experiment({"vertices": (12, 12)}, _exp_noy_matchings),
    "catalan": Experiment({"n": (6, 1)}, _exp_catalan),
    "m213_m132_spot": Experiment({"max_cells": (6, 0)}, _exp_m213_m132_spot),
}


def fill_bounds(experiment_id: str, bounds: Optional[dict] = None) -> dict:
    """The experiment's bounds with keys missing from ``bounds`` set to the
    defaults ``EXPERIMENTS`` declares.  Raises ``ValueError`` for an
    unknown experiment, a bound key the experiment does not read, or a
    bound below its declared least value."""
    if experiment_id not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ValueError(f"unknown experiment {experiment_id!r}; known: {known}")
    declared = EXPERIMENTS[experiment_id].bounds
    given = bounds or {}
    for key, value in given.items():
        if key not in declared:
            known = ", ".join(sorted(declared)) or "none"
            raise ValueError(
                f"experiment {experiment_id} reads no bound {key!r}; known: {known}"
            )
        least = declared[key][1]
        if value < least:
            raise ValueError(f"bound {key}={value} is below its least value {least}")
    return {key: given.get(key, default) for key, (default, _) in declared.items()}


def run_experiment(
    experiment_id: str, bounds: Optional[dict] = None
) -> ExperimentReport:
    """Run a canned experiment and report counts plus a derived verdict.

    The bounds are filled in and checked by :func:`fill_bounds`.  The
    report's ``parameters`` are the filled-in bounds and the experiment's
    fixed constants.
    """
    filled = fill_bounds(experiment_id, bounds)
    experiment = EXPERIMENTS[experiment_id]
    started = time.perf_counter()
    counts, failures = experiment.run(filled)
    parameters = {**filled, **deepcopy(experiment.fixed)}
    return _finish(experiment_id, parameters, counts, failures, started)
