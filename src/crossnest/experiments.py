"""Exhaustive counting experiments and the equirestrictive sweep.

Everything here enumerates small objects outright and compares counts, so
each experiment is a self-contained check of one counting identity.  The
bijection-backed experiment additionally verifies the map itself: images
must land in the target set, be distinct, invert, and cover everything.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from typing import Callable, Iterator, Optional

from . import _kernel
from .bijection import graph_biject
from .graphs import (
    DegreeSequence,
    Multigraph,
    cross,
    cross_weak,
    degree_sequence,
    enumerate_graphs,
    enumerate_graphs_by_size,
    enumerate_perfect_matchings,
    is_feasible,
    nest,
    nest_weak,
)
from .patterns import PatternMatrix, m132, m213
from .shapes import Shape, SumProfile


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
    """Weakly decreasing positive tuples summing to ``total``."""
    if total == 0:
        yield ()
        return
    cap = total if max_part is None else min(max_part, total)
    for first in range(cap, 0, -1):
        for rest in partitions(total - first, first):
            yield (first,) + rest


def iter_shapes(max_cells: int) -> Iterator[Shape]:
    """Every Ferrers shape with at most ``max_cells`` cells, empty included."""
    for cells in range(max_cells + 1):
        for parts in partitions(cells):
            yield Shape(parts)


def compositions(total: int, slots: int) -> Iterator[tuple[int, ...]]:
    """Nonnegative integer tuples of length ``slots`` summing to ``total``."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    if slots == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, slots - 1):
            yield (head,) + rest


def iter_profiles(shape: Shape, max_total: int) -> Iterator[SumProfile]:
    """Every prescription with total at most ``max_total`` for the shape."""
    for total in range(max_total + 1):
        for row_sums in compositions(total, shape.num_rows):
            for col_sums in compositions(total, shape.num_cols):
                yield SumProfile(row_sums, col_sums)


def count_avoiders(shape: Shape, profile: SumProfile, pattern: PatternMatrix) -> int:
    """Number of fillings with the prescribed sums avoiding the pattern."""
    if len(profile.row_sums) != shape.num_rows:
        raise ValueError("profile row count does not match the shape")
    if len(profile.col_sums) != shape.num_cols:
        raise ValueError("profile column count does not match the shape")
    return _kernel.count_avoiders(
        shape.parts, profile.row_sums, profile.col_sums, pattern.rows
    )


def _count_compositions(total: int, slots: int) -> int:
    """How many tuples ``compositions(total, slots)`` yields."""
    if slots == 0:
        return int(total == 0)
    return comb(total + slots - 1, slots - 1)


def _fillings_within(
    parts: tuple[int, ...], max_total: int
) -> Iterator[tuple[int, tuple[tuple[int, ...], ...], tuple[int, ...], tuple[int, ...]]]:
    """Yield ``(support, filling, row_sums, col_sums)`` for every filling of
    the diagram with total at most ``max_total``.

    Cells are assigned in row-major order, each from 0 up to the budget the
    cells before it left, so every filling appears exactly once.  Bit ``k``
    of ``support`` is set when the k-th cell in row-major order is nonzero.
    """
    cells = [(i, j) for i, length in enumerate(parts) for j in range(length)]
    ncells = len(cells)
    grid = [[0] * length for length in parts]
    row_sums = [0] * len(parts)
    col_sums = [0] * (parts[0] if parts else 0)

    def rec(idx: int, budget: int, support: int):
        if idx == ncells:
            yield support, tuple(map(tuple, grid)), tuple(row_sums), tuple(col_sums)
            return
        i, j = cells[idx]
        row = grid[i]
        yield from rec(idx + 1, budget, support)
        support |= 1 << idx
        for value in range(1, budget + 1):
            row[j] = value
            row_sums[i] += 1
            col_sums[j] += 1
            yield from rec(idx + 1, budget - value, support)
        row[j] = 0
        row_sums[i] -= budget
        col_sums[j] -= budget

    yield from rec(0, max_total, 0)


def _avoiders_by_sums(
    parts: tuple[int, ...], fillings: list, pattern_rows: tuple[tuple[int, ...], ...]
) -> Counter:
    """Avoiders of the pattern among ``fillings``, keyed by
    ``(row_sums, col_sums)``; containment is tested once per support."""
    contained: dict[int, bool] = {}
    avoiders: Counter = Counter()
    for support, filling, row_sums, col_sums in fillings:
        hit = contained.get(support)
        if hit is None:
            hit = contained[support] = _kernel.contains(parts, filling, pattern_rows)
        if not hit:
            avoiders[row_sums, col_sums] += 1
    return avoiders


def _verify_shape_worker(args) -> tuple[int, list[str]]:
    parts, p1_rows, p2_rows, max_total = args
    ncols = parts[0] if parts else 0
    instances = sum(
        _count_compositions(total, len(parts)) * _count_compositions(total, ncols)
        for total in range(max_total + 1)
    )
    fillings = list(_fillings_within(parts, max_total))
    avoiders1 = _avoiders_by_sums(parts, fillings, p1_rows)
    avoiders2 = _avoiders_by_sums(parts, fillings, p2_rows)
    mismatches = []
    # (total, row_sums, col_sums) is the order iter_profiles visits them in.
    for row_sums, col_sums in sorted(
        avoiders1.keys() | avoiders2.keys(), key=lambda sums: (sum(sums[0]), sums)
    ):
        count1 = avoiders1[row_sums, col_sums]
        count2 = avoiders2[row_sums, col_sums]
        if count1 != count2:
            mismatches.append(
                f"shape={parts} rows={row_sums} cols={col_sums}: "
                f"{count1} != {count2}"
            )
    return instances, mismatches


def get_context(method: str):
    """``multiprocessing.get_context``, imported on first use: only a
    parallel sweep needs it, and importing the package adds to the memory
    of every process that does."""
    import multiprocessing

    return multiprocessing.get_context(method)


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

    Each shape's fillings of total at most ``max_total`` are enumerated
    once, and each pattern's avoiders among them are bucketed by their
    (row sums, column sums); a bucket's size is the avoider count of that
    prescription, and a prescription with no bucket has none.  Containment
    is tested once per support (the set of nonzero cells) and reused for
    every filling with that support.  This is exact because an occurrence
    only asks which cells are nonzero, never what they hold.  Mismatches
    are listed in the order of ``iter_profiles``.

    Shapes are split over ``min(jobs, os.cpu_count(), shapes)`` worker
    processes.  Negative bounds and ``jobs < 1`` raise ``ValueError``.
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
        with get_context("spawn").Pool(processes) as pool:
            results = pool.map(_verify_shape_worker, tasks)
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


def _order_size_counts(
    max_n: int, max_m: int, simple: bool
) -> tuple[dict, dict[str, int], list[str]]:
    """Graphs of each order n <= max_n and size m <= max_m with crossing
    order below k versus nesting order below k, for k = 2, 3."""
    ks = (2, 3)
    counts: dict[str, int] = {}
    failures: list[str] = []
    for n in range(max_n + 1):
        for m in range(max_m + 1):
            cross_hist: Counter = Counter()
            nest_hist: Counter = Counter()
            for graph in enumerate_graphs_by_size(n, m, simple=simple):
                cross_hist[cross(graph)] += 1
                nest_hist[nest(graph)] += 1
            for k in ks:
                noncrossing = sum(v for stat, v in cross_hist.items() if stat < k)
                nonnesting = sum(v for stat, v in nest_hist.items() if stat < k)
                counts[f"n={n} m={m} k={k} noncrossing"] = noncrossing
                counts[f"n={n} m={m} k={k} nonnesting"] = nonnesting
                if noncrossing != nonnesting:
                    failures.append(
                        f"n={n} m={m} k={k}: {noncrossing} != {nonnesting}"
                    )
    return {"n": max_n, "m": max_m, "ks": list(ks)}, counts, failures


def _exp_cor2_2(bounds: dict) -> tuple[dict, dict[str, int], list[str]]:
    """Counts of multigraphs by order and size with crossing order below k
    versus nesting order below k."""
    return _order_size_counts(bounds.get("n", 6), bounds.get("m", 5), simple=False)


def _exp_cor2_4(bounds: dict) -> tuple[dict, dict[str, int], list[str]]:
    """Joint symmetry: #(crossing order r, weak nesting order s) equals
    #(weak crossing order s, nesting order r), by order and size."""
    max_n = bounds.get("n", 5)
    max_m = bounds.get("m", 4)
    counts: dict[str, int] = {}
    failures: list[str] = []
    for n in range(max_n + 1):
        for m in range(max_m + 1):
            strict_weak: Counter = Counter()
            weak_strict: Counter = Counter()
            for graph in enumerate_graphs_by_size(n, m):
                strict_weak[(cross(graph), nest_weak(graph))] += 1
                weak_strict[(cross_weak(graph), nest(graph))] += 1
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
    return {"n": max_n, "m": max_m}, counts, failures


def _exp_cor2_6(bounds: dict) -> tuple[dict, dict[str, int], list[str]]:
    """Simple-graph version of the order-and-size count equality."""
    return _order_size_counts(bounds.get("n", 7), bounds.get("m", 6), simple=True)


def _exp_cor3_3(bounds: dict) -> tuple[dict, dict[str, int], list[str]]:
    """Simple graphs with every left degree fixed: crossing-order counts
    match nesting-order counts vector by vector."""
    max_n = bounds.get("n", 6)
    ks = (2, 3)
    counts: dict[str, int] = {}
    failures: list[str] = []
    for n in range(max_n + 1):
        buckets: dict[tuple[int, ...], tuple[Counter, Counter]] = {}
        max_m = n * (n - 1) // 2
        for m in range(max_m + 1):
            for graph in enumerate_graphs_by_size(n, m, simple=True):
                lefts = tuple(l for l, _ in degree_sequence(graph).pairs)
                cross_hist, nest_hist = buckets.setdefault(
                    lefts, (Counter(), Counter())
                )
                cross_hist[cross(graph)] += 1
                nest_hist[nest(graph)] += 1
        agreeing = 0
        for lefts, (cross_hist, nest_hist) in sorted(buckets.items()):
            vector_ok = True
            for k in ks:
                noncrossing = sum(v for stat, v in cross_hist.items() if stat < k)
                nonnesting = sum(v for stat, v in nest_hist.items() if stat < k)
                if noncrossing != nonnesting:
                    vector_ok = False
                    failures.append(
                        f"n={n} lefts={lefts} k={k}: {noncrossing} != {nonnesting}"
                    )
            agreeing += vector_ok
        counts[f"n={n} left-degree vectors"] = len(buckets)
        counts[f"n={n} agreeing vectors"] = agreeing
    return {"n": max_n, "ks": list(ks)}, counts, failures


def _iter_degree_sequences(n: int, max_edges: int) -> Iterator[DegreeSequence]:
    for m in range(max_edges + 1):
        for lefts in compositions(m, n):
            for rights in compositions(m, n):
                yield DegreeSequence(tuple(zip(lefts, rights)))


def _exp_thm3_5(bounds: dict) -> tuple[dict, dict[str, int], list[str]]:
    """Per degree sequence: count equality AND a verified bijection.

    For every feasible left-right degree sequence within bounds, the
    graphs with nesting order below k are mapped forward, checked to land
    in the k-noncrossing set without collisions, checked to invert, and
    the image must exhaust the target set.
    """
    max_n = bounds.get("n", 6)
    max_total = bounds.get("total_degree", 8)
    k = bounds.get("k", 2)
    counts = {"sequences": 0, "graphs": 0, "bijected": 0}
    failures: list[str] = []
    for n in range(max_n + 1):
        for degrees in _iter_degree_sequences(n, max_total // 2):
            if not is_feasible(degrees):
                continue
            counts["sequences"] += 1
            nonnesting = []
            noncrossing = set()
            for graph in enumerate_graphs(degrees):
                counts["graphs"] += 1
                if nest(graph) < k:
                    nonnesting.append(graph)
                if cross(graph) < k:
                    noncrossing.add(graph)
            if len(nonnesting) != len(noncrossing):
                failures.append(
                    f"D={degrees.pairs}: {len(nonnesting)} nonnesting != "
                    f"{len(noncrossing)} noncrossing"
                )
                continue
            image = set()
            for graph in nonnesting:
                mapped = graph_biject(graph, k, "forward")
                counts["bijected"] += 1
                if mapped not in noncrossing:
                    failures.append(
                        f"D={degrees.pairs}: image leaves the target set"
                    )
                    continue
                if mapped in image:
                    failures.append(f"D={degrees.pairs}: bijection collided")
                    continue
                image.add(mapped)
                back = graph_biject(mapped, k, "backward")
                if back != graph:
                    failures.append(f"D={degrees.pairs}: backward failed to invert")
            if image != noncrossing:
                failures.append(f"D={degrees.pairs}: image does not cover the target")
    return {"n": max_n, "total_degree": max_total, "k": k}, counts, failures


def _kh_patterns(k: int) -> tuple[Multigraph, Multigraph]:
    """The crossing-over-an-edge and nesting-over-an-edge patterns: k
    mutually crossing (resp. nested) edges around an isolated middle edge."""
    h = 2
    crossing = [(i, k + h + i) for i in range(1, k + 1)]
    nesting = [(i, 2 * k + h + 1 - i) for i in range(1, k + 1)]
    middle = [(k + 1, k + 2)]
    return (
        Multigraph.from_pairs(2 * k + h, crossing + middle),
        Multigraph.from_pairs(2 * k + h, nesting + middle),
    )


def _exp_cor3_9(bounds: dict) -> tuple[dict, dict[str, int], list[str]]:
    """Avoider counts per degree sequence agree for a crossing over an
    extra edge versus a nesting over an extra edge (k = 2)."""
    from .graphs import contains_subgraph

    max_n = bounds.get("n", 7)
    max_m = bounds.get("m", 4)
    k = bounds.get("k", 2)
    pattern_x, pattern_y = _kh_patterns(k)
    counts: dict[str, int] = {"sequences": 0, "graphs": 0}
    failures: list[str] = []
    for n in range(max_n + 1):
        per_degrees: dict[tuple, list[int]] = {}
        for m in range(max_m + 1):
            for graph in enumerate_graphs_by_size(n, m):
                counts["graphs"] += 1
                tally = per_degrees.setdefault(
                    degree_sequence(graph).pairs, [0, 0]
                )
                tally[0] += not contains_subgraph(graph, pattern_x)
                tally[1] += not contains_subgraph(graph, pattern_y)
        counts["sequences"] += len(per_degrees)
        for pairs, (avoid_x, avoid_y) in sorted(per_degrees.items()):
            if avoid_x != avoid_y:
                failures.append(f"n={n} D={pairs}: {avoid_x} != {avoid_y}")
    return {"n": max_n, "m": max_m, "k": k}, counts, failures


def _exp_counterexample_simple(bounds: dict) -> tuple[dict, dict[str, int], list[str]]:
    """The fixed degree sequence whose simple-graph counts split 1 vs 0
    while its multigraph counts agree."""
    degrees = DegreeSequence(((0, 2), (0, 2), (1, 1), (2, 0), (2, 0)))
    k = 2
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
    return {"degrees": [list(p) for p in degrees.pairs], "k": k}, counts, failures


def _count_triples(graph: Multigraph, nesting: bool) -> int:
    """Number of 3-element edge sets pairwise crossing (or nested)."""
    edges = sorted(graph.edge_pairs(), key=lambda e: (e[0], -e[1]) if nesting else e)
    total = 0
    for triple in combinations(edges, 3):
        i1, j1 = triple[0]
        i2, j2 = triple[1]
        i3, j3 = triple[2]
        if nesting:
            if i1 < i2 < i3 and j3 < j2 < j1 and i3 < j3:
                total += 1
        else:
            if i1 < i2 < i3 and j1 < j2 < j3 and i3 < j1:
                total += 1
    return total


def _exp_noy_matchings(bounds: dict) -> tuple[dict, dict[str, int], list[str]]:
    """Among perfect matchings with six edges, strictly more have exactly
    one 3-crossing than exactly one 3-nesting."""
    vertices = bounds.get("vertices", 12)
    one_crossing = 0
    one_nesting = 0
    matchings = 0
    for graph in enumerate_perfect_matchings(vertices):
        matchings += 1
        if _count_triples(graph, nesting=False) == 1:
            one_crossing += 1
        if _count_triples(graph, nesting=True) == 1:
            one_nesting += 1
    counts = {
        "matchings": matchings,
        "exactly one 3-crossing": one_crossing,
        "exactly one 3-nesting": one_nesting,
    }
    failures = []
    if not one_crossing > one_nesting:
        failures.append(f"expected {one_crossing} > {one_nesting}")
    return {"vertices": vertices}, counts, failures


def catalan_numbers(limit: int) -> list[int]:
    """First ``limit + 1`` Catalan numbers via the convolution recurrence."""
    values = [1]
    for n in range(1, limit + 1):
        values.append(sum(values[i] * values[n - 1 - i] for i in range(n)))
    return values


def _exp_catalan(bounds: dict) -> tuple[dict, dict[str, int], list[str]]:
    """Noncrossing perfect matchings on 2n points against the Catalan
    recurrence."""
    max_n = bounds.get("n", 6)
    expected = catalan_numbers(max_n)
    counts: dict[str, int] = {}
    failures: list[str] = []
    for n in range(1, max_n + 1):
        observed = sum(
            1
            for graph in enumerate_perfect_matchings(2 * n)
            if cross(graph) < 2
        )
        counts[f"2n={2 * n} noncrossing matchings"] = observed
        counts[f"catalan({n})"] = expected[n]
        if observed != expected[n]:
            failures.append(f"n={n}: {observed} != {expected[n]}")
    return {"n": max_n}, counts, failures


def _exp_m213_m132_spot(bounds: dict) -> tuple[dict, dict[str, int], list[str]]:
    """Avoider counts of the two 3x3 permutation patterns agree on every
    shape with all row and column sums equal to one."""
    max_cells = bounds.get("max_cells", 6)
    counts: dict[str, int] = {"shapes": 0}
    failures: list[str] = []
    for shape in iter_shapes(max_cells):
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
    return {"max_cells": max_cells}, counts, failures


EXPERIMENTS: dict[str, Callable[[dict], tuple[dict, dict[str, int], list[str]]]] = {
    "cor2_2": _exp_cor2_2,
    "cor2_4": _exp_cor2_4,
    "cor2_6": _exp_cor2_6,
    "cor3_3": _exp_cor3_3,
    "thm3_5": _exp_thm3_5,
    "cor3_9": _exp_cor3_9,
    "counterexample_simple": _exp_counterexample_simple,
    "noy_matchings": _exp_noy_matchings,
    "catalan": _exp_catalan,
    "m213_m132_spot": _exp_m213_m132_spot,
}


# The bound keys each experiment reads, with the least value each accepts.
BOUND_KEYS: dict[str, dict[str, int]] = {
    "cor2_2": {"n": 0, "m": 0},
    "cor2_4": {"n": 0, "m": 0},
    "cor2_6": {"n": 0, "m": 0},
    "cor3_3": {"n": 0},
    "thm3_5": {"n": 0, "total_degree": 0, "k": 1},
    "cor3_9": {"n": 0, "m": 0, "k": 1},
    "counterexample_simple": {},
    "noy_matchings": {"vertices": 0},
    "catalan": {"n": 0},
    "m213_m132_spot": {"max_cells": 0},
}


def run_experiment(
    experiment_id: str, bounds: Optional[dict] = None, jobs: int = 1
) -> ExperimentReport:
    """Run a canned experiment and report counts plus a derived verdict.

    Raises ``ValueError`` for an unknown experiment, a bound key the
    experiment does not read, a bound below its least value (negative, or
    ``k < 1``), or ``jobs < 1``.
    """
    if experiment_id not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ValueError(f"unknown experiment {experiment_id!r}; known: {known}")
    minimums = BOUND_KEYS[experiment_id]
    for key, value in (bounds or {}).items():
        if key not in minimums:
            known = ", ".join(sorted(minimums)) or "none"
            raise ValueError(
                f"experiment {experiment_id} reads no bound {key!r}; known: {known}"
            )
        if value < minimums[key]:
            raise ValueError(
                f"bound {key}={value} is below its least value {minimums[key]}"
            )
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1: {jobs}")
    started = time.perf_counter()
    parameters, counts, failures = EXPERIMENTS[experiment_id](bounds or {})
    parameters["jobs"] = jobs
    return _finish(experiment_id, parameters, counts, failures, started)
