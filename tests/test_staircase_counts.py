"""The graph counts of cor2_2, cor2_6 and cor3_3 taken through the staircase
codec, against listing every graph and every filling."""

from __future__ import annotations

from collections import Counter
from itertools import product

import pytest

from crossnest import _kernel, experiments
from crossnest.codec import staircase
from crossnest.experiments import run_experiment
from crossnest.graphs import cross, degree_sequence, nest
from crossnest.patterns import antiidentity, identity, parse_pattern

from oracles import brute_contains, compositions, graphs_by_size

KS = (2, 3)


def enumerated_order_size_counts(max_n, max_m, simple):
    """cor2_2/cor2_6 counts, in report order, by listing every graph."""
    counts = {}
    for n in range(max_n + 1):
        for m in range(max_m + 1):
            graphs = list(graphs_by_size(n, m, simple))
            for k in KS:
                counts[f"n={n} m={m} k={k} noncrossing"] = sum(
                    cross(g) < k for g in graphs
                )
                counts[f"n={n} m={m} k={k} nonnesting"] = sum(
                    nest(g) < k for g in graphs
                )
    return counts


def enumerated_cor3_3_counts(max_n):
    """cor3_3 counts, in report order, by listing every simple graph and
    bucketing it by its left-degree vector."""
    counts = {}
    for n in range(max_n + 1):
        buckets = {}
        for m in range(n * (n - 1) // 2 + 1):
            for graph in graphs_by_size(n, m, simple=True):
                lefts = tuple(left for left, _ in degree_sequence(graph).pairs)
                buckets.setdefault(lefts, []).append(graph)
        agreeing = sum(
            all(
                sum(cross(g) < k for g in graphs) == sum(nest(g) < k for g in graphs)
                for k in KS
            )
            for graphs in buckets.values()
        )
        counts[f"n={n} left-degree vectors"] = len(buckets)
        counts[f"n={n} agreeing vectors"] = agreeing
    return counts


def brute_by_row_sums(parts, pat, max_total, simple):
    """Avoiders with total at most ``max_total`` keyed by row sums, by
    listing every filling whose entries are at most 1 or at most the
    total."""
    top = 1 if simple else max_total
    cells = sum(parts)
    found = Counter()
    for values in product(range(top + 1), repeat=cells):
        if sum(values) > max_total:
            continue
        grid, at = [], 0
        for length in parts:
            grid.append(values[at : at + length])
            at += length
        if not brute_contains(parts, grid, pat):
            found[tuple(sum(row) for row in grid)] += 1
    return found


class TestExperimentsAgainstEnumeration:
    @pytest.mark.parametrize(
        "eid, max_n, max_m, simple",
        [("cor2_2", 5, 4, False), ("cor2_6", 6, 6, True), ("cor2_6", 3, 5, True)],
    )
    def test_order_size_counts(self, eid, max_n, max_m, simple):
        report = run_experiment(eid, {"n": max_n, "m": max_m})
        expected = enumerated_order_size_counts(max_n, max_m, simple)
        expected["violations"] = 0
        assert list(report.counts.items()) == list(expected.items())
        assert report.verdict == "pass"

    @pytest.mark.parametrize("max_n", [0, 1, 5])
    def test_cor3_3_counts(self, max_n):
        report = run_experiment("cor3_3", {"n": max_n})
        expected = enumerated_cor3_3_counts(max_n)
        expected["violations"] = 0
        assert list(report.counts.items()) == list(expected.items())
        assert report.verdict == "pass"

    @pytest.mark.parametrize("eid", ["cor2_2", "cor2_6"])
    def test_orders_zero_and_one(self, eid):
        report = run_experiment(eid, {"n": 1, "m": 2})
        assert report.counts == {
            f"n={n} m={m} k={k} {side}": int(m == 0)
            for n in (0, 1)
            for m in range(3)
            for k in KS
            for side in ("noncrossing", "nonnesting")
        } | {"violations": 0}

    @pytest.mark.parametrize("max_n, max_m, simple", [(5, 10, True), (4, 3, False)])
    def test_tables_are_keyed_by_left_degrees(self, max_n, max_m, simple):
        # Row i of the staircase is vertex n - i, so the row sums are the
        # left degrees of vertices n, n-1, ..., 2.
        for n in range(max_n + 1):
            graphs = [
                g
                for m in range(max_m + 1)
                for g in graphs_by_size(n, m, simple)
            ]
            for k in KS:
                expected = [Counter(), Counter()]
                for g in graphs:
                    row_sums = tuple(
                        left for left, _ in reversed(degree_sequence(g).pairs[1:])
                    )
                    expected[0][row_sums] += cross(g) < k
                    expected[1][row_sums] += nest(g) < k
                tables = experiments._staircase_avoiders(n, k, max_m, simple)
                assert list(tables) == [+table for table in expected]

    def test_cor3_3_reaches_past_enumeration(self):
        # 2^21 simple graphs on 7 vertices; the staircase count reads all
        # 7! left-degree vectors without listing one of them.
        report = run_experiment("cor3_3", {"n": 7})
        assert report.verdict == "pass"
        assert report.counts["n=7 left-degree vectors"] == 5040
        assert report.counts["n=7 agreeing vectors"] == 5040


PATTERNS = {
    "I2": identity(2),
    "J2": antiidentity(2),
    "I3": identity(3),
    "J3": antiidentity(3),
    # One row: only the corner condition keeps a cell from closing it.
    "1,0": parse_pattern("1,0"),
}


class TestCountByRowSums:
    @pytest.mark.parametrize("name", sorted(PATTERNS))
    @pytest.mark.parametrize("n", range(6))
    @pytest.mark.parametrize(
        "max_total, simple", [(3, False), (0, False), (10, True), (3, True)]
    )
    def test_staircase_against_listed_fillings(self, name, n, max_total, simple):
        if not simple and n == 5:
            # 10 cells: listing 4^10 candidate fillings would be slow.
            max_total = min(max_total, 2)
        parts = staircase(n)
        pat = PATTERNS[name].rows
        # n = 0 and n = 1 give the empty staircase and its one empty filling.
        assert _kernel.count_by_row_sums(
            parts, pat, max_total, simple
        ) == brute_by_row_sums(parts, pat, max_total, simple)

    @pytest.mark.parametrize(
        "parts", [(1,), (2,), (3, 1), (2, 2), (3, 2), (2, 1, 1), (3, 3), (4, 2)]
    )
    @pytest.mark.parametrize(
        "pattern", ["I2", "J2", "I3", "J3", "1,0", "0,1;1,1", "1,0;0,0"]
    )
    def test_column_sums_summed_out_of_count_avoiders(self, parts, pattern):
        # Both transfers share one occurrence update; summed over every
        # column-sum vector, the fixed-sums count must give the keyed one.
        pat = (PATTERNS.get(pattern) or parse_pattern(pattern)).rows
        max_total = 3
        keyed = _kernel.count_by_row_sums(parts, pat, max_total)
        summed = Counter()
        for total in range(max_total + 1):
            for row_sums in compositions(total, len(parts)):
                number = sum(
                    _kernel.count_avoiders(parts, row_sums, col_sums, pat)
                    for col_sums in compositions(total, parts[0])
                )
                if number:
                    summed[row_sums] = number
        assert keyed == summed
