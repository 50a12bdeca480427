"""Counting helpers, the equirestrictive sweep, and canned experiments."""

from __future__ import annotations

import random
import re
import sys
import threading
from itertools import combinations
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from crossnest import _kernel, _purekern, experiments
from crossnest.experiments import (
    EXPERIMENTS,
    ExperimentReport,
    catalan_numbers,
    compositions,
    count_avoiders,
    iter_profiles,
    iter_shapes,
    partitions,
    run_experiment,
    verify_equirestrictive,
)
from crossnest.codec import delta_encode
from crossnest.graphs import (
    DegreeSequence,
    Multigraph,
    contains_subgraph,
    degree_sequence,
    enumerate_graphs,
    is_feasible,
)
from crossnest.patterns import antiidentity, f_matrix, identity, parse_pattern
from crossnest.shapes import Shape, SumProfile, sums_of

from oracles import (
    avoiders_by_sums,
    brute_contains,
    brute_fillings,
    catalan_closed_form,
    compositions as listed_compositions,
    cor3_9_by_listing,
    fillings_within,
    graphs_by_size,
    k_nesting_pattern,
    kh_patterns,
)


class TestSweepHelpers:
    def test_partitions_of_four(self):
        assert sorted(partitions(4)) == [
            (1, 1, 1, 1),
            (2, 1, 1),
            (2, 2),
            (3, 1),
            (4,),
        ]

    def test_shape_counts(self):
        # Partition numbers 1,1,2,3,5,7,11,15,22 cumulate to 67 shapes.
        assert sum(1 for _ in iter_shapes(8)) == 67

    def test_compositions(self):
        assert list(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
        assert list(compositions(0, 0)) == [()]
        assert list(compositions(1, 0)) == []

    def test_profiles_match_shape(self):
        shape = Shape((2, 1))
        for profile in iter_profiles(shape, 2):
            assert len(profile.row_sums) == 2
            assert len(profile.col_sums) == 2


class TestCountAvoiders:
    def test_identity_avoiders_two_by_two(self):
        shape = Shape((2, 2))
        profile = SumProfile((1, 1), (1, 1))
        assert count_avoiders(shape, profile, identity(2)) == 1
        assert count_avoiders(shape, profile, antiidentity(2)) == 1

    def test_identity_one_counts_zero_fillings(self):
        # Avoiding a single 1 forces every cell empty.
        shape = Shape((2, 2))
        assert count_avoiders(shape, SumProfile((0, 0), (0, 0)), identity(1)) == 1
        assert count_avoiders(shape, SumProfile((1, 0), (0, 1)), identity(1)) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="2 row sums, shape has 1 rows"):
            count_avoiders(Shape((2,)), SumProfile((1, 1), (2,)), identity(1))
        with pytest.raises(ValueError, match="1 column sums, shape has 2 columns"):
            count_avoiders(Shape((2,)), SumProfile((2,), (2,)), identity(1))


ORACLE_PATTERNS = (
    "I1", "I2", "J2", "I3", "J3", "F3", "M213", "M132",
    # A zero last row, a zero column, a zero first row, and a zero last
    # column that only the corner condition can rule out.
    "1,0;0,0", "0,1;0,1", "0,0;1,0", "1,0",
)


class TestCountAvoidersAgainstOracles:
    def test_every_small_prescription(self):
        pats = [parse_pattern(spec) for spec in ORACLE_PATTERNS]
        for shape in iter_shapes(6):
            for profile in iter_profiles(shape, 3):
                fillings = brute_fillings(
                    shape.parts, profile.row_sums, profile.col_sums
                )
                for pat in pats:
                    expected = sum(
                        not brute_contains(shape.parts, grid, pat.rows)
                        for grid in fillings
                    )
                    assert count_avoiders(shape, profile, pat) == expected, (
                        shape.parts, profile, pat.rows
                    )

    def test_sums_with_no_filling_count_zero(self):
        # Row and column totals drawn apart, so unequal totals and
        # prescriptions that no filling of the diagram meets both occur.
        pat = parse_pattern("I2")
        empty = 0
        for shape in iter_shapes(5):
            for row_total in range(4):
                for col_total in range(4):
                    for row_sums in compositions(row_total, shape.num_rows):
                        for col_sums in compositions(col_total, shape.num_cols):
                            fillings = brute_fillings(shape.parts, row_sums, col_sums)
                            empty += not fillings
                            expected = sum(
                                not brute_contains(shape.parts, grid, pat.rows)
                                for grid in fillings
                            )
                            got = _kernel.count_avoiders(
                                shape.parts, row_sums, col_sums, pat.rows
                            )
                            assert got == expected, (shape.parts, row_sums, col_sums)
        assert empty

    @pytest.mark.parametrize(
        "parts, row_sums, col_sums, spec",
        [
            ((3, 3), (2, 1), (1, 1, 1), "I3"),
            ((2, 2, 2), (1, 1, 2), (2, 2), "J3"),
            ((2, 1, 1), (1, 2, 1), (3, 1), "1,0,0"),
            ((3, 2), (1, 3), (2, 1, 1), "0;0;1"),
        ],
    )
    def test_pattern_larger_than_shape_is_avoided(
        self, parts, row_sums, col_sums, spec
    ):
        # Taller or wider than the diagram: every filling avoids it.
        fillings = brute_fillings(parts, row_sums, col_sums)
        assert fillings
        shape, profile = Shape(parts), SumProfile(row_sums, col_sums)
        assert count_avoiders(shape, profile, parse_pattern(spec)) == len(fillings)

    @pytest.mark.parametrize(
        "parts, row_sums, col_sums, fillings",
        [
            ((5, 4, 4, 3), (4, 3, 4, 3), (2, 4, 4, 3, 1), 1127),
            ((5, 5, 4, 4), (4, 2, 3, 2), (3, 3, 2, 2, 1), 1018),
            ((6, 5, 4, 3, 2), (7, 3, 2, 1, 1), (2, 4, 2, 3, 2, 1), 988),
        ],
    )
    def test_deep_prescriptions(self, parts, row_sums, col_sums, fillings):
        # Large enough that rows below share counts across many branches.
        grids = list(_kernel.iter_fillings(parts, row_sums, col_sums))
        assert len(grids) == fillings
        shape, profile = Shape(parts), SumProfile(row_sums, col_sums)
        for spec in ORACLE_PATTERNS:
            pat = parse_pattern(spec)
            expected = sum(
                not _kernel.contains(parts, grid, pat.rows) for grid in grids
            )
            assert count_avoiders(shape, profile, pat) == expected, spec

    @pytest.mark.parametrize("spec", ["I2", "J2"])
    def test_more_rows_than_the_recursion_limit(self, spec):
        # 1,500 rows of length 2, each with one 1: the only avoider puts
        # every 1 of one column above every 1 of the other.
        pat = parse_pattern(spec)
        count = _kernel.count_avoiders((2,) * 1500, (1,) * 1500, (750, 750), pat.rows)
        assert count == 1


class TestListingsPastTheRecursionLimit:
    def test_graphs_of_one_long_edge(self):
        # One row per vertex, walked on the kernel's stack.
        n = sys.getrecursionlimit() + 10
        pairs = ((0, 1),) + ((0, 0),) * (n - 2) + ((1, 0),)
        graphs = list(enumerate_graphs(DegreeSequence(pairs)))
        assert graphs == [Multigraph(n, ((1, n, 1),))]

    def test_edgeless_degree_sequences(self):
        n = sys.getrecursionlimit() + 10
        sequences = list(experiments._degree_sequences(n, 0))
        assert sequences == [DegreeSequence(((0, 0),) * n)]


SHARED_FILL_PATTERNS = ("I2", "J2", "I3", "J3", "M213", "F3")


def record_row_fills(monkeypatch) -> list:
    """Patch the kernel's row-fill rule to record the ``(caps, amount)`` of
    each listing it starts, and return the record."""
    listed: list = []
    row_fills = _purekern._row_fills

    def recorded(caps, amount):
        listed.append((caps, amount))
        return row_fills(caps, amount)

    monkeypatch.setattr(_purekern, "_row_fills", recorded)
    return listed


def fresh_count(parts, row_sums, col_sums, pat) -> int:
    _purekern._prescription_fills.cache_clear()
    return _kernel.count_avoiders(parts, row_sums, col_sums, pat)


class TestSharedRowFills:
    """``count_avoiders`` keeps the row fills of the last prescription
    counted; no count may depend on what was counted before it."""

    def test_counts_do_not_depend_on_call_history(self):
        pats = [parse_pattern(spec).rows for spec in SHARED_FILL_PATTERNS]
        calls = [
            (shape.parts, profile.row_sums, profile.col_sums, pat)
            for shape in iter_shapes(6)
            for profile in iter_profiles(shape, 3)
            for pat in pats
        ]
        expected = {call: fresh_count(*call) for call in calls}
        random.Random(13).shuffle(calls)
        for call in calls:
            assert _kernel.count_avoiders(*call) == expected[call], call

    def test_threads_counting_one_prescription_at_once(self):
        # Each round starts every thread on the same emptied fills, so they
        # race to list the same entries; a thread must never read a list
        # another is still filling.
        prescription = ((5, 4, 4, 3), (4, 3, 4, 3), (2, 4, 4, 3, 1))
        pats = [parse_pattern(spec).rows for spec in ("I2", "J2", "I3", "J3")]
        expected = [fresh_count(*prescription, pat) for pat in pats]
        start = threading.Barrier(
            len(pats), action=_purekern._prescription_fills.cache_clear
        )
        wrong: list = []

        def count(worker):
            for round_ in range(40):
                start.wait(timeout=60)
                which = (worker + round_) % len(pats)
                got = _kernel.count_avoiders(*prescription, pats[which])
                if got != expected[which]:
                    wrong.append((round_, which, got))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=count, args=(worker,))
                for worker in range(len(pats))
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert wrong == []

    @pytest.mark.parametrize(
        "first, second",
        [
            (((2, 2), (1, 1), (1, 1)), ((2, 2), (1, 1), (2, 0))),
            (((3, 3), (2, 1), (1, 1, 1)), ((3, 3), (2, 1), (0, 1, 2))),
            (((2, 2), (1, 1), (1, 1)), ((2, 2), (2, 0), (1, 1))),
            (((3, 3), (2, 1), (1, 1, 1)), ((3, 1), (2, 1), (1, 1, 1))),
        ],
        ids=["cols", "cols-wider", "rows", "parts"],
    )
    def test_back_to_back_prescriptions_list_their_own_rows(
        self, monkeypatch, first, second
    ):
        # The two differ in one field and share some (caps, amount), so a
        # key that drops that field would hand the second the first's rows.
        pat = parse_pattern("I2").rows
        listed = record_row_fills(monkeypatch)
        alone = fresh_count(*second, pat)
        on_its_own = set(listed)
        fresh_count(*first, pat)
        assert on_its_own & set(listed[len(on_its_own):])
        del listed[:]
        assert _kernel.count_avoiders(*second, pat) == alone
        assert set(listed) == on_its_own
        assert len(listed) == len(on_its_own)

    def test_patterns_on_one_prescription_list_its_rows_once(self, monkeypatch):
        parts, row_sums, col_sums = (5, 4, 4, 3), (4, 3, 4, 3), (2, 4, 4, 3, 1)
        listed = record_row_fills(monkeypatch)
        _purekern._prescription_fills.cache_clear()
        for spec in ("I2", "J2", "I3", "J3"):
            pat = parse_pattern(spec).rows
            _kernel.count_avoiders(parts, row_sums, col_sums, pat)
        assert listed
        assert len(listed) == len(set(listed))
        del listed[:]
        _kernel.count_avoiders(parts, row_sums, col_sums, parse_pattern("I2").rows)
        assert listed == []

    def test_only_the_last_prescription_is_kept(self, monkeypatch):
        pat = parse_pattern("J2").rows
        first, second = ((2, 2), (1, 1), (1, 1)), ((2, 2), (2, 0), (1, 1))
        listed = record_row_fills(monkeypatch)
        fresh_count(*first, pat)
        on_its_own = sorted(listed)
        _kernel.count_avoiders(*second, pat)
        del listed[:]
        _kernel.count_avoiders(*first, pat)
        assert sorted(listed) == on_its_own
        info = _purekern._prescription_fills.cache_info()
        assert (info.maxsize, info.currsize) == (1, 1)


class TestCountingEnginesAgree:
    @pytest.mark.parametrize("spec", ["I2", "J2", "I3", "J3"])
    def test_buckets_equal_per_profile_counts(self, spec):
        # The sweep's bucket of each profile is its avoider count, and a
        # profile with no bucket has none.
        pat = parse_pattern(spec)
        unbucketed = 0
        for shape in iter_shapes(7):
            fillings = fillings_within(shape.parts, 4)
            buckets = avoiders_by_sums(shape.parts, fillings, pat.rows)
            for profile in iter_profiles(shape, 4):
                sums = (profile.row_sums, profile.col_sums)
                unbucketed += sums not in buckets
                assert count_avoiders(shape, profile, pat) == buckets.get(sums, 0), (
                    shape.parts, profile
                )
        assert unbucketed


class TestVerifyEquirestrictive:
    def test_small_pass(self):
        report = verify_equirestrictive(identity(2), antiidentity(2), 6, 3)
        assert report.verdict == "pass"
        assert report.counts["violations"] == 0

    def test_default_bounds_pass(self):
        report = verify_equirestrictive(identity(2), antiidentity(2), 8, 5)
        assert report.verdict == "pass"
        assert report.counts["shapes"] == 67

    def test_equal_patterns_trivially_pass(self):
        report = verify_equirestrictive(identity(1), antiidentity(1), 8, 5)
        assert report.verdict == "pass"

    def test_mismatched_orders_fail_with_counterexample(self):
        report = verify_equirestrictive(identity(2), antiidentity(3), 6, 3)
        assert report.verdict == "fail"
        assert report.failures
        # The sweep runs smallest shapes first, so the first failure is a
        # minimal counterexample; the 2x2 permutation profile suffices.
        assert "shape=(2, 2)" in report.failures[0]

    def test_parallel_matches_sequential(self):
        seq = verify_equirestrictive(identity(2), antiidentity(2), 5, 3, jobs=1)
        par = verify_equirestrictive(identity(2), antiidentity(2), 5, 3, jobs=2)
        assert seq.counts == par.counts
        assert seq.verdict == par.verdict


def reference_sweep(p1, p2, max_cells, max_total):
    """The sweep one prescription at a time, as counts and failure lines."""
    instances = 0
    failures = []
    shapes = list(iter_shapes(max_cells))
    for shape in shapes:
        for profile in iter_profiles(shape, max_total):
            instances += 1
            count1 = count_avoiders(shape, profile, p1)
            count2 = count_avoiders(shape, profile, p2)
            if count1 != count2:
                failures.append(
                    f"shape={shape.parts} rows={profile.row_sums} "
                    f"cols={profile.col_sums}: {count1} != {count2}"
                )
    counts = {"shapes": len(shapes), "instances": instances, "violations": len(failures)}
    return counts, failures


class TestSweepMatchesPerProfileReference:
    @pytest.mark.parametrize(
        "spec1, spec2",
        [("I2", "J2"), ("I3", "J3"), ("F3", "J3"), ("M213", "M132")],
    )
    def test_passing_pairs(self, spec1, spec2):
        p1, p2 = parse_pattern(spec1), parse_pattern(spec2)
        report = verify_equirestrictive(p1, p2, 6, 3)
        counts, failures = reference_sweep(p1, p2, 6, 3)
        assert report.counts == counts
        assert list(report.failures) == failures

    def test_failing_pair_lists_failures_in_reference_order(self):
        p1, p2 = identity(2), antiidentity(3)
        report = verify_equirestrictive(p1, p2, 7, 4)
        counts, failures = reference_sweep(p1, p2, 7, 4)
        assert failures
        assert report.counts == counts
        assert list(report.failures) == failures

    @pytest.mark.parametrize("spec1, spec2", [("1,0", "0,1"), ("0,1;1,0", "1,1")])
    def test_pairs_with_zero_rows_or_columns(self, spec1, spec2):
        # A zero row or column constrains only the corner of an occurrence.
        p1, p2 = parse_pattern(spec1), parse_pattern(spec2)
        report = verify_equirestrictive(p1, p2, 6, 3)
        counts, failures = reference_sweep(p1, p2, 6, 3)
        assert failures
        assert report.counts == counts
        assert list(report.failures) == failures

    def test_failing_pair_parallel_matches_sequential(self):
        seq = verify_equirestrictive(identity(2), antiidentity(3), 7, 4, jobs=1)
        par = verify_equirestrictive(identity(2), antiidentity(3), 7, 4, jobs=2)
        assert seq.verdict == par.verdict == "fail"
        assert seq.counts == par.counts
        assert seq.failures == par.failures


def bucketed_sweep(p1, p2, max_cells, max_total):
    """The sweep from the listing oracle's buckets, as counts and failure
    lines."""
    counts = {"shapes": 0, "instances": 0}
    failures = []
    for shape in iter_shapes(max_cells):
        counts["shapes"] += 1
        fillings = fillings_within(shape.parts, max_total)
        avoiders1 = avoiders_by_sums(shape.parts, fillings, p1.rows)
        avoiders2 = avoiders_by_sums(shape.parts, fillings, p2.rows)
        for profile in iter_profiles(shape, max_total):
            counts["instances"] += 1
            sums = (profile.row_sums, profile.col_sums)
            if avoiders1[sums] != avoiders2[sums]:
                failures.append(
                    f"shape={shape.parts} rows={profile.row_sums} "
                    f"cols={profile.col_sums}: {avoiders1[sums]} != {avoiders2[sums]}"
                )
    counts["violations"] = len(failures)
    return counts, failures


class TestSweepMatchesListingOracle:
    def test_order_three_patterns_where_they_occur(self):
        # I_3 and J_3 need a 3x3 shape, so 9 cells is the least bound at
        # which this pair compares anything.
        p1, p2 = identity(3), antiidentity(3)
        assert list(_kernel.disagreeing_supports((3, 3, 3), p1.rows, p2.rows, 4))
        report = verify_equirestrictive(p1, p2, 9, 4)
        assert (report.counts, list(report.failures)) == bucketed_sweep(p1, p2, 9, 4)

    def test_failing_pair(self):
        p1, p2 = identity(2), antiidentity(3)
        report = verify_equirestrictive(p1, p2, 6, 3)
        counts, failures = bucketed_sweep(p1, p2, 6, 3)
        assert failures
        assert (report.counts, list(report.failures)) == (counts, failures)


def brute_disagreeing_supports(parts, pat1, pat2, max_size):
    """Every support of at most ``max_size`` cells on which exactly one
    pattern occurs, with the sign ``disagreeing_supports`` gives it."""
    cells = [(i, j) for i, length in enumerate(parts) for j in range(length)]
    found = set()
    for size in range(min(max_size, len(cells)) + 1):
        for chosen in combinations(cells, size):
            grid = [[0] * length for length in parts]
            masks = [0] * len(parts)
            for i, j in chosen:
                grid[i][j] = 1
                masks[i] |= 1 << j
            hit1 = brute_contains(parts, grid, pat1)
            hit2 = brute_contains(parts, grid, pat2)
            if hit1 != hit2:
                found.add((tuple(masks), 1 if hit2 else -1))
    return found


class TestDisagreeingSupports:
    @pytest.mark.parametrize(
        "spec1, spec2",
        [
            ("I2", "J2"),
            ("I1", "J2"),
            ("I2", "1,1"),
            ("1,0", "0,1"),
            ("0,1;1,0", "1,1"),
            ("1;0", "J2"),
        ],
    )
    @pytest.mark.parametrize("max_size", [2, 7])
    def test_matches_brute_force_on_every_small_shape(self, spec1, spec2, max_size):
        pat1, pat2 = parse_pattern(spec1).rows, parse_pattern(spec2).rows
        yielded = 0
        for shape in iter_shapes(7):
            walked = list(
                _kernel.disagreeing_supports(shape.parts, pat1, pat2, max_size)
            )
            assert len(walked) == len(set(walked))
            expected = brute_disagreeing_supports(shape.parts, pat1, pat2, max_size)
            assert set(walked) == expected, shape.parts
            yielded += len(walked)
        assert yielded


class TestSweepWorkerPool:
    """The pool is faked, so these tests start no process."""

    def fake_spawn(self, monkeypatch, cpus):
        started = []

        class FakePool:
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return [fn(task) for task in tasks]

        monkeypatch.setattr(experiments, "process_pool", FakePool)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
        return started

    def test_capped_by_cpu_count(self, monkeypatch):
        started = self.fake_spawn(monkeypatch, cpus=3)
        report = verify_equirestrictive(identity(2), antiidentity(2), 4, 2, jobs=10**6)
        assert started == [3]
        assert report.verdict == "pass"
        assert report.counts["shapes"] == 12

    def test_capped_by_shape_count(self, monkeypatch):
        started = self.fake_spawn(monkeypatch, cpus=64)
        report = verify_equirestrictive(identity(2), antiidentity(2), 2, 2, jobs=10**6)
        assert started == [4]
        assert report.counts["shapes"] == 4

    def test_unknown_cpu_count_runs_in_process(self, monkeypatch):
        started = self.fake_spawn(monkeypatch, cpus=None)
        report = verify_equirestrictive(identity(2), antiidentity(2), 3, 2, jobs=10**6)
        assert started == []
        assert report.verdict == "pass"


class TestSweepWorkerDies:
    def test_dead_worker_raises_instead_of_hanging(self, monkeypatch, tmp_path):
        # Two real workers find a ``crossnest`` that exits on import, as a
        # worker that cannot import the package would die.  The sweep must
        # raise; a thread bounds the wait so a hang fails the test.
        fake = tmp_path / "crossnest"
        fake.mkdir()
        (fake / "__init__.py").write_text("import os\nos._exit(1)\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        outcome = []

        def sweep():
            try:
                verify_equirestrictive(identity(2), antiidentity(2), 3, 2, jobs=2)
            except BaseException as exc:
                outcome.append(exc)

        worker = threading.Thread(target=sweep, daemon=True)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive(), "the sweep hung on a dead worker"
        assert len(outcome) == 1
        assert isinstance(outcome[0], BrokenProcessPool)


class TestReports:
    def test_json_round_trip(self):
        report = run_experiment("catalan", {"n": 3})
        again = ExperimentReport.from_json(report.to_json())
        assert again.experiment_id == report.experiment_id
        assert again.counts == report.counts
        assert again.verdict == report.verdict

    def test_human_table_mentions_verdict(self):
        report = run_experiment("catalan", {"n": 3})
        assert "PASS" in report.human_table()

    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            run_experiment("nope")

    def test_verdict_derives_from_counts(self):
        report = run_experiment("catalan", {"n": 4})
        assert (report.verdict == "pass") == (report.counts["violations"] == 0)


class TestCannedExperiments:
    # Reduced bounds keep this module quick; the stated bounds run in
    # test_acceptance.
    @pytest.mark.parametrize(
        "experiment_id, bounds",
        [
            ("cor2_2", {"n": 4, "m": 3}),
            ("cor2_4", {"n": 4, "m": 3}),
            ("cor2_6", {"n": 5, "m": 4}),
            ("cor3_3", {"n": 4}),
            ("thm3_5", {"n": 4, "total_degree": 6}),
            ("cor3_9", {"n": 6, "m": 3}),
            ("counterexample_simple", {}),
            ("noy_matchings", {"vertices": 12}),
            ("catalan", {"n": 4}),
            ("m213_m132_spot", {"max_cells": 5}),
        ],
    )
    def test_reduced_bounds_pass(self, experiment_id, bounds):
        report = run_experiment(experiment_id, bounds)
        assert report.verdict == "pass", report.failures[:3]

    def test_counterexample_counts(self):
        report = run_experiment("counterexample_simple", {})
        assert report.counts["simple nonnesting"] == 1
        assert report.counts["simple noncrossing"] == 0
        assert (
            report.counts["multigraph nonnesting"]
            == report.counts["multigraph noncrossing"]
        )

    def test_noy_matchings_at_fourteen_vertices(self):
        # The counts that listing every matching and testing its arc
        # triples gives.
        report = run_experiment("noy_matchings", {"vertices": 14})
        assert report.counts == {
            "matchings": 135135,
            "exactly one 3-crossing": 27230,
            "exactly one 3-nesting": 27017,
            "violations": 0,
        }

    def test_catalan_against_closed_form(self):
        report = run_experiment("catalan", {"n": 5})
        for n in range(1, 6):
            assert report.counts[f"catalan({n})"] == catalan_closed_form(n)

    def test_catalan_recurrence_values(self):
        assert catalan_numbers(6) == [1, 1, 2, 5, 14, 42, 132]


def feasible_by_listing(n, max_edges):
    """The feasible sequences among all pairs of compositions, sorted."""
    found = []
    for edges in range(max_edges + 1):
        for lefts in listed_compositions(edges, n):
            for rights in listed_compositions(edges, n):
                degrees = DegreeSequence(tuple(zip(lefts, rights)))
                if is_feasible(degrees):
                    found.append(degrees.pairs)
    return sorted(found)


class TestDegreeSequences:
    @pytest.mark.parametrize("n", range(7))
    def test_feasible_sequences_in_pairs_order(self, n):
        for max_edges in range(5):
            built = [d.pairs for d in experiments._degree_sequences(n, max_edges)]
            assert built == feasible_by_listing(n, max_edges)


class TestCor3_9ByStaircase:
    # n <= 7, m <= 3 are the census bounds of the benchmark.
    @pytest.mark.parametrize("k, max_n", [(1, 6), (2, 7)])
    def test_equals_listing_oracle(self, k, max_n):
        for n in range(max_n + 1):
            for m in range(4):
                bounds = {"n": n, "m": m, "k": k}
                assert experiments._exp_cor3_9(bounds) == cor3_9_by_listing(bounds)

    def test_counts_per_sequence_equal_listing_oracle(self, monkeypatch):
        # cor3_9's patterns tie on every sequence, so its report shows none
        # of their counts.  With I_k, the k-nesting, in place of F_{k+1}
        # they split, and each failure line shows both counts of a sequence.
        k = 2
        monkeypatch.setattr(experiments, "f_matrix", lambda t: identity(t - 1))
        patterns = (k_nesting_pattern(k).graph, kh_patterns(k)[1])
        for n in range(7):
            bounds = {"n": n, "m": 3, "k": k}
            counts, failures = experiments._exp_cor3_9(bounds)
            assert (counts, failures) == cor3_9_by_listing(bounds, patterns)
        # The sequences on 6 vertices whose two counts split.
        assert len(failures) == 214

    @pytest.mark.parametrize("k", [1, 2])
    def test_each_core_count_equals_listing_tallies(self, k, monkeypatch):
        # The report shows totals and disagreeing sequences only, so an
        # error that moves both patterns' counts alike cannot show in it.
        # Each kernel call is checked instead: its staircase and sums are
        # those of the core's graphs under delta_encode, and its count is
        # the number of avoiders listed for every sequence with that core.
        real = _kernel.count_avoiders
        calls = []

        def spy(parts, row_sums, col_sums, pat):
            count = real(parts, row_sums, col_sums, pat)
            calls.append(((tuple(parts), tuple(row_sums), tuple(col_sums), pat), count))
            return count

        monkeypatch.setattr(_kernel, "count_avoiders", spy)
        run_experiment("cor3_9", {"n": 6, "m": 3, "k": k})

        tallies = {}
        for n in range(7):
            for m in range(4):
                for graph in graphs_by_size(n, m, simple=False):
                    pairs = degree_sequence(graph).pairs
                    tally = tallies.setdefault(pairs, [graph, 0, 0])
                    for i, pattern in enumerate(kh_patterns(k), start=1):
                        tally[i] += not contains_subgraph(graph, pattern)
        expected = {}
        for graph, avoid_x, avoid_y in tallies.values():
            ends = sorted({vertex for u, v, _ in graph.edges for vertex in (u, v)})
            label = {vertex: i for i, vertex in enumerate(ends, start=1)}
            # An edgeless core goes on one vertex: its staircase is empty too.
            core = Multigraph.from_pairs(
                max(len(ends), 1), [(label[u], label[v], d) for u, v, d in graph.edges]
            )
            filling = delta_encode(core)
            sums = sums_of(filling)
            for pattern, count in ((f_matrix(k + 1), avoid_x), (identity(k + 1), avoid_y)):
                key = (filling.shape.parts, sums.row_sums, sums.col_sums, pattern.rows)
                assert expected.setdefault(key, count) == count
        # One call per pattern and core; at k = 1 the two patterns coincide.
        assert {key for key, _ in calls} == set(expected)
        assert all(count == expected[key] for key, count in calls)
        cores = {key[:3] for key in expected}
        assert len(calls) == 2 * len(cores)
        assert (len(tallies), len(cores)) == (950, 52)

    def test_split_core_fails_once_per_sequence(self, monkeypatch):
        # One nesting avoider too many for the core with lefts (0, 1, 1)
        # and rights (1, 1, 0), whose one graph is the path 1-2-3: every
        # sequence with that core fails, each in its own line.
        core = ((0, 1), (1, 1), (1, 0))
        real = _kernel.count_avoiders

        def split(parts, row_sums, col_sums, pat):
            count = real(parts, row_sums, col_sums, pat)
            moved = (tuple(parts), row_sums, col_sums, pat) == (
                (2, 1), (1, 1), (1, 1), identity(3).rows
            )
            return count + moved

        monkeypatch.setattr(_kernel, "count_avoiders", split)
        report = run_experiment("cor3_9", {"n": 5, "m": 2, "k": 2})
        expected = []
        for n in range(3, 6):
            sequences = []
            for places in combinations(range(n), 3):
                pairs = [(0, 0)] * n
                for place, pair in zip(places, core):
                    pairs[place] = pair
                sequences.append(tuple(pairs))
            expected += [f"n={n} D={pairs}: 1 != 2" for pairs in sorted(sequences)]
        assert len(expected) == 1 + 4 + 10
        assert report.failures == tuple(expected)
        assert report.counts["violations"] == len(expected)


class TestPatternSpecIntegration:
    def test_parse_pattern_feeds_verify(self):
        report = verify_equirestrictive(
            parse_pattern("I2"), parse_pattern("F2"), 4, 2
        )
        assert report.verdict == "pass"


class TestRunExperimentRejectsBadArguments:
    @pytest.mark.parametrize(
        "experiment_id, bounds",
        [
            ("catalan", {"N": 3}),
            ("counterexample_simple", {"n": 3}),
            ("catalan", {"n": -3}),
            ("thm3_5", {"k": 0}),
        ],
    )
    def test_value_error(self, experiment_id, bounds):
        with pytest.raises(ValueError):
            run_experiment(experiment_id, bounds)

    def test_declared_keys_at_their_least_values_run(self):
        report = run_experiment("cor2_2", {"n": 0, "m": 0})
        assert report.verdict == "pass"


def least_bounds(experiment_id):
    declared = EXPERIMENTS[experiment_id].bounds
    return {key: least for key, (_, least) in declared.items()}


class TestExperimentTable:
    @pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
    def test_least_values_run_and_count_something(self, experiment_id):
        report = run_experiment(experiment_id, least_bounds(experiment_id))
        assert report.verdict == "pass", report.failures[:3]
        assert set(report.counts) - {"violations"}

    @pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
    def test_defaults_are_at_least_their_least_values(self, experiment_id):
        for key, (default, least) in EXPERIMENTS[experiment_id].bounds.items():
            assert default >= least, key

    @pytest.mark.parametrize(
        "experiment_id, key",
        [(eid, key) for eid in sorted(EXPERIMENTS) for key in EXPERIMENTS[eid].bounds],
    )
    def test_bound_below_its_least_value_is_rejected(self, experiment_id, key):
        bounds = least_bounds(experiment_id)
        bounds[key] -= 1
        with pytest.raises(ValueError, match="below its least value"):
            run_experiment(experiment_id, bounds)

    @pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
    def test_omitted_keys_report_their_defaults(self, experiment_id):
        # Every key but the last at its least value, the last omitted.
        experiment = EXPERIMENTS[experiment_id]
        given = least_bounds(experiment_id)
        omitted = list(given)[-1:]
        for key in omitted:
            del given[key]
        report = run_experiment(experiment_id, given)
        defaults = {key: experiment.bounds[key][0] for key in omitted}
        assert report.parameters == {**given, **defaults, **experiment.fixed}

    def test_fixed_constants_are_reported(self):
        assert run_experiment("cor3_3", {"n": 2}).parameters == {"n": 2, "ks": [2, 3]}
        assert run_experiment("counterexample_simple").parameters == {
            "degrees": [[0, 2], [0, 2], [1, 1], [2, 0], [2, 0]],
            "k": 2,
        }

    def test_readme_lists_every_experiment(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Experiments\n", 1)[1].split("\n## ", 1)[0]
        listed = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
        assert sorted(listed) == sorted(EXPERIMENTS)
        assert len(listed) == len(set(listed))
