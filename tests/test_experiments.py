"""Counting helpers, the equirestrictive sweep, and canned experiments."""

from __future__ import annotations

import pytest

from crossnest import experiments
from crossnest.experiments import (
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
from crossnest.patterns import antiidentity, identity, parse_pattern
from crossnest.shapes import Shape, SumProfile

from oracles import catalan_closed_form


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
        with pytest.raises(ValueError):
            count_avoiders(Shape((2,)), SumProfile((1, 1), (2,)), identity(1))


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

    def test_failing_pair_parallel_matches_sequential(self):
        seq = verify_equirestrictive(identity(2), antiidentity(3), 7, 4, jobs=1)
        par = verify_equirestrictive(identity(2), antiidentity(3), 7, 4, jobs=2)
        assert seq.verdict == par.verdict == "fail"
        assert seq.counts == par.counts
        assert seq.failures == par.failures


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

        class FakeContext:
            Pool = FakePool

        def get_context(method):
            assert method == "spawn"
            return FakeContext

        monkeypatch.setattr(experiments, "get_context", get_context)
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

    def test_catalan_against_closed_form(self):
        report = run_experiment("catalan", {"n": 5})
        for n in range(1, 6):
            assert report.counts[f"catalan({n})"] == catalan_closed_form(n)

    def test_catalan_recurrence_values(self):
        assert catalan_numbers(6) == [1, 1, 2, 5, 14, 42, 132]


class TestPatternSpecIntegration:
    def test_parse_pattern_feeds_verify(self):
        report = verify_equirestrictive(
            parse_pattern("I2"), parse_pattern("F2"), 4, 2
        )
        assert report.verdict == "pass"


class TestRunExperimentRejectsBadArguments:
    def test_every_experiment_declares_its_bounds(self):
        assert set(experiments.BOUND_KEYS) == set(experiments.EXPERIMENTS)

    @pytest.mark.parametrize(
        "experiment_id, bounds, jobs",
        [
            ("catalan", {"N": 3}, 1),
            ("counterexample_simple", {"n": 3}, 1),
            ("catalan", {"n": -3}, 1),
            ("thm3_5", {"k": 0}, 1),
            ("catalan", {"n": 3}, 0),
            ("catalan", {"n": 3}, -5),
        ],
    )
    def test_value_error(self, experiment_id, bounds, jobs):
        with pytest.raises(ValueError):
            run_experiment(experiment_id, bounds, jobs=jobs)

    def test_declared_keys_at_their_least_values_run(self):
        report = run_experiment("cor2_2", {"n": 0, "m": 0})
        assert report.verdict == "pass"
