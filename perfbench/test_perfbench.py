"""Tests of the benchmark itself, at toy size.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import crossnest  # noqa: E402
from crossnest import _kernel, _purekern, bijection, codec, experiments, graphs, patterns  # noqa: E402

import gen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = sorted(workloads.WORKLOADS)


def tiny(name: str, trace: int = 0) -> tuple[dict, dict]:
    args = run.parse_args(
        ["--workload", name, "--size", "tiny", "--seconds", "0.01", "--trace", str(trace)]
    )
    return run.measure(args)


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_runs_and_passes_its_checks(name):
    result, report = tiny(name)
    assert result["correct"], report["failures"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [metric for metric, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_reports_every_layer_metric_within_wall(name):
    result, report = tiny(name, trace=1)
    assert result["correct"], report["failures"]
    assert list(result["metrics"]) == [metric for metric, _ in layers.PER_LAYER]
    trace = report["trace"]
    self_times = trace["self_s"].values()
    assert min(self_times) >= 0
    assert sum(self_times) <= trace["traced_wall_s"]
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_tracer_puts_back_every_name_it_patched():
    owners = [_kernel, _purekern, bijection, codec, experiments, graphs, patterns]
    owners.append(codec.LeftRightGraph)
    before = [dict(vars(owner)) for owner in owners]
    with Tracer() as tracer:
        layers.install(tracer)
        patched = list(tracer._patched)
        assert all(vars(owner)[attr] is not original for owner, attr, original in patched)
    assert patched
    assert [dict(vars(owner)) for owner in owners] == before


def test_tracer_closes_spans_and_restores_after_an_error():
    original = graphs.cross
    with Tracer() as tracer:
        layers.install(tracer)
        with pytest.raises(AttributeError):
            graphs.cross(None)
        assert tracer._stack == []
        assert tracer.calls["graphs.cross"] == 1
    assert graphs.cross is original


def test_generator_span_is_busy_only_while_resumed():
    now = [0.0]
    tracer = Tracer()
    tracer._clock = lambda: now[0]

    def produce():
        for item in range(3):
            now[0] += 1.0  # the generator's own work
            yield item

    def consume(items):
        out = []
        for item in items:
            now[0] += 10.0  # the consumer's work between resumptions
            out.append(item)
        return out

    traced_consume = tracer.wrap_call("consume", consume)
    assert traced_consume(tracer.wrap_generator("produce", produce)()) == [0, 1, 2]
    assert tracer.self_s == {"produce": 3.0, "consume": 30.0}
    assert tracer.counters["produce.yielded"] == 3
    parent_of = {name: parent for name, _, _, parent in tracer.spans}
    assert parent_of == {"produce": 0, "consume": -1}


@pytest.mark.parametrize("name", ["deep-count", "biject"])
def test_checks_catch_a_wrong_output(name):
    spec = workloads.WORKLOADS[name]
    prep = spec.setup(1, spec.sizes["tiny"])
    outputs = [unit.call() for unit in prep.units]
    assert prep.check(outputs) == {}
    if name == "deep-count":
        outputs[1] = [outputs[1][0] + 1, *outputs[1][1:]]
    else:
        outputs[0], outputs[1] = outputs[1], outputs[0]
    assert prep.check(outputs)


def test_sweep_covers_the_pinned_instance_count():
    assert workloads.sweep_size(8, 5) == (67, 121655)


def test_count_fillings_matches_the_library():
    rng = random.Random(7)
    for _ in range(40):
        parts = gen.random_shape(rng, rng.randint(1, 9), (1, 4), 4)
        grid = gen.random_grid(rng, parts, rng.randint(0, 6))
        profile = crossnest.sums_of(crossnest.filling_from_rows(grid))
        expected = sum(1 for _ in crossnest.enumerate_fillings(crossnest.Shape(parts), profile))
        assert gen.count_fillings(parts, profile.row_sums, profile.col_sums) == expected


@pytest.mark.parametrize("name", ["deep-count", "biject"])
def test_inputs_follow_the_seed(name):
    spec = workloads.WORKLOADS[name]
    first = spec.setup(3, spec.sizes["tiny"]).work
    assert spec.setup(3, spec.sizes["tiny"]).work == first
    assert spec.setup(4, spec.sizes["tiny"]).work != first


def test_tail_latency():
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    values = [float(v) for v in range(100)]
    assert run.tail_latency(values) == (89.0, 90.0, 10)


def test_benchmark_json_names_what_the_runs_report():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)


def test_cli_prints_one_result_line():
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "census",
         "--size", "tiny", "--seconds", "0.01", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True


def test_cli_without_the_library_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def _report(backend: str, wall: float, probe_s: float = 0.002, correct: bool = True) -> dict:
    return {
        "stamp": {"backend": backend, "python": "3.11.7", "workload": "sweep",
                  "trace": 0, "seed": 1, "size": "full"},
        "digest": "0123456789abcdef",
        "probe_s": [probe_s],
        "failures": {} if correct else {"pass 1 unit 0": "wrong count"},
        "result": {
            "correct": correct,
            "metrics": {"wall_s": {"value": wall, "unit": "s"}} if correct else {},
        },
    }


def _write_reports(directory, reports):
    directory.mkdir()
    for idx, report in enumerate(reports):
        (directory / f"r{idx}.json").write_text(json.dumps(report))


def test_compare_refuses_runs_on_different_backends(tmp_path):
    import compare

    _write_reports(tmp_path / "base", [_report("pure-python", 2.0)])
    _write_reports(tmp_path / "new", [_report("compiled", 0.5)])
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "new")]) == 2


def test_compare_flags_a_regression_beyond_the_bound(tmp_path):
    import compare

    _write_reports(tmp_path / "base", [_report("pure-python", 2.0)])
    _write_reports(tmp_path / "same", [_report("pure-python", 2.01)])
    _write_reports(tmp_path / "slow", [_report("pure-python", 4.0)])
    base = str(tmp_path / "base")
    assert compare.main([base, str(tmp_path / "same")]) == 0
    assert compare.main([base, str(tmp_path / "slow")]) == 1


def test_compare_fails_when_a_report_failed_its_checks(tmp_path):
    import compare

    _write_reports(tmp_path / "base", [_report("pure-python", 2.0)])
    _write_reports(tmp_path / "new", [_report("pure-python", 2.0, correct=False)])
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "new")]) == 1
    assert compare.main([str(tmp_path / "new"), str(tmp_path / "base")]) == 1


def test_compare_leaves_a_slowdown_unresolved_when_the_machine_was_slower(tmp_path):
    import compare

    _write_reports(tmp_path / "base", [_report("pure-python", 2.0, 0.002)])
    _write_reports(tmp_path / "slow_machine", [_report("pure-python", 4.0, 0.004)])
    _write_reports(tmp_path / "fast_machine", [_report("pure-python", 4.0, 0.001)])
    base = str(tmp_path / "base")
    assert compare.main([base, str(tmp_path / "slow_machine")]) == 3
    assert compare.main([base, str(tmp_path / "fast_machine")]) == 1
    noisy = [_report("pure-python", wall) for wall in (1.0, 1.5, 2.0, 2.5, 3.0)]
    _write_reports(tmp_path / "noisy", noisy)
    assert compare.main([str(tmp_path / "noisy"), str(tmp_path / "fast_machine")]) == 3
