"""Run one crossnest benchmark workload and print its result.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured with tracing off; with
``--trace 1`` they are the per-layer ones from traced passes that
alternate with untraced ones.  A
fuller report, stamped with the interpreter, kernel backend and revision,
goes to ``.perfbench/`` at the repository root, and a readable summary to
standard error.

The library is imported from ``src/`` beside this directory; without it
the run stops with exit code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REPORTS = os.path.join(ROOT, ".perfbench")
DIGESTS = os.path.join(HERE, "digests.json")

DEFAULT_SEED = 1
# An untraced run times set-up in a fresh process this many times, spread
# evenly over the run; setup_s is the median.
SETUP_REPEATS = 5
# A pass of at most this many units collects garbage before every unit, so
# each unit starts from the same collector state; a pass of more, tiny
# units collects once before the pass, since a collection per unit would
# cost more than the units.
COLLECT_EACH_UNIT_UP_TO = 100

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("unit_p50_ms", "ms"),
    ("unit_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def tail_latency(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, units beyond) at the highest percentile that
    still has at least ten units beyond it; the maximum when there are
    ten units or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def git_revision(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(crossnest, args) -> dict:
    return {
        "python": platform.python_version(),
        "backend": crossnest.active_backend(),
        "CROSSNEST_KERNEL": os.environ.get("CROSSNEST_KERNEL", ""),
        "git_revision": git_revision(ROOT),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


class Runner:
    """Runs passes over one workload's units and checks every pass."""

    def __init__(self, workloads, prep, seed: int):
        self.workloads = workloads
        self.prep = prep
        # Each pass runs the units in a new order drawn from this, so that
        # a unit's samples fall at different moments of the run, and the
        # heaviest units are not all timed in the same few seconds.
        self.order_rng = random.Random(seed)
        self.collect_each_unit = len(prep.units) <= COLLECT_EACH_UNIT_UP_TO
        self.walls: list[float] = []
        self.unit_times: list[list[float]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, str] = {}
        self.digests: list[str] = []
        # Probe loop time before each pass: the machine's speed.
        self.probes: list[float] = []

    def run_units(self) -> tuple[list, list[float]]:
        """Every unit once, in a fresh order; returns the outputs and the
        seconds each unit took, both in unit order."""
        units = self.prep.units
        order = list(range(len(units)))
        self.order_rng.shuffle(order)
        outputs: list = [None] * len(units)
        times = [0.0] * len(units)
        collect_each_unit = self.collect_each_unit
        clock = time.perf_counter
        gc.collect()
        for idx in order:
            if collect_each_unit:
                gc.collect()
            t0 = clock()
            outputs[idx] = units[idx].call()
            times[idx] = clock() - t0
        return outputs, times

    def run_pass(self) -> None:
        self.probes.append(_probe())
        outputs, times = self.run_units()
        self.walls.append(sum(times))
        self.unit_times.append(times)
        self.check(outputs)

    def check(self, outputs: list, label: str = "pass") -> None:
        label = f"{label} {len(self.walls)}"
        self.attempted += len(outputs)
        bad = self.prep.check(outputs)
        self.failed += len(bad)
        for idx, reason in bad.items():
            self.failures[f"{label} unit {self.prep.units[idx].key}"] = reason
        self.digests.append(self.workloads.digest(self.prep, outputs))
        if self.digests[-1] != self.digests[0]:
            self.failures[label] = "outputs differ from pass 1"

    def per_unit(self) -> list[float]:
        """Each unit's median time over the passes."""
        return [statistics.median(times) for times in zip(*self.unit_times)]


def _probe() -> float:
    """Seconds a fixed short Python loop takes: how fast the machine is."""
    started = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return time.perf_counter() - started


def setup(spec, seed: int, size: str):
    prep = spec.setup(seed, spec.sizes[size])
    for unit in prep.warmup:
        unit.call()
    return prep


def freeze_inputs() -> None:
    """Move every object alive after set-up out of the collector's view,
    so that collections during a pass scan what the library makes, not the
    benchmark's inputs."""
    gc.collect()
    gc.freeze()


def time_setup(workload: str, seed: int, size: str) -> float:
    """Seconds a fresh process takes to import the library and the
    benchmark, generate the inputs and warm up."""
    started = time.perf_counter()
    import workloads

    setup(workloads.WORKLOADS[workload], seed, size)
    return time.perf_counter() - started


def setup_in_child(args) -> float:
    """``time_setup`` in a fresh process."""
    code = (
        f"import sys; sys.path[:0] = {[SRC, HERE]!r}; import run; "
        f"print(run.time_setup({args.workload!r}, {args.seed!r}, {args.size!r}))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, cwd=ROOT, timeout=170,
    )
    return float(done.stdout.split()[-1])


def timed(args, runner: Runner, report: dict) -> dict:
    """Passes until the next would overrun ``--seconds``, with a set-up in
    a fresh process after a pass whenever the run has used up another
    ``1 / SETUP_REPEATS`` of its time; returns the end-to-end metrics.

    Spreading the set-ups over the run, rather than timing them back to
    back, keeps one slow moment of the machine from deciding ``setup_s``.
    """
    setups = report["setup_runs_s"] = []
    clock = time.perf_counter
    started = clock()
    while True:
        runner.run_pass()
        if len(setups) < SETUP_REPEATS * (clock() - started) / args.seconds:
            setups.append(setup_in_child(args))
        elapsed = clock() - started
        if elapsed + elapsed / len(runner.walls) > args.seconds:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_in_child(args))
    per_unit = runner.per_unit()
    tail, percentile, beyond = tail_latency(per_unit)
    report["unit_tail"] = {"percentile": percentile, "units": len(per_unit), "beyond": beyond}
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(per_unit),
        "unit_p50_ms": 1000 * statistics.median(per_unit),
        "unit_tail_ms": 1000 * tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure(args) -> tuple[dict, dict]:
    """Run the workload; returns the result line and the full report."""
    import crossnest
    import workloads

    spec = workloads.WORKLOADS[args.workload]
    report: dict = {"stamp": stamp(crossnest, args)}
    prep = setup(spec, args.seed, args.size)
    freeze_inputs()
    runner = Runner(workloads, prep, args.seed)
    report["work"] = prep.work
    if args.trace:
        import layers

        metrics, report["trace"] = traced(runner, prep, args.seconds)
        units = dict(layers.PER_LAYER)
    else:
        metrics = timed(args, runner, report)
        units = dict(END_TO_END)

    report["passes_wall_s"] = runner.walls
    report["probe_s"] = runner.probes
    report["digest"] = runner.digests[0]
    pinned = _pinned_digest(spec, args)
    if pinned is not None and pinned != runner.digests[0]:
        runner.failures["digest"] = f"{runner.digests[0]} != pinned {pinned}"
    report["failures"] = runner.failures

    correct = not runner.failures
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        # A failed check is never reported as a time.
        "metrics": (
            {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
            if correct
            else {}
        ),
    }
    report["result"] = result
    return result, report


def _pinned_digest(spec, args):
    """The pinned digest for this run, or None when none applies."""
    if args.size != "full" or (spec.seeded and args.seed != DEFAULT_SEED):
        return None
    with open(DIGESTS) as fh:
        return json.load(fh)[args.workload]


def traced(runner: Runner, prep, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced passes over the same inputs for about
    ``seconds``; the per-layer metrics come from the fastest traced pass,
    and the overhead compares it with the fastest untraced pass."""
    import layers
    from tracer import Tracer

    best: tuple[float, Tracer] | None = None
    clock = time.perf_counter
    started = clock()
    while True:
        runner.run_pass()
        with Tracer() as tracer:
            layers.install(tracer)
            outputs, times = runner.run_units()
        wall = sum(times)
        runner.check(outputs, "traced pass")
        if best is None or wall < best[0]:
            best = (wall, tracer)
        elapsed = clock() - started
        if elapsed + elapsed / len(runner.walls) > seconds:
            break

    traced_wall, tracer = best
    untraced_wall = min(runner.walls)
    census_walls = {unit.key: t for unit, t in zip(prep.units, runner.per_unit())}
    metrics = layers.per_layer_metrics(tracer, traced_wall, untraced_wall, census_walls)
    summary = tracer.summary()
    summary["traced_wall_s"] = traced_wall
    summary["untraced_wall_s"] = untraced_wall
    return metrics, summary


def _write_report(report: dict, args) -> str:
    os.makedirs(REPORTS, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.size != "full":
        name += f"-{args.size}"
    path = os.path.join(REPORTS, name + ".json")
    with open(path, "w") as fh:
        json.dump(report, fh)
    return path


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("sweep", "deep-count", "biject", "census")
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny runs every workload at toy bounds, for the benchmark's own tests",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("run.py: --seconds must be positive", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "crossnest", "__init__.py")):
        print(f"run.py: no crossnest sources under {SRC}", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    import crossnest

    if not os.path.abspath(crossnest.__file__).startswith(SRC + os.sep):
        print(f"run.py: imported crossnest from {crossnest.__file__}, not {SRC}", file=sys.stderr)
        return 2

    result, report = measure(args)
    path = _write_report(report, args)
    for name, metric in result["metrics"].items():
        print(f"{name:>44} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    for key, reason in report["failures"].items():
        print(f"FAIL {key}: {reason}", file=sys.stderr)
    print(f"report: {path}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
