"""Compare two sets of benchmark reports.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the report files ``run.py`` writes to ``.perfbench/``
(copy that directory away after running each side).  For every workload
and metric the script prints both sides' median, the quartile spread of the
base as a share of its median, and the change of the medians.  An
end-to-end metric whose new median is worse than the base median by more
than its bound in ``BENCHMARK.json`` is marked REGRESSION.

``probe_ms``, the time of a fixed Python loop, is the speed of the machine
during each side's runs.  When the new side's probe median is slower than
the base's by more than the base's own probe spread, a metric that
worsened beyond its bound is marked UNRESOLVED instead: the machine, not
the code, may have slowed down.  So is one whose base runs spread wider
than its bound.  Run base and new alternately so that
both sides see the same machine.

Exit codes: 0 no regression; 1 a regression, a report whose checks failed,
or outputs whose digests differ for the same workload, seed and size; 2 the
two sides cannot be compared, because their runs used different kernel
backends or Python versions (a compiled kernel alone is a 4x difference),
or a directory holds no reports; 3 no regression, but an unresolved metric.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
STAMP_KEYS = ("backend", "python")


def load(directory: str) -> list[dict]:
    reports = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            reports.append(json.load(fh))
    return reports


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median (0 for one value)."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def collect(reports: list[dict]) -> dict[tuple[str, int], dict[str, list[float]]]:
    """(workload, trace) -> metric -> values over the runs.  The machine's
    probe-loop time rides along as ``probe_ms``: when it differs between
    the sides, so does the speed of the machine they ran on."""
    grouped: dict[tuple[str, int], dict[str, list[float]]] = {}
    for report in reports:
        stamp = report["stamp"]
        metrics = grouped.setdefault((stamp["workload"], stamp["trace"]), {})
        for name, metric in report["result"]["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
        if report.get("probe_s"):
            metrics.setdefault("probe_ms", []).append(1000 * statistics.median(report["probe_s"]))
    return grouped


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    if not base or not new:
        print("compare.py: each directory needs at least one report", file=sys.stderr)
        return 2
    for key in STAMP_KEYS:
        seen = {report["stamp"][key] for report in base + new}
        if len(seen) > 1:
            print(f"compare.py: refusing to compare runs with different {key}: "
                  f"{sorted(seen)}", file=sys.stderr)
            return 2
    failed = [report for report in base + new if not report["result"]["correct"]]
    for report in failed:
        stamp = report["stamp"]
        print(f"FAILED CHECKS {stamp['workload']} seed {stamp['seed']} trace {stamp['trace']}: "
              f"{report.get('failures', {})}")
    if failed:
        return 1

    status = 0
    digests: dict[tuple, str] = {}
    for report in base:
        stamp = report["stamp"]
        digests[(stamp["workload"], stamp["seed"], stamp["size"])] = report["digest"]
    for report in new:
        stamp = report["stamp"]
        key = (stamp["workload"], stamp["seed"], stamp["size"])
        if key in digests and digests[key] != report["digest"]:
            print(f"DIGEST CHANGED {key}: {digests[key]} -> {report['digest']}")
            status = 1

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bounds = {m["name"]: m for m in json.load(fh)["end_to_end"]}

    base_groups, new_groups = collect(base), collect(new)
    unresolved = False
    for group in sorted(set(base_groups) & set(new_groups)):
        workload, trace = group
        machine_slower = _machine_slower(base_groups[group], new_groups[group])
        print(f"\n{workload} ({'traced' if trace else 'timed'})")
        print(f"{'metric':44} {'base':>12} {'spread':>7} {'new':>12} {'change':>8}")
        for name, before in base_groups[group].items():
            after = new_groups[group].get(name)
            if not after:
                continue
            b_med, n_med = statistics.median(before), statistics.median(after)
            change = (n_med - b_med) / b_med if b_med else 0.0
            flag = ""
            if name in bounds and not trace:
                sign = 1 if bounds[name]["better"] == "lower" else -1
                bound = bounds[name]["bound"]
                if sign * change > bound and (machine_slower or spread(before) > bound):
                    flag = "  UNRESOLVED"
                    unresolved = True
                elif sign * change > bound:
                    flag = "  REGRESSION"
                    status = 1
            print(f"{name:44} {b_med:12.6g} {spread(before):7.3f} {n_med:12.6g} "
                  f"{change:+8.3f}{flag}")
    if status == 0 and unresolved:
        print("\nUNRESOLVED: the new side ran on a slower machine (probe_ms); "
              "rerun base and new alternately")
        status = 3
    return status


def _machine_slower(before: dict[str, list[float]], after: dict[str, list[float]]) -> bool:
    """Whether the new side's probe median is slower than the base's by
    more than the base probe's own spread."""
    if not before.get("probe_ms") or not after.get("probe_ms"):
        return False
    b_probe = statistics.median(before["probe_ms"])
    n_probe = statistics.median(after["probe_ms"])
    return (n_probe - b_probe) / b_probe > spread(before["probe_ms"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
