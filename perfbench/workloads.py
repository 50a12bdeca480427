"""The four benchmark workloads: inputs, units of work and output checks.

A unit is one independent request a user could make of the library.  Its
``call`` looks every library function up through its module at call time,
never through a reference taken during set-up, so the traced run sees the
calls through the names it patches.

Why these four: each stresses different layers, and each optimisation on
the roadmap has one workload that exercises it and one that bypasses it.

* ``sweep``      -- a great many tiny prescriptions; kernel enumeration and
                    containment do almost all the work.
* ``deep-count`` -- few large prescriptions with 900 to 1170 fillings
                    each; nothing is shared across prescriptions.
* ``biject``     -- the transfer-move bijection through the codecs; the
                    kernel's enumeration is idle.
* ``census``     -- the graph experiments; crossing and nesting statistics
                    and subgraph containment, with kernel and bijection idle.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Callable, Iterator

from crossnest import bijection, experiments, graphs, patterns, shapes

import gen
from layers import CENSUS_IDS


@dataclass
class Unit:
    key: str
    call: Callable[[], object]


@dataclass
class Prepared:
    """Generated inputs of one workload, ready to time."""

    units: list[Unit]
    warmup: list[Unit]
    # outputs (one per unit) -> {unit index: reason} for every failed unit
    check: Callable[[list], dict[int, str]]
    # one output -> JSON-able value for the digest
    summarize: Callable[[object], object]
    # what the generator made, for the report
    work: dict


def digest(prep: Prepared, outputs: list) -> str:
    """Short hash of every output of a pass."""
    text = json.dumps([prep.summarize(out) for out in outputs], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ── sweep ──────────────────────────────────────────────────────


def _partitions(total: int, cap: int) -> Iterator[tuple[int, ...]]:
    if total == 0:
        yield ()
        return
    for first in range(min(total, cap), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first, *rest)


def _compositions_count(total: int, slots: int) -> int:
    if slots == 0:
        return int(total == 0)
    return comb(total + slots - 1, slots - 1)


def sweep_size(max_cells: int, max_total: int) -> tuple[int, int]:
    """(shapes, instances) a sweep within these bounds must cover,
    counted here independently of the library."""
    shapes_seen = instances = 0
    for cells in range(max_cells + 1):
        for parts in _partitions(cells, cells):
            shapes_seen += 1
            ncols = parts[0] if parts else 0
            instances += sum(
                _compositions_count(t, len(parts)) * _compositions_count(t, ncols)
                for t in range(max_total + 1)
            )
    return shapes_seen, instances


def setup_sweep(seed: int, p: dict) -> Prepared:
    pairs = [
        (patterns.parse_pattern(a), patterns.parse_pattern(b))
        for a, b in (("I2", "J2"), ("I3", "J3"))
    ]
    expected = sweep_size(p["max_cells"], p["max_total"])

    def verify(p1, p2, max_cells, max_total):
        return Unit(
            f"{p1.rows}/{p2.rows}",
            lambda: experiments.verify_equirestrictive(
                p1, p2, max_cells=max_cells, max_total=max_total, jobs=1
            ),
        )

    def check(outputs):
        bad = {}
        for idx, report in enumerate(outputs):
            got = (report.counts["shapes"], report.counts["instances"])
            if report.verdict != "pass":
                bad[idx] = f"verdict {report.verdict}: {report.failures[:1]}"
            elif got != expected:
                bad[idx] = f"covered {got}, expected {expected}"
        return bad

    return Prepared(
        units=[verify(p1, p2, p["max_cells"], p["max_total"]) for p1, p2 in pairs],
        warmup=[verify(*pairs[0], 4, 2)],
        check=check,
        summarize=lambda report: [report.verdict, report.counts],
        work={"pattern_pairs": len(pairs), "shapes": expected[0], "instances": expected[1]},
    )


# ── deep-count ─────────────────────────────────────────────────

DEEP_PATTERNS = ("I2", "J2", "I3", "J3")


def setup_deep_count(seed: int, p: dict) -> Prepared:
    items = gen.deep_prescriptions(random.Random(seed), p)
    pats = [patterns.parse_pattern(name) for name in DEEP_PATTERNS]

    def prescription(idx, parts, row_sums, col_sums):
        shape = shapes.Shape(parts)
        profile = shapes.SumProfile(row_sums, col_sums)
        return Unit(
            str(idx),
            lambda: [experiments.count_avoiders(shape, profile, pat) for pat in pats],
        )

    def check(outputs):
        bad = {}
        for idx, (item, counts) in enumerate(zip(items, outputs)):
            if not all(0 <= count <= item[3] for count in counts):
                bad[idx] = f"{item[:3]}: {counts} avoiders of {item[3]} fillings"
            # I_k and J_k are equirestrictive: (I2, J2) and (I3, J3) agree.
            elif counts[0] != counts[1] or counts[2] != counts[3]:
                bad[idx] = f"{item[:3]}: counts {dict(zip(DEEP_PATTERNS, counts))}"
        return bad

    units = [prescription(idx, *item[:3]) for idx, item in enumerate(items)]
    return Prepared(
        units=units,
        warmup=units[:1],
        check=check,
        summarize=lambda counts: counts,
        work={
            "prescriptions": len(items),
            "fillings": sum(item[3] for item in items),
            "cells": sum(sum(item[0]) for item in items),
            "total": sum(sum(item[1]) for item in items),
        },
    )


# ── biject ─────────────────────────────────────────────────────


def _degree_sequences(max_n: int, max_edges: int) -> Iterator[graphs.DegreeSequence]:
    for n in range(max_n + 1):
        for m in range(max_edges + 1):
            for lefts in experiments.compositions(m, n):
                for rights in experiments.compositions(m, n):
                    yield graphs.DegreeSequence(tuple(zip(lefts, rights)))


def setup_biject(seed: int, p: dict) -> Prepared:
    k = p["k"]
    sources: list[graphs.Multigraph] = []
    group_of: list[int] = []
    targets: list[set] = []
    for degrees in _degree_sequences(p["n"], p["total_degree"] // 2):
        if not graphs.is_feasible(degrees):
            continue
        noncrossing = set()
        for graph in graphs.enumerate_graphs(degrees):
            if graphs.nest(graph) < k:
                sources.append(graph)
                group_of.append(len(targets))
            if graphs.cross(graph) < k:
                noncrossing.add(graph)
        targets.append(noncrossing)

    fillings = [
        shapes.filling_from_rows(grid)
        for grid in gen.random_fillings(random.Random(seed), p["fillings"])
    ]
    orders = [patterns.max_identity_order(f) + 1 for f in fillings]

    def graph_unit(idx, graph):
        def round_trip():
            image = bijection.graph_biject(graph, k, "forward")
            return image, bijection.graph_biject(image, k, "backward")

        return Unit(f"g{idx}", round_trip)

    def filling_unit(idx, filling, t):
        def round_trip():
            image = bijection.it_jt_biject(filling, t, "forward")
            return image, bijection.it_jt_biject(image, t, "backward")

        return Unit(f"f{idx}", round_trip)

    units = [graph_unit(i, g) for i, g in enumerate(sources)]
    units += [filling_unit(i, f, t) for i, (f, t) in enumerate(zip(fillings, orders))]

    def check(outputs):
        bad = {}
        images: list[set] = [set() for _ in targets]
        for idx, graph in enumerate(sources):
            image, back = outputs[idx]
            if back != graph:
                bad[idx] = "backward does not invert forward"
            elif graphs.cross(image) >= k:
                bad[idx] = f"image has {k} crossing edges"
            elif graphs.degree_sequence(image) != graphs.degree_sequence(graph):
                bad[idx] = "degree sequence changed"
            images[group_of[idx]].add(image)
        for idx, graph in enumerate(sources):
            group = group_of[idx]
            if idx not in bad and images[group] != targets[group]:
                bad[idx] = "images do not cover the noncrossing set exactly"
        offset = len(sources)
        for idx, (filling, t) in enumerate(zip(fillings, orders)):
            image, back = outputs[offset + idx]
            if back != filling:
                bad[offset + idx] = "backward does not invert forward"
            elif patterns.contains(image, patterns.antiidentity(t)):
                bad[offset + idx] = f"image contains J{t}"
            elif shapes.sums_of(image) != shapes.sums_of(filling):
                bad[offset + idx] = "sums changed"
        return bad

    def summarize(out):
        image, _ = out
        if isinstance(image, graphs.Multigraph):
            return [image.n, image.edges]
        return image.rows

    return Prepared(
        units=units,
        warmup=[units[len(sources) - 1], units[-1]],
        check=check,
        summarize=summarize,
        work={
            "degree_sequences": len(targets),
            "graph_units": len(sources),
            "filling_units": len(fillings),
            "filling_cells": sum(f.shape.num_cells for f in fillings),
            "filling_total": sum(f.total for f in fillings),
            "orders": dict(sorted(Counter(orders).items())),
        },
    )


# ── census ─────────────────────────────────────────────────────


def setup_census(seed: int, p: dict) -> Prepared:
    bounds = p["bounds"]

    def run(eid):
        return Unit(eid, lambda: experiments.run_experiment(eid, bounds.get(eid)))

    def check(outputs):
        return {
            idx: f"{report.experiment_id}: {report.failures[:1]}"
            for idx, report in enumerate(outputs)
            if report.verdict != "pass" or report.counts.get("violations") != 0
        }

    return Prepared(
        units=[run(eid) for eid in CENSUS_IDS],
        warmup=[run("counterexample_simple")],
        check=check,
        summarize=lambda report: [report.experiment_id, report.verdict, report.counts],
        work={"experiments": len(CENSUS_IDS)},
    )


# ── registry ───────────────────────────────────────────────────


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, dict], Prepared]
    # Whether the inputs depend on the seed.
    seeded: bool
    sizes: dict[str, dict]


WORKLOADS: dict[str, Workload] = {
    "sweep": Workload(
        setup_sweep,
        seeded=False,
        sizes={
            "full": {"max_cells": 8, "max_total": 4},
            "tiny": {"max_cells": 4, "max_total": 3},
        },
    ),
    "deep-count": Workload(
        setup_deep_count,
        seeded=True,
        sizes={
            "full": {
                "prescriptions": 48,
                "fillings": 900,
                "slack": 1.3,
                "cells": (16, 20),
                "rows": (4, 4),
                "max_cols": 5,
                "totals": (8, 24),
            },
            "tiny": {
                "prescriptions": 6,
                "fillings": 8,
                "slack": 2,
                "cells": (7, 9),
                "rows": (3, 3),
                "max_cols": 3,
                "totals": (3, 12),
            },
        },
    ),
    "biject": Workload(
        setup_biject,
        seeded=True,
        sizes={
            # The thm3_5 graphs up to total degree 6 rather than 8: 950
            # units, not 3,325, so that a pass takes about 1.5 s and a 30 s
            # run times every unit some 18 times.
            "full": {
                "n": 6,
                "total_degree": 6,
                "k": 2,
                "fillings": {
                    "count": 300,
                    "cells": (30, 40),
                    "rows": (6, 12),
                    "max_cols": 12,
                    "totals": (15, 20),
                },
            },
            "tiny": {
                "n": 4,
                "total_degree": 4,
                "k": 2,
                "fillings": {
                    "count": 12,
                    "cells": (8, 12),
                    "rows": (3, 5),
                    "max_cols": 5,
                    "totals": (5, 8),
                },
            },
        },
    ),
    "census": Workload(
        setup_census,
        seeded=False,
        sizes={
            # Every canned experiment but thm3_5 (biject covers it).  Five
            # run below their default bounds, at which cor2_6, cor3_9,
            # catalan and cor2_2 alone take several seconds a pass.  At
            # about 1 s a pass a 30 s run times each experiment some 25
            # times, often enough for its median time to be steady on a host
            # whose speed changes every few seconds.
            "full": {
                "bounds": {
                    "cor2_2": {"n": 6, "m": 4},
                    "cor2_6": {"n": 6, "m": 5},
                    "cor3_3": {"n": 5},
                    "cor3_9": {"n": 7, "m": 3},
                    "catalan": {"n": 5},
                }
            },
            "tiny": {
                "bounds": {
                    "cor2_2": {"n": 4, "m": 3},
                    "cor2_4": {"n": 4, "m": 3},
                    "cor2_6": {"n": 5, "m": 4},
                    "cor3_3": {"n": 4},
                    "cor3_9": {"n": 5, "m": 3},
                    "catalan": {"n": 4},
                    "m213_m132_spot": {"max_cells": 4},
                }
            },
        },
    ),
}
