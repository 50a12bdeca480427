"""Where the traced run hooks into crossnest, and the per-layer metrics
derived from what it records.

Every entry names the module attribute a caller actually looks up, so a
name bound by ``from .x import f`` is patched in the importing module as
well as in the defining one.  Kernel internals are only visible on the
pure-Python backend: the fused ``count_avoiders`` of a compiled kernel
does not look its helpers up through module globals.
"""

from __future__ import annotations

from crossnest import _kernel, _purekern, bijection, codec, experiments, graphs, patterns

from tracer import Tracer

CENSUS_IDS = (
    "cor2_2",
    "cor2_4",
    "cor2_6",
    "cor3_3",
    "cor3_9",
    "counterexample_simple",
    "noy_matchings",
    "catalan",
    "m213_m132_spot",
)

# (name, unit) of every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("kernel.iter_fillings.calls", "count"),
    ("kernel.iter_fillings.feasible_ratio", "ratio"),
    ("kernel.iter_fillings.yielded", "count"),
    ("kernel.iter_fillings.self_s", "s"),
    ("kernel.avoider_ratio", "ratio"),
    ("kernel.count_avoiders.self_s", "s"),
    ("kernel.contains.calls", "count"),
    ("kernel.contains.hit_ratio", "ratio"),
    ("kernel.contains.self_s", "s"),
    ("patterns.builds", "count"),
    ("patterns.occurrences.listed", "count"),
    ("patterns.first_occurrence.listed_per_hit", "ratio"),
    ("patterns.first_j_occurrence.self_s", "s"),
    ("patterns.first_f_occurrence.self_s", "s"),
    ("bijection.lift_block.calls", "count"),
    ("bijection.lift_block.self_s", "s"),
    ("bijection.a1.self_s", "s"),
    ("bijection.a2.self_s", "s"),
    ("bijection.it_jt_biject.self_s", "s"),
    ("bijection.graph_biject.self_s", "s"),
    ("bijection.transfer_steps", "count"),
    ("codec.lr_encode.self_s", "s"),
    ("codec.lr_decode.self_s", "s"),
    ("codec.side.calls", "count"),
    ("graphs.enumerate_graphs_by_size.yielded", "count"),
    ("graphs.enumerate_graphs_by_size.self_s", "s"),
    ("graphs.cross.self_s", "s"),
    ("graphs.nest.self_s", "s"),
    ("graphs.cross_weak.self_s", "s"),
    ("graphs.nest_weak.self_s", "s"),
    ("graphs.contains_subgraph.self_s", "s"),
    ("graphs.degree_sequence.calls", "count"),
    ("experiments.iter_profiles.yielded", "count"),
    ("experiments.iter_profiles.self_s", "s"),
    ("experiments.verify_equirestrictive.self_s", "s"),
    ("experiments.run_experiment.self_s", "s"),
    *((f"experiments.{eid}.wall_s", "s") for eid in CENSUS_IDS),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
)


def _count_hits(tracer: Tracer, frame, result) -> None:
    tracer.counters[frame.name + ".hits"] += bool(result)


def _count_avoiders(tracer: Tracer, frame, result) -> None:
    tracer.counters["kernel.count_avoiders.avoiders"] += result


def _count_listed(tracer: Tracer, frame, result) -> None:
    tracer.counters["patterns.occurrences.listed"] += len(result)


def _occurrence_hit(caller: str):
    # A hit of the search that drives a1 (j) or a2 (f) is one transfer step.
    def after(tracer: Tracer, frame, result) -> None:
        if result is None:
            return
        tracer.counters["patterns.first_occurrence.hits"] += 1
        if frame.parent_name == caller:
            tracer.counters["bijection.transfer_steps"] += 1

    return after


def install(tracer: Tracer) -> None:
    """Patch every traced name; ``tracer.restore()`` undoes all of it."""
    call, gen, count = tracer.wrap_call, tracer.wrap_generator, tracer.wrap_count

    def span(name, owners, after=None):
        for owner in owners:
            tracer.patch(owner, name.rsplit(".", 1)[1], lambda fn: call(name, fn, after))

    def gen_span(name, owners):
        for owner in owners:
            tracer.patch(owner, name.rsplit(".", 1)[1], lambda fn: gen(name, fn))

    def counter(name, owners, attr):
        for owner in owners:
            tracer.patch(owner, attr, lambda fn: count(name, fn))

    # kernel: the selector module and the pure kernel's own globals
    gen_span("kernel.iter_fillings", (_kernel, _purekern))
    span("kernel.contains", (_kernel, _purekern), after=_count_hits)
    span("kernel.count_avoiders", (_kernel,), after=_count_avoiders)

    # patterns
    for build in ("identity", "antiidentity", "f_matrix"):
        counter("patterns.builds", (patterns, bijection), build)
    counter("patterns.builds", (patterns,), "block_diag")
    span("patterns.contains", (bijection,))
    span("patterns.occurrences", (patterns,), after=_count_listed)
    span(
        "patterns.first_j_occurrence",
        (patterns, bijection, codec),
        after=_occurrence_hit("bijection.a1"),
    )
    span(
        "patterns.first_f_occurrence",
        (patterns, bijection),
        after=_occurrence_hit("bijection.a2"),
    )

    # bijection and codec
    for name in ("lift_block", "a1", "a2", "it_jt_biject"):
        span(f"bijection.{name}", (bijection,))
    span("bijection.graph_biject", (bijection, experiments))
    span("codec.lr_encode", (bijection,))
    span("codec.lr_decode", (bijection,))
    counter("codec.side.calls", (codec.LeftRightGraph,), "side")

    # graphs
    gen_span("graphs.enumerate_graphs_by_size", (experiments,))
    gen_span("graphs.enumerate_graphs", (experiments,))
    gen_span("graphs.enumerate_perfect_matchings", (experiments,))
    span("graphs.cross", (graphs, experiments, bijection))
    span("graphs.nest", (graphs, experiments, bijection))
    span("graphs.cross_weak", (graphs, experiments))
    span("graphs.nest_weak", (graphs, experiments))
    # cor3_9 imports contains_subgraph from graphs at call time.
    span("graphs.contains_subgraph", (graphs,))
    counter(
        "graphs.degree_sequence.calls",
        (graphs, codec, bijection, experiments),
        "degree_sequence",
    )

    # experiments
    gen_span("experiments.iter_profiles", (experiments,))
    for name in ("verify_equirestrictive", "run_experiment", "count_avoiders"):
        span(f"experiments.{name}", (experiments,))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    tracer: Tracer, traced_wall: float, untraced_wall: float, census_walls: dict[str, float]
) -> dict[str, float]:
    """Every metric of ``PER_LAYER`` from one traced pass.

    ``census_walls`` maps an experiment id to its untraced wall time.
    """
    calls, self_s, counters = tracer.calls, tracer.self_s, tracer.counters
    first_hits = counters["patterns.first_occurrence.hits"]
    values = {
        "kernel.iter_fillings.calls": calls["kernel.iter_fillings"],
        "kernel.iter_fillings.feasible_ratio": _ratio(
            counters["kernel.iter_fillings.feasible"], calls["kernel.iter_fillings"]
        ),
        "kernel.iter_fillings.yielded": counters["kernel.iter_fillings.yielded"],
        "kernel.iter_fillings.self_s": self_s["kernel.iter_fillings"],
        "kernel.avoider_ratio": _ratio(
            counters["kernel.count_avoiders.avoiders"],
            counters["kernel.iter_fillings.yielded"],
        ),
        "kernel.count_avoiders.self_s": self_s["kernel.count_avoiders"],
        "kernel.contains.calls": calls["kernel.contains"],
        "kernel.contains.hit_ratio": _ratio(
            counters["kernel.contains.hits"], calls["kernel.contains"]
        ),
        "kernel.contains.self_s": self_s["kernel.contains"],
        "patterns.builds": counters["patterns.builds"],
        "patterns.occurrences.listed": counters["patterns.occurrences.listed"],
        "patterns.first_occurrence.listed_per_hit": _ratio(
            counters["patterns.occurrences.listed"], first_hits
        ),
        "patterns.first_j_occurrence.self_s": self_s["patterns.first_j_occurrence"],
        "patterns.first_f_occurrence.self_s": self_s["patterns.first_f_occurrence"],
        "bijection.lift_block.calls": calls["bijection.lift_block"],
        "bijection.lift_block.self_s": self_s["bijection.lift_block"],
        "bijection.a1.self_s": self_s["bijection.a1"],
        "bijection.a2.self_s": self_s["bijection.a2"],
        "bijection.it_jt_biject.self_s": self_s["bijection.it_jt_biject"],
        "bijection.graph_biject.self_s": self_s["bijection.graph_biject"],
        "bijection.transfer_steps": counters["bijection.transfer_steps"],
        "codec.lr_encode.self_s": self_s["codec.lr_encode"],
        "codec.lr_decode.self_s": self_s["codec.lr_decode"],
        "codec.side.calls": counters["codec.side.calls"],
        "graphs.enumerate_graphs_by_size.yielded": counters[
            "graphs.enumerate_graphs_by_size.yielded"
        ],
        "graphs.enumerate_graphs_by_size.self_s": self_s["graphs.enumerate_graphs_by_size"],
        "graphs.cross.self_s": self_s["graphs.cross"],
        "graphs.nest.self_s": self_s["graphs.nest"],
        "graphs.cross_weak.self_s": self_s["graphs.cross_weak"],
        "graphs.nest_weak.self_s": self_s["graphs.nest_weak"],
        "graphs.contains_subgraph.self_s": self_s["graphs.contains_subgraph"],
        "graphs.degree_sequence.calls": counters["graphs.degree_sequence.calls"],
        "experiments.iter_profiles.yielded": counters["experiments.iter_profiles.yielded"],
        "experiments.iter_profiles.self_s": self_s["experiments.iter_profiles"],
        "experiments.verify_equirestrictive.self_s": self_s[
            "experiments.verify_equirestrictive"
        ],
        "experiments.run_experiment.self_s": self_s["experiments.run_experiment"],
        "trace.overhead_ratio": _ratio(traced_wall, untraced_wall),
        "trace.spans": tracer.summary()["spans_total"],
    }
    for eid in CENSUS_IDS:
        values[f"experiments.{eid}.wall_s"] = census_walls.get(eid, 0.0)
    return values
