"""The package's public names, the names the benchmark's tracer patches,
and the backend it stamps."""

from __future__ import annotations

import pytest

import crossnest
from crossnest import (
    _kernel,
    _purekern,
    bijection,
    codec,
    experiments,
    graphs,
    patterns,
    shapes,
)


@pytest.mark.parametrize(
    "name",
    [
        "iter_fillings",
        "contains",
        "count_avoiders",
        "count_by_row_sums",
        "disagreeing_supports",
        "longest_chain",
        "walk_rows",
    ],
)
def test_kernel_reexports_pure_kernel(name):
    assert getattr(_kernel, name) is getattr(_purekern, name)


@pytest.mark.parametrize(
    "owner, name",
    [
        (codec, "first_j_occurrence"),
        (codec.LeftRightGraph, "side"),
        (graphs, "contains_subgraph"),
        (patterns, "occurrences"),
        (patterns, "block_diag"),
        (bijection, "identity"),
        (bijection, "antiidentity"),
        (bijection, "f_matrix"),
        (bijection, "contains"),
        (bijection, "lr_encode"),
        (bijection, "lr_decode"),
        (experiments, "degree_sequence"),
        (experiments, "enumerate_perfect_matchings"),
        (experiments, "enumerate_graphs"),
        (experiments, "enumerate_graphs_by_size"),
        (experiments, "iter_profiles"),
        (experiments, "count_avoiders"),
    ],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_traced_name_bound_in_owner(owner, name):
    # The tracer reads ``vars(owner)[name]`` and fails where it is missing,
    # so a name only inherited or imported elsewhere does not count.
    assert name in vars(owner)


@pytest.mark.parametrize(
    "owner, name",
    [
        (bijection, "graph_biject"),
        (bijection, "it_jt_biject"),
        (experiments, "compositions"),
        (experiments, "count_avoiders"),
        (experiments, "verify_equirestrictive"),
        (experiments, "run_experiment"),
        (graphs, "DegreeSequence"),
        (graphs, "Multigraph"),
        (graphs, "cross"),
        (graphs, "degree_sequence"),
        (graphs, "enumerate_graphs"),
        (graphs, "is_feasible"),
        (graphs, "nest"),
        (patterns, "antiidentity"),
        (patterns, "contains"),
        (patterns, "max_identity_order"),
        (patterns, "parse_pattern"),
        (shapes, "Shape"),
        (shapes, "SumProfile"),
        (shapes, "filling_from_rows"),
        (shapes, "sums_of"),
        (crossnest, "active_backend"),
    ],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_benchmark_call_bound(owner, name):
    # perfbench's workloads and run script call these, and nothing else of
    # the library, by their module.
    assert callable(getattr(owner, name, None))


def test_active_backend_is_pure_python():
    assert crossnest.active_backend() == "pure-python"


def test_public_names_resolve_sorted_and_unique():
    names = crossnest.__all__
    assert all(hasattr(crossnest, name) for name in names)
    assert names == sorted(names)
    assert len(set(names)) == len(names)
