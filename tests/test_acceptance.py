"""Acceptance criteria, each as one test printing a pass/fail line.

Every check is exact (integer equality or set equality); the only stated
tolerances are runtime expectations, which are printed for inspection.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

from __future__ import annotations

import time
from itertools import combinations

import pytest

from crossnest.bijection import a1, a2, it_jt_biject
from crossnest.codec import delta_encode, lr_decode
from crossnest.experiments import (
    iter_profiles,
    iter_shapes,
    run_experiment,
)
from crossnest.graphs import (
    Multigraph,
    SplitGraph,
    contains_subgraph,
    cross,
    enumerate_graphs_by_size,
    nest,
)
from crossnest.patterns import (
    antiidentity,
    contains,
    f_matrix,
    identity,
    max_antiidentity_order,
    max_identity_order,
)
from crossnest.shapes import Filling, enumerate_fillings

from oracles import matrix_of_split_graph


def report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number}: {detail}")
    assert passed, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def filling_sweep():
    """Shared sweep for criteria 1 and 2: every shape with at most 8
    cells, every prescription with total at most 5, orders 2 and 3."""
    started = time.perf_counter()
    stats = {
        "instances": 0,
        "fillings": 0,
        "count_mismatches": [],
        "inverse_failures": [],
        "image_failures": [],
    }
    for shape in iter_shapes(8):
        for profile in iter_profiles(shape, 5):
            fillings = list(enumerate_fillings(shape, profile))
            if not fillings:
                continue
            stats["instances"] += 1
            stats["fillings"] += len(fillings)
            for order in (2, 3):
                ident = identity(order)
                anti = antiidentity(order)
                chain = f_matrix(order)
                ident_avoiders = [f for f in fillings if not contains(f, ident)]
                anti_avoiders = {
                    f.rows for f in fillings if not contains(f, anti)
                }
                chain_avoiders = [f for f in fillings if not contains(f, chain)]
                if not (
                    len(ident_avoiders)
                    == len(anti_avoiders)
                    == len(chain_avoiders)
                ):
                    stats["count_mismatches"].append(
                        (shape.parts, profile, order)
                    )
                    continue

                image = set()
                for filling in chain_avoiders:
                    forward = a1(filling, order, check=True)
                    if a2(forward, order, check=True) != filling:
                        stats["inverse_failures"].append(
                            (shape.parts, profile, order, filling.rows)
                        )
                    if forward.rows in image or forward.rows not in anti_avoiders:
                        stats["image_failures"].append(
                            (shape.parts, profile, order, filling.rows)
                        )
                    image.add(forward.rows)
                if image != anti_avoiders:
                    stats["image_failures"].append(
                        (shape.parts, profile, order, "image != avoiders")
                    )

                for rows in sorted(anti_avoiders):
                    filling = Filling(shape, rows)
                    backward = a2(filling, order, check=True)
                    if a1(backward, order, check=True) != filling:
                        stats["inverse_failures"].append(
                            (shape.parts, profile, order, rows)
                        )

                lifted_image = set()
                for filling in ident_avoiders:
                    forward = it_jt_biject(filling, order, "forward")
                    if (
                        forward.rows in lifted_image
                        or forward.rows not in anti_avoiders
                    ):
                        stats["image_failures"].append(
                            (shape.parts, profile, order, filling.rows)
                        )
                    lifted_image.add(forward.rows)
                    if it_jt_biject(forward, order, "backward") != filling:
                        stats["inverse_failures"].append(
                            (shape.parts, profile, order, filling.rows)
                        )
                if lifted_image != anti_avoiders:
                    stats["image_failures"].append(
                        (shape.parts, profile, order, "lifted image mismatch")
                    )
    stats["elapsed"] = time.perf_counter() - started
    return stats


def test_criterion_01_avoider_counts_match(filling_sweep):
    ok = not filling_sweep["count_mismatches"]
    report(
        1,
        ok,
        "identity, antidiagonal, and chain-pattern avoider counts agree on "
        f"{filling_sweep['instances']} prescriptions "
        f"({filling_sweep['fillings']} fillings, orders 2 and 3, "
        f"elapsed {filling_sweep['elapsed']:.1f}s, budget 300s)"
        + ("" if ok else f"; first: {filling_sweep['count_mismatches'][:1]}"),
    )


def test_criterion_02_bijection_soundness(filling_sweep):
    problems = (
        filling_sweep["inverse_failures"] + filling_sweep["image_failures"]
    )
    report(
        2,
        not problems,
        "iterated transfers invert exactly and the lifted bijection maps "
        "avoider sets onto each other in the same sweep"
        + ("" if not problems else f"; first: {problems[:1]}"),
    )


def test_criterion_03_degree_sequence_bijection():
    reportx = run_experiment("thm3_5", {"n": 6, "total_degree": 8, "k": 2})
    report(
        3,
        reportx.verdict == "pass",
        "2-noncrossing equals 2-nonnesting on every feasible degree "
        f"sequence (n<=6, total degree<=8): {reportx.counts['sequences']} "
        f"sequences, {reportx.counts['graphs']} graphs, "
        f"{reportx.counts['bijected']} bijected"
        + ("" if reportx.verdict == "pass" else f"; {reportx.failures[:1]}"),
    )


def test_criterion_04_multigraph_counts_by_size():
    reportx = run_experiment("cor2_2", {"n": 6, "m": 5})
    report(
        4,
        reportx.verdict == "pass",
        "k-noncrossing equals k-nonnesting multigraph counts for n<=6, "
        "m<=5, k in {2,3}"
        + ("" if reportx.verdict == "pass" else f"; {reportx.failures[:1]}"),
    )


def test_criterion_05_joint_weak_symmetry():
    reportx = run_experiment("cor2_4", {"n": 5, "m": 4})
    report(
        5,
        reportx.verdict == "pass",
        "joint (cross, nest*) counts mirror (cross*, nest) for n<=5, m<=4"
        + ("" if reportx.verdict == "pass" else f"; {reportx.failures[:1]}"),
    )


def test_criterion_06_simple_graph_counts():
    by_size = run_experiment("cor2_6", {"n": 7, "m": 6})
    by_left = run_experiment("cor3_3", {"n": 6})
    ok = by_size.verdict == "pass" and by_left.verdict == "pass"
    report(
        6,
        ok,
        "simple-graph count equalities hold by size (n<=7, m<=6) and by "
        "left-degree vector (n<=6)"
        + ("" if ok else f"; {by_size.failures[:1]} {by_left.failures[:1]}"),
    )


def test_criterion_07_simple_counterexample():
    reportx = run_experiment("counterexample_simple", {})
    counts = reportx.counts
    exact = (
        counts["simple nonnesting"] == 1
        and counts["simple noncrossing"] == 0
        and counts["multigraph nonnesting"] == counts["multigraph noncrossing"]
    )
    report(
        7,
        reportx.verdict == "pass" and exact,
        "degree sequence (0,2),(0,2),(1,1),(2,0),(2,0): simple counts "
        f"({counts['simple nonnesting']}, {counts['simple noncrossing']}) "
        f"= (1, 0), multigraph counts "
        f"{counts['multigraph nonnesting']} = {counts['multigraph noncrossing']}",
    )


def test_criterion_08_matching_asymmetry():
    started = time.perf_counter()
    reportx = run_experiment("noy_matchings", {"vertices": 12})
    elapsed = time.perf_counter() - started
    counts = reportx.counts
    ok = (
        reportx.verdict == "pass"
        and counts["matchings"] == 10395
        and counts["exactly one 3-crossing"] > counts["exactly one 3-nesting"]
    )
    report(
        8,
        ok,
        f"of {counts['matchings']} six-edge matchings, "
        f"{counts['exactly one 3-crossing']} have exactly one 3-crossing vs "
        f"{counts['exactly one 3-nesting']} with exactly one 3-nesting "
        f"(elapsed {elapsed:.1f}s, budget 60s)",
    )
    assert elapsed < 60.0


def test_criterion_09_catalan_sanity():
    reportx = run_experiment("catalan", {"n": 6})
    report(
        9,
        reportx.verdict == "pass",
        "2-noncrossing perfect matchings on 2n points match the Catalan "
        "recurrence for n<=6"
        + ("" if reportx.verdict == "pass" else f"; {reportx.failures[:1]}"),
    )


def test_criterion_10_statistic_transport():
    mismatches = []
    checked = 0
    # Left-right side: every left-right graph arising from a filling with
    # at most 8 cells and total at most 5 (so up to 5 edges).
    for shape in iter_shapes(8):
        for profile in iter_profiles(shape, 5):
            for filling in enumerate_fillings(shape, profile):
                graph = lr_decode(filling).graph
                checked += 1
                if nest(graph) != max_identity_order(filling) or cross(
                    graph
                ) != max_antiidentity_order(filling):
                    mismatches.append(("lr", filling.rows))
    # Staircase side: every multigraph with n <= 5 and m <= 4.
    for n in range(1, 6):
        for m in range(0, 5):
            for graph in enumerate_graphs_by_size(n, m):
                filling = delta_encode(graph)
                checked += 1
                if nest(graph) != max_identity_order(filling) or cross(
                    graph
                ) != max_antiidentity_order(filling):
                    mismatches.append(("delta", graph.edges))
    report(
        10,
        not mismatches,
        f"nesting=identity order and crossing=antidiagonal order across "
        f"{checked} encodings" + ("" if not mismatches else f"; {mismatches[:1]}"),
    )


def _all_split_patterns(max_vertices: int):
    for total in range(2, max_vertices + 1):
        for openings in range(1, total):
            closings = total - openings
            possible = [
                (u, openings + w)
                for u in range(1, openings + 1)
                for w in range(1, closings + 1)
            ]
            for size in range(1, len(possible) + 1):
                for chosen in combinations(possible, size):
                    yield SplitGraph(
                        Multigraph.from_pairs(total, chosen), openings
                    )


def test_criterion_11_containment_transport():
    patterns = [
        (split, matrix_of_split_graph(split)) for split in _all_split_patterns(4)
    ]
    mismatches = []
    graphs_checked = 0
    # Left-right graphs with at most 4 edges, swept through their fillings
    # (at most 6 cells keeps the interleavings desk-scale).
    for shape in iter_shapes(6):
        for profile in iter_profiles(shape, 4):
            for filling in enumerate_fillings(shape, profile):
                decoded = lr_decode(filling)
                graphs_checked += 1
                for split, matrix in patterns:
                    if contains_subgraph(
                        decoded.graph,
                        split,
                        isolated_openings=decoded.isolated_openings,
                    ) != contains(filling, matrix):
                        mismatches.append((filling.rows, split.graph.edges))
    report(
        11,
        not mismatches,
        f"graph containment equals filling containment for "
        f"{len(patterns)} split patterns across {graphs_checked} graphs"
        + ("" if not mismatches else f"; {mismatches[:1]}"),
    )
