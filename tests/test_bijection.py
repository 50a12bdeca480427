"""The transfer step, the iterated algorithms, block lifting, and the
graph-level bijection."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crossnest.bijection import (
    PreconditionError,
    _transfer,
    a1,
    a2,
    graph_biject,
    it_jt_biject,
    lift_block,
)
from crossnest.graphs import (
    DegreeSequence,
    Multigraph,
    cross,
    degree_sequence,
    enumerate_graphs,
    enumerate_graphs_by_size,
    nest,
)
from crossnest.codec import b_cells_of
from crossnest.patterns import (
    antidiagonal_cells,
    antiidentity,
    contains,
    f_cells,
    f_matrix,
    first_f_occurrence,
    first_j_occurrence,
    identity,
)
from crossnest.shapes import enumerate_fillings, filling_from_rows, sums_of

from oracles import brute_contains, split_graph_biject


def mg(n, *pairs):
    return Multigraph.from_pairs(n, pairs)


def sweep_fillings(max_cells, max_total):
    from crossnest.experiments import iter_profiles, iter_shapes

    for shape in iter_shapes(max_cells):
        for profile in iter_profiles(shape, max_total):
            yield from enumerate_fillings(shape, profile)


def phi(filling, t):
    """One step of ``a1``: move the first order-t antidiagonal occurrence
    onto its companion cells."""
    cells = tuple(antidiagonal_cells(first_j_occurrence(filling, t)))
    return _transfer(filling, cells, b_cells_of(cells))


def psi(filling, t):
    """One step of ``a2``: move the first ``f_matrix(t)`` occurrence back
    onto its antidiagonal."""
    occ = first_f_occurrence(filling, t)
    return _transfer(filling, f_cells(occ), antidiagonal_cells(occ))


class TestPhiPsi:
    # The single transfer step, built from the same calls a1 and a2 make.
    def test_phi_swaps_the_antidiagonal(self):
        assert phi(filling_from_rows([[0, 1], [1, 0]]), 2).rows == ((1, 0), (0, 1))

    def test_phi_partial_decrement(self):
        assert phi(filling_from_rows([[0, 2], [1, 0]]), 2).rows == ((1, 1), (0, 1))

    def test_psi_inverts_first_example(self):
        assert psi(filling_from_rows([[1, 0], [0, 1]]), 2).rows == ((0, 1), (1, 0))

    def test_phi_requires_occurrence(self):
        # a1 stops where the finder reports no antidiagonal occurrence.
        filling = filling_from_rows([[1, 0], [0, 1]])
        assert first_j_occurrence(filling, 2) is None
        assert a1(psi(filling, 2), 2) == filling

    def test_psi_requires_occurrence(self):
        # a2 stops where the finder reports no f-pattern occurrence.
        filling = filling_from_rows([[0, 1], [1, 0]])
        assert first_f_occurrence(filling, 2) is None
        assert a2(phi(filling, 2), 2) == filling

    def test_order_two_minimum(self):
        for run in (a1, a2):
            with pytest.raises(ValueError, match="at least 2"):
                run(filling_from_rows([[1]]), 1)

    def test_sums_preserved_sweep(self):
        for filling in sweep_fillings(6, 3):
            for t in (2, 3):
                if contains(filling, antiidentity(t)):
                    assert sums_of(phi(filling, t)) == sums_of(filling)
                if contains(filling, f_matrix(t)):
                    assert sums_of(psi(filling, t)) == sums_of(filling)


class TestA1A2:
    def test_a1_single_step(self):
        assert a1(filling_from_rows([[0, 1], [1, 0]]), 2).rows == ((1, 0), (0, 1))

    def test_a1_with_value_two(self):
        result = a1(filling_from_rows([[0, 2], [1, 0]]), 2)
        assert result.rows == ((1, 1), (0, 1))
        assert not contains(result, antiidentity(2))

    def test_a1_rejects_f_pattern(self):
        with pytest.raises(PreconditionError):
            a1(filling_from_rows([[1, 0], [0, 1]]), 2)

    def test_a2_rejects_antidiagonal(self):
        with pytest.raises(PreconditionError):
            a2(filling_from_rows([[0, 1], [1, 0]]), 2)

    def test_a1_identity_when_already_avoiding(self):
        filling = filling_from_rows([[1, 0], [0, 0]])
        assert a1(filling, 2) == filling
        assert a2(filling, 2) == filling

    def test_round_trips_with_checks(self):
        # a2(a1(L)) = L for avoiders of the f-pattern, a1(a2(L)) = L for
        # avoiders of the antidiagonal; per-step invariants enabled.
        for filling in sweep_fillings(6, 3):
            for t in (2, 3):
                if not contains(filling, f_matrix(t)):
                    forward = a1(filling, t, check=True)
                    assert not contains(forward, antiidentity(t))
                    assert sums_of(forward) == sums_of(filling)
                    assert a2(forward, t, check=True) == filling
                if not contains(filling, antiidentity(t)):
                    backward = a2(filling, t, check=True)
                    assert not contains(backward, f_matrix(t))
                    assert a1(backward, t, check=True) == filling

    @given(
        st.integers(1, 4).flatmap(
            lambda width: st.lists(
                st.integers(1, width), min_size=1, max_size=4
            ).flatmap(
                lambda lengths: st.tuples(
                    *(
                        st.tuples(*(st.integers(0, 2) for _ in range(length)))
                        for length in sorted(lengths, reverse=True)
                    )
                )
            )
        ),
        st.integers(2, 3),
    )
    def test_round_trip_random(self, rows, t):
        filling = filling_from_rows(rows)
        if not contains(filling, f_matrix(t)):
            assert a2(a1(filling, t, check=True), t, check=True) == filling
        if not contains(filling, antiidentity(t)):
            assert a1(a2(filling, t, check=True), t, check=True) == filling


class TestLiftBlock:
    def test_no_visible_block_is_identity(self):
        filling = filling_from_rows([[0, 1], [1, 0]])

        def inner(sub):
            raise AssertionError("inner must not be called on an empty region")

        # No nonzero cell lies strictly below and right of any cell.
        result = lift_block(filling, inner)
        assert result == filling

    def test_single_cell_block_region(self):
        # Cells that can see a nonempty cell strictly below-right form the
        # sub-diagram handed to the inner map.
        filling = filling_from_rows([[1, 1], [1, 1]])
        seen = {}

        def inner(sub):
            seen["shape"] = sub.shape.parts
            seen["rows"] = sub.rows
            return sub

        lift_block(filling, inner)
        assert seen["shape"] == (1,)
        assert seen["rows"] == ((1,),)

    def test_writeback_round_trip(self):
        flip = {
            ((0, 1), (1, 0)): ((1, 0), (0, 1)),
            ((1, 0), (0, 1)): ((0, 1), (1, 0)),
        }

        def involution(sub):
            if sub.rows in flip:
                return type(sub)(sub.shape, flip[sub.rows])
            return sub

        for filling in sweep_fillings(6, 3):
            lifted = lift_block(filling, involution)
            assert sums_of(lifted) == sums_of(filling)
            assert lift_block(lifted, involution) == filling

    def test_eligible_cells_match_the_per_cell_definition(self):
        # Cell (i, j) is eligible when the region strictly below and right
        # of it contains a single 1; the eligible cells of a row form a
        # prefix, so the sub-diagram is the longest eligible prefix per row.
        def region(filling, i, j):
            parts = tuple(p - j for p in filling.shape.parts[i:] if p > j)
            rows = tuple(row[j:] for row in filling.rows[i : i + len(parts)])
            return parts, rows

        checked = 0
        for filling in sweep_fillings(8, 3):
            expected = [
                max(
                    (
                        j
                        for j in range(1, length + 1)
                        if brute_contains(*region(filling, i, j), ((1,),))
                    ),
                    default=0,
                )
                for i, length in enumerate(filling.shape.parts, start=1)
            ]
            while expected and expected[-1] == 0:
                expected.pop()
            seen = []

            def inner(sub):
                seen.append(sub.shape.parts)
                return sub

            assert lift_block(filling, inner) == filling
            assert seen == ([tuple(expected)] if expected else [])
            checked += 1
        assert checked == 7006


class TestItJt:
    def test_order_one_is_identity(self):
        filling = filling_from_rows([[3, 1], [1, 0]])
        assert it_jt_biject(filling, 1, "forward") == filling
        assert it_jt_biject(filling, 1, "backward") == filling

    def test_order_two_swaps_the_two_singletons(self):
        identity_avoider = filling_from_rows([[0, 1], [1, 0]])
        antidiagonal_avoider = filling_from_rows([[1, 0], [0, 1]])
        assert it_jt_biject(identity_avoider, 2, "forward") == antidiagonal_avoider
        assert it_jt_biject(antidiagonal_avoider, 2, "backward") == identity_avoider

    def test_precondition_enforced(self):
        with pytest.raises(PreconditionError):
            it_jt_biject(filling_from_rows([[1, 0], [0, 1]]), 2, "forward")
        with pytest.raises(PreconditionError):
            it_jt_biject(filling_from_rows([[0, 1], [1, 0]]), 2, "backward")

    def test_unknown_direction(self):
        with pytest.raises(ValueError):
            it_jt_biject(filling_from_rows([[1]]), 2, "sideways")

    def test_bijection_between_avoider_sets(self):
        from crossnest.experiments import iter_profiles, iter_shapes

        for shape in iter_shapes(6):
            for profile in iter_profiles(shape, 3):
                fillings = list(enumerate_fillings(shape, profile))
                for t in (2, 3):
                    sources = [
                        f for f in fillings if not contains(f, identity(t))
                    ]
                    targets = {
                        f.rows
                        for f in fillings
                        if not contains(f, antiidentity(t))
                    }
                    image = set()
                    for source in sources:
                        out = it_jt_biject(source, t, "forward")
                        assert sums_of(out) == sums_of(source)
                        assert out.rows in targets
                        assert out.rows not in image
                        image.add(out.rows)
                        assert it_jt_biject(out, t, "backward") == source
                    assert image == targets


class TestGraphBiject:
    def test_edgeless_identity(self):
        graph = Multigraph(4, ())
        assert graph_biject(graph, 2, "forward") == graph

    def test_single_edge_identity(self):
        graph = mg(3, (1, 3))
        assert graph_biject(graph, 2, "forward") == graph
        assert graph_biject(graph, 3, "forward") == graph

    def test_preconditions(self):
        nesting = mg(4, (1, 4), (2, 3))
        crossing = mg(4, (1, 3), (2, 4))
        with pytest.raises(PreconditionError):
            graph_biject(nesting, 2, "forward")
        with pytest.raises(PreconditionError):
            graph_biject(crossing, 2, "backward")

    def test_swaps_crossing_for_nesting(self):
        # The 2-crossing has nesting order 1, so it is a forward input;
        # its image must trade the crossing away.
        crossing = mg(4, (1, 3), (2, 4))
        image = graph_biject(crossing, 2, "forward")
        assert cross(image) < 2
        assert degree_sequence(image) == degree_sequence(crossing)
        assert graph_biject(image, 2, "backward") == crossing

    def test_counterexample_sequence_bijection(self):
        degrees = DegreeSequence(((0, 2), (0, 2), (1, 1), (2, 0), (2, 0)))
        graphs = list(enumerate_graphs(degrees))
        nonnesting = [g for g in graphs if nest(g) < 2]
        noncrossing = {g for g in graphs if cross(g) < 2}
        image = set()
        for graph in nonnesting:
            out = graph_biject(graph, 2, "forward")
            assert degree_sequence(out) == degrees
            assert graph_biject(out, 2, "backward") == graph
            image.add(out)
        assert image == noncrossing

    def test_isolated_vertices_survive(self):
        graph = mg(6, (2, 4), (3, 5))
        assert nest(graph) < 2
        out = graph_biject(graph, 2, "forward")
        assert out.n == 6
        assert degree_sequence(out) == degree_sequence(graph)

    def test_trailing_isolated_vertices(self):
        # Fixed images: a trailing pair of isolated vertices stays in place
        # and leaves the image of the vertices before it unchanged.
        crossing = mg(6, (1, 3), (2, 4))
        assert graph_biject(crossing, 2, "forward") == mg(6, (1, 4), (2, 3))
        assert graph_biject(mg(6, (1, 4), (2, 3)), 2, "backward") == crossing
        two_sided = mg(7, (1, 3), (2, 4), (3, 5))
        assert graph_biject(two_sided, 2, "forward") == mg(7, (1, 5), (2, 3), (3, 4))

    def test_degree_sequence_read_twice(self, monkeypatch):
        # One forward call reads the degrees of the core it encodes and of
        # the core it decodes, for the final check, and never of the whole
        # vertex line: vertices 6 and 7 are isolated.
        from crossnest import bijection, codec

        calls = []

        def counted(graph):
            calls.append(graph)
            return degree_sequence(graph)

        monkeypatch.setattr(codec, "degree_sequence", counted)
        monkeypatch.setattr(bijection, "degree_sequence", counted)
        graph_biject(mg(7, (1, 3), (2, 4), (3, 5)), 2, "forward")
        assert [graph.n for graph in calls] == [5, 5]

    @pytest.mark.parametrize("k", [2, 3])
    def test_equals_split_route_oracle(self, k):
        # The shape-carrying codec with two-sided vertices split and
        # isolated vertices tagged gives the same image as the staircase
        # codec on the core, on every valid input with n <= 6 and m <= 3.
        checked = 0
        for n in range(7):
            for m in range(4):
                for graph in enumerate_graphs_by_size(n, m):
                    for direction, order in (("forward", nest), ("backward", cross)):
                        if order(graph) < k:
                            image = graph_biject(graph, k, direction)
                            assert image == split_graph_biject(graph, k, direction)
                            checked += 1
        assert checked == {2: 1900, 3: 2422}[k]

    def test_degree_preservation_sweep(self):
        for pairs in [
            ((0, 2), (1, 1), (1, 1), (2, 0)),
            ((0, 1), (0, 2), (1, 1), (2, 0), (0, 0)),
            ((0, 3), (1, 1), (1, 0), (1, 0), (1, 0)),
        ]:
            degrees = DegreeSequence(pairs)
            for graph in enumerate_graphs(degrees):
                if nest(graph) < 2:
                    out = graph_biject(graph, 2, "forward")
                    assert degree_sequence(out) == degrees
                    assert cross(out) < 2


class TestPreconditionsMatchContainment:
    """The chain-length precondition checks against brute-force containment."""

    # I_3 and J_3 need three rows whose bottom one has three cells, so
    # order 3 is swept at 9 cells; at 8 cells nothing would be rejected.
    @pytest.mark.parametrize("t, max_cells, max_total", [(2, 8, 3), (3, 9, 4)])
    @pytest.mark.parametrize("direction, make, name", [
        ("forward", identity, "identity"), ("backward", antiidentity, "antidiagonal"),
    ])
    def test_rejects_exactly_the_containing(
        self, t, max_cells, max_total, direction, make, name
    ):
        from oracles import brute_contains, split_graph_biject

        rejected = 0
        for filling in sweep_fillings(max_cells, max_total):
            parts, grid = filling.shape.parts, filling.rows
            if brute_contains(parts, grid, make(t).rows):
                with pytest.raises(PreconditionError, match=name):
                    it_jt_biject(filling, t, direction)
                rejected += 1
            else:
                image = it_jt_biject(filling, t, direction)
                assert sums_of(image) == sums_of(filling)
        assert rejected > 0

    @pytest.mark.parametrize("t, max_cells, max_total", [(2, 7, 3), (3, 9, 3)])
    def test_a1_rejects_exactly_the_f_containing(self, t, max_cells, max_total):
        from oracles import brute_contains, split_graph_biject

        rejected = 0
        for filling in sweep_fillings(max_cells, max_total):
            if brute_contains(filling.shape.parts, filling.rows, f_matrix(t).rows):
                with pytest.raises(PreconditionError):
                    a1(filling, t)
                rejected += 1
            else:
                assert not contains(a1(filling, t), antiidentity(t))
        assert rejected > 0


class TestChecksSurviveOptimize:
    def test_transfer_sum_check_runs_under_dash_o(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        # Moving a unit along a row keeps the row sums but breaks the
        # column sums, so the sum-preservation check must fire.
        script = (
            "from crossnest.bijection import _transfer\n"
            "from crossnest.shapes import filling_from_rows\n"
            "try:\n"
            "    _transfer(filling_from_rows([[1, 0]]), [(1, 1)], [(1, 2)])\n"
            "except AssertionError as exc:\n"
            "    print('raised:', exc)\n"
            "else:\n"
            "    print('not raised')\n"
            "assert False, 'plain asserts are stripped'\n"
        )
        result = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "raised: transfer must preserve sums"
