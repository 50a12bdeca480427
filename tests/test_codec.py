"""Graph-to-filling codecs and the transfer move's companion cells."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crossnest.codec import (
    EncodingError,
    LeftRightGraph,
    b_cells_of,
    delta_decode,
    delta_encode,
    lr_decode,
    lr_encode,
)
from crossnest.graphs import (
    Multigraph,
    cross,
    degree_sequence,
    enumerate_graphs_by_size,
    is_feasible,
    nest,
)
from crossnest.patterns import (
    antiidentity,
    contains,
    identity,
    max_antiidentity_order,
    max_identity_order,
)
from crossnest.shapes import enumerate_fillings, filling_from_rows, sums_of


def mg(n, *pairs):
    return Multigraph.from_pairs(n, pairs)


def small_fillings(max_cells, max_total):
    from crossnest.experiments import iter_profiles, iter_shapes

    for shape in iter_shapes(max_cells):
        for profile in iter_profiles(shape, max_total):
            yield from enumerate_fillings(shape, profile)


random_multigraphs = st.builds(
    lambda n, picks: Multigraph.from_pairs(
        n, [(u, v) for (u, v) in picks if v <= n]
    ),
    st.integers(1, 6),
    st.lists(
        st.tuples(st.integers(1, 5), st.integers(2, 6)).filter(
            lambda e: e[0] < e[1]
        ),
        max_size=6,
    ),
)

random_fillings = st.integers(1, 4).flatmap(
    lambda width: st.lists(
        st.integers(1, width), min_size=0, max_size=4
    ).flatmap(
        lambda lengths: st.tuples(
            *(
                st.tuples(*(st.integers(0, 2) for _ in range(length)))
                for length in sorted(lengths, reverse=True)
            )
        )
    )
).map(filling_from_rows)


class TestDeltaCodec:
    def test_single_edge(self):
        filling = delta_encode(mg(3, (1, 3)))
        assert filling.shape.parts == (2, 1)
        assert filling.rows == ((1, 0), (0,))

    def test_single_vertex(self):
        filling = delta_encode(Multigraph(1, ()))
        assert filling.shape.parts == ()

    def test_crossing_becomes_antidiagonal(self):
        filling = delta_encode(mg(4, (1, 3), (2, 4)))
        assert contains(filling, antiidentity(2))
        assert not contains(filling, identity(2))

    def test_decode_rejects_wrong_shape(self):
        filling = filling_from_rows([[1, 0], [0, 0]])
        with pytest.raises(ValueError):
            delta_decode(filling, 3)

    def test_round_trip_exhaustive(self):
        for n in range(1, 6):
            for m in range(0, 4):
                for graph in enumerate_graphs_by_size(n, m):
                    assert delta_decode(delta_encode(graph), n) == graph

    @given(random_multigraphs)
    def test_round_trip_random(self, graph):
        assert delta_decode(delta_encode(graph), graph.n) == graph

    def test_row_sums_are_left_degrees(self):
        graph = mg(5, (1, 4), (2, 4), (3, 5), (1, 2))
        filling = delta_encode(graph)
        degrees = degree_sequence(graph)
        n = graph.n
        profile = sums_of(filling)
        for j in range(2, n + 1):
            assert profile.row_sums[n - j] == degrees.pairs[j - 1][0]
        for i in range(1, n):
            assert profile.col_sums[i - 1] == degrees.pairs[i - 1][1]


class TestLeftRightGraph:
    def test_two_sided_vertex_rejected(self):
        with pytest.raises(ValueError):
            LeftRightGraph(mg(3, (1, 2), (2, 3)))

    def test_tag_must_be_isolated(self):
        with pytest.raises(ValueError):
            LeftRightGraph(mg(2, (1, 2)), frozenset({1}))

    def test_sides(self):
        lrg = LeftRightGraph(mg(3, (1, 3)), frozenset({2}))
        assert lrg.side(1) == "opening"
        assert lrg.side(2) == "opening"
        assert lrg.side(3) == "closing"
        assert lrg.openings() == [1, 2]
        assert lrg.closings() == [3]


class TestLrCodec:
    def test_crossing_example(self):
        filling = lr_encode(LeftRightGraph(mg(4, (1, 3), (2, 4))))
        assert filling.shape.parts == (2, 2)
        assert filling.rows == ((0, 1), (1, 0))

    def test_nesting_example(self):
        filling = lr_encode(LeftRightGraph(mg(4, (1, 4), (2, 3))))
        assert filling.shape.parts == (2, 2)
        assert filling.rows == ((1, 0), (0, 1))

    def test_degree_transport(self):
        # Any filling with these sums decodes to a graph whose closing
        # vertices carry the row sums bottom-to-top as left degrees and
        # whose openings carry the column sums as right degrees.
        filling = filling_from_rows(
            [
                [2, 2, 0, 0, 0],
                [0, 0, 2, 0, 0],
                [0, 0, 1, 2, 0],
                [0, 0, 0, 0, 2],
            ]
        )
        profile = sums_of(filling)
        assert profile.row_sums == (4, 2, 3, 2)
        assert profile.col_sums == (2, 2, 3, 2, 2)
        decoded = lr_decode(filling)
        degrees = degree_sequence(decoded.graph)
        closings = decoded.closings()
        c = len(closings)
        lefts_by_row = tuple(
            degrees.pairs[closings[c - i] - 1][0] for i in range(1, c + 1)
        )
        assert lefts_by_row == (4, 2, 3, 2)
        rights = tuple(degrees.pairs[v - 1][1] for v in decoded.openings())
        assert rights == (2, 2, 3, 2, 2)

    def test_every_filling_decodes_and_reencodes(self):
        for filling in small_fillings(6, 3):
            decoded = lr_decode(filling)
            assert lr_encode(decoded) == filling
            assert is_feasible(degree_sequence(decoded.graph))

    @given(random_fillings)
    def test_decode_reencode_random(self, filling):
        decoded = lr_decode(filling)
        assert lr_encode(decoded) == filling
        assert is_feasible(degree_sequence(decoded.graph))

    def test_encode_decode_round_trip_on_graphs(self):
        # Graphs in the decodable domain come back exactly, tags included.
        for filling in small_fillings(5, 2):
            decoded = lr_decode(filling)
            again = lr_decode(lr_encode(decoded))
            assert again == decoded

    def test_untaggable_leading_closing(self):
        lrg = LeftRightGraph(mg(2, (1, 2)), frozenset())
        # Prepend an isolated closing vertex before any opening.
        bad = LeftRightGraph(mg(3, (2, 3)), frozenset())
        with pytest.raises(EncodingError):
            lr_encode(bad)
        assert lr_encode(lrg).shape.parts == (1,)

    def test_untaggable_trailing_opening(self):
        bad = LeftRightGraph(mg(3, (1, 2)), frozenset({3}))
        with pytest.raises(EncodingError):
            lr_encode(bad)

    def test_statistic_transport(self):
        for filling in small_fillings(6, 3):
            graph = lr_decode(filling).graph
            assert nest(graph) == max_identity_order(filling)
            assert cross(graph) == max_antiidentity_order(filling)

    def test_delta_statistic_transport(self):
        for n in range(1, 5):
            for m in range(0, 4):
                for graph in enumerate_graphs_by_size(n, m):
                    filling = delta_encode(graph)
                    assert nest(graph) == max_identity_order(filling)
                    assert cross(graph) == max_antiidentity_order(filling)

    def test_empty_graph(self):
        filling = lr_encode(LeftRightGraph(Multigraph(0, ())))
        assert filling.shape.parts == ()
        assert lr_decode(filling).graph.n == 0


class TestCompanionCells:
    # (r_{s+1}, c_s) for s < t, then the corner (r_1, c_t).
    @pytest.mark.parametrize(
        "a_cells, b_cells",
        [
            (((2, 1), (1, 2)), ((1, 1), (2, 2))),
            (((5, 1), (3, 2), (1, 4)), ((3, 1), (1, 2), (5, 4))),
        ],
    )
    def test_companion_cells(self, a_cells, b_cells):
        assert b_cells_of(a_cells) == b_cells


class TestLeftRightGraphSidesKeptOnce:
    def test_sides_read_one_degree_sequence(self, monkeypatch):
        from crossnest import codec

        calls = []

        def counted(graph):
            calls.append(graph)
            return degree_sequence(graph)

        monkeypatch.setattr(codec, "degree_sequence", counted)
        lrg = LeftRightGraph(mg(5, (1, 4), (2, 5), (1, 5)), frozenset({3}))
        assert len(calls) == 1
        assert lrg.openings() == [1, 2, 3]
        assert lrg.closings() == [4, 5]
        assert [lrg.side(v) for v in range(1, 6)] == ["opening"] * 3 + ["closing"] * 2
        assert len(calls) == 1

    def test_equality_and_hash_across_lr_decode_round_trips(self):
        for filling in small_fillings(5, 2):
            decoded = lr_decode(filling)
            again = lr_decode(lr_encode(decoded))
            rebuilt = LeftRightGraph(decoded.graph, decoded.isolated_openings)
            assert again == decoded == rebuilt
            assert hash(again) == hash(decoded) == hash(rebuilt)
            assert len({decoded, again, rebuilt}) == 1
            assert repr(rebuilt) == repr(decoded)
            assert "sides" not in repr(decoded)

    def test_tags_still_tell_graphs_apart(self):
        tagged = LeftRightGraph(mg(3, (1, 3)), frozenset({2}))
        untagged = LeftRightGraph(mg(3, (1, 3)))
        assert tagged != untagged
        assert tagged.sides == ("opening", "opening", "closing")
        assert untagged.sides == ("opening", "closing", "closing")
