"""Multigraphs, statistics, degree sequences, split-graph dictionary."""

from __future__ import annotations

from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crossnest.graphs import (
    DegreeSequence,
    Multigraph,
    contains_subgraph,
    cross,
    cross_weak,
    degree_sequence,
    enumerate_graphs,
    enumerate_graphs_by_size,
    enumerate_perfect_matchings,
    format_graph,
    is_feasible,
    matching_chain_counts,
    nest,
    nest_weak,
    parse_graph,
)
from crossnest.patterns import PatternMatrix, antiidentity, identity

from oracles import (
    SplitGraph,
    _is_crossing_set,
    _is_nesting_set,
    graphs_by_halfedge_matching,
    k_crossing_pattern,
    k_nesting_pattern,
    kh_patterns,
    matrix_of_split_graph,
    pairwise_cross,
    pairwise_cross_weak,
    pairwise_nest,
    pairwise_nest_weak,
    split_contains,
    split_graph_of_matrix,
    split_vertex,
)


def mg(n, *pairs):
    return Multigraph.from_pairs(n, pairs)


small_multigraphs = st.builds(
    lambda n, picks: Multigraph.from_pairs(
        n, [(u, v) for (u, v) in picks if v <= n]
    ),
    st.integers(2, 6),
    st.lists(
        st.tuples(st.integers(1, 5), st.integers(2, 6)).filter(lambda e: e[0] < e[1]),
        max_size=5,
    ),
)


class TestMultigraph:
    def test_aggregation(self):
        graph = mg(3, (1, 2), (1, 2), (2, 3))
        assert graph.edges == ((1, 2, 2), (2, 3, 1))
        assert graph.edge_count == 3

    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            mg(3, (2, 2))

    def test_reversed_edge_rejected(self):
        with pytest.raises(ValueError):
            mg(3, (3, 1))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            mg(2, (1, 3))


class TestDegreeSequence:
    def test_two_crossing(self):
        assert degree_sequence(mg(4, (1, 3), (2, 4))).pairs == (
            (0, 1),
            (0, 1),
            (1, 0),
            (1, 0),
        )

    def test_triple_edge(self):
        assert degree_sequence(mg(2, (1, 2, 3))).pairs == ((0, 3), (3, 0))

    def test_isolated(self):
        assert degree_sequence(Multigraph(1, ())).pairs == ((0, 0),)


class TestFeasibility:
    def test_single_edge(self):
        assert is_feasible(DegreeSequence(((0, 1), (1, 0))))

    def test_backwards_edge_infeasible(self):
        assert not is_feasible(DegreeSequence(((1, 0), (0, 1))))

    def test_counterexample_sequence_feasible(self):
        assert is_feasible(
            DegreeSequence(((0, 2), (0, 2), (1, 1), (2, 0), (2, 0)))
        )

    def test_unbalanced_totals(self):
        assert not is_feasible(DegreeSequence(((0, 2), (1, 0))))

    def test_characterizes_nonempty_enumeration(self):
        # Feasibility holds exactly when some graph realizes the sequence.
        from itertools import product

        for n in range(0, 4):
            for pairs in product(
                [(l, r) for l in range(3) for r in range(3)], repeat=n
            ):
                degrees = DegreeSequence(tuple(pairs))
                if degrees.total_left + degrees.total_right > 6:
                    continue
                some = next(iter(enumerate_graphs(degrees)), None)
                assert (some is not None) == is_feasible(degrees)
                if some is not None:
                    assert degree_sequence(some) == degrees


class TestStatistics:
    def test_two_crossing(self):
        graph = mg(4, (1, 3), (2, 4))
        assert (cross(graph), nest(graph)) == (2, 1)
        assert (cross_weak(graph), nest_weak(graph)) == (2, 1)

    def test_two_nesting(self):
        graph = mg(4, (1, 4), (2, 3))
        assert (cross(graph), nest(graph)) == (1, 2)

    def test_weak_crossing_shares_endpoint(self):
        graph = mg(4, (1, 3), (1, 4))
        assert cross(graph) == 1
        assert cross_weak(graph) == 2

    def test_double_edge_weak_stats(self):
        graph = mg(2, (1, 2, 2))
        assert cross(graph) == nest(graph) == 1
        assert cross_weak(graph) == nest_weak(graph) == 2

    def test_edgeless(self):
        graph = Multigraph(3, ())
        assert cross(graph) == nest(graph) == 0
        assert cross_weak(graph) == nest_weak(graph) == 0

    def test_any_edge_gives_one(self):
        graph = mg(5, (2, 4))
        assert cross(graph) == nest(graph) == 1

    def test_weak_dominates_strict_sweep(self):
        for graph in enumerate_graphs_by_size(5, 3):
            assert cross(graph) <= cross_weak(graph)
            assert nest(graph) <= nest_weak(graph)

    def test_against_pairwise_oracle_sweep(self):
        for n, m in [(4, 3), (5, 3), (6, 2), (7, 3), (5, 4)]:
            for graph in enumerate_graphs_by_size(n, m):
                assert cross(graph) == pairwise_cross(graph)
                assert nest(graph) == pairwise_nest(graph)
                assert cross_weak(graph) == pairwise_cross_weak(graph)
                assert nest_weak(graph) == pairwise_nest_weak(graph)

    @given(small_multigraphs)
    def test_against_pairwise_oracle_random(self, graph):
        assert cross(graph) == pairwise_cross(graph)
        assert nest(graph) == pairwise_nest(graph)
        assert cross_weak(graph) == pairwise_cross_weak(graph)
        assert nest_weak(graph) == pairwise_nest_weak(graph)


class TestSplitVertex:
    def test_two_sided_vertex(self):
        assert split_vertex(DegreeSequence(((1, 1),)), 1).pairs == ((1, 0), (0, 1))

    def test_zero_left(self):
        assert split_vertex(DegreeSequence(((0, 3),)), 1).pairs == ((0, 0), (0, 3))

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            split_vertex(DegreeSequence(((1, 1),)), 2)

    @pytest.mark.parametrize(
        "pairs",
        [
            ((0, 1), (1, 1), (1, 0)),
            ((0, 2), (1, 1), (1, 1), (2, 0)),
            ((0, 1), (0, 1), (1, 0), (1, 0)),
        ],
    )
    def test_counting_invariance(self, pairs):
        # Splitting any vertex preserves the joint distribution of all
        # four statistics over the graphs on the sequence.
        from collections import Counter

        degrees = DegreeSequence(pairs)
        base = Counter(
            (cross(g), nest(g), cross_weak(g), nest_weak(g))
            for g in enumerate_graphs(degrees)
        )
        for index in range(1, degrees.n + 1):
            split = split_vertex(degrees, index)
            after = Counter(
                (cross(g), nest(g), cross_weak(g), nest_weak(g))
                for g in enumerate_graphs(split)
            )
            assert base == after


class TestEnumerateGraphs:
    def test_path(self):
        degrees = DegreeSequence(((0, 1), (1, 1), (1, 0)))
        graphs = list(enumerate_graphs(degrees))
        assert [g.edges for g in graphs] == [((1, 2, 1), (2, 3, 1))]

    def test_double_edge_not_double_counted(self):
        degrees = DegreeSequence(((0, 2), (2, 0)))
        graphs = list(enumerate_graphs(degrees))
        assert [g.edges for g in graphs] == [((1, 2, 2),)]

    def test_infeasible_empty(self):
        assert list(enumerate_graphs(DegreeSequence(((1, 0), (0, 1))))) == []

    @pytest.mark.parametrize(
        "pairs",
        [
            ((0, 1), (1, 1), (1, 0)),
            ((0, 2), (2, 0)),
            ((0, 2), (0, 1), (2, 1), (1, 0)),
            ((0, 0), (0, 2), (1, 0), (1, 0)),
            ((0, 3), (1, 1), (2, 0), (1, 0)),
        ],
    )
    def test_matches_halfedge_oracle(self, pairs):
        degrees = DegreeSequence(pairs)
        ours = {g.edges for g in enumerate_graphs(degrees)}
        oracle = graphs_by_halfedge_matching(pairs)
        assert ours == oracle

    def test_each_graph_once(self):
        degrees = DegreeSequence(((0, 2), (0, 2), (1, 1), (2, 0), (2, 0)))
        graphs = [g.edges for g in enumerate_graphs(degrees)]
        assert len(graphs) == len(set(graphs))

    def test_lexicographic_order(self):
        # Multiplicities read vertex by vertex: v ascending, then u ascending.
        def multiplicities(graph):
            mult = {(u, v): m for u, v, m in graph.edges}
            return [
                mult.get((u, v), 0)
                for v in range(1, graph.n + 1)
                for u in range(1, v)
            ]

        for n in range(6):
            by_degrees: dict = {}
            for m in range(4):
                for graph in enumerate_graphs_by_size(n, m):
                    by_degrees.setdefault(degree_sequence(graph), []).append(graph)
            for degrees, graphs in by_degrees.items():
                expected = sorted(graphs, key=multiplicities)
                assert list(enumerate_graphs(degrees)) == expected, degrees

    def test_matchings_count(self):
        assert sum(1 for _ in enumerate_perfect_matchings(6)) == 15
        assert sum(1 for _ in enumerate_perfect_matchings(8)) == 105


class TestMatchingChainCounts:
    @staticmethod
    def brute(vertices, k):
        """Capped (k-crossings, k-nestings) tallies over listed matchings,
        testing every k-subset of arcs pairwise."""
        tallies = Counter()
        for graph in enumerate_perfect_matchings(vertices):
            subsets = list(combinations(graph.edge_pairs(), k))
            crossings = sum(1 for arcs in subsets if _is_crossing_set(arcs))
            nestings = sum(1 for arcs in subsets if _is_nesting_set(arcs))
            tallies[min(crossings, 2), min(nestings, 2)] += 1
        return tallies

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("vertices", [0, 2, 4, 6, 8, 10])
    def test_matches_brute_count(self, vertices, k):
        assert matching_chain_counts(vertices, k) == self.brute(vertices, k)

    @pytest.mark.parametrize(
        "vertices, k, message",
        [
            (13, 3, "perfect matchings need an even vertex count"),
            (-2, 3, "vertex count must be nonnegative"),
            (8, 4, "counted for k = 2 or 3"),
        ],
    )
    def test_rejects(self, vertices, k, message):
        with pytest.raises(ValueError, match=message):
            matching_chain_counts(vertices, k)


class TestContainsSubgraph:
    def test_crossing_pattern_identity_injection(self):
        graph = mg(4, (1, 3), (2, 4))
        assert contains_subgraph(graph, k_crossing_pattern(2).graph)

    def test_nesting_graph_lacks_crossing(self):
        graph = mg(4, (1, 4), (2, 3))
        assert not contains_subgraph(graph, k_crossing_pattern(2).graph)

    def test_single_edge_pattern(self):
        pattern = SplitGraph(mg(2, (1, 2)), 1)
        assert split_contains(mg(5, (2, 3)), pattern)
        assert not split_contains(Multigraph(5, ()), pattern)

    def test_pattern_statistics_transport(self):
        for graph in enumerate_graphs_by_size(5, 3):
            for k in (2, 3):
                assert contains_subgraph(graph, k_crossing_pattern(k).graph) == (
                    cross(graph) >= k
                )
                assert contains_subgraph(graph, k_nesting_pattern(k).graph) == (
                    nest(graph) >= k
                )

    def test_multigraph_pattern_rejected(self):
        with pytest.raises(ValueError):
            contains_subgraph(mg(2, (1, 2)), mg(2, (1, 2, 2)))

    def test_isolated_pattern_vertex_needs_matching_side(self):
        # Split pattern: opening 1, isolated closing 2, closing 3 with an
        # edge from 1 to 3.  The middle vertex must land on a vertex that
        # can close edges.
        pattern = SplitGraph(Multigraph.from_pairs(3, [(1, 3)]), 1)
        two_openings = mg(3, (1, 3), (2, 3))  # middle vertex opens an edge
        assert not split_contains(two_openings, pattern)
        closing_between = mg(4, (1, 4), (1, 2))  # vertex 2 closes an edge
        assert split_contains(closing_between, pattern)

    def test_untagged_isolated_vertex_plays_both_sides(self):
        pattern = SplitGraph(Multigraph.from_pairs(3, [(1, 3)]), 1)
        graph = mg(4, (1, 4))  # vertices 2, 3 isolated
        assert split_contains(graph, pattern)

    def test_tagged_isolated_vertex_respects_tag(self):
        pattern = SplitGraph(Multigraph.from_pairs(3, [(1, 3)]), 1)
        graph = mg(3, (1, 3))  # vertex 2 isolated
        assert split_contains(graph, pattern, isolated_openings=frozenset())
        assert not split_contains(graph, pattern, isolated_openings=frozenset({2}))

    def test_bare_multigraph_pattern_ignores_sides(self):
        # Without split structure only the edges constrain the injection.
        pattern = Multigraph.from_pairs(3, [(1, 3)])
        assert contains_subgraph(mg(3, (1, 3), (2, 3)), pattern)

    def test_degrees_read_only_for_split_patterns(self, monkeypatch):
        # Only a split pattern's sides need the graph's degrees, and only
        # the split-graph oracle reads them; the library never does.
        import oracles
        from crossnest import graphs

        calls = []

        def counted(graph):
            calls.append(graph)
            return degree_sequence(graph)

        monkeypatch.setattr(graphs, "degree_sequence", counted)
        monkeypatch.setattr(oracles, "degree_sequence", counted)
        graph = mg(4, (1, 3), (2, 4))
        assert contains_subgraph(graph, Multigraph.from_pairs(2, [(1, 2)]))
        assert not contains_subgraph(graph, Multigraph.from_pairs(4, [(1, 4), (2, 3)]))
        assert contains_subgraph(graph, k_crossing_pattern(2).graph)
        assert calls == []
        assert split_contains(graph, k_crossing_pattern(2))
        assert calls == [graph]

    @pytest.mark.parametrize("k, contained", [(1, 1784), (2, 16)])
    def test_cor3_9_patterns_need_no_side_rule(self, k, contained):
        # cor3_9's patterns have no isolated vertex, so their edges fix
        # every side and the side rule can change no answer.  Checked over
        # every graph within the census bounds of the benchmark.

        checks = hits = 0
        for pattern in kh_patterns(k):
            split = SplitGraph(pattern, k + 1)
            for n in range(8):
                for m in range(4):
                    for graph in enumerate_graphs_by_size(n, m):
                        found = contains_subgraph(graph, pattern)
                        assert found == split_contains(graph, split), graph
                        checks += 1
                        hits += found
        assert (checks, hits) == (6472, contained)


class TestSplitGraphDictionary:
    def test_round_trip_all_small_matrices(self):
        from itertools import product

        for s, t in [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 3)]:
            for bits in product((0, 1), repeat=s * t):
                if not any(bits):
                    continue
                rows = tuple(
                    tuple(bits[i * t + j] for j in range(t)) for i in range(s)
                )
                matrix = PatternMatrix(rows)
                assert matrix_of_split_graph(split_graph_of_matrix(matrix)) == matrix

    def test_antidiagonal_maps_to_crossing(self):
        for k in (1, 2, 3):
            assert split_graph_of_matrix(antiidentity(k)) == k_crossing_pattern(k)
            assert split_graph_of_matrix(identity(k)) == k_nesting_pattern(k)

    def test_split_graph_validation(self):
        with pytest.raises(ValueError):
            SplitGraph(mg(4, (3, 4)), 1)  # edge between two closings
        with pytest.raises(ValueError):
            SplitGraph(mg(2, (1, 2, 2)), 1)  # not simple

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_crossing_over_block_composes_block_matrices(self, k):
        # k mutually crossing (nested) edges around an inner split block H
        # give the matrix with an antidiagonal (identity) above-left of the
        # matrix of H.  With H a single edge these are cor3_9's patterns,
        # and their matrices are the staircase pattern of the avoidance
        # bijection and the identity, both of order k + 1.
        from crossnest.patterns import block_diag, f_matrix

        crossing, nesting = (SplitGraph(p, k + 1) for p in kh_patterns(k))
        edge_matrix = matrix_of_split_graph(SplitGraph(mg(2, (1, 2)), 1))
        assert matrix_of_split_graph(crossing) == block_diag(
            antiidentity(k), edge_matrix
        )
        assert matrix_of_split_graph(crossing) == f_matrix(k + 1)
        assert matrix_of_split_graph(nesting) == block_diag(identity(k), edge_matrix)
        assert matrix_of_split_graph(nesting) == identity(k + 1)


class TestTextFormats:
    def test_graph_round_trip(self):
        graph = mg(4, (1, 3), (2, 4), (2, 4))
        assert parse_graph(format_graph(graph)) == graph

    def test_graph_requires_three_tokens(self):
        with pytest.raises(ValueError):
            parse_graph("3\n1 2\n")

    def test_graph_empty_input(self):
        with pytest.raises(ValueError):
            parse_graph("\n")
