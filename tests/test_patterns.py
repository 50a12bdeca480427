"""Pattern matrices, containment, occurrence orders."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crossnest.patterns import (
    Occurrence,
    PatternMatrix,
    antiidentity,
    block_diag,
    contains,
    f_matrix,
    first_f_occurrence,
    first_j_occurrence,
    identity,
    m132,
    m213,
    max_antiidentity_order,
    max_identity_order,
    occurrences,
    parse_pattern,
)
from crossnest.shapes import enumerate_fillings, filling_from_rows

from oracles import (
    brute_contains,
    brute_occurrences,
    f_order,
    j_order,
    longest_increasing_chain,
)


def small_fillings(max_cells=6, max_total=3):
    """Deterministic sweep of small fillings for property-style checks."""
    from crossnest.experiments import iter_profiles, iter_shapes

    for shape in iter_shapes(max_cells):
        for profile in iter_profiles(shape, max_total):
            yield from enumerate_fillings(shape, profile)


class TestConstructors:
    def test_identity_one_equals_antiidentity_one(self):
        assert identity(1) == antiidentity(1)
        assert identity(1).rows == ((1,),)

    def test_antiidentity_two(self):
        assert antiidentity(2).rows == ((0, 1), (1, 0))

    def test_f_matrix_two_is_identity_two(self):
        assert f_matrix(2) == identity(2)

    def test_f_matrix_one_degenerates(self):
        assert f_matrix(1) == identity(1)

    def test_f_matrix_three(self):
        assert f_matrix(3) == block_diag(antiidentity(2), identity(1))
        assert f_matrix(3).rows == (
            (0, 1, 0),
            (1, 0, 0),
            (0, 0, 1),
        )

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            identity(0)
        with pytest.raises(ValueError):
            antiidentity(-1)

    def test_block_diag_builds_identity(self):
        assert block_diag(identity(1), identity(1)) == identity(2)

    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
    def test_block_diag_dimensions(self, ra, ca, rb, cb):
        a = PatternMatrix(tuple(tuple(1 for _ in range(ca)) for _ in range(ra)))
        b = PatternMatrix(tuple(tuple(1 for _ in range(cb)) for _ in range(rb)))
        joined = block_diag(a, b)
        assert joined.num_rows == ra + rb
        assert joined.num_cols == ca + cb

    def test_m213_m132_verbatim(self):
        assert m213().rows == ((0, 0, 1), (1, 0, 0), (0, 1, 0))
        assert m132().rows == ((0, 1, 0), (0, 0, 1), (1, 0, 0))

    def test_m_patterns_are_permutation_matrices(self):
        for pattern in (m213(), m132()):
            assert all(sum(row) == 1 for row in pattern.rows)
            for j in range(pattern.num_cols):
                assert sum(row[j] for row in pattern.rows) == 1

    def test_all_zero_pattern_rejected(self):
        with pytest.raises(ValueError):
            PatternMatrix(((0, 0), (0, 0)))

    def test_ragged_pattern_rejected(self):
        with pytest.raises(ValueError):
            PatternMatrix(((0, 1), (1,)))


class TestOccurrences:
    def test_unique_antidiagonal_occurrence(self):
        filling = filling_from_rows([[0, 1], [1, 0]])
        occs = occurrences(filling, antiidentity(2))
        assert occs == [Occurrence((1, 2), (1, 2))]

    def test_no_identity_occurrence(self):
        filling = filling_from_rows([[0, 1], [1, 0]])
        assert occurrences(filling, identity(2)) == []

    def test_single_cell(self):
        filling = filling_from_rows([[1]])
        assert occurrences(filling, identity(1)) == [Occurrence((1,), (1,))]

    def test_contains_short_circuit_agrees(self):
        filling = filling_from_rows([[1, 1], [1, 1]])
        assert contains(filling, identity(2))
        assert contains(filling, antiidentity(2))

    def test_zero_column_pattern_literal_semantics(self):
        # A zero column claims a column slot; only the corner constrains it.
        pattern = PatternMatrix(((1, 0),))
        assert contains(filling_from_rows([[1, 0]]), pattern)
        assert not contains(filling_from_rows([[1]]), pattern)
        assert not contains(filling_from_rows([[0, 1]]), pattern)

    def test_zero_row_pattern_literal_semantics(self):
        pattern = PatternMatrix(((1,), (0,)))
        assert contains(filling_from_rows([[1], [0]]), pattern)
        assert not contains(filling_from_rows([[1]]), pattern)

    def test_against_brute_force_sweep(self):
        patterns = [
            identity(1),
            identity(2),
            antiidentity(2),
            f_matrix(2),
            f_matrix(3),
            identity(3),
            antiidentity(3),
            PatternMatrix(((1, 0), (0, 0))),
        ]
        for filling in small_fillings():
            parts = filling.shape.parts
            for pattern in patterns:
                expected = brute_contains(parts, filling.rows, pattern.rows)
                assert contains(filling, pattern) == expected
                occs = occurrences(filling, pattern)
                expected_occs = brute_occurrences(parts, filling.rows, pattern.rows)
                assert [(o.rows, o.cols) for o in occs] == sorted(expected_occs)

    def test_corner_condition_blocks_containment(self):
        # Both antidiagonal cells are nonempty, yet the corner cell (2, 2)
        # falls outside the staircase, so there is no containment.
        filling = filling_from_rows([[0, 1], [1]])
        assert filling.entry(1, 2) and filling.entry(2, 1)
        assert not contains(filling, antiidentity(2))
        assert not brute_contains((2, 1), filling.rows, antiidentity(2).rows)

    def test_figure_style_staircase_fixture(self):
        # Staircase holding an identity chain of order 3 and an
        # antidiagonal of order 2 but no antidiagonal of order 3.
        filling = filling_from_rows(
            [
                [1, 1, 0, 0, 0, 0, 0],
                [1, 1, 0, 0, 0, 0],
                [0, 0, 1, 0, 0],
                [0, 0, 0, 0],
                [0, 0, 0],
                [0, 0],
                [0],
            ]
        )
        assert contains(filling, identity(3))
        assert contains(filling, antiidentity(2))
        assert not contains(filling, antiidentity(3))
        assert brute_contains(filling.shape.parts, filling.rows, identity(3).rows)
        assert not brute_contains(
            filling.shape.parts, filling.rows, antiidentity(3).rows
        )

    def test_block_monotonicity(self):
        blocks = [
            (identity(1), identity(1)),
            (antiidentity(2), identity(1)),
            (identity(2), antiidentity(1)),
        ]
        for filling in small_fillings(max_cells=5, max_total=2):
            for a, b in blocks:
                if contains(filling, block_diag(a, b)):
                    assert contains(filling, a)
                    assert contains(filling, b)


class TestMaxOrders:
    def test_identity_filling(self):
        filling = filling_from_rows([[1, 0], [0, 1]])
        assert max_identity_order(filling) == 2
        assert max_antiidentity_order(filling) == 1

    def test_all_zero(self):
        filling = filling_from_rows([[0, 0], [0, 0]])
        assert max_identity_order(filling) == 0
        assert max_antiidentity_order(filling) == 0

    def test_bounded_by_dimensions(self):
        for filling in small_fillings(max_cells=5, max_total=3):
            bound = min(filling.shape.num_rows, filling.shape.num_cols)
            assert max_identity_order(filling) <= bound
            assert max_antiidentity_order(filling) <= bound

    def test_identity_order_is_longest_chain(self):
        for filling in small_fillings():
            assert max_identity_order(filling) == longest_increasing_chain(
                filling.rows
            )


class TestFirstOccurrences:
    def test_unique_occurrence_is_first(self):
        filling = filling_from_rows([[0, 1], [1, 0]])
        occ = first_j_occurrence(filling, 2)
        assert occ == Occurrence((1, 2), (1, 2))

    def test_j_order_prefers_left_at_equal_height(self):
        filling = filling_from_rows([[0, 1, 1], [1, 0, 0]])
        occ = first_j_occurrence(filling, 2)
        assert occ.cols == (1, 2)

    def test_absent_returns_none(self):
        filling = filling_from_rows([[0, 0], [0, 0]])
        assert first_j_occurrence(filling, 2) is None
        assert first_f_occurrence(filling, 2) is None

    def test_f_occurrence_unique(self):
        filling = filling_from_rows([[1, 0], [0, 1]])
        occ = first_f_occurrence(filling, 2)
        assert occ == Occurrence((1, 2), (1, 2))

    def test_f_occurrence_on_dense_corner(self):
        filling = filling_from_rows([[1, 1], [0, 1]])
        occ = first_f_occurrence(filling, 2)
        # Candidates: cols (1,2) and (2? ..) -- the oracle is the order
        # itself: enumerate and minimize.
        occs = occurrences(filling, f_matrix(2))
        assert occ == min(occs, key=f_order)

    def test_avoiding_identity_means_no_f2(self):
        filling = filling_from_rows([[0, 1], [1, 0]])
        assert first_f_occurrence(filling, 2) is None

    def test_orders_are_total(self):
        # Distinct occurrences always strictly compare: the comparison
        # keys are injective over every filling with at most 9 cells.
        for filling in small_fillings(max_cells=9, max_total=3):
            for t in (2, 3):
                for pattern, order in (
                    (antiidentity(t), j_order), (f_matrix(t), f_order)
                ):
                    keys = [order(o) for o in occurrences(filling, pattern)]
                    assert len(set(keys)) == len(keys)


class TestParse:
    @pytest.mark.parametrize(
        "spec, expected",
        [
            ("I3", identity(3)),
            ("J2", antiidentity(2)),
            ("F3", f_matrix(3)),
            ("M213", m213()),
            ("m132", m132()),
            ("0,1;1,0", antiidentity(2)),
        ],
    )
    def test_specs(self, spec, expected):
        assert parse_pattern(spec) == expected

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            parse_pattern("Q7")
        with pytest.raises(ValueError):
            parse_pattern("0,2;1,0")


class TestSearchesMatchListingDefinitions:
    # ``j_order`` and ``f_order`` write the occurrence orders out as keys
    # over every occurrence: the definitions that the depth-first searches
    # must reproduce.
    @pytest.fixture(scope="class")
    def fillings(self):
        return list(small_fillings(max_cells=8, max_total=3))

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_first_j_is_minimum_of_all_occurrences(self, fillings, t):
        for filling in fillings:
            occs = occurrences(filling, antiidentity(t))
            expected = min(occs, key=j_order) if occs else None
            assert first_j_occurrence(filling, t) == expected, filling

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_first_f_is_minimum_of_all_occurrences(self, fillings, t):
        for filling in fillings:
            occs = occurrences(filling, f_matrix(t))
            expected = min(occs, key=f_order) if occs else None
            assert first_f_occurrence(filling, t) == expected, filling

    def test_max_antiidentity_order_is_largest_contained(self, fillings):
        for filling in fillings:
            parts, grid = filling.shape.parts, filling.rows
            expected = 0
            while brute_contains(parts, grid, antiidentity(expected + 1).rows):
                expected += 1
            assert max_antiidentity_order(filling) == expected, filling

    def test_corner_condition_bounds_the_antidiagonal_chain(self):
        # Nonempty up-right chain of length 3 on a staircase: the bottom
        # row has length 1, so no column past 1 may be used from it.
        staircase = filling_from_rows([[0, 0, 1], [0, 1], [1]])
        assert max_antiidentity_order(staircase) == 1
        assert first_j_occurrence(staircase, 2) is None
        square = filling_from_rows([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
        assert max_antiidentity_order(square) == 3
        assert first_j_occurrence(square, 3) == Occurrence((1, 2, 3), (1, 2, 3))


class TestPatternsBuiltOnce:
    def test_constant_patterns_are_shared(self):
        assert identity(3) is identity(3)
        assert antiidentity(4) is antiidentity(4)
        assert f_matrix(3) is f_matrix(3)
        assert parse_pattern("J3") is antiidentity(3)

    def test_bad_order_still_raises(self):
        for make in (identity, antiidentity, f_matrix):
            with pytest.raises(ValueError):
                make(0)
