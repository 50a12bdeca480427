"""Shapes, fillings, and prescribed-sum enumeration."""

from __future__ import annotations

from itertools import product
from operator import sub

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crossnest import _purekern
from crossnest.shapes import (
    Filling,
    NotWeaklyDecreasing,
    Shape,
    SumProfile,
    enumerate_fillings,
    filling_from_rows,
    format_filling,
    parse_filling,
    sums_of,
    validate_shape,
)

from oracles import brute_counts_by_col_sums, brute_fillings, compositions


small_shapes = st.lists(st.integers(1, 4), min_size=0, max_size=4).map(
    lambda parts: tuple(sorted(parts, reverse=True))
)


def profiles_for(parts, max_total):
    for total in range(max_total + 1):
        for rows in compositions(total, len(parts)):
            for cols in compositions(total, parts[0] if parts else 0):
                yield rows, cols


class TestValidateShape:
    def test_staircase_is_valid(self):
        shape = validate_shape((7, 6, 5, 4, 3, 2, 1))
        assert shape.parts == (7, 6, 5, 4, 3, 2, 1)
        assert shape.num_cells == 28

    def test_empty_shape(self):
        shape = validate_shape(())
        assert shape.num_rows == 0
        assert shape.num_cols == 0

    def test_increasing_parts_rejected(self):
        with pytest.raises(NotWeaklyDecreasing):
            validate_shape((2, 3))

    @pytest.mark.parametrize("parts", [(0,), (-1,), (2, 0), (3, 2, -2)])
    def test_nonpositive_parts_rejected(self, parts):
        with pytest.raises(NotWeaklyDecreasing):
            validate_shape(parts)

    def test_no_reordering(self):
        # Validation must not sort on the caller's behalf.
        with pytest.raises(NotWeaklyDecreasing):
            validate_shape((1, 3, 2))


class TestFilling:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Filling(Shape((2, 2)), ((0, 1), (1,)))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            filling_from_rows([[0, -1]])

    def test_entry_is_one_based(self):
        filling = filling_from_rows([[1, 2], [3]])
        assert filling.entry(1, 2) == 2
        assert filling.entry(2, 1) == 3


class TestSums:
    def test_simple(self):
        profile = sums_of(filling_from_rows([[0, 1], [1, 0]]))
        assert profile.row_sums == (1, 1)
        assert profile.col_sums == (1, 1)

    def test_single_cell(self):
        profile = sums_of(filling_from_rows([[2]]))
        assert profile.row_sums == (2,)
        assert profile.col_sums == (2,)

    def test_mass_balance_enforced(self):
        with pytest.raises(ValueError):
            SumProfile((1,), (2,))

    @given(
        st.lists(
            st.lists(st.integers(0, 3), min_size=1, max_size=4),
            min_size=0,
            max_size=4,
        )
    )
    def test_totals_agree(self, raw_rows):
        rows = sorted((tuple(r) for r in raw_rows), key=len, reverse=True)
        filling = filling_from_rows(rows)
        profile = sums_of(filling)
        assert sum(profile.row_sums) == sum(profile.col_sums) == filling.total


class TestEnumerateFillings:
    def test_two_by_two_permutations(self):
        shape = Shape((2, 2))
        fillings = list(enumerate_fillings(shape, SumProfile((1, 1), (1, 1))))
        assert [f.rows for f in fillings] == [
            ((0, 1), (1, 0)),
            ((1, 0), (0, 1)),
        ]

    def test_all_zero_profile(self):
        fillings = list(enumerate_fillings(Shape((1,)), SumProfile((0,), (0,))))
        assert [f.rows for f in fillings] == [((0,),)]

    def test_infeasible_profile(self):
        fillings = list(
            enumerate_fillings(Shape((2, 1)), SumProfile((0, 2), (1, 1)))
        )
        assert fillings == []

    def test_empty_shape_yields_one_empty_filling(self):
        fillings = list(enumerate_fillings(Shape(()), SumProfile((), ())))
        assert [f.rows for f in fillings] == [()]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            list(enumerate_fillings(Shape((2,)), SumProfile((1, 1), (1, 1))))
        with pytest.raises(ValueError):
            list(enumerate_fillings(Shape((2,)), SumProfile((2,), (1, 1, 0))))

    def test_round_trip_sums(self):
        shape = Shape((3, 2, 1))
        profile = SumProfile((2, 1, 1), (2, 1, 1))
        seen = 0
        for filling in enumerate_fillings(shape, profile):
            assert sums_of(filling) == profile
            seen += 1
        assert seen > 0

    def test_determinism(self):
        shape = Shape((3, 3))
        profile = SumProfile((2, 2), (1, 2, 1))
        first = [f.rows for f in enumerate_fillings(shape, profile)]
        second = [f.rows for f in enumerate_fillings(shape, profile)]
        assert first == second

    @pytest.mark.parametrize(
        "parts",
        [(), (1,), (2,), (2, 1), (2, 2), (3, 1), (3, 2, 1), (4, 4), (1, 1, 1)],
    )
    def test_matches_brute_force(self, parts):
        shape = Shape(parts)
        for rows, cols in profiles_for(parts, 4):
            profile = SumProfile(rows, cols)
            ours = [f.rows for f in enumerate_fillings(shape, profile)]
            oracle = brute_fillings(parts, rows, cols)
            assert ours == sorted(oracle)
            assert len(set(ours)) == len(ours)

    def test_count_consistency_full_sweep(self):
        # Stream length equals the unpruned assignment count for every
        # shape with at most 8 cells and every profile with total <= 6.
        from crossnest.experiments import compositions as comps
        from crossnest.experiments import iter_shapes

        for shape in iter_shapes(8):
            parts = shape.parts
            ncols = shape.num_cols
            for total in range(7):
                for row_sums in comps(total, len(parts)):
                    by_cols = brute_counts_by_col_sums(parts, row_sums)
                    for col_sums in comps(total, ncols):
                        profile = SumProfile(row_sums, col_sums)
                        observed = sum(
                            1 for _ in enumerate_fillings(shape, profile)
                        )
                        assert observed == by_cols.get(col_sums, 0)


class TestRowFills:
    """The kernel's one row-fill rule against a listing of every row."""

    @pytest.mark.parametrize("width", range(5))
    def test_matches_product_listing(self, width):
        for caps in product(range(4), repeat=width):
            for amount in range(6):
                expected = [
                    row
                    for row in product(*(range(cap + 1) for cap in caps))
                    if sum(row) == amount
                ]
                fills = list(_purekern._row_fills(caps, amount))
                rows = [tuple(map(sub, caps, after)) for after, _ in fills]
                assert rows == sorted(set(expected)), (caps, amount)
                for row, (_, support) in zip(rows, fills):
                    bits = sum(1 << j for j, value in enumerate(row) if value)
                    assert support == bits, (caps, amount, row)


class TestTextFormat:
    def test_round_trip(self):
        filling = filling_from_rows([[0, 3, 1], [2, 0], [1]])
        assert parse_filling(format_filling(filling)) == filling

    def test_parse_stops_at_blank_line(self):
        filling = parse_filling("1 0\n0 1\n\n9 9\n")
        assert filling.rows == ((1, 0), (0, 1))

    def test_parse_empty_input(self):
        assert parse_filling("").rows == ()

    def test_parse_rejects_increasing_rows(self):
        with pytest.raises(NotWeaklyDecreasing):
            parse_filling("1\n1 2\n")

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_filling("1 x\n")
