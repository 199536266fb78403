"""Tests for A1 addressing and rectangular ranges."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import AddressError, RangeError
from repro.grid.address import (
    CellAddress,
    column_index_to_letter,
    column_letter_to_index,
)
from repro.grid.range import RangeRef


class TestColumnLetters:
    @pytest.mark.parametrize(
        "letters,index",
        [("A", 1), ("B", 2), ("Z", 26), ("AA", 27), ("AZ", 52), ("BA", 53), ("ZZ", 702), ("AAA", 703)],
    )
    def test_letter_to_index(self, letters, index):
        assert column_letter_to_index(letters) == index

    @pytest.mark.parametrize("index", [1, 2, 26, 27, 52, 702, 703, 16384])
    def test_roundtrip(self, index):
        assert column_letter_to_index(column_index_to_letter(index)) == index

    def test_lowercase_accepted(self):
        assert column_letter_to_index("ab") == column_letter_to_index("AB")

    @pytest.mark.parametrize("bad", ["", "1", "A1", "-"])
    def test_invalid_labels_raise(self, bad):
        with pytest.raises(AddressError):
            column_letter_to_index(bad)

    def test_invalid_index_raises(self):
        with pytest.raises(AddressError):
            column_index_to_letter(0)

    @given(st.integers(min_value=1, max_value=1_000_000))
    def test_roundtrip_property(self, index):
        assert column_letter_to_index(column_index_to_letter(index)) == index


class TestCellAddress:
    def test_from_a1(self):
        address = CellAddress.from_a1("B2")
        assert (address.row, address.column) == (2, 2)

    def test_from_a1_with_dollars(self):
        assert CellAddress.from_a1("$C$10") == CellAddress(10, 3)

    def test_to_a1_roundtrip(self):
        assert CellAddress(45, 28).to_a1() == "AB45"
        assert CellAddress.from_a1("AB45") == CellAddress(45, 28)

    @pytest.mark.parametrize("bad", ["", "11", "A0", "1A", "A-1", "A 1x"])
    def test_invalid_references_raise(self, bad):
        with pytest.raises(AddressError):
            CellAddress.from_a1(bad)

    def test_zero_coordinates_rejected(self):
        with pytest.raises(AddressError):
            CellAddress(0, 1)
        with pytest.raises(AddressError):
            CellAddress(1, 0)

    def test_ordering_is_row_major(self):
        addresses = [CellAddress(2, 1), CellAddress(1, 5), CellAddress(1, 2)]
        assert sorted(addresses) == [CellAddress(1, 2), CellAddress(1, 5), CellAddress(2, 1)]

    def test_offset(self):
        assert CellAddress(3, 3).offset(rows=2, columns=-1) == CellAddress(5, 2)

    def test_hashable(self):
        assert len({CellAddress(1, 1), CellAddress(1, 1), CellAddress(1, 2)}) == 2

    @given(st.integers(1, 10_000), st.integers(1, 5_000))
    def test_a1_roundtrip_property(self, row, column):
        address = CellAddress(row, column)
        assert CellAddress.from_a1(address.to_a1()) == address


class TestRangeRef:
    def test_from_a1_range(self):
        region = RangeRef.from_a1("B2:C10")
        assert (region.top, region.left, region.bottom, region.right) == (2, 2, 10, 3)

    def test_from_a1_single_cell(self):
        region = RangeRef.from_a1("D4")
        assert region.area == 1
        assert region.to_a1() == "D4"

    def test_from_a1_normalises_inverted_corners(self):
        assert RangeRef.from_a1("C10:B2") == RangeRef.from_a1("B2:C10")

    def test_geometry(self):
        region = RangeRef(2, 2, 10, 3)
        assert region.rows == 9
        assert region.columns == 2
        assert region.area == 18

    def test_inverted_raises(self):
        with pytest.raises(RangeError):
            RangeRef(5, 1, 4, 2)

    def test_contains(self):
        region = RangeRef(2, 2, 5, 5)
        assert region.contains(CellAddress(2, 2))
        assert region.contains(CellAddress(5, 5))
        assert not region.contains(CellAddress(6, 5))

    def test_contains_range(self):
        outer = RangeRef(1, 1, 10, 10)
        assert outer.contains_range(RangeRef(2, 2, 9, 9))
        assert not outer.contains_range(RangeRef(2, 2, 11, 9))

    def test_overlaps_and_intersection(self):
        a = RangeRef(1, 1, 5, 5)
        b = RangeRef(4, 4, 8, 8)
        c = RangeRef(6, 6, 7, 7)
        assert a.overlaps(b)
        assert not a.overlaps(c)
        assert a.intersection(b) == RangeRef(4, 4, 5, 5)
        assert a.intersection(c) is None

    def test_union_bounding(self):
        assert RangeRef(1, 1, 2, 2).union_bounding(RangeRef(5, 5, 6, 6)) == RangeRef(1, 1, 6, 6)

    def test_addresses_iteration_row_major(self):
        region = RangeRef(1, 1, 2, 2)
        assert [a.to_a1() for a in region.addresses()] == ["A1", "B1", "A2", "B2"]

    def test_shifted(self):
        assert RangeRef(1, 1, 2, 2).shifted(rows=3, columns=1) == RangeRef(4, 2, 5, 3)

    @given(st.integers(1, 50), st.integers(1, 50), st.integers(0, 20), st.integers(0, 20))
    def test_area_matches_enumeration(self, top, left, extra_rows, extra_columns):
        region = RangeRef(top, left, top + extra_rows, left + extra_columns)
        assert region.area == len(list(region.addresses()))

    @given(
        st.tuples(st.integers(1, 30), st.integers(1, 30), st.integers(0, 10), st.integers(0, 10)),
        st.tuples(st.integers(1, 30), st.integers(1, 30), st.integers(0, 10), st.integers(0, 10)),
    )
    def test_intersection_symmetric(self, first, second):
        a = RangeRef(first[0], first[1], first[0] + first[2], first[1] + first[3])
        b = RangeRef(second[0], second[1], second[0] + second[2], second[1] + second[3])
        assert a.overlaps(b) == b.overlaps(a)
        assert a.intersection(b) == b.intersection(a)
