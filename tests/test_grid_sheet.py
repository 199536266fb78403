"""Tests for the sparse sheet, cells, components and the weighted grid."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PositionError
from repro.grid.bounding import bounding_box, density
from repro.grid.cell import Cell
from repro.grid.components import (
    connected_components,
    tabular_regions,
)
from repro.grid.range import RangeRef
from repro.grid.sheet import Sheet
from repro.grid.weighted import WeightedGrid


class TestCell:
    def test_empty_cell(self):
        assert Cell().is_empty
        assert not Cell(value=0).is_empty

    def test_from_input_formula(self):
        cell = Cell.from_input("=SUM(A1:A3)")
        assert cell.has_formula
        assert cell.formula == "SUM(A1:A3)"

    @pytest.mark.parametrize(
        "text,expected",
        [("12", 12), ("3.5", 3.5), ("true", True), ("False", False), ("hello", "hello"), ("", None)],
    )
    def test_from_input_coercion(self, text, expected):
        assert Cell.from_input(text).value == expected

    def test_with_value_preserves_formula(self):
        cell = Cell(value=1, formula="A1+1")
        assert cell.with_value(5) == Cell(value=5, formula="A1+1")


class TestSheetBasics:
    def test_set_and_get(self):
        sheet = Sheet()
        sheet.set_value(2, 3, "x")
        assert sheet.get_value(2, 3) == "x"
        assert sheet.get_value(9, 9) is None
        assert sheet.cell_count() == 1

    def test_setting_empty_clears(self):
        sheet = Sheet()
        sheet.set_value(1, 1, 5)
        sheet.set_cell(1, 1, Cell())
        assert sheet.cell_count() == 0

    def test_update_cell_drops_formula_on_constant(self):
        sheet = Sheet()
        sheet.set_formula(1, 1, "A2+1", value=3)
        sheet.update_cell(1, 1, 10)
        assert not sheet.get_cell(1, 1).has_formula

    def test_update_cell_accepts_formula_text(self):
        sheet = Sheet()
        sheet.update_cell(1, 1, "=SUM(B1:B2)")
        assert sheet.get_cell(1, 1).formula == "SUM(B1:B2)"

    def test_get_cells_range(self):
        sheet = Sheet.from_rows([[1, 2], [3, 4]])
        cells = sheet.get_cells(RangeRef.from_a1("A1:B1"))
        assert {a.to_a1() for a in cells} == {"A1", "B1"}

    def test_get_values_dense(self):
        sheet = Sheet.from_rows([[1, None], [None, 4]])
        assert sheet.get_values(RangeRef.from_a1("A1:B2")) == [[1, None], [None, 4]]

    def test_bounding_box_and_density(self):
        sheet = Sheet()
        sheet.set_value(2, 2, 1)
        sheet.set_value(4, 5, 1)
        box = sheet.bounding_box()
        assert (box.top, box.left, box.bottom, box.right) == (2, 2, 4, 5)
        assert sheet.density() == pytest.approx(2 / 12)

    def test_empty_sheet_density(self):
        assert Sheet().density() == 0.0
        assert Sheet().bounding_box() is None

    def test_formula_iteration(self):
        sheet = Sheet()
        sheet.set_formula(1, 1, "A2+1")
        sheet.set_value(2, 1, 3)
        assert sheet.formula_count() == 1
        assert [(a.to_a1(), f) for a, f in sheet.formulas()] == [("A1", "A2+1")]

    def test_from_rows_with_formula_strings(self):
        sheet = Sheet.from_rows([["=A2*2"], [21]])
        assert sheet.get_cell(1, 1).has_formula

    def test_copy_is_independent(self):
        sheet = Sheet.from_rows([[1]])
        clone = sheet.copy()
        clone.set_value(5, 5, 9)
        assert sheet.cell_count() == 1


class TestSheetStructuralOps:
    def test_insert_row_shifts_down(self):
        sheet = Sheet.from_rows([[1], [2], [3]])
        sheet.insert_row_after(1)
        assert sheet.get_value(1, 1) == 1
        assert sheet.get_value(2, 1) is None
        assert sheet.get_value(3, 1) == 2
        assert sheet.get_value(4, 1) == 3

    def test_insert_row_before_first(self):
        sheet = Sheet.from_rows([[1]])
        sheet.insert_row_after(0)
        assert sheet.get_value(2, 1) == 1

    def test_delete_row(self):
        sheet = Sheet.from_rows([[1], [2], [3]])
        sheet.delete_row(2)
        assert sheet.get_value(2, 1) == 3
        assert sheet.cell_count() == 2

    def test_insert_and_delete_column(self):
        sheet = Sheet.from_rows([[1, 2, 3]])
        sheet.insert_column_after(1)
        assert sheet.get_value(1, 3) == 2
        sheet.delete_column(3)
        assert sheet.get_value(1, 3) == 3 or sheet.get_value(1, 2) == 3

    def test_multi_count_operations(self):
        sheet = Sheet.from_rows([[1], [2]])
        sheet.insert_row_after(1, count=3)
        assert sheet.get_value(5, 1) == 2
        sheet.delete_row(2, count=3)
        assert sheet.get_value(2, 1) == 2

    def test_invalid_count_rejected(self):
        sheet = Sheet()
        with pytest.raises(PositionError):
            sheet.insert_row_after(1, count=0)
        with pytest.raises(PositionError):
            sheet.delete_row(0)
        with pytest.raises(PositionError):
            sheet.insert_column_after(-1)
        with pytest.raises(PositionError):
            sheet.delete_column(2, count=-1)

    def test_insert_then_delete_roundtrip(self):
        sheet = Sheet.from_rows([[1, 2], [3, 4], [5, 6]])
        before = dict(sheet.coordinates() and {(a.row, a.column): c.value for a, c in sheet.items()})
        sheet.insert_row_after(1, count=2)
        sheet.delete_row(2, count=2)
        after = {(a.row, a.column): c.value for a, c in sheet.items()}
        assert before == after


class TestComponentsAndTabularRegions:
    def test_single_component(self):
        coords = {(1, 1), (1, 2), (2, 1)}
        components = connected_components(coords)
        assert len(components) == 1
        assert components[0].cell_count == 3

    def test_two_distant_components(self):
        coords = {(1, 1), (10, 10)}
        assert len(connected_components(coords)) == 2

    def test_diagonal_adjacency_flag(self):
        coords = {(1, 1), (2, 2)}
        assert len(connected_components(coords, diagonal=True)) == 1
        assert len(connected_components(coords, diagonal=False)) == 2

    def test_tabular_region_thresholds(self):
        table = {(r, c) for r in range(1, 7) for c in range(1, 4)}
        assert len(tabular_regions(table)) == 1
        small = {(r, c) for r in range(1, 4) for c in range(1, 3)}
        assert tabular_regions(small) == []

    def test_sparse_component_not_tabular(self):
        sparse = {(r, 1) for r in range(1, 20)}   # 1 column only
        assert tabular_regions(sparse) == []

    def test_bounding_helpers(self):
        assert bounding_box([]) is None
        assert density([]) == 0.0
        assert density([(1, 1), (2, 2)]) == pytest.approx(0.5)


class TestWeightedGrid:
    def test_collapse_identical_rows(self):
        coords = {(r, c) for r in range(1, 11) for c in range(1, 4)}
        grid = WeightedGrid.from_coordinates(coords)
        assert grid.shape == (1, 1)
        assert grid.row_weights == (10,)
        assert grid.col_weights == (3,)
        assert grid.filled_cells == 30

    def test_dense_variant_keeps_every_row(self):
        coords = {(r, 1) for r in range(1, 6)}
        grid = WeightedGrid.dense_from_coordinates(coords)
        assert grid.shape == (5, 1)
        assert all(weight == 1 for weight in grid.row_weights)

    def test_mixed_patterns_not_collapsed(self):
        coords = {(1, 1), (2, 2)}
        grid = WeightedGrid.from_coordinates(coords)
        assert grid.shape == (2, 2)

    def test_original_bounds_mapping(self):
        coords = {(r, c) for r in range(3, 13) for c in range(2, 5)}
        grid = WeightedGrid.from_coordinates(coords)
        assert grid.original_row_bounds(0, 0) == (3, 12)
        assert grid.original_column_bounds(0, 0) == (2, 4)

    def test_empty_grid(self):
        grid = WeightedGrid.from_coordinates(set())
        assert grid.shape == (0, 0)
        assert grid.filled_cells == 0

    @settings(max_examples=40, deadline=None)
    @given(st.sets(st.tuples(st.integers(1, 15), st.integers(1, 10)), min_size=1, max_size=60))
    def test_filled_cells_preserved(self, coords):
        grid = WeightedGrid.from_coordinates(coords)
        assert grid.filled_cells == len(coords)
        assert grid.original_shape == (
            max(r for r, _ in coords) - min(r for r, _ in coords) + 1,
            max(c for _, c in coords) - min(c for _, c in coords) + 1,
        )
