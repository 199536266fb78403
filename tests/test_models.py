"""Tests for the primitive and hybrid data models (Section IV)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LinkTableError, RegionOverlapError
from repro.grid.cell import Cell
from repro.grid.range import RangeRef
from repro.grid.sheet import Sheet
from repro.models import (
    ColumnOrientedModel,
    HybridDataModel,
    HybridRegion,
    ModelKind,
    RowColumnValueModel,
    RowOrientedModel,
    TableOrientedModel,
)
from repro.storage.costs import IDEAL_COSTS, POSTGRES_COSTS
from repro.storage.database import Database

PRIMITIVES = [RowOrientedModel, ColumnOrientedModel, RowColumnValueModel]


def sample_sheet() -> Sheet:
    sheet = Sheet.from_rows(
        [
            ["ID", "HW1", "HW2", "MT", "Final", "Total"],
            ["Alice", 10, 9, 30, 45.5, 85],
            ["Bob", 7, 8, 25, 40, 76],
            ["Carol", 9, 10, 28, 44, 88],
        ]
    )
    sheet.set_formula(2, 6, "AVERAGE(B2:C2)+D2+E2", value=85)
    return sheet


@pytest.fixture(params=PRIMITIVES, ids=lambda cls: cls.__name__)
def primitive_model(request):
    return request.param.from_sheet(sample_sheet())


class TestRecoverability:
    def test_roundtrip_preserves_cells(self, primitive_model):
        original = sample_sheet()
        recovered = primitive_model.to_sheet()
        assert recovered.cell_count() == original.cell_count()
        for address, cell in original.items():
            assert recovered.get_cell(address.row, address.column).value == cell.value

    def test_formula_preserved(self, primitive_model):
        cell = primitive_model.get_cell(2, 6)
        assert cell.formula == "AVERAGE(B2:C2)+D2+E2"

    def test_cell_count(self, primitive_model):
        assert primitive_model.cell_count() == sample_sheet().cell_count()


class TestPrimitiveOperations:
    def test_get_cells_subrange(self, primitive_model):
        cells = primitive_model.get_cells(RangeRef.from_a1("A2:B3"))
        values = {address.to_a1(): cell.value for address, cell in cells.items()}
        assert values == {"A2": "Alice", "B2": 10, "A3": "Bob", "B3": 7}

    def test_get_cell_outside_region_is_empty(self, primitive_model):
        assert primitive_model.get_cell(100, 100).is_empty

    def test_update_cell(self, primitive_model):
        primitive_model.update_cell(3, 2, Cell(value=99))
        assert primitive_model.get_value(3, 2) == 99

    def test_update_clears_cell(self, primitive_model):
        before = primitive_model.cell_count()
        primitive_model.update_cell(3, 2, Cell())
        assert primitive_model.cell_count() == before - 1
        assert primitive_model.get_cell(3, 2).is_empty

    def test_update_grows_region(self, primitive_model):
        primitive_model.update_cell(10, 8, Cell(value="far"))
        assert primitive_model.get_value(10, 8) == "far"
        assert primitive_model.region().contains_range(RangeRef(10, 8, 10, 8))

    def test_insert_row_shifts_data(self, primitive_model):
        primitive_model.insert_row_after(1)
        assert primitive_model.get_value(3, 1) == "Alice"
        assert primitive_model.get_cell(2, 1).is_empty

    def test_delete_row(self, primitive_model):
        primitive_model.delete_row(2)
        assert primitive_model.get_value(2, 1) == "Bob"

    def test_insert_column_shifts_data(self, primitive_model):
        primitive_model.insert_column_after(1)
        assert primitive_model.get_value(2, 3) == 10
        assert primitive_model.get_cell(2, 2).is_empty

    def test_delete_column(self, primitive_model):
        primitive_model.delete_column(2)
        assert primitive_model.get_value(2, 2) == 9

    def test_insert_then_delete_row_roundtrip(self, primitive_model):
        before = {
            (a.row, a.column): c.value
            for a, c in primitive_model.get_cells(primitive_model.region()).items()
        }
        primitive_model.insert_row_after(2, count=2)
        primitive_model.delete_row(3, count=2)
        after = {
            (a.row, a.column): c.value
            for a, c in primitive_model.get_cells(primitive_model.region()).items()
        }
        assert before == after

    def test_shift_translates_region(self, primitive_model):
        primitive_model.shift(rows=10, columns=2)
        assert primitive_model.get_value(12, 3) == "Alice"


class TestStorageCosts:
    def test_rom_cost_matches_cost_model(self):
        model = RowOrientedModel.from_sheet(sample_sheet())
        assert model.storage_cost(POSTGRES_COSTS) == pytest.approx(POSTGRES_COSTS.rom_cost(4, 6))

    def test_com_cost_matches_cost_model(self):
        model = ColumnOrientedModel.from_sheet(sample_sheet())
        assert model.storage_cost(POSTGRES_COSTS) == pytest.approx(POSTGRES_COSTS.com_cost(4, 6))

    def test_rcv_cost_counts_filled_cells(self):
        sheet = sample_sheet()
        model = RowColumnValueModel.from_sheet(sheet)
        assert model.storage_cost(IDEAL_COSTS) == pytest.approx(3 * sheet.cell_count())


class TestRowOrientedSpecifics:
    def test_row_insert_does_not_touch_existing_tuples(self):
        sheet = sample_sheet()
        model = RowOrientedModel.from_sheet(sheet)
        inserts_before = model._store._heap.stats["inserts"]
        model.insert_row_after(2)
        inserts_after = model._store._heap.stats["inserts"]
        assert inserts_after - inserts_before == 1   # one empty tuple, no rewrites

    def test_positional_mapping_exposed(self):
        model = RowOrientedModel.from_sheet(sample_sheet())
        assert len(model.positional_mapping) == 4


class TestTableOrientedModel:
    def _linked(self):
        database = Database()
        table = database.create_table("inv", ["inv_id", "customer", "amount"], key_column="inv_id")
        database.insert_many("inv", [(1, "acme", 100.0), (2, "globex", 250.0)])
        return table, TableOrientedModel(table, top=1, left=1)

    def test_header_and_values(self):
        _, tom = self._linked()
        cells = tom.get_cells(tom.region())
        assert cells[next(a for a in cells if a.row == 1 and a.column == 1)].value == "inv_id"
        assert tom.get_cells(RangeRef(2, 2, 2, 2)).popitem()[1].value == "acme"

    def test_update_writes_back_to_table(self):
        table, tom = self._linked()
        tom.update_cell(2, 3, Cell(value=175.0))
        assert table.rows()[0] == (1, "acme", 175.0)

    def test_header_is_read_only(self):
        _, tom = self._linked()
        with pytest.raises(LinkTableError):
            tom.update_cell(1, 1, Cell(value="x"))

    def test_out_of_table_update_rejected(self):
        _, tom = self._linked()
        with pytest.raises(LinkTableError):
            tom.update_cell(50, 1, Cell(value=1))
        with pytest.raises(LinkTableError):
            tom.update_cell(2, 9, Cell(value=1))

    def test_insert_and_delete_rows(self):
        table, tom = self._linked()
        tom.insert_row_after(3)
        assert table.row_count == 3
        tom.delete_row(2)
        assert table.row_count == 2

    def test_column_operations_rejected(self):
        _, tom = self._linked()
        with pytest.raises(LinkTableError):
            tom.insert_column_after(1)
        with pytest.raises(LinkTableError):
            tom.delete_column(1)

    def test_cell_count_includes_header(self):
        _, tom = self._linked()
        assert tom.cell_count() == 3 + 2 * 3


class TestHybridDataModel:
    def _hybrid(self):
        sheet = sample_sheet()
        plan = [
            (RangeRef(1, 1, 4, 3), ModelKind.ROM),
            (RangeRef(1, 4, 4, 6), ModelKind.COM),
        ]
        return sheet, HybridDataModel.from_decomposition(sheet, plan)

    def test_recoverable(self):
        sheet, hybrid = self._hybrid()
        assert hybrid.cell_count() == sheet.cell_count()
        for address, cell in sheet.items():
            assert hybrid.get_cell(address.row, address.column).value == cell.value

    def test_routing_by_region(self):
        _, hybrid = self._hybrid()
        hybrid.update_cell(2, 2, Cell(value=11))
        hybrid.update_cell(2, 5, Cell(value=50))
        assert hybrid.get_value(2, 2) == 11
        assert hybrid.get_value(2, 5) == 50

    def test_catch_all_rcv_for_loose_cells(self):
        _, hybrid = self._hybrid()
        hybrid.update_cell(100, 20, Cell(value="loose"))
        assert hybrid.catch_all is not None
        assert hybrid.get_value(100, 20) == "loose"

    def test_overlapping_regions_rejected(self):
        sheet = sample_sheet()
        model = HybridDataModel()
        model.add_region(HybridRegion(RangeRef(1, 1, 3, 3), RowOrientedModel.from_sheet(sheet, RangeRef(1, 1, 3, 3))))
        with pytest.raises(RegionOverlapError):
            model.add_region(
                HybridRegion(RangeRef(2, 2, 5, 5), RowOrientedModel.from_sheet(sheet, RangeRef(2, 2, 5, 5)))
            )

    def test_insert_row_shifts_regions_below(self):
        sheet = Sheet.from_rows([[1, 2], [3, 4]])
        lower = Sheet.from_rows([[5, 6]], top=10)
        for address, cell in lower.items():
            sheet.set_cell(address.row, address.column, cell)
        plan = [
            (RangeRef(1, 1, 2, 2), ModelKind.ROM),
            (RangeRef(10, 1, 10, 2), ModelKind.ROM),
        ]
        hybrid = HybridDataModel.from_decomposition(sheet, plan)
        hybrid.insert_row_after(5)
        assert hybrid.get_value(11, 1) == 5
        assert hybrid.get_value(1, 1) == 1

    def test_delete_row_inside_region(self):
        sheet, hybrid = self._hybrid()
        hybrid.delete_row(2)
        assert hybrid.get_value(2, 1) == "Bob"

    def test_storage_cost_is_sum_of_regions(self):
        _, hybrid = self._hybrid()
        expected = POSTGRES_COSTS.rom_cost(4, 3) + POSTGRES_COSTS.com_cost(4, 3)
        assert hybrid.storage_cost(POSTGRES_COSTS) == pytest.approx(expected)

    def test_region_bounding_box(self):
        _, hybrid = self._hybrid()
        assert hybrid.region() == RangeRef(1, 1, 4, 6)


@settings(max_examples=20, deadline=None)
@given(st.sets(st.tuples(st.integers(1, 12), st.integers(1, 8)), min_size=1, max_size=40))
def test_every_primitive_is_recoverable(coords):
    """Property: ROM, COM and RCV all recover exactly the conceptual cells."""
    sheet = Sheet()
    for row, column in coords:
        sheet.set_value(row, column, row * 100 + column)
    for model_class in PRIMITIVES:
        model = model_class.from_sheet(sheet)
        recovered = model.to_sheet()
        assert {(a.row, a.column) for a in recovered.addresses()} == coords
        for row, column in coords:
            assert recovered.get_value(row, column) == row * 100 + column
