"""The two write shapes, checked against each other and counted.

Storage takes a write in two shapes — ``update_cell`` (the paper's point
primitive) and ``update_cells`` (the block every bulk writer hands down:
a batch commit, a relayout, a recovery, ``from_sheet``).  The differential
half drives every model through random blocks — row-major, column-major
and shuffled, holding duplicated coordinates, clears, clears of cells
never written, writes beyond the extent and above-left of an RCV anchor,
before and after structural edits — and requires ``update_cells(items)``
on one copy to leave exactly what ``for …: update_cell`` leaves on
another; the engine's bulk writers are then held to the same result on a
re-laid-out sheet, on the default layout and on the Sheet oracle.  The
counting half pins what a block costs: heap record rewrites, positional
fetches, model calls.  Counts, never clocks.

A mutation each half catches: make ``LineOrientedModel.update_cells``
keep the *first* write of a duplicated coordinate (``setdefault``) and 90
of the differential cases at the default seeds fail; make ``HybridDataModel.update_cells``
hand over consecutive *runs* instead of per-owner groups and
``test_two_column_regions_fed_row_major_rewrite_each_line_once`` counts
300 record rewrites where 6 are due.
"""

from __future__ import annotations

import random

import pytest

from repro.decomposition import decompose_aggressive, decompose_dp, decompose_greedy
from repro.engine.dataspread import DataSpread
from repro.errors import DataModelError, LinkTableError
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
from repro.positional.hierarchical import HierarchicalMapping
from repro.query import TableValue, col, region as grid_region, select
from repro.storage.costs import POSTGRES_COSTS
from repro.storage.database import Database
from repro.storage.heap import HeapFile
from repro.storage.recovery import recover
from tests.support.seeds import seed_set
from tests.test_read_contracts import random_edit

SEEDS = seed_set(range(1, 7))
ORDERS = ["row-major", "column-major", "shuffled"]
PRIMITIVES = [RowOrientedModel, ColumnOrientedModel, RowColumnValueModel]
OPTIMIZERS = {"dp": decompose_dp, "greedy": decompose_greedy, "aggressive": decompose_aggressive}
TOP, LEFT = 5, 4  # where the primitive models anchor


# ---------------------------------------------------------------------- #
# blocks, and what two copies must agree on
# ---------------------------------------------------------------------- #
def random_block(rng: random.Random, own: RangeRef, order: str, *,
                 above_left: bool = False, beyond: int = 3) -> list[tuple[int, int, Cell]]:
    """Writes, clears and formula text over ``own`` and a margin around it,
    some coordinates written twice or more, arranged in ``order`` (the
    sorts are stable, so the writes of one coordinate keep their order)."""
    first_row = max(own.top - 3, 1) if above_left else own.top
    first_column = max(own.left - 3, 1) if above_left else own.left
    items = []
    for _ in range(rng.randint(1, 40)):
        roll = rng.random()
        if roll < 0.25:
            cell = Cell()  # a clear — often of a cell nothing ever wrote
        elif roll < 0.35:
            cell = Cell(formula="A1+1")  # text that has no value yet
        else:
            cell = Cell(value=rng.randint(0, 99))
        items.append((rng.randint(first_row, own.bottom + beyond),
                      rng.randint(first_column, own.right + beyond), cell))
    for row, column, _cell in rng.sample(items, min(len(items), 6)):
        items.append((row, column, Cell() if rng.random() < 0.3 else Cell(value="again")))
    if order == "row-major":
        items.sort(key=lambda item: (item[0], item[1]))
    elif order == "column-major":
        items.sort(key=lambda item: (item[1], item[0]))
    else:
        rng.shuffle(items)
    return items


def write_both_shapes(bulk, loop, items) -> None:
    bulk.update_cells(items)
    for row, column, cell in items:
        loop.update_cell(row, column, cell)


def assert_same_state(bulk, loop, context) -> None:
    assert bulk.region() == loop.region(), context
    assert bulk.cell_count() == loop.cell_count(), context
    assert bulk.get_cells(bulk.region()) == loop.get_cells(loop.region()), context
    assert bulk.storage_cost(POSTGRES_COSTS) == loop.storage_cost(POSTGRES_COSTS), context


# ---------------------------------------------------------------------- #
# differential: the primitive models
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("model_class", PRIMITIVES, ids=lambda cls: cls.__name__)
def test_primitive_block_write_equals_point_writes(model_class, order, seed):
    rng = random.Random(seed)
    rows, columns = rng.randint(0, 6), rng.randint(0, 5)
    bulk, loop = (model_class(top=TOP, left=LEFT, rows=rows, columns=columns)
                  for _ in range(2))
    for step in range(12):
        items = random_block(rng, bulk.region(), order,
                             above_left=model_class is RowColumnValueModel)
        write_both_shapes(bulk, loop, items)
        assert_same_state(bulk, loop, (model_class.__name__, order, seed, step))
        if rng.random() < 0.5:
            edit = random_edit(rng)
            bulk.apply_structural_edit(edit)
            loop.apply_structural_edit(edit)
            assert_same_state(bulk, loop, (model_class.__name__, order, seed, step, edit))


@pytest.mark.parametrize("model_class", [RowOrientedModel, ColumnOrientedModel],
                         ids=lambda cls: cls.__name__)
def test_line_stores_refuse_a_write_above_their_anchor_in_both_shapes(model_class):
    model = model_class(top=TOP, left=LEFT, rows=2, columns=2)
    with pytest.raises(DataModelError):
        model.update_cell(TOP - 1, LEFT, Cell(value=1))
    with pytest.raises(DataModelError):
        model.update_cells([(TOP, LEFT - 1, Cell(value=1))])
    assert model.cell_count() == 0


def test_from_sheet_is_defined_once_and_loads_every_store_alike():
    sheet = Sheet.from_rows([[1, None, "=A1+1"], [None, "x", 3.5]], top=TOP, left=LEFT)
    for model_class in PRIMITIVES:
        assert "from_sheet" not in vars(model_class)
        assert model_class.from_sheet(sheet).to_sheet().get_cells(RangeRef(1, 1, 20, 20)) \
            == sheet.get_cells(RangeRef(1, 1, 20, 20))
        clipped = model_class.from_sheet(sheet, RangeRef(TOP, LEFT, TOP, LEFT + 2))
        assert (clipped.region(), clipped.cell_count()) == (RangeRef(TOP, LEFT, TOP, LEFT + 2), 2)


# ---------------------------------------------------------------------- #
# differential: a linked table
# ---------------------------------------------------------------------- #
def linked_table(rng: random.Random, header: bool, top: int, left: int) -> TableOrientedModel:
    database = Database()
    database.create_table("t", ["a", "b", "c"])
    database.insert_many("t", [
        tuple(None if rng.random() < 0.25 else row * 10 + column for column in range(3))
        for row in range(rng.randint(1, 6))
    ])
    return TableOrientedModel(database.table("t"), top=top, left=left, header=header)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("header", [True, False], ids=["header", "no-header"])
def test_linked_table_block_write_equals_point_writes(header, order, seed):
    bulk, loop = (linked_table(random.Random(seed), header, 3, 2) for _ in range(2))
    rng = random.Random(seed)
    for step in range(8):
        own = bulk.region()
        if bulk.table.row_count:
            records = RangeRef(own.top + header, own.left, own.bottom, own.right)
            write_both_shapes(bulk, loop, random_block(rng, records, order, beyond=0))
        assert_same_state(bulk, loop, (header, order, seed, step))
        assert list(bulk.table.rows()) == list(loop.table.rows())
        edit = random_edit(rng)
        try:
            bulk.apply_structural_edit(edit)
        except LinkTableError:
            continue  # a column edit, the header row, or past the last record
        loop.apply_structural_edit(edit)


# ---------------------------------------------------------------------- #
# differential: the hybrid model
# ---------------------------------------------------------------------- #
def native_sheet(rng: random.Random) -> Sheet:
    """Two dense tables, a sparse patch and loose cells, formula text among them."""
    sheet = Sheet()
    for row in range(2, 2 + rng.randint(4, 9)):
        for column in range(1, 5):
            sheet.set_value(row, column, row * 10 + column)
    for row in range(4, 4 + rng.randint(3, 6)):
        for column in range(7, 10):
            if rng.random() < 0.8:
                sheet.set_value(row, column, f"t{row}.{column}")
    for _ in range(rng.randint(3, 10)):
        sheet.set_value(rng.randint(1, 18), rng.randint(1, 12), rng.randint(-5, 5))
    sheet.set_formula(14, 1, "SUM(A2:D6)", value=0)
    return sheet


def hybrid_over(sheet: Sheet, algorithm: str | None, header: bool, rng: random.Random):
    """``sheet`` on the catch-all (``None``) or laid out by an optimizer,
    under a linked table that overlaps stored cells; returns the table too."""
    plan = [] if algorithm is None else OPTIMIZERS[algorithm](
        sheet.coordinates(), POSTGRES_COSTS).as_plan()
    hybrid = HybridDataModel.from_decomposition(sheet, plan)
    table = linked_table(rng, header, 5, 3)
    hybrid.add_region(HybridRegion(table.region(), table), allow_overlap=True)
    return hybrid, table


def without_header_row(items, table: TableOrientedModel) -> list:
    """Without the writes a linked table refuses: its generated header row."""
    own = table.region()
    return [item for item in items
            if not (item[0] == own.top and own.left <= item[1] <= own.right)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("algorithm", [None, "dp", "greedy", "aggressive"],
                         ids=lambda name: name or "catch-all")
def test_hybrid_block_write_equals_point_writes(algorithm, order, seed):
    sheet = native_sheet(random.Random(seed))
    header = seed % 2 == 0
    (bulk, table), (loop, _) = (hybrid_over(sheet, algorithm, header, random.Random(seed))
                                for _ in range(2))
    assert_same_state(bulk, loop, (algorithm, order, seed, "built"))
    rng = random.Random(seed)
    for step in range(8):
        items = random_block(rng, bulk.region(), order, above_left=True)
        if header:
            items = without_header_row(items, table)
        write_both_shapes(bulk, loop, items)
        assert_same_state(bulk, loop, (algorithm, order, seed, step))
        edit = random_edit(rng)
        try:
            bulk.check_structural_edit(edit)
        except LinkTableError:
            continue  # a column edit through the table, or its header row
        bulk.apply_structural_edit(edit)
        loop.apply_structural_edit(edit)
        assert_same_state(bulk, loop, (algorithm, order, seed, step, edit))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("algorithm", sorted(OPTIMIZERS))
def test_a_decomposition_plan_materialises_the_sheet(algorithm, seed):
    sheet = native_sheet(random.Random(seed))
    plan = OPTIMIZERS[algorithm](sheet.coordinates(), POSTGRES_COSTS).as_plan()
    hybrid = HybridDataModel.from_decomposition(sheet, plan)
    assert [(entry.range, entry.kind) for entry in hybrid.regions] == plan
    assert hybrid.get_cells(hybrid.region()) == dict(sheet.items())
    assert hybrid.cell_count() == sheet.cell_count()


# ---------------------------------------------------------------------- #
# differential: the engine's bulk writers, whatever the layout
# ---------------------------------------------------------------------- #
def cells_of(spread: DataSpread) -> dict[tuple[int, int], object]:
    return {(address.row, address.column): cell.value
            for address, cell in spread.get_cells(spread.used_range()).items()}


def oracle_cells(sheet: Sheet) -> dict[tuple[int, int], object]:
    return {(address.row, address.column): cell.value for address, cell in sheet.items()}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("algorithm", sorted(OPTIMIZERS))
def test_engine_bulk_writers_agree_across_layouts_and_with_the_oracle(algorithm, seed):
    rng = random.Random(seed)
    oracle = Sheet()
    laid_out, default = DataSpread(), DataSpread()
    spreads = (laid_out, default)

    def check(stage: str) -> None:
        expected = oracle_cells(oracle)
        for spread in spreads:
            assert cells_of(spread) == expected, (algorithm, seed, stage)
            assert spread.cell_count() == len(expected), (algorithm, seed, stage)

    base = [[row * 10 + column for column in range(6)] for row in range(12)]
    for spread in spreads:
        assert spread.import_rows(base, top=2, left=1) == 12
    for row, values in enumerate(base, 2):
        for column, value in enumerate(values, 1):
            oracle.set_value(row, column, value)
    laid_out.optimize_storage(algorithm)
    assert laid_out.model.regions and not default.model.regions
    check("relayout")

    updates = [(rng.randint(1, 16), rng.randint(1, 8),
                None if rng.random() < 0.2 else rng.randint(100, 199)) for _ in range(40)]
    updates += [(row, column, "again") for row, column, _ in rng.sample(updates, 8)]
    for spread in spreads:
        assert spread.set_values(updates) == len(updates)
    for row, column, value in updates:
        oracle.set_value(row, column, value)
    check("set_values")

    block = [[None if rng.random() < 0.3 else f"i{row}.{column}" for column in range(4)]
             for row in range(9)]
    block[3] = []
    for spread in spreads:
        assert spread.import_rows(block, top=6, left=3) == 9
    for row, values in enumerate(block, 6):
        for column, value in enumerate(values, 3):
            if value is not None:
                oracle.set_value(row, column, value)
    check("import_rows")

    table = TableValue.from_rows(("k", "v"), [(1, "one"), (2, None), (None, "three")])
    for spread in spreads:
        assert spread.place_table(table, at="E4") == RangeRef(4, 5, 7, 6)
    for row, record in enumerate((table.columns, *table.rows), 4):
        for column, value in enumerate(record, 5):
            if value is not None:
                oracle.set_value(row, column, value)
    check("place_table")

    # A view over N2:O13 spilled at R1: shrink and regrow its result, so
    # the spill diff rewrites some rows, clears others and skips the rest.
    source = [[row * 10, f"r{row}"] for row in range(12)]
    for spread in spreads:
        spread.import_rows(source, top=2, left=14)
    for row, values in enumerate(source, 2):
        for column, value in enumerate(values, 14):
            oracle.set_value(row, column, value)
    query = select(grid_region(RangeRef(2, 14, 13, 15), header=False)).where(col("N") >= 60)
    views = [spread.create_live_view(query, at="R1") for spread in spreads]
    for rows_hit in ([9, 10, 11], [4], [9], []):
        changes = [(row, 14, 0 if rng.random() < 0.5 else 1_000) for row in rows_hit]
        for spread in spreads:
            spread.set_values(changes)
        for row, column, value in changes:
            oracle.set_value(row, column, value)
        result = views[0].value()
        assert result.rows == views[1].value().rows
        for row in range(1, 20):
            for column in (18, 19):
                oracle.clear_cell(row, column)
        for row, record in enumerate((result.columns, *result.rows), 1):
            for column, value in enumerate(record, 18):
                oracle.set_value(row, column, value)
        check(f"view spill {rows_hit}")


@pytest.mark.parametrize("seed", SEEDS)
def test_engine_from_sheet_and_relayouts_keep_the_sheet(seed):
    sheet = native_sheet(random.Random(seed))
    spread = DataSpread.from_sheet(sheet)
    expected = oracle_cells(sheet)
    expected[(14, 1)] = spread.get_value(14, 1)  # the formula, evaluated
    assert cells_of(spread) == expected
    for algorithm in sorted(OPTIMIZERS):
        spread.optimize_storage(algorithm)
        assert cells_of(spread) == expected, (seed, algorithm)
        assert spread.get_cell(14, 1).formula == "SUM(A2:D6)"


def test_import_rows_keeps_a_field_that_only_looks_like_a_formula():
    """``import_rows`` loads values: a text field starting with ``=`` stays
    text, never becomes a formula, and the block is one recompute pass."""
    spread = DataSpread()
    assert spread.import_rows(
        [[1, "=B2+1", None], ["=SUM(", "==2", "text"]], top=2, left=2) == 2
    assert spread.get_range_values("B2:D3") == [[1, "=B2+1", None], ["=SUM(", "==2", "text"]]
    assert spread.get_cell(2, 3).formula is None
    assert spread.recompute_passes == 1
    spread.set_value(2, 2, 5)
    assert spread.get_value(2, 3) == "=B2+1"


# ---------------------------------------------------------------------- #
# counts: what one block write costs
# ---------------------------------------------------------------------- #
ROWS = 1_000


@pytest.fixture
def heap_updates(monkeypatch) -> list:
    updates: list = []
    original = HeapFile.update
    monkeypatch.setattr(
        HeapFile, "update",
        lambda heap, pointer, record: updates.append(pointer) or original(heap, pointer, record))
    return updates


@pytest.fixture
def point_writes(monkeypatch) -> list:
    """Every model-level ``update_cell`` call, whichever store takes it."""
    calls: list = []
    for model_class in (HybridDataModel, RowOrientedModel, ColumnOrientedModel,
                        RowColumnValueModel):
        original = model_class.update_cell

        def counting(self, row, column, cell, _original=original):
            calls.append((type(self).__name__, row, column))
            return _original(self, row, column, cell)

        monkeypatch.setattr(model_class, "update_cell", counting)
    return calls


def column_layout() -> DataSpread:
    """A 1 000 x 20 sheet the optimizer stored as one COM table."""
    spread = DataSpread()
    spread.import_rows([[row * 100 + column for column in range(20)] for row in range(ROWS)])
    spread.optimize_storage("aggressive")
    assert [(entry.kind, entry.range.to_a1()) for entry in spread.model.regions] \
        == [(ModelKind.COM, "A1:T1000")]
    return spread


def test_a_column_of_set_values_is_one_record_rewrite(heap_updates):
    spread = column_layout()
    heap_updates.clear()
    assert spread.set_values((row, 3, -row) for row in range(1, ROWS + 1)) == ROWS
    assert len(heap_updates) == 1
    assert spread.get_range_values("C999:C1000") == [[-999], [-1000]]


def test_a_block_of_set_values_is_one_record_rewrite_per_column(heap_updates):
    spread = column_layout()
    heap_updates.clear()
    spread.set_values((row, column, "x") for row in range(101, 201) for column in range(1, 21))
    assert len(heap_updates) == 20


def test_import_rows_is_one_record_rewrite_per_column(heap_updates):
    spread = column_layout()
    heap_updates.clear()
    assert spread.import_rows([[row] * 20 for row in range(200)], top=301) == 200
    assert len(heap_updates) == 20
    assert spread.get_value(500, 20) == 199


def test_a_batch_that_rolls_back_rewrites_nothing(heap_updates):
    spread = column_layout()
    heap_updates.clear()
    with pytest.raises(RuntimeError):
        with spread.batch():
            spread.set_values((row, 1, "doomed") for row in range(1, 101))
            raise RuntimeError("abort")
    assert heap_updates == []
    assert spread.get_value(1, 1) == 0


def test_a_row_layout_block_is_one_record_rewrite_per_row(heap_updates):
    spread = DataSpread()
    spread.import_rows([[row * 100 + column for column in range(20)] for row in range(60)])
    spread.optimize_storage("aggressive", kinds=(ModelKind.ROM,))
    assert [entry.kind for entry in spread.model.regions] == [ModelKind.ROM]
    heap_updates.clear()
    touched = [3, 17, 18, 40, 59]
    spread.set_values((row, column, "x") for column in range(1, 21) for row in touched)
    assert len(heap_updates) == len(touched)


def test_two_column_regions_fed_row_major_rewrite_each_line_once(heap_updates):
    """The hybrid groups a block per owning model, not per consecutive run:
    a row-major block alternates between these regions on every row."""
    hybrid = HybridDataModel([
        HybridRegion(RangeRef(1, 1, 50, 3), ColumnOrientedModel(1, 1, rows=50, columns=3)),
        HybridRegion(RangeRef(1, 5, 50, 7), ColumnOrientedModel(1, 5, rows=50, columns=3)),
    ])
    hybrid.update_cells((row, column, Cell(value=row * column))
                        for row in range(1, 51) for column in range(1, 8))
    assert len(heap_updates) == 6
    assert hybrid.catch_all.cell_count() == 50  # column D is nobody's
    assert hybrid.get_cell(50, 7).value == 350


def test_a_relayout_writes_each_stored_line_once_and_no_point_writes(heap_updates, point_writes):
    sheet = Sheet()
    for row in range(1, 41):
        for column in range(1, 6):
            sheet.set_value(row, column, row * column)          # a COM table: 5 lines
    for row in range(60, 63):
        for column in range(1, 31):
            sheet.set_value(row, column, "wide")                # a ROM table: 3 lines
    sheet.set_value(100, 40, "loose")
    plan = [(RangeRef(1, 1, 40, 5), ModelKind.COM), (RangeRef(60, 1, 62, 30), ModelKind.ROM)]
    hybrid = HybridDataModel.from_decomposition(sheet, plan)
    assert len(heap_updates) == 5 + 3
    assert point_writes == []
    assert hybrid.get_cells(hybrid.region()) == dict(sheet.items())
    assert hybrid.catch_all.cell_count() == 1


def test_recovery_adopts_its_cells_as_one_block(tmp_path, monkeypatch, point_writes):
    rows, columns = 30, 8
    spread = DataSpread(durability="wal", storage_dir=str(tmp_path))
    spread.import_rows([[row * 10 + column for column in range(columns)] for row in range(rows)])
    spread.close()

    blocks: list[int] = []
    original = HybridDataModel.update_cells
    monkeypatch.setattr(
        HybridDataModel, "update_cells",
        lambda model, items: blocks.append(len(items)) or original(model, items))
    fetches: list = []
    fetch = HierarchicalMapping.fetch
    monkeypatch.setattr(
        HierarchicalMapping, "fetch",
        lambda mapping, position: fetches.append(position) or fetch(mapping, position))
    point_writes.clear()

    recovered = recover(str(tmp_path))
    assert blocks == [rows * columns]
    assert point_writes == []
    assert len(fetches) <= rows + columns
    assert recovered.get_range_values(RangeRef(1, 1, rows, columns)) \
        == [[row * 10 + column for column in range(columns)] for row in range(rows)]
    recovered.close()
