"""The two read contracts, checked against each other and counted.

Storage answers a range in two shapes — ``get_cells`` (sparse, whole
cells) and ``get_values_dense`` (the dense row-major value block every
consumer of a range of values reads, through ``DataSpread.grid_values``).
The differential half drives every model, and the engine above them,
through random content and structural edits and requires the block, the
block derived from ``get_cells``, per-cell ``get_cell`` and
``get_range_values`` to agree over windows inside, straddling, wholly
outside and above-left of the stored region.  The counting half pins what
one range read costs: bulk reads, cells, positional calls, heap records.
"""

from __future__ import annotations

import random

import pytest

from repro.engine.dataspread import DataSpread
from repro.errors import LinkTableError
from repro.grid.cell import Cell
from repro.grid.range import RangeRef
from repro.grid.sheet import Sheet
from repro.grid.structural import StructuralEdit
from repro.models import (
    ColumnOrientedModel,
    RowColumnValueModel,
    RowOrientedModel,
    TableOrientedModel,
)
from repro.positional.hierarchical import HierarchicalMapping
from repro.query import col, region as grid_region, select
from repro.service.workspace import Workspace
from repro.storage.database import Database
from repro.storage.heap import HeapFile
from tests.support.seeds import seed_set

SEEDS = seed_set("REPRO_FUZZ_SEEDS", range(1, 7))
TOP, LEFT = 5, 4  # where the primitive models anchor


# ---------------------------------------------------------------------- #
# the three derivations of one block
# ---------------------------------------------------------------------- #
def block_of_cells(cells: dict, region: RangeRef) -> list:
    block = [None] * region.area
    for address, cell in cells.items():
        assert region.contains(address), (address, region)
        block[(address.row - region.top) * region.columns
              + address.column - region.left] = cell.value
    return block


def block_per_cell(value_at, region: RangeRef) -> list:
    return [value_at(row, column)
            for row in range(region.top, region.bottom + 1)
            for column in range(region.left, region.right + 1)]


def assert_model_reads_agree(model, region: RangeRef, context) -> None:
    dense = model.get_values_dense(region)
    assert len(dense) == region.area, context
    assert dense == block_of_cells(model.get_cells(region), region), context
    assert dense == block_per_cell(
        lambda row, column: model.get_cell(row, column).value, region), context


def assert_engine_reads_agree(reader, spread: DataSpread, region: RangeRef, context) -> None:
    """``reader`` is the engine or a session over it."""
    grid = reader.get_range_values(region)
    assert [len(row) for row in grid] == [region.columns] * region.rows, context
    block = [value for row in grid for value in row]
    assert block == block_per_cell(reader.get_value, region), context
    if reader is spread:
        assert block == spread.grid_values(region), context
        assert block == block_of_cells(spread.get_cells(region), region), context


def windows(rng: random.Random, own: RangeRef) -> list[RangeRef]:
    """Inside, straddling each corner, wholly outside, above-left, all."""
    found = [
        own,
        RangeRef(max(own.top - 2, 1), max(own.left - 2, 1), own.bottom + 2, own.right + 2),
        RangeRef(max(own.top - 3, 1), max(own.left - 2, 1), own.top, own.left),
        RangeRef(own.bottom, own.right, own.bottom + 3, own.right + 2),
        RangeRef(own.bottom + 5, own.right + 5, own.bottom + 7, own.right + 6),
        RangeRef(own.bottom + 2, own.left, own.bottom + 3, own.right),
        RangeRef(1, 1, 1, 1),
    ]
    if own.top > 1 and own.left > 1:
        found.append(RangeRef(1, 1, own.top - 1, own.left - 1))
    for _ in range(6):
        top = rng.randint(1, own.bottom + 2)
        left = rng.randint(1, own.right + 2)
        found.append(RangeRef(top, left, top + rng.randint(0, 6), left + rng.randint(0, 5)))
    return found


def random_edit(rng: random.Random) -> StructuralEdit:
    axis = rng.choice(["row", "column"])
    kind = rng.choice(["insert", "delete"])
    line = rng.randint(0 if kind == "insert" else 1, 16 if axis == "row" else 12)
    return StructuralEdit(axis, kind, line, rng.randint(1, 2))


# ---------------------------------------------------------------------- #
# differential: the primitive models
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "model_class", [RowOrientedModel, ColumnOrientedModel, RowColumnValueModel],
    ids=lambda cls: cls.__name__)
def test_primitive_model_reads_agree(model_class, seed):
    rng = random.Random(seed)
    sheet = Sheet()
    for row in range(TOP, TOP + rng.randint(1, 8)):
        for column in range(LEFT, LEFT + rng.randint(1, 6)):
            if rng.random() < 0.6:
                sheet.set_value(row, column, row * 100 + column)
    sheet.set_value(TOP, LEFT, "anchor")
    sheet.set_formula(TOP, LEFT + 1, "1+1", value=None)  # text without a value yet
    model = model_class.from_sheet(sheet)
    for step in range(25):
        for region in windows(rng, model.region()):
            assert_model_reads_agree(model, region, (model_class.__name__, seed, step, region))
        if rng.random() < 0.5:
            own = model.region()
            value = None if rng.random() < 0.3 else step
            model.update_cell(rng.randint(own.top, own.bottom + 2),
                              rng.randint(own.left, own.right + 2), Cell(value=value))
        else:
            model.apply_structural_edit(random_edit(rng))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("header", [True, False], ids=["header", "no-header"])
def test_linked_table_reads_agree(header, seed):
    rng = random.Random(seed)
    database = Database()
    database.create_table("t", ["a", "b", "c"])
    database.insert_many("t", [
        tuple(None if rng.random() < 0.25 else row * 10 + column for column in range(3))
        for row in range(rng.randint(0, 6))
    ])
    model = TableOrientedModel(database.table("t"), top=3, left=2, header=header)
    for step in range(12):
        for region in windows(rng, model.region()):
            assert_model_reads_agree(model, region, (header, seed, step, region))
        edit = StructuralEdit("row", rng.choice(["insert", "delete"]), rng.randint(2, 9), 1)
        try:
            model.apply_structural_edit(edit)
        except LinkTableError:
            pass  # the header row, or past the last record


# ---------------------------------------------------------------------- #
# differential: the hybrid model and the engine over it
# ---------------------------------------------------------------------- #
def populated_engine(rng: random.Random, **options) -> DataSpread:
    """Two dense tables, a sparse patch and loose cells, formulas among them."""
    spread = DataSpread(**options)
    with spread.batch():
        for row in range(2, 2 + rng.randint(4, 9)):
            for column in range(1, 5):
                spread.set_value(row, column, row * 10 + column)
        for row in range(4, 4 + rng.randint(3, 6)):
            for column in range(7, 10):
                if rng.random() < 0.8:
                    spread.set_value(row, column, f"t{row}.{column}")
        for _ in range(rng.randint(3, 10)):
            spread.set_value(rng.randint(1, 18), rng.randint(1, 12), rng.randint(-5, 5))
        spread.set_formula(14, 1, "SUM(A2:D6)")
        spread.set_formula(14, 2, "A14+COUNT(G4:I9)")
    return spread


def engine_windows(rng: random.Random, spread: DataSpread) -> list[RangeRef]:
    return windows(rng, spread.used_range()) + windows(rng, RangeRef(5, 5, 9, 8))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("algorithm", [None, "dp", "greedy", "aggressive"],
                         ids=lambda name: name or "catch-all")
def test_hybrid_and_engine_reads_agree(algorithm, seed):
    rng = random.Random(seed)
    spread = populated_engine(rng)

    def check(stage: str) -> None:
        for region in engine_windows(rng, spread):
            context = (algorithm, seed, stage, region)
            assert_model_reads_agree(spread.model, region, context)
            assert_engine_reads_agree(spread, spread, region, context)

    check("loaded")
    if algorithm is not None:
        spread.optimize_storage(algorithm)
        check("optimized")
    # A linked table laid over stored data: its region shadows what lies
    # under it, including where the table itself holds NULL.
    spread.link_table("t", at="C5", columns=["x", "y", "z"],
                      rows=[[1, None, 3], [None, 5, 6], [7, 8, None]],
                      header=rng.random() < 0.5)
    check("linked")
    for _ in range(rng.randint(2, 6)):
        spread.set_value(rng.randint(1, 20), rng.randint(9, 14), rng.random())
    check("loose")
    for step in range(6):
        edit = random_edit(rng)
        try:
            spread._apply_structural_edit(edit)
        except LinkTableError:
            continue  # a column edit through the table, or its header row
        check(f"edit {step}: {edit}")


@pytest.mark.parametrize("seed", SEEDS)
def test_open_batch_reads_see_own_writes_and_clears(seed):
    rng = random.Random(seed)
    spread = populated_engine(rng)
    spread.optimize_storage()
    with spread.batch():
        for _ in range(8):
            row, column = rng.randint(1, 12), rng.randint(1, 10)
            if rng.random() < 0.4:
                spread.clear_cell(row, column)
            else:
                spread.set_value(row, column, f"buffered{row}.{column}")
        assert spread.cache.pending_count
        for region in engine_windows(rng, spread):
            assert_engine_reads_agree(spread, spread, region, (seed, "open", region))
    for region in engine_windows(rng, spread):
        assert_engine_reads_agree(spread, spread, region, (seed, "committed", region))


@pytest.mark.parametrize("seed", SEEDS)
def test_async_placeholders_read_alike(seed):
    """A stale formula serves its last value, a fresh one its cell's old
    content, and the block read serves exactly what the per-cell read does."""
    rng = random.Random(seed)
    spread = populated_engine(rng, async_recompute=True)
    spread.flush_compute()
    before = spread.get_value(14, 1)
    spread.set_value(3, 2, 1_000)            # A14 and B14 go stale
    spread.set_formula(3, 3, "A3*2")         # a placeholder over a constant
    assert spread.compute_pending
    assert spread.get_range_values("A14:A14") == [[before]]
    for region in engine_windows(rng, spread) + [RangeRef(14, 1, 14, 2)]:
        assert_engine_reads_agree(spread, spread, region, (seed, "stale", region))
    spread.flush_compute()
    assert spread.get_value(14, 1) != before
    for region in engine_windows(rng, spread):
        assert_engine_reads_agree(spread, spread, region, (seed, "drained", region))


@pytest.mark.parametrize("seed", SEEDS)
def test_foreign_session_reads_committed_values_only(seed):
    rng = random.Random(seed)
    workspace = Workspace(engine=populated_engine(rng))
    spread = workspace._spread
    owner, other = workspace.open_session("owner"), workspace.open_session("other")
    whole = spread.used_range()
    committed = other.get_range_values(whole)
    with owner.batch():
        for _ in range(6):
            owner.set_value(rng.randint(whole.top, whole.bottom),
                            rng.randint(whole.left, whole.right), "uncommitted")
        assert other.get_range_values(whole) == committed
        assert owner.get_range_values(whole) != committed
        for region in windows(rng, whole):
            assert_engine_reads_agree(other, spread, region, (seed, "other", region))
            assert_engine_reads_agree(owner, spread, region, (seed, "owner", region))
    workspace.flush()
    assert other.get_range_values(whole) == owner.get_range_values(whole) != committed
    workspace.close()


# ---------------------------------------------------------------------- #
# counts: what one range read costs
# ---------------------------------------------------------------------- #
ROWS = 2_000


@pytest.fixture
def wide_sheet() -> DataSpread:
    """A 2 000 x 20 sheet on the default layout (everything in the RCV
    catch-all), counters zeroed."""
    spread = DataSpread()
    spread.import_rows([[row * 100 + column for column in range(20)]
                        for row in range(ROWS)])
    spread.model.reset_read_counters()
    return spread


@pytest.fixture
def positional_calls(monkeypatch) -> dict[str, int]:
    calls = {"fetch": 0, "fetch_range": 0}
    for name in calls:
        original = getattr(HierarchicalMapping, name)

        def counting(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(HierarchicalMapping, name, counting)
    return calls


def test_scroll_is_one_bulk_read_and_two_range_fetches(wide_sheet, positional_calls):
    window = wide_sheet.scroll(700, height=40, width=20)
    assert window[0][:2] == [69_900, 69_901] and len(window) == 40
    assert (wide_sheet.model.bulk_reads, wide_sheet.model.cells_read) == (1, 800)
    assert positional_calls == {"fetch": 0, "fetch_range": 2}


def test_cold_column_sum_is_one_bulk_read(wide_sheet):
    assert wide_sheet.set_formula(1, 22, "SUM(A1:A1000)") == sum(
        row * 100 for row in range(1_000))
    assert (wide_sheet.model.bulk_reads, wide_sheet.model.cells_read) == (1, 1_000)


def test_filter_scan_reads_one_block_per_column_run_per_chunk(wide_sheet):
    from repro.query.planner import CHUNK_ROWS

    source = grid_region(RangeRef(1, 1, ROWS, 20), header=False)
    query = select(source).where(col("B") > 150_000).project(col("B"), col("H"))
    rows = wide_sheet.execute(query).to_table().rows
    assert rows[0] == (150_001, 150_007) and len(rows) == 500
    chunks = -(-ROWS // CHUNK_ROWS)
    assert wide_sheet.model.bulk_reads == 2 * chunks
    assert wide_sheet.model.cells_read == 2 * ROWS


@pytest.mark.parametrize("width", [1, 8, 20])
def test_column_layout_window_reads_one_heap_record_per_column(wide_sheet, width, monkeypatch):
    wide_sheet.optimize_storage()
    assert [entry.kind.value for entry in wide_sheet.model.regions] == ["com"]
    reads = []
    original = HeapFile.read
    monkeypatch.setattr(
        HeapFile, "read", lambda heap, pointer: reads.append(pointer) or original(heap, pointer))
    window = wide_sheet.scroll(700, height=40, width=width)
    assert window[39][width - 1] == 73_800 + width - 1
    assert len(reads) == width


# ---------------------------------------------------------------------- #
# cell_count() inside a batch
# ---------------------------------------------------------------------- #
def test_cell_count_mid_batch_probes_cells_not_ranges():
    spread = DataSpread()
    spread.import_rows([[row, row + 1] for row in range(40)])
    spread.model.reset_read_counters()
    with spread.batch():
        for row in range(1, 26):
            spread.set_value(row, 3, "new")      # 25 buffered fills
        for row in range(1, 16):
            spread.clear_cell(row, 1)            # 15 buffered clears of stored cells
        for row in range(50, 60):
            spread.clear_cell(row, 1)            # 10 buffered clears of blanks
        mid_batch = spread.cell_count()
        assert (spread.model.bulk_reads, spread.model.cells_read) == (0, 0)
    assert mid_batch == spread.cell_count() == 80 + 25 - 15
