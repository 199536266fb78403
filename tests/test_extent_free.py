"""Extent-free structural edits, end to end.

Structural edits must succeed at *any* grid coordinate on every data model
(ROM, COM, RCV — including above/left of its anchor — hybrid, and the
shared line-grid store): positions beyond the
mapped extent are implicit empty space.  Deletes clip to the stored portion
and still shift the grid; inserts extend the mapping lazily instead of
raising.  This module pins that contract at the model layer (against the
naive ``Sheet`` semantics), the hybrid router (region re-anchoring), the
engine commit path (graph re-keying and reference rewriting past the
extent), the PR 3 invariants (stripe trees across edits, async queue and
provisional-placeholder remapping), and the error taxonomy
(``PositionError`` only for genuinely invalid input).
"""

import random

import pytest

from repro.engine.dataspread import DataSpread
from repro.errors import PositionError
from repro.formula.dependencies import DependencyGraph
from repro.formula.rewrite import StructuralEdit
from repro.grid.address import MAX_COLUMNS, MAX_ROWS, CellAddress
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
)
from repro.positional.hierarchical import DEFAULT_FANOUT
from repro.storage.costs import POSTGRES_COSTS

PRIMITIVES = [RowOrientedModel, ColumnOrientedModel, RowColumnValueModel]

#: The data block is anchored away from the origin so rows 1..4 and columns
#: 1..2 are *above/left of the anchor* — implicit space a structural edit
#: must treat exactly like the implicit space beyond the bottom-right.
ANCHOR_TOP, ANCHOR_LEFT = 5, 3


#: Lines in a block that outgrows one leaf of a hierarchical mapping.
SPAN = 3 * DEFAULT_FANOUT // 2

#: (height, width) of the anchored data block.  A model keeps a hierarchical
#: positional mapping per stored axis (ROM its rows, COM its columns, RCV
#: both) whose leaves hold ``DEFAULT_FANOUT`` lines: the 3 x 3 block sits in
#: one leaf, while the tall and wide blocks span two on one axis, so edits to
#: them split, borrow and merge leaves under the model.
SHAPES = {"block": (3, 3), "tall": (SPAN, 3), "wide": (3, SPAN)}


def data_sheet(shape: str = "block") -> Sheet:
    height, width = SHAPES[shape]
    return Sheet.from_rows(
        [[row * 1000 + column for column in range(1, width + 1)]
         for row in range(1, height + 1)],
        top=ANCHOR_TOP, left=ANCHOR_LEFT,
    )


#: Everything the tests below can reach from the 3 x 3 block, on either axis.
WINDOW = RangeRef(1, 1, 60, 60)


def shape_window(shape: str) -> RangeRef:
    """``WINDOW`` grown by the block's extra rows and columns."""
    height, width = SHAPES[shape]
    return RangeRef(1, 1, WINDOW.bottom + height - 3, WINDOW.right + width - 3)


def grid(target, window: RangeRef = WINDOW) -> dict:
    """The (row, column) -> value map of a model or sheet, for comparison."""
    return {
        (address.row, address.column): cell.value
        for address, cell in target.get_cells(window).items()
    }


@pytest.fixture(params=SHAPES)
def shape(request):
    return request.param


@pytest.fixture(params=PRIMITIVES, ids=lambda cls: cls.__name__)
def anchored_model(request, shape):
    return request.param.from_sheet(data_sheet(shape))


#: One structural op per extent boundary case, on both axes: beyond the
#: extent, straddling its far edge, entirely above/left of the anchor,
#: straddling the anchor, in-extent, and at the sheet's MAX boundary.
STRUCTURAL_CASES = [
    ("delete_row", 50, 3),
    ("delete_row", 6, 10),        # straddles the extent bottom
    ("delete_row", 1, 2),         # entirely above the anchor
    ("delete_row", 3, 4),         # straddles the anchor from above
    ("delete_row", 5, 2),
    ("delete_row", MAX_ROWS - 1, 2),
    ("insert_row_after", 40, 2),
    ("insert_row_after", 0, 2),
    ("insert_row_after", 2, 1),   # above the anchor
    ("insert_row_after", 6, 2),
    ("delete_column", 50, 2),
    ("delete_column", 4, 10),     # straddles the extent's right edge
    ("delete_column", 1, 2),      # entirely left of the anchor
    ("delete_column", 2, 3),      # straddles the anchor from the left
    ("delete_column", MAX_COLUMNS - 1, 2),
    ("insert_column_after", 30, 1),
    ("insert_column_after", 0, 2),
    ("insert_column_after", 4, 1),
]


class TestModelsMatchNaiveSheet:
    """Every primitive model, every block shape, every boundary case: the
    model after a structural edit must show the same cells as the naive
    ``Sheet`` renumbering applied to the same data."""

    @pytest.mark.parametrize(
        "op", STRUCTURAL_CASES, ids=lambda case: f"{case[0]}({case[1]},{case[2]})"
    )
    def test_structural_edit_matches_oracle(self, anchored_model, shape, op):
        kind, line, count = op
        oracle = data_sheet(shape)
        getattr(anchored_model, kind)(line, count)
        getattr(oracle, kind)(line, count)
        window = shape_window(shape)
        assert grid(anchored_model, window) == grid(oracle, window)

    def test_edit_sequences_match_oracle(self, anchored_model, shape):
        """Composed boundary edits: anchors move between ops, so each case
        must hold from *any* anchor state, not just the seeded one."""
        oracle = data_sheet(shape)
        window = shape_window(shape)
        sequence = [
            ("delete_row", 1, 2),             # anchor re-anchors to row 3
            ("insert_row_after", 0, 1),       # and back down to 4
            ("delete_row", 2, 30),            # wipes out the whole extent
            ("insert_column_after", 100, 2),  # lazy no-op
            ("delete_column", 1, 1),
        ]
        for kind, line, count in sequence:
            getattr(anchored_model, kind)(line, count)
            getattr(oracle, kind)(line, count)
            assert grid(anchored_model, window) == grid(oracle, window), (kind, line, count)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_randomized_structural_sequences(self, anchored_model, shape, seed):
        rng = random.Random(seed)
        oracle = data_sheet(shape)
        window = shape_window(shape)
        # Edit lines reach past the block on both axes (40 for the 3 x 3 one).
        height, width = SHAPES[shape]
        reach = {"row": 37 + height, "column": 37 + width}
        for _step in range(40):
            kind = rng.choice(
                ["delete_row", "insert_row_after", "delete_column", "insert_column_after"]
            )
            insert = kind.startswith("insert")
            axis = "row" if "row" in kind else "column"
            line = rng.randint(0 if insert else 1, reach[axis])
            count = rng.randint(1, 3)
            getattr(anchored_model, kind)(line, count)
            getattr(oracle, kind)(line, count)
            assert grid(anchored_model, window) == grid(oracle, window), \
                (seed, kind, line, count)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_com_is_rom_transposed(self, seed, shape):
        """COM over the transposed sheet, driven by the transposed script,
        is ROM transposed — cells, region, count and (with the row and
        column roles swapped by the transposition) storage cost."""
        rng = random.Random(seed)
        height, width = SHAPES[shape]
        top, left = rng.randint(1, 6), rng.randint(1, 6)
        sheet, mirror = Sheet(), Sheet()
        for row in range(top, top + height - 3 + rng.randint(2, 9)):
            for column in range(left, left + width - 3 + rng.randint(2, 9)):
                if rng.random() < 0.6:
                    sheet.set_value(row, column, row * 100 + column)
                    mirror.set_value(column, row, row * 100 + column)
        # Lines reach past the block (30 for the 3 x 3 one); the window is square.
        reach = 27 + max(height, width)
        side = WINDOW.rows - 3 + max(height, width)
        window = RangeRef(1, 1, side, side)
        rom = RowOrientedModel.from_sheet(sheet)
        com = ColumnOrientedModel.from_sheet(mirror)
        for step in range(40):
            if rng.random() < 0.25:
                # ROM/COM take writes at or past their anchor only.
                own = rom.region()
                row, column = rng.randint(own.top, reach), rng.randint(own.left, reach)
                cell = Cell(value=None if rng.random() < 0.3 else step)
                rom.update_cell(row, column, cell)
                com.update_cell(column, row, cell)
            else:
                kind = rng.choice(["insert", "delete"])
                line = rng.randint(0 if kind == "insert" else 1, reach)
                count = rng.randint(1, 4)
                axis = rng.choice(["row", "column"])
                other = "column" if axis == "row" else "row"
                rom.apply_structural_edit(StructuralEdit(axis, kind, line, count))
                com.apply_structural_edit(StructuralEdit(other, kind, line, count))
            context = (seed, step)
            assert {(c, r): v for (r, c), v in grid(rom, window).items()} \
                == grid(com, window), context
            block = rom.get_values_dense(window)
            assert [block[r * side + c] for c in range(side) for r in range(side)] \
                == com.get_values_dense(window), context
            own = rom.region()
            assert com.region() == RangeRef(own.left, own.top, own.right, own.bottom), context
            assert com.cell_count() == rom.cell_count(), context
            assert com.storage_cost(POSTGRES_COSTS) == rom.storage_cost(POSTGRES_COSTS), context

    def test_writes_after_out_of_extent_edits(self, anchored_model, shape):
        """The lazily-unextended mapping must still accept writes that land
        in the implicit space the edits addressed."""
        height, width = SHAPES[shape]
        bottom, right = ANCHOR_TOP + height - 1, ANCHOR_LEFT + width - 1
        anchored_model.insert_row_after(bottom + 33, 2)   # lazy no-ops
        anchored_model.insert_column_after(right + 25, 1)
        anchored_model.delete_row(bottom + 43)
        anchored_model.update_cell(bottom + 13, right + 5, Cell(value="late"))
        assert anchored_model.get_value(bottom + 13, right + 5) == "late"
        assert anchored_model.get_value(ANCHOR_TOP, ANCHOR_LEFT) == 1001
        assert anchored_model.get_value(bottom, right) == height * 1000 + width


class TestRcvAnchorEdits:
    """RCV-specific: the catch-all model's anchor can sit anywhere, and
    edits above/left of it must re-anchor without touching stored cells."""

    def _model(self) -> RowColumnValueModel:
        model = RowColumnValueModel(top=10, left=8)
        model.update_cell(10, 8, Cell(value="a"))
        model.update_cell(12, 9, Cell(value="b"))
        return model

    def test_delete_rows_above_anchor_shifts_up(self):
        model = self._model()
        model.delete_row(1, 4)
        assert model.get_value(6, 8) == "a"
        assert model.get_value(8, 9) == "b"
        assert model.cell_count() == 2

    def test_delete_straddling_anchor_clips_and_reanchors(self):
        model = self._model()
        model.delete_row(8, 4)  # rows 8, 9 implicit; rows 10, 11 stored
        assert model.get_value(8, 9) == "b"   # row 12 shifted up by 4
        assert model.get_cell(10, 8).is_empty
        assert model.cell_count() == 1

    def test_delete_columns_left_of_anchor(self):
        model = self._model()
        model.delete_column(2, 3)
        assert model.get_value(10, 5) == "a"
        assert model.get_value(12, 6) == "b"

    def test_insert_beyond_extent_is_lazy(self):
        model = self._model()
        region_before = model.region()
        model.insert_row_after(40, 2)
        model.insert_column_after(40, 2)
        assert model.region() == region_before  # nothing stored shifted
        model.delete_row(13, 10)                # just past the last stored row
        assert model.get_value(12, 9) == "b"


class TestHybridReanchoring:
    """The hybrid router: deletes overlapping a region's leading edge must
    re-anchor the region upward/leftward, not just shrink it."""

    def _hybrid(self) -> HybridDataModel:
        sheet = Sheet.from_rows([[1, 2], [3, 4], [5, 6], [7, 8]], top=5, left=4)
        plan = [(RangeRef(5, 4, 8, 5), ModelKind.ROM)]
        return HybridDataModel.from_decomposition(sheet, plan)

    def test_delete_straddling_region_top(self):
        hybrid = self._hybrid()
        hybrid.delete_row(3, 4)  # rows 3, 4 above the region; rows 5, 6 inside
        entry = hybrid.regions[0]
        assert entry.range == RangeRef(3, 4, 4, 5)
        assert hybrid.get_value(3, 4) == 5
        assert hybrid.get_value(4, 5) == 8

    def test_delete_straddling_region_left(self):
        hybrid = self._hybrid()
        hybrid.delete_column(2, 3)  # columns 2, 3 left of the region; column 4 inside
        entry = hybrid.regions[0]
        assert entry.range == RangeRef(5, 2, 8, 2)
        assert hybrid.get_value(5, 2) == 2
        assert hybrid.get_value(8, 2) == 8

    def test_delete_covering_whole_region(self):
        hybrid = self._hybrid()
        hybrid.delete_row(1, 20)
        assert hybrid.cell_count() == 0

    def test_delete_beyond_all_regions_is_a_noop(self):
        hybrid = self._hybrid()
        before = grid(hybrid)
        hybrid.delete_row(50, 5)
        hybrid.delete_column(50, 5)
        hybrid.insert_row_after(60, 2)
        assert grid(hybrid) == before

    def test_catch_all_above_anchor_delete(self):
        hybrid = HybridDataModel()
        hybrid.update_cell(20, 6, Cell(value="loose"))
        hybrid.delete_row(1, 5)
        hybrid.delete_column(1, 2)
        assert hybrid.get_value(15, 4) == "loose"

    def test_region_swallowed_by_a_delete_does_not_shadow_its_neighbour(self):
        sheet = Sheet.from_rows([[1, 2], [3, 4], [5, 6], [7, 8], [9, 10]], top=5, left=1)
        plan = [(RangeRef(5, 1, 6, 2), ModelKind.ROM), (RangeRef(7, 1, 9, 2), ModelKind.COM)]
        hybrid = HybridDataModel.from_decomposition(sheet, plan)
        hybrid.delete_row(5, 2)  # swallows the first region; the second moves up
        sheet.delete_row(5, 2)
        assert [entry.range for entry in hybrid.regions] == [RangeRef(5, 1, 7, 2)]
        assert grid(hybrid) == grid(sheet)
        assert hybrid.get_value(5, 1) == 5

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
    def test_region_ranges_follow_map_span(self, seed):
        """After any edit every region sits exactly where ``map_span`` puts
        its old range — shifted, expanded, shrunk from either edge, or gone
        when a delete swallows it — and the grid still equals the oracle."""
        rng = random.Random(seed)
        blocks = [
            (RangeRef(3, 2, 6, 5), ModelKind.ROM), (RangeRef(8, 2, 12, 4), ModelKind.COM),
            (RangeRef(3, 8, 5, 12), ModelKind.RCV), (RangeRef(14, 7, 15, 9), ModelKind.ROM),
        ]
        oracle = Sheet()
        for block, _kind in blocks:
            for address in block.addresses():
                if rng.random() < 0.7:
                    oracle.set_value(
                        address.row, address.column, address.row * 100 + address.column)
        oracle.set_value(20, 14, "loose")  # lands in the catch-all table
        hybrid = HybridDataModel.from_decomposition(oracle, blocks)
        for step in range(25):
            kind = rng.choice(["insert", "delete"])
            edit = StructuralEdit(
                rng.choice(["row", "column"]), kind,
                rng.randint(0 if kind == "insert" else 1, 18), rng.randint(1, 5))
            expected = []
            for entry in hybrid.regions:
                old = entry.range
                if edit.axis == "row":
                    span = edit.map_span(old.top, old.bottom)
                    moved = span and RangeRef(span[0], old.left, span[1], old.right)
                else:
                    span = edit.map_span(old.left, old.right)
                    moved = span and RangeRef(old.top, span[0], old.bottom, span[1])
                if moved is not None:
                    expected.append(moved)
            hybrid.apply_structural_edit(edit)
            method = {"insert": "insert_{}_after", "delete": "delete_{}"}[kind]
            getattr(oracle, method.format(edit.axis))(edit.line, edit.count)
            assert [entry.range for entry in hybrid.regions] == expected, (seed, step, edit)
            assert grid(hybrid) == grid(oracle), (seed, step, edit)
            assert hybrid.cell_count() == oracle.cell_count(), (seed, step, edit)

    def test_hybrid_matches_oracle_across_boundary_cases(self):
        for kind, line, count in STRUCTURAL_CASES:
            sheet = data_sheet()
            plan = [(RangeRef(ANCHOR_TOP, ANCHOR_LEFT, ANCHOR_TOP + 2,
                              ANCHOR_LEFT + 2), ModelKind.ROM)]
            hybrid = HybridDataModel.from_decomposition(sheet, plan)
            hybrid.update_cell(20, 12, Cell(value="loose"))  # catch-all cell
            oracle = data_sheet()
            oracle.set_value(20, 12, "loose")
            getattr(hybrid, kind)(line, count)
            getattr(oracle, kind)(line, count)
            assert grid(hybrid) == grid(oracle), (kind, line, count)


class TestLinkedTableAtomicity:
    """The one carve-out from "any coordinate succeeds": a linked table's
    header and column structure are schema, not grid content.  An edit the
    table cannot absorb must fail *before* anything shifts — never mid-loop
    with sibling regions already moved."""

    def _hybrid_with_tom(self):
        from repro.models import TableOrientedModel
        from repro.storage.database import Database

        database = Database()
        database.create_table("inv", ["a", "b"])
        database.insert_many("inv", [(1, 2), (3, 4)])
        tom = TableOrientedModel(database.table("inv"), top=10, left=1)
        rom = RowOrientedModel.from_sheet(Sheet.from_rows([[7, 8]], top=20, left=1))
        hybrid = HybridDataModel()
        # The ROM region comes *first* so a mid-loop failure would have
        # shifted it before the linked table refused.
        hybrid.add_region(HybridRegion(range=RangeRef(20, 1, 20, 2), model=rom))
        hybrid.add_region(HybridRegion(range=tom.region(), model=tom))
        return hybrid

    def test_delete_straddling_header_fails_atomically(self):
        from repro.errors import LinkTableError

        hybrid = self._hybrid_with_tom()
        before = grid(hybrid)
        with pytest.raises(LinkTableError):
            hybrid.delete_row(8, 3)  # rows 8-9 implicit, row 10 = header
        assert grid(hybrid) == before  # nothing moved, ROM region included

    def test_column_edits_overlapping_table_fail_atomically(self):
        from repro.errors import LinkTableError

        hybrid = self._hybrid_with_tom()
        before = grid(hybrid)
        with pytest.raises(LinkTableError):
            hybrid.delete_column(1)
        with pytest.raises(LinkTableError):
            hybrid.insert_column_after(1)
        assert grid(hybrid) == before

    def test_data_row_delete_inside_table_still_works(self):
        hybrid = self._hybrid_with_tom()
        hybrid.delete_row(11)  # the first data record
        assert hybrid.get_value(11, 1) == 3
        assert hybrid.get_value(19, 1) == 7  # the ROM region shifted up

    def test_edits_clear_of_the_table_stay_extent_free(self):
        hybrid = self._hybrid_with_tom()
        hybrid.delete_row(50, 5)        # past every region
        hybrid.insert_column_after(30)  # lazy no-op
        hybrid.delete_row(1, 4)         # above the table: shifts both regions
        assert hybrid.get_value(6, 1) == "a"   # header moved up
        assert hybrid.get_value(16, 1) == 7


class TestEngineExtentFree:
    """The engine commit path: graph re-keying, reference rewriting and
    recompute must work when the edit line lies past the stored extent."""

    def test_delete_past_extent_keeps_formulas_live(self):
        spread = DataSpread()
        spread.set_value(1, 1, 5)
        spread.set_formula(2, 1, "A1*2")
        spread.delete_row(30)  # the ROADMAP's canonical failing case
        assert spread.get_value(2, 1) == 10
        spread.set_value(1, 1, 6)
        assert spread.get_value(2, 1) == 12

    def test_delete_above_catch_all_anchor(self):
        spread = DataSpread()
        sheet = Sheet()
        for target in (spread, sheet):
            target.set_value(10, 2, 7)
            target.set_formula(12, 3, "B10+1")
        for target in (spread, sheet):
            target.delete_row(1, 4)
        assert spread.get_value(6, 2) == 7
        assert spread.get_value(8, 3) == 8
        assert spread.get_cell(8, 3).formula == sheet.get_cell(8, 3).formula == "B6+1"

    def test_references_beyond_extent_shift_without_storage(self):
        """A formula can reference implicit empty space; an edit out there
        must re-key the graph even though storage has nothing to shift."""
        spread = DataSpread()
        spread.set_value(1, 1, 1)
        spread.set_formula(1, 3, "A20+1")  # A20 is far beyond the extent
        assert spread.get_value(1, 3) == 1  # empty cell coerces to 0
        spread.insert_row_after(5, 2)       # shifts only the implicit referent
        assert spread.get_cell(1, 3).formula == "A22+1"
        spread.set_value(22, 1, 9)          # the write lands on the new referent
        assert spread.get_value(1, 3) == 10

    def test_delete_straddling_extent_collapses_references(self):
        spread = DataSpread()
        spread.set_value(1, 1, 1)
        spread.set_value(2, 1, 2)
        spread.set_formula(1, 2, "SUM(A1:A2)")
        spread.delete_row(2, 100)  # row 2 stored, rows 3..101 implicit
        assert spread.get_cell(1, 2).formula == "SUM(A1:A1)"
        assert spread.get_value(1, 2) == 1

    def test_mid_batch_out_of_extent_edit_is_a_commit_point(self):
        spread = DataSpread()
        with spread.batch():
            spread.set_value(1, 1, 4)
            spread.set_formula(2, 1, "A1*A1")
            spread.delete_row(80, 3)     # past the extent, mid-batch
            spread.insert_row_after(90)  # and a lazy insert
            spread.set_value(3, 1, 9)
        assert spread.get_value(2, 1) == 16
        assert spread.get_value(3, 1) == 9

    def test_sync_and_async_agree_on_boundary_cases(self):
        for kind, line, count in STRUCTURAL_CASES:
            spreads = [DataSpread(), DataSpread(async_recompute=True)]
            for spread in spreads:
                spread.set_value(10, 2, 3)
                spread.set_formula(12, 4, "B10*2")
                getattr(spread, kind)(line, count)
                spread.flush_compute()
            window = RangeRef(1, 1, 30, 12)
            assert grid(spreads[0].model, window) == grid(spreads[1].model, window), \
                (kind, line, count)


class TestPr3InvariantsOutOfExtent:
    """PR 3's incremental-index and async invariants must survive edits
    whose line lies past the stored extent."""

    def test_stripes_keep_their_trees_when_column_edit_is_past_every_stripe(self):
        graph = DependencyGraph()
        graph.register(CellAddress(10, 26), "SUM(C1:C100)")
        graph.register(CellAddress(11, 26), "SUM(D5:D50)")
        graph.direct_dependents(CellAddress(50, 3))  # build the C stripe
        graph.direct_dependents(CellAddress(20, 4))  # build the D stripe
        trees = {key: graph._range_buckets[key].tree for key in (3, 4)}
        graph.stats.reset()
        graph.apply_structural_edit(StructuralEdit.delete_columns(60, 5))
        for key, tree in trees.items():
            assert graph._range_buckets[key].tree is tree
            assert not graph._range_buckets[key].stale
        assert graph.direct_dependents(CellAddress(50, 3)) == {CellAddress(10, 26)}
        assert graph.direct_dependents(CellAddress(20, 4)) == {CellAddress(11, 26)}
        assert graph.stats.index_rebuilds == 0  # served from the kept trees

    def test_stripes_follow_an_edit_past_storage_but_left_of_stripe(self):
        """The stripe index lives on *references*, which can sit far beyond
        any stored cell; an edit line out of the storage extent entirely
        still moves the stripe, which rebuilds once."""
        spread = DataSpread()
        spread.set_value(1, 4, 1)                      # D1: the whole extent
        spread.set_formula(1, 6, "SUM(D1:D10)")        # F1 reads the D stripe
        graph = spread.dependency_graph
        graph.direct_dependents(CellAddress(5, 4))     # build the D stripe tree
        spread.delete_column(2)                        # left of the anchor
        assert spread.get_cell(1, 5).formula == "SUM(C1:C10)"
        graph.stats.reset()
        assert graph.direct_dependents(CellAddress(5, 3)) == {CellAddress(1, 5)}
        assert graph.direct_dependents(CellAddress(5, 4)) == set()
        assert graph.direct_dependents(CellAddress(9, 3)) == {CellAddress(1, 5)}
        assert graph.stats.index_rebuilds == 1

    def test_queued_async_work_survives_out_of_extent_edits(self):
        spread = DataSpread(async_recompute=True)
        spread.set_value(1, 1, 3)
        spread.set_formula(2, 1, "A1+1")  # queued, provisional placeholder
        pending = spread.compute_pending
        assert pending >= 1
        assert spread.cache.provisional_count == 1
        spread.delete_row(50, 2)
        spread.insert_row_after(90)
        spread.delete_column(70)
        assert spread.compute_pending == pending       # nothing cancelled
        assert spread.cache.provisional_count == 1     # placeholder intact
        assert spread.model.get_cell(2, 1) == Cell()   # still uncommitted
        spread.flush_compute()
        assert spread.get_value(2, 1) == 4
        assert spread.model.get_cell(2, 1).value == 4

    def test_provisional_placeholder_remaps_across_above_anchor_delete(self):
        spread = DataSpread(async_recompute=True)
        spread.set_value(10, 1, 2)
        spread.set_formula(11, 1, "A10*10")  # provisional at A11
        spread.delete_row(1, 3)              # above the catch-all anchor
        assert spread.cache.provisional_count == 1
        assert spread.get_cell(8, 1).formula == "A7*10"
        spread.flush_compute()
        assert spread.get_value(8, 1) == 20


class TestErrorTaxonomy:
    """``PositionError`` marks genuinely invalid input only — negative
    positions, line-0 deletes, non-positive counts — never an edit that is
    merely outside the stored extent."""

    INVALID = [
        ("insert_row_after", -1, 1),
        ("insert_row_after", 2, 0),
        ("delete_row", 0, 1),
        ("delete_row", -5, 2),
        ("delete_row", 3, 0),
        ("insert_column_after", -2, 1),
        ("delete_column", 0, 1),
        ("delete_column", 1, -1),
    ]

    def targets(self):
        spread = DataSpread()
        spread.set_value(1, 1, 1)
        hybrid = HybridDataModel()
        hybrid.update_cell(1, 1, Cell(value=1))
        yield spread
        yield hybrid
        yield Sheet.from_rows([[1]])
        for cls in PRIMITIVES:
            yield cls.from_sheet(Sheet.from_rows([[1]]))

    def test_invalid_input_raises_position_error(self):
        for target in self.targets():
            for kind, line, count in self.INVALID:
                with pytest.raises(PositionError):
                    getattr(target, kind)(line, count)

    def test_out_of_extent_edits_do_not_raise(self):
        for target in self.targets():
            for kind, line, count in STRUCTURAL_CASES:
                getattr(target, kind)(line, count)  # must not raise

    def test_inverted_span_still_raises_in_mappings(self):
        model = RowOrientedModel.from_sheet(Sheet.from_rows([[1], [2]]))
        with pytest.raises(PositionError):
            model.positional_mapping.fetch_range(2, 1)
        with pytest.raises(PositionError):
            model.positional_mapping.delete_span(1, -2)
