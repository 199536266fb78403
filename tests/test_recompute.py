"""Tests for the reactive recompute overhaul.

Covers the interval-indexed dependency graph (containment lookups,
overlapping ranges, unregister, sub-linear probe counts), the DataSpread
batch API (equivalence with cell-by-cell edits, single topological pass,
cycle detection at flush), topological ordering with mixed cell+range
edges, the bulk range-read path, the bounded evaluator parse cache, and
structural-edit reference rewriting (shifted references, straddling-range
expansion/contraction, ``#REF!`` collapse, serializer round-trips,
incremental interval-stripe invalidation, the in-place graph re-key, and
which formulas a structural edit re-evaluates).
"""

import random

import pytest

from repro.engine.dataspread import DataSpread
from repro.errors import CircularDependencyError
from repro.formula.dependencies import DependencyGraph
from repro.formula.evaluator import Evaluator, extract_references
from repro.formula.parser import parse_formula
from repro.formula.rewrite import StructuralEdit, rewrite_formula
from repro.formula.serializer import to_formula
from repro.formula.stripes import REBUILD_CHURN_MIN, WIDE_COLUMN_SPAN
from repro.grid.address import MAX_ROWS, CellAddress
from repro.grid.range import RangeRef
from repro.grid.sheet import Sheet

from tests.support import (
    DATA_COLUMNS,
    DATA_ROWS,
    FORMULA_COLUMNS,
    apply_structural,
    assert_oracle_agrees,
    random_formula,
    scan_dependents,
)


def addr(reference: str) -> CellAddress:
    return CellAddress.from_a1(reference)


class TestIntervalIndex:
    def test_overlapping_ranges_all_found(self):
        graph = DependencyGraph()
        graph.register(addr("D1"), "SUM(A1:A100)")
        graph.register(addr("E1"), "SUM(A50:A60)")
        graph.register(addr("F1"), "SUM(B1:B10)")
        assert graph.direct_dependents(addr("A55")) == {addr("D1"), addr("E1")}
        assert graph.direct_dependents(addr("A5")) == {addr("D1")}
        assert graph.direct_dependents(addr("B5")) == {addr("F1")}
        assert graph.direct_dependents(addr("C5")) == set()

    def test_unregister_removes_from_index(self):
        graph = DependencyGraph()
        graph.register(addr("D1"), "SUM(A1:A100)")
        graph.register(addr("E1"), "SUM(A50:A60)")
        graph.unregister(addr("E1"))
        assert graph.direct_dependents(addr("A55")) == {addr("D1")}
        graph.unregister(addr("D1"))
        assert graph.direct_dependents(addr("A55")) == set()

    def test_reregister_replaces_old_range(self):
        graph = DependencyGraph()
        graph.register(addr("D1"), "SUM(A1:A100)")
        graph.register(addr("D1"), "SUM(B1:B100)")
        assert graph.direct_dependents(addr("A50")) == set()
        assert graph.direct_dependents(addr("B50")) == {addr("D1")}

    def test_multi_column_range(self):
        graph = DependencyGraph()
        graph.register(addr("Z1"), "SUM(A1:C10)")
        for cell in ("A1", "B5", "C10"):
            assert graph.direct_dependents(addr(cell)) == {addr("Z1")}
        assert graph.direct_dependents(addr("D1")) == set()

    def test_wide_range_uses_shared_bucket(self):
        graph = DependencyGraph()
        width = WIDE_COLUMN_SPAN + 36
        end = CellAddress(5, width).to_a1()
        graph.register(addr("AAA1"), f"SUM(A2:{end})")
        assert graph.direct_dependents(CellAddress(3, width // 2)) == {addr("AAA1")}
        assert graph.direct_dependents(CellAddress(1, width // 2)) == set()
        assert graph.direct_dependents(CellAddress(3, width + 1)) == set()

    def test_probe_counts_sublinear(self):
        """The index must not touch every registered formula per lookup."""
        graph = DependencyGraph()
        formulas = 1_000
        for index in range(formulas):
            column_letter = CellAddress(1, index + 1).to_a1().rstrip("1")
            graph.register(
                CellAddress(1, 2_000 + index),
                f"SUM({column_letter}1:{column_letter}100)",
            )
        graph.stats.reset()
        hit = graph.direct_dependents(CellAddress(50, 5))
        assert len(hit) == 1
        assert graph.stats.range_probes < formulas / 10

    def test_probe_counts_sublinear_within_one_stripe(self):
        """Inside one column stripe the interval tree, not the bucketing,
        keeps a stab away from the formulas that do not read the cell."""
        graph = DependencyGraph()
        formulas = 1_000
        for index in range(formulas):
            top = (index * 7) % 2_490 + 1
            graph.register(CellAddress(index + 1, 3), f"SUM(A{top}:A{top + 9})")
        probe = CellAddress(1_200, 1)
        graph.direct_dependents(probe)  # builds the stripe's tree
        graph.stats.reset()
        hit = graph.direct_dependents(probe)
        assert hit == scan_dependents(graph, probe) and hit
        assert graph.stats.range_probes < formulas / 10

    def test_index_and_scan_agree_on_random_workload(self):
        import random

        rng = random.Random(7)
        graph = DependencyGraph()
        for index in range(300):
            top = rng.randint(1, 400)
            bottom = top + rng.randint(0, 60)
            left = rng.randint(1, 30)
            right = left + rng.randint(0, 80)  # some exceed WIDE_COLUMN_SPAN
            region = f"{CellAddress(top, left).to_a1()}:{CellAddress(bottom, right).to_a1()}"
            graph.register(CellAddress(500 + index, 1), f"SUM({region})")
        for _ in range(200):
            probe = CellAddress(rng.randint(1, 470), rng.randint(1, 120))
            assert graph.direct_dependents(probe) == scan_dependents(graph, probe)


class TestTopologicalOrder:
    def test_mixed_cell_and_range_edges(self):
        graph = DependencyGraph()
        graph.register(addr("B1"), "A1+1")
        graph.register(addr("C1"), "SUM(B1:B2)")
        graph.register(addr("D1"), "C1*2")
        order = graph.dependents_of(addr("A1"))
        assert order == [addr("B1"), addr("C1"), addr("D1")]

    def test_recompute_order_includes_dirty_formulas(self):
        graph = DependencyGraph()
        graph.register(addr("B1"), "A1+1")
        graph.register(addr("C1"), "SUM(B1:B2)")
        order = graph.recompute_order([addr("A1"), addr("C1")])
        assert order == [addr("B1"), addr("C1")]
        # A dirty formula precedes its own dependents even when registered last.
        order = graph.recompute_order([addr("B1")])
        assert order == [addr("B1"), addr("C1")]

    def test_cycle_detection_via_ranges(self):
        graph = DependencyGraph()
        graph.register(addr("A1"), "SUM(B1:B5)")
        graph.register(addr("B2"), "A1+1")
        with pytest.raises(CircularDependencyError):
            graph.dependents_of(addr("B1"))
        assert graph.detect_cycle()


class TestBatchedRecompute:
    @staticmethod
    def _apply_edits(spread: DataSpread) -> None:
        spread.set_formula(1, 3, "A1+B1")          # C1
        spread.set_formula(2, 3, "SUM(A1:A5)")     # C2
        spread.set_formula(3, 3, "C1+C2")          # C3
        for row in range(1, 6):
            spread.set_value(row, 1, row * 10)     # A1..A5
        spread.set_value(1, 2, 7)                  # B1

    def test_batch_matches_cell_by_cell(self):
        plain = DataSpread()
        self._apply_edits(plain)
        batched = DataSpread()
        with batched.batch():
            self._apply_edits(batched)
        for row in range(1, 6):
            for column in range(1, 4):
                assert batched.get_value(row, column) == plain.get_value(row, column), (row, column)

    def test_batch_runs_one_topological_pass(self):
        spread = DataSpread()
        with spread.batch():
            self._apply_edits(spread)
        assert spread.recompute_passes == 1
        # Non-batched edits pay one pass each.
        spread.set_value(5, 1, 99)
        assert spread.recompute_passes == 2

    def test_bulk_import_single_pass_and_values(self):
        spread = DataSpread()
        with spread.batch():
            for column in range(1, 11):
                letter = CellAddress(1, column).to_a1().rstrip("1")
                spread.set_formula(101, column, f"SUM({letter}1:{letter}100)")
        assert spread.recompute_passes == 1
        spread.import_rows([[1] * 10 for _ in range(100)])
        assert spread.recompute_passes == 2
        assert spread.get_value(101, 4) == 100

    def test_set_values_bulk(self):
        spread = DataSpread()
        spread.set_formula(1, 2, "SUM(A1:A50)")
        written = spread.set_values((row, 1, 2) for row in range(1, 51))
        assert written == 50
        assert spread.get_value(1, 2) == 100
        assert spread.recompute_passes == 2  # one for the formula, one for the bulk

    def test_set_formula_inside_batch_defers_value(self):
        spread = DataSpread()
        with spread.batch():
            assert spread.set_formula(1, 2, "A1*2") is None
            spread.set_value(1, 1, 21)
        assert spread.get_value(1, 2) == 42

    def test_nested_batches_join(self):
        spread = DataSpread()
        with spread.batch():
            spread.set_value(1, 1, 5)
            with spread.batch():
                spread.set_formula(1, 2, "A1+1")
            assert spread.in_batch
        assert not spread.in_batch
        assert spread.recompute_passes == 1
        assert spread.get_value(1, 2) == 6

    def test_cycle_inside_batch_raises_at_flush(self):
        spread = DataSpread()
        with pytest.raises(CircularDependencyError):
            with spread.batch():
                spread.set_formula(1, 1, "B1+1")
                spread.set_formula(1, 2, "A1+1")
        # The batch is closed and buffered writes were not lost.
        assert not spread.in_batch
        assert spread.get_cell(1, 1).formula == "B1+1"

    def test_batch_flushes_storage_in_bulk(self):
        spread = DataSpread()
        with spread.batch():
            for row in range(1, 21):
                spread.set_value(row, 1, row)
            assert spread.cache.pending_count == 20
            # Model not yet written; reads inside the batch come from pending.
            assert spread.get_value(10, 1) == 10
        assert spread.cache.pending_count == 0
        assert spread.model.get_cell(10, 1).value == 10

    def test_structural_edit_inside_batch_flushes_first(self):
        spread = DataSpread()
        with spread.batch():
            spread.set_value(1, 1, "header")
            spread.set_value(2, 1, "row1")
            spread.insert_row_after(1)
            spread.set_value(2, 1, "inserted")
        assert spread.get_value(1, 1) == "header"
        assert spread.get_value(2, 1) == "inserted"
        assert spread.get_value(3, 1) == "row1"

    def test_from_sheet_evaluates_in_dependency_order(self):
        sheet = Sheet()
        # Formula registered before the values it reads exist.
        sheet.set_input(1, 3, "=SUM(A1:B1)")
        sheet.set_input(1, 1, 4)
        sheet.set_input(1, 2, 5)
        spread = DataSpread.from_sheet(sheet)
        assert spread.get_value(1, 3) == 9
        assert spread.recompute_passes == 1


class TestBulkRangeReads:
    def test_range_formula_uses_one_bulk_model_read(self):
        spread = DataSpread()
        spread.import_rows([[row] for row in range(1, 101)])
        calls = []
        original = spread.model.get_values_dense

        def counting(region):
            calls.append(region)
            return original(region)

        spread.model.get_values_dense = counting
        try:
            assert spread.set_formula(1, 2, "SUM(A1:A100)") == 5050
        finally:
            del spread.model.get_values_dense
        assert len(calls) == 1
        assert (calls[0].top, calls[0].bottom) == (1, 100)

    def test_range_read_sees_pending_batch_writes(self):
        spread = DataSpread()
        with spread.batch():
            for row in range(1, 11):
                spread.set_value(row, 1, 3)
            spread.set_formula(1, 2, "SUM(A1:A10)")
        assert spread.get_value(1, 2) == 30


class TestReviewRegressions:
    def test_bulk_update_cells_routes_like_update_cell_with_overlaps(self, tmp_path):
        """The pinned case of the one-shape contract that
        ``tests/test_write_contracts.py`` checks at random: a block is
        grouped per owner, and the owner is the *first* containing region."""
        from repro.grid.range import RangeRef
        from repro.models.hybrid import HybridDataModel, HybridRegion
        from repro.models.rcv import RowColumnValueModel

        model = HybridDataModel()
        first = RowColumnValueModel(top=1, left=1, rows=10, columns=5)
        second = RowColumnValueModel(top=5, left=1, rows=11, columns=5)
        model.add_region(HybridRegion(RangeRef(1, 1, 10, 5), first))
        model.add_region(HybridRegion(RangeRef(5, 1, 15, 5), second), allow_overlap=True)
        # First item lands in the second region; the overlapping cell (7, 3)
        # must still route to the first region, exactly like update_cell.
        from repro.grid.cell import Cell

        model.update_cells([(12, 3, Cell(value="deep")), (7, 3, Cell(value="bulk"))])
        assert model.get_cell(7, 3).value == "bulk"
        assert first.get_cell(7, 3).value == "bulk"
        assert second.get_cell(7, 3).value is None

    def test_range_formula_over_linked_table_matches_per_cell_reads(self):
        """The dense block read must give the owning region precedence over
        the catch-all, exactly like get_cell, so SUM over a linked table that
        overlaps pre-existing data does not resurrect stale values."""
        spread = DataSpread()
        spread.set_value(1, 1, 100)
        spread.set_value(2, 1, 200)
        spread.link_table("t", at="A1", columns=["v"], rows=[[1], [2]], header=False)
        assert spread.get_value(1, 1) == 1
        assert spread.get_value(2, 1) == 2
        assert spread.set_formula(1, 2, "SUM(A1:A2)") == 3
        assert spread.get_range_values("A1:A2") == [[1], [2]]

    def test_batch_body_exception_discards_buffered_writes(self):
        spread = DataSpread()
        spread.set_value(1, 1, "keep")
        with pytest.raises(RuntimeError):
            with spread.batch():
                spread.set_value(1, 1, "doomed")
                spread.set_formula(1, 2, "A1*2")
                raise RuntimeError("boom")
        assert not spread.in_batch
        assert spread.cache.pending_count == 0
        # Storage kept its pre-batch state: no half-applied writes and no
        # formula persisted with a never-computed None value.
        assert spread.get_value(1, 1) == "keep"
        assert spread.model.get_cell(1, 2).formula is None
        assert spread.get_cell(1, 2).formula is None

    def test_batch_body_exception_rolls_back_dependency_registrations(self):
        spread = DataSpread()
        spread.set_formula(1, 1, "SUM(B1:B10)")  # A1 reads column B
        with pytest.raises(RuntimeError):
            with spread.batch():
                spread.set_formula(2, 2, "A1+1")   # B2 -> A1 would close a cycle
                spread.set_formula(1, 1, "C1*2")   # replaces A1's precedents
                raise RuntimeError("boom")
        # The phantom B2 registration is gone: editing column B must not
        # trip cycle detection, and A1 still reads its original precedents.
        spread.set_value(5, 2, 42)
        assert spread.get_value(1, 1) == 42
        spread.set_value(3, 1, 0)  # C1 edits no longer reach A1
        assert spread.dependency_graph.direct_dependents(addr("C1")) == set()

    def test_mid_batch_flush_then_exception_leaves_no_zombie_formula(self):
        """A flush inside the batch commits the flushed writes: on a later
        body exception their registrations survive and the flushed formula
        is recomputed instead of lingering at value None forever."""
        spread = DataSpread()
        spread.set_value(1, 1, 4)
        with pytest.raises(RuntimeError):
            with spread.batch():
                spread.set_formula(1, 2, "A1+1")
                spread.insert_row_after(10)  # structural edit flushes (commits)
                raise RuntimeError("boom")
        assert spread.get_value(1, 2) == 5  # recomputed on abort, not None
        spread.set_value(1, 1, 10)          # registration survived
        assert spread.get_value(1, 2) == 11

    def test_structural_shift_mid_batch_remaps_dirty_addresses(self):
        """A row insert that shifts a batched formula must not strand the
        batch-exit recompute on the pre-shift coordinates."""
        spread = DataSpread()
        spread.set_value(1, 1, 4)
        with spread.batch():
            spread.set_formula(20, 1, "A1+1")
            spread.insert_row_after(5)  # shifts the formula to row 21
        assert spread.get_value(21, 1) == 5
        assert spread.get_cell(20, 1).formula is None
        # The registration moved with the cell: it stays reactive.
        spread.set_value(1, 1, 10)
        assert spread.get_value(21, 1) == 11

    def test_used_range_inside_batch_matches_post_flush_value(self):
        spread = DataSpread()
        with spread.batch():
            spread.set_value(5, 5, "x")
            inside = spread.used_range()
        assert inside == spread.used_range()

    def test_cell_count_agrees_inside_and_outside_batch_with_overlaps(self):
        spread = DataSpread()
        spread.set_value(1, 1, 100)
        spread.set_value(2, 1, 200)
        spread.link_table("t", at="A1", columns=["v"], rows=[[1], [2]], header=False)
        outside = spread.cell_count()
        with spread.batch():
            spread.set_value(9, 9, "pending")
            assert spread.cell_count() == outside + 1
        assert spread.cell_count() == outside + 1

    def test_bulk_reads_inside_batch_see_buffered_writes(self):
        spread = DataSpread()
        with spread.batch():
            spread.set_value(1, 1, 5)
            assert spread.get_range_values("A1:A1") == [[5]]
            assert spread.scroll(1, height=1, width=1) == [[5]]
            assert spread.cell_count() == 1
            assert spread.used_range().to_a1() == "A1"
        assert spread.get_value(1, 1) == 5

    def test_bulk_reads_inside_batch_do_not_commit(self):
        """Reads overlay the buffered writes without flushing, so a later
        body exception still discards the whole batch."""
        spread = DataSpread()
        with pytest.raises(RuntimeError):
            with spread.batch():
                spread.set_value(1, 1, "doomed")
                assert spread.get_range_values("A1:A1") == [["doomed"]]
                assert spread.cell_count() == 1
                raise RuntimeError("boom")
        assert spread.get_value(1, 1) is None
        assert spread.cell_count() == 0

    def test_nested_batch_is_a_savepoint(self):
        """A nested batch is a real savepoint: catching an inner batch's
        exception rolls back exactly the inner edits while the outer
        batch's work — before and after — survives."""
        spread = DataSpread()
        with spread.batch():
            spread.set_value(2, 1, "before")
            try:
                with spread.batch():
                    spread.set_value(1, 1, "inner")
                    raise RuntimeError("boom")
            except RuntimeError:
                pass
            spread.set_value(1, 2, "outer")
        assert spread.get_value(1, 1) is None
        assert spread.get_value(2, 1) == "before"
        assert spread.get_value(1, 2) == "outer"

    def test_batch_flushes_raw_writes_before_recompute(self):
        """At recompute time the batch's raw writes are already in storage,
        so range reads do not scan a pending map holding every batched cell."""
        spread = DataSpread()
        pending_at_range_read = []
        original = spread.model.get_values_dense

        def probing(region):
            pending_at_range_read.append(spread.cache.pending_count)
            return original(region)

        spread.model.get_values_dense = probing
        try:
            with spread.batch():
                for row in range(1, 51):
                    spread.set_value(row, 1, 1)
                spread.set_formula(1, 2, "SUM(A1:A50)")
        finally:
            del spread.model.get_values_dense
        assert spread.get_value(1, 2) == 50
        assert pending_at_range_read == [0]


class TestStructuralRewrite:
    """Formulas stay live across row/column inserts and deletes."""

    def test_formula_survives_insert_row(self):
        spread = DataSpread()
        for row in range(1, 6):
            spread.set_value(row, 1, row * 10)
        spread.set_formula(10, 2, "SUM(A1:A5)+A3")
        assert spread.get_value(10, 2) == 180
        spread.insert_row_after(0)  # shift everything down one row
        # Same value, shifted references, shifted formula cell.
        assert spread.get_cell(11, 2).formula == "SUM(A2:A6)+A4"
        assert spread.get_value(11, 2) == 180
        # Editing the shifted precedent still triggers recompute: A4 (the
        # old A3=30) becomes 100, changing both the SUM and the cell ref.
        spread.set_value(4, 1, 100)
        assert spread.get_value(11, 2) == (150 - 30 + 100) + 100

    def test_range_straddling_insert_expands(self):
        spread = DataSpread()
        for row in range(1, 5):
            spread.set_value(row, 1, 1)
        spread.set_formula(9, 1, "SUM(A1:A4)")
        spread.insert_row_after(2)
        assert spread.get_cell(10, 1).formula == "SUM(A1:A5)"
        assert spread.get_value(10, 1) == 4  # inserted row is empty
        spread.set_value(3, 1, 7)  # fill the inserted row
        assert spread.get_value(10, 1) == 11

    def test_range_straddling_delete_contracts(self):
        spread = DataSpread()
        for row in range(1, 7):
            spread.set_value(row, 1, row)  # 1..6
        spread.set_formula(9, 1, "SUM(A2:A5)")  # 2+3+4+5
        spread.delete_row(3, count=2)  # drop rows 3 and 4 (values 3, 4)
        assert spread.get_cell(7, 1).formula == "SUM(A2:A3)"
        assert spread.get_value(7, 1) == 2 + 5

    def test_delete_entire_precedent_range_collapses_to_ref(self):
        spread = DataSpread()
        spread.set_value(3, 1, 5)
        spread.set_formula(10, 1, "SUM(A3:A4)*2")
        spread.delete_row(3, count=2)
        assert spread.get_cell(8, 1).formula == "SUM(#REF!)*2"
        assert spread.get_value(8, 1) == "#REF!"

    def test_delete_single_cell_precedent_collapses_to_ref(self):
        spread = DataSpread()
        spread.set_value(4, 1, 30)
        spread.set_formula(1, 3, "A4+1")
        spread.delete_row(4)
        assert spread.get_cell(1, 3).formula == "#REF!+1"
        assert spread.get_value(1, 3) == "#REF!"
        # A later edit elsewhere must not resurrect the dead reference.
        spread.set_value(4, 1, 99)
        assert spread.get_value(1, 3) == "#REF!"

    def test_column_insert_and_delete_rewrite(self):
        spread = DataSpread()
        spread.set_value(1, 2, 8)                    # B1
        spread.set_formula(1, 5, "B1*3")             # E1
        spread.insert_column_after(1)
        assert spread.get_cell(1, 6).formula == "C1*3"
        assert spread.get_value(1, 6) == 24
        spread.set_value(1, 3, 9)  # edit the shifted precedent
        assert spread.get_value(1, 6) == 27
        spread.delete_column(3)
        assert spread.get_cell(1, 5).formula == "#REF!*3"
        assert spread.get_value(1, 5) == "#REF!"

    def test_edit_inside_open_batch_renumbers_prebatch_formulas(self):
        """Pre-batch formulas are renumbered just like batch-local ones."""
        spread = DataSpread()
        spread.set_value(1, 1, 4)
        spread.set_formula(5, 5, "A1+1")      # registered before the batch
        with spread.batch():
            spread.set_formula(6, 5, "A1+2")  # registered inside the batch
            spread.insert_row_after(3)
        assert spread.get_cell(6, 5).formula == "A1+1"
        assert spread.get_value(6, 5) == 5
        assert spread.get_cell(7, 5).formula == "A1+2"
        assert spread.get_value(7, 5) == 6
        # Both stay reactive at their new coordinates.
        spread.set_value(1, 1, 10)
        assert spread.get_value(6, 5) == 11
        assert spread.get_value(7, 5) == 12

    def test_edit_inside_batch_shifts_precedent_reference(self):
        """A reference below the edit line is rewritten mid-batch."""
        spread = DataSpread()
        spread.set_value(10, 1, 6)
        spread.set_formula(1, 2, "A10*2")
        with spread.batch():
            spread.insert_row_after(5)
            spread.set_value(11, 1, 8)  # overwrite the shifted precedent
        assert spread.get_cell(1, 2).formula == "A11*2"
        assert spread.get_value(1, 2) == 16

    def test_rewritten_text_survives_batch_abort(self):
        """Structural edits are commit points: the rewritten formula text
        and re-keyed registration persist even when the batch body raises."""
        spread = DataSpread()
        spread.set_value(10, 1, 6)
        spread.set_formula(1, 2, "A10*2")
        with pytest.raises(RuntimeError):
            with spread.batch():
                spread.insert_row_after(5)
                raise RuntimeError("boom")
        assert spread.get_cell(1, 2).formula == "A11*2"
        assert spread.get_value(1, 2) == 12
        spread.set_value(11, 1, 7)
        assert spread.get_value(1, 2) == 14

    def test_dependents_of_rewritten_formula_recompute(self):
        """A formula that references a #REF!-collapsed formula recomputes."""
        spread = DataSpread()
        spread.set_value(5, 1, 3)
        spread.set_formula(1, 2, "A5*2")   # B1 -> 6
        spread.set_formula(1, 3, "B1+1")   # C1 -> 7 (unchanged by the edit)
        spread.delete_row(5)
        assert spread.get_value(1, 2) == "#REF!"
        # C1's own reference (B1) did not move, so its text is untouched —
        # but it must re-evaluate: adding 1 to the "#REF!" string is an
        # error, not the stale 7.
        assert spread.get_cell(1, 3).formula == "B1+1"
        assert spread.get_value(1, 3) == "#VALUE!"

    def test_formula_on_deleted_row_is_unregistered(self):
        spread = DataSpread()
        spread.set_value(1, 1, 2)
        spread.set_formula(3, 1, "A1*10")
        spread.delete_row(3)
        assert spread.get_cell(3, 1).formula is None
        assert len(spread.dependency_graph) == 0
        spread.set_value(1, 1, 5)  # must not touch the dead registration
        assert spread.get_value(3, 1) is None

    def test_edit_with_preexisting_cycle_does_not_raise(self):
        """A structural edit on a sheet already containing a circular
        dependency succeeds; the cyclic cells keep their stored values."""
        spread = DataSpread()
        spread.set_formula(1, 1, "B1+1")
        with pytest.raises(CircularDependencyError):
            spread.set_formula(1, 2, "A1+1")  # closes the cycle
        spread.insert_row_after(0)
        assert spread.get_cell(2, 1).formula == "B2+1"
        assert spread.get_cell(2, 2).formula == "A2+1"

    def test_multi_count_insert_shifts_by_count(self):
        spread = DataSpread()
        spread.set_value(2, 1, 5)
        spread.set_formula(1, 2, "A2^2")
        spread.insert_row_after(1, count=3)
        assert spread.get_cell(1, 2).formula == "A5^2"
        assert spread.get_value(1, 2) == 25

    def test_absolute_markers_survive_rewriting(self):
        """$ anchors are cosmetic for structural edits (absolute references
        shift with their referents too) but must not be stripped."""
        spread = DataSpread()
        spread.set_value(5, 1, 3)
        spread.set_formula(1, 2, "$A$5+A5+SUM($A$5:A5)")
        spread.insert_row_after(2)
        assert spread.get_cell(1, 2).formula == "$A$6+A6+SUM($A$6:A6)"
        assert spread.get_value(1, 2) == 9

    def test_reference_pushed_off_sheet_collapses_to_ref(self):
        """An insert that shifts a referent past the sheet's row limit must
        collapse the reference to #REF!, not explode mid-edit."""
        from repro.grid.address import MAX_ROWS

        spread = DataSpread()
        spread.set_formula(2, 1, f"A{MAX_ROWS}&\"\"")
        spread.insert_row_after(5)
        assert spread.get_cell(2, 1).formula == '#REF!&""'
        assert spread.get_value(2, 1) == "#REF!"
        # A straddling range clamps to the limit instead of vanishing.
        edit = StructuralEdit.insert_rows(5, count=10)
        node, changed = rewrite_formula(
            parse_formula(f"SUM(A10:A{MAX_ROWS})"), edit
        )
        assert changed
        assert to_formula(node) == f"SUM(A20:A{MAX_ROWS})"

    def test_reshapes_tells_translation_from_a_change_of_extent(self):
        region = RangeRef(10, 2, 20, 3)
        insert, delete = StructuralEdit.insert_rows, StructuralEdit.delete_rows
        assert not insert(20).reshapes(region)          # below: untouched
        assert not insert(9, 4).reshapes(region)        # above: translated
        assert insert(10).reshapes(region)              # inside: grows
        assert insert(19).reshapes(region)
        assert not delete(21, 5).reshapes(region)
        assert not delete(1, 9).reshapes(region)        # above: translated
        assert delete(5, 6).reshapes(region)            # clips the first row
        assert delete(20).reshapes(region)
        assert delete(1, 40).reshapes(region)           # swallowed whole
        assert not StructuralEdit.insert_columns(3).reshapes(region)
        assert StructuralEdit.insert_columns(2).reshapes(region)
        assert StructuralEdit.delete_columns(3).reshapes(region)
        # Pushed against the sheet limit: the tail is clamped off.
        tail = RangeRef(MAX_ROWS - 5, 1, MAX_ROWS - 1, 1)
        assert not insert(3).reshapes(tail)
        assert insert(3, 2).reshapes(tail)

    def test_sheet_oracle_rewrites_formula_text(self):
        sheet = Sheet.from_rows([[1], [2], ["=SUM(A1:A2)"], ["=A1+A2"]])
        sheet.insert_row_after(1)
        assert sheet.get_cell(4, 1).formula == "SUM(A1:A3)"
        assert sheet.get_cell(5, 1).formula == "A1+A3"
        sheet.delete_row(3)  # the original row 2 (value 2)
        assert sheet.get_cell(3, 1).formula == "SUM(A1:A2)"
        assert sheet.get_cell(4, 1).formula == "A1+#REF!"

    def test_spread_matches_sheet_oracle_after_edits(self):
        rows = [[1, 2], [3, 4], ["=SUM(A1:A2)", "=B1+B2"], [None, "=A3*2"]]
        sheet = Sheet.from_rows(rows)
        spread = DataSpread.from_sheet(Sheet.from_rows(rows))
        for operation in (
            lambda target: target.insert_row_after(1),
            lambda target: target.delete_row(3),
            lambda target: target.insert_column_after(1),
        ):
            operation(sheet)
            operation(spread)
            for address, cell in sheet.items():
                if cell.has_formula:
                    actual = spread.get_cell(address.row, address.column)
                    assert actual.formula == cell.formula, address

    def test_stripe_invalidation_is_incremental(self):
        """An edit that only affects some columns' ranges must keep the
        already-built interval trees of untouched stripes."""
        graph = DependencyGraph()
        graph.register(addr("Z1"), "SUM(A1:A10)")
        graph.register(addr("Z2"), "SUM(C100:C200)")
        # Build both stripes' trees.
        graph.direct_dependents(addr("A5"))
        graph.direct_dependents(addr("C150"))
        rebuilds_before = graph.stats.index_rebuilds
        graph.stats.reset()
        # Rows 150+: only the C-stripe range changes span.
        report = graph.apply_structural_edit(StructuralEdit.insert_rows(150))
        assert report.changed == {addr("Z2")}
        assert graph.stats.stripes_reused == 1  # the A stripe kept its tree
        graph.stats.reset()
        assert graph.direct_dependents(addr("A5")) == {addr("Z1")}
        assert graph.stats.index_rebuilds == 0  # served from the reused tree
        assert graph.direct_dependents(addr("C150")) == {addr("Z2")}
        assert graph.direct_dependents(addr("C201")) == {addr("Z2")}
        assert graph.stats.index_rebuilds == 1  # only the C stripe rebuilt
        assert rebuilds_before == 2

    @pytest.mark.parametrize("edit", [
        # rows: above every reference, inside the referenced block, between
        # it and the formulas, inside the formulas (deleting some of them,
        # with a count that also pushes keys onto other formulas' old
        # keys), and below everything; columns: left of, inside and right
        # of both the references (A-F) and the formula cells (A-H), and
        # past the two wide ranges.
        StructuralEdit.insert_rows(0, 3),
        StructuralEdit.delete_rows(1, 2),
        StructuralEdit.insert_rows(20, 2),
        StructuralEdit.delete_rows(20, 5),
        StructuralEdit.insert_rows(150),
        StructuralEdit.delete_rows(150, 7),
        StructuralEdit.insert_rows(250, 4),
        StructuralEdit.delete_rows(240, 30),
        StructuralEdit.insert_rows(400),
        StructuralEdit.delete_rows(400, 5),
        StructuralEdit.insert_columns(0),
        StructuralEdit.delete_columns(1),
        StructuralEdit.insert_columns(3, 2),
        StructuralEdit.delete_columns(3, 2),
        StructuralEdit.insert_columns(7),
        StructuralEdit.delete_columns(7, 2),
        StructuralEdit.insert_columns(10),
        StructuralEdit.delete_columns(10),
        StructuralEdit.insert_columns(80),
        StructuralEdit.delete_columns(80, 3),
    ], ids=lambda edit: f"{edit.kind}-{edit.axis}-{edit.line}x{edit.count}")
    def test_graph_rekey_matches_fresh_registration(self, edit):
        """The in-place re-key must leave the graph exactly as if every
        rewritten formula had been freshly registered in an empty graph:
        same registrations, same cell-dependents map, same stripe entries,
        same answers."""
        rng = random.Random(11)
        formulas = {}
        graph = DependencyGraph()
        for index in range(120):
            top = rng.randint(1, 60)
            bottom = top + rng.randint(0, 20)
            column = rng.choice("ABCDEF")
            address = CellAddress(200 + index, rng.randint(1, 8))
            text = f"SUM({column}{top}:{column}{bottom})+{column}{rng.randint(1, 80)}"
            formulas[address] = text
            graph.register(address, text)
        # 64 and 65 columns wide: a column edit inside them moves them
        # between the column stripes and the shared wide bucket.
        formulas[addr("A190")] = "COUNT(C1:BN5)"
        formulas[addr("A191")] = "COUNT(C70:BO72)"
        for reference in ("A190", "A191"):
            graph.register(addr(reference), formulas[addr(reference)])
        for column in range(1, 7):
            graph.direct_dependents(CellAddress(30, column))  # build the trees
        graph.stats.reset()
        report = graph.apply_structural_edit(edit)

        def resized(region):
            mapped = edit.map_range(region)
            if mapped is None:
                return True
            (start, end), (new_start, new_end) = edit.span_of(region), edit.span_of(mapped)
            return new_end - new_start != end - start

        expected = DependencyGraph()
        changed, reshaped = set(), set()
        for address, text in formulas.items():
            new_address = edit.map_address(address)
            if new_address is None:
                continue
            node, text_changed = rewrite_formula(parse_formula(text), edit)
            expected.register(new_address, node)
            if text_changed:
                changed.add(new_address)
                old_cells, old_ranges = extract_references(parse_formula(text))
                if (any(edit.map_address(cell) is None for cell in old_cells)
                        or any(resized(region) for region in old_ranges)):
                    reshaped.add(new_address)
        assert report.changed == changed
        assert report.reshaped == reshaped
        assert graph._precedents == expected._precedents
        assert graph._cell_dependents == expected._cell_dependents
        assert set(graph._range_buckets) == set(expected._range_buckets)
        for key, bucket in graph._range_buckets.items():
            fresh = expected._range_buckets[key]
            assert {a: sorted(spans) for a, spans in bucket.entries.items()} \
                == {a: sorted(spans) for a, spans in fresh.entries.items()}, key
            assert bucket.size == fresh.size
        if not changed and all(edit.map_address(a) == a for a in formulas):
            # The edit lies past every formula and reference: nothing is
            # reached and every built tree is carried across as it is.
            assert graph.stats.stripes_reused == 7  # A-F and the wide bucket
        for probe_row in range(1, 90):
            for probe_column in range(1, 9):
                probe = CellAddress(probe_row, probe_column)
                assert graph.direct_dependents(probe) == expected.direct_dependents(probe), probe

    def test_untouched_registrations_keep_their_entry_objects(self):
        """Registrations wholly before the edit line are not re-created, and
        the stripes only they read keep their trees."""
        graph = DependencyGraph()
        graph.register(addr("Z1"), "SUM(A1:A10)+B3")
        graph.register(addr("Z2"), "SUM(A5:A300)")      # straddles row 150
        graph.register(addr("Z400"), "SUM(C1:C10)+B3")  # only its own cell moves
        for probe in ("A5", "B3", "C5"):
            graph.direct_dependents(addr(probe))
        above = graph._precedents[addr("Z1")]
        graph.stats.reset()
        report = graph.apply_structural_edit(StructuralEdit.insert_rows(150))
        assert graph._precedents[addr("Z1")] is above
        assert report.changed == report.reshaped == {addr("Z2")}
        assert graph._cell_dependents[addr("B3")] == {addr("Z1"), addr("Z401")}
        # A was re-assembled (Z2 grew); C's only reader moved (spliced).
        assert graph.stats.stripes_reused == 0
        assert graph.stats.stripes_shifted == 1
        assert graph.direct_dependents(addr("C5")) == {addr("Z401")}
        assert graph.direct_dependents(addr("A200")) == {addr("Z2")}
        assert graph.direct_dependents(addr("A7")) == {addr("Z1"), addr("Z2")}


class TestSerializerRoundTrip:
    CASES = [
        "A1+B2*3",
        "SUM(A1:A10)-MAX(B1:B5,C1)",
        "(A1+B1)*2",
        "A1-(B1-C1)",
        "2^3^2",
        "(2^3)^2",
        "-A1^2",
        "(-A1)%",
        "-A1%",
        "IF(A1>=3,\"yes\",\"no\")",
        "\"he said \"\"hi\"\"\"&B1",
        "TRUE",
        "B2:B2",
        "1.5E+20+0.25",
        "IFERROR(A1/B1,0)",
        "#REF!+1",
        "SUM(A1:A3,#REF!)",
        "$A$1+A$1+$A1",
        "SUM($B$2:C$10)",
    ]

    @pytest.mark.parametrize("formula", CASES)
    def test_parse_serialize_parse_is_identity(self, formula):
        node = parse_formula(formula)
        assert parse_formula(to_formula(node)) == node

    def test_rewritten_ast_round_trips(self):
        node = parse_formula("SUM(A2:A9)+A1-A20")
        for edit in (
            StructuralEdit.insert_rows(4, count=2),
            StructuralEdit.delete_rows(3, count=4),
            StructuralEdit.insert_columns(0),
            StructuralEdit.delete_columns(1),
        ):
            rewritten, _changed = rewrite_formula(node, edit)
            assert parse_formula(to_formula(rewritten)) == rewritten

    def test_degenerate_range_stays_a_range(self):
        node = parse_formula("SUM(A1:A2)")
        contracted, changed = rewrite_formula(node, StructuralEdit.delete_rows(2))
        assert changed
        assert to_formula(contracted) == "SUM(A1:A1)"
        assert parse_formula(to_formula(contracted)) == contracted

    def test_error_literal_parses_and_evaluates(self):
        spread = DataSpread()
        assert spread.set_input("A1", "=#REF!+1") == "#REF!"
        assert spread.get_value(1, 1) == "#REF!"


class TestParseCacheBounds:
    def test_parse_cache_is_lru_bounded(self):
        evaluator = Evaluator(lambda row, column: 0, parse_cache_capacity=4)
        for index in range(10):
            evaluator.evaluate(f"1+{index}")
        assert evaluator.parse_cache_size == 4
        # Most-recent formulas survive; the oldest were evicted.
        evaluator.evaluate("1+9")
        assert evaluator.parse_cache_size == 4

    def test_parse_cache_capacity_validated(self):
        with pytest.raises(ValueError):
            Evaluator(lambda row, column: 0, parse_cache_capacity=0)

    def test_formula_parsed_once_per_registration(self, monkeypatch):
        import repro.formula.evaluator as evaluator_module

        calls = []
        original = evaluator_module.parse_formula

        def counting(text):
            calls.append(text)
            return original(text)

        monkeypatch.setattr(evaluator_module, "parse_formula", counting)
        spread = DataSpread()
        spread.set_formula(1, 2, "A1*2+1")
        assert calls.count("A1*2+1") == 1


class TestIncrementalIndexMaintenance:
    """PR 5: formula (un)registration maintains built interval trees in
    O(log n) instead of invalidating them; a full rebuild survives only as
    a thresholded churn fallback."""

    def test_steady_state_registration_churn_performs_zero_rebuilds(self):
        graph = DependencyGraph()
        for index in range(40):
            graph.register(CellAddress(100 + index, 1), f"SUM(A{index + 1}:A{index + 10})")
        graph.direct_dependents(addr("A5"))  # build the A stripe's tree
        graph.stats.reset()
        for index in range(20):
            # Replace half the formulas with shifted ranges: each replace
            # is one unregister (remove) plus one register (insert).
            graph.register(CellAddress(100 + index, 1), f"SUM(A{index + 3}:A{index + 12})")
            graph.direct_dependents(CellAddress(index + 5, 1))
        assert graph.stats.index_rebuilds == 0
        assert graph.stats.incremental_inserts == 20
        assert graph.stats.incremental_removes == 20
        assert graph.stats.rebuilds_avoided == 40

    def test_incremental_maintenance_matches_scan(self):
        import random

        rng = random.Random(42)
        graph = DependencyGraph()
        live: dict[CellAddress, str] = {}
        columns = "ABCDE"
        for step in range(400):
            address = CellAddress(200 + rng.randint(0, 30), 1 + rng.randint(0, 5))
            if address in live and rng.random() < 0.4:
                graph.unregister(address)
                del live[address]
            else:
                column = rng.choice(columns)
                top = rng.randint(1, 80)
                text = f"SUM({column}{top}:{column}{top + rng.randint(0, 15)})"
                graph.register(address, text)
                live[address] = text
            probe = CellAddress(rng.randint(1, 100), 1 + rng.randint(0, len(columns) - 1))
            assert graph.direct_dependents(probe) == scan_dependents(graph, probe), \
                (step, probe)
        # The whole randomized run needs only the initial lazy builds: one
        # per (stripe, first-stab-after-creation), never churn rebuilds.
        assert graph.stats.incremental_inserts > 0
        assert graph.stats.incremental_removes > 0

    def test_heavy_churn_falls_back_to_one_compacting_rebuild(self):
        graph = DependencyGraph()
        graph.register(addr("Z1"), "SUM(A1:A10)")
        graph.direct_dependents(addr("A1"))  # build (1 entry)
        graph.stats.reset()
        for index in range(REBUILD_CHURN_MIN + 2):
            graph.register(addr("Z2"), f"SUM(A{index + 1}:A{index + 5})")
        # The churn cap marked the bucket stale; the next stab rebuilds it.
        graph.direct_dependents(addr("A3"))
        assert graph.stats.index_rebuilds == 1
        graph.stats.reset()
        graph.direct_dependents(addr("A3"))
        assert graph.stats.index_rebuilds == 0  # compacted: back to steady state

    def test_wide_bucket_maintained_incrementally(self):
        graph = DependencyGraph()
        wide_right = WIDE_COLUMN_SPAN + 2
        graph.register(addr("A200"), f"SUM(A1:{chr(ord('A') - 1 + 26)}10)")  # Z10: not wide
        graph.register(addr("B200"), f"COUNT(A20:{CellAddress(25, wide_right).to_a1()})")
        graph.direct_dependents(addr("C22"))  # build the wide bucket
        graph.stats.reset()
        graph.register(addr("C200"), f"COUNT(A40:{CellAddress(45, wide_right).to_a1()})")
        # Probe right of the narrow formula's stripes so only the wide
        # bucket (already built) answers.
        assert graph.direct_dependents(CellAddress(42, 30)) == {addr("C200")}
        assert graph.stats.index_rebuilds == 0
        assert graph.stats.incremental_inserts == 1

    def test_row_splice_preserves_lookup_correctness(self):
        """A row edit that uniformly shifts a stripe must splice its tree
        and keep answering stabs exactly like a fresh registration."""
        graph = DependencyGraph()
        graph.register(addr("H100"), "SUM(B50:B60)")
        graph.register(addr("H101"), "SUM(B52:B62)+B70")
        graph.direct_dependents(addr("B55"))
        graph.stats.reset()
        graph.apply_structural_edit(StructuralEdit.insert_rows(10, count=3))
        assert graph.stats.stripes_shifted == 1
        assert graph.direct_dependents(addr("B56")) == {addr("H103"), addr("H104")}
        assert graph.direct_dependents(addr("B53")) == {addr("H103")}
        assert graph.direct_dependents(addr("B52")) == set()
        assert graph.stats.index_rebuilds == 0  # served from the spliced tree

    def test_monotone_span_growth_cannot_degenerate_the_tree(self):
        """Review regression: monotone span sequences grow a spine the
        churn counter never notices (churn and size grow in lockstep);
        the insert-depth trigger must schedule a compacting rebuild, and
        a later spliceable row edit must not blow the recursion limit."""
        spread = DataSpread()
        spread.set_value(1, 1, 1)  # builds the A stripe on the first stab
        spread.set_formula(1, 3, "SUM(A2:A3)")
        spread.set_value(1, 1, 2)  # stab: tree built, incremental from here
        for index in range(2, 1_500):
            spread.set_formula(index, 3, f"SUM(A{2 * index}:A{2 * index + 1})")
        # The old behaviour crashed with RecursionError inside the
        # recursive splice; the depth trigger keeps the tree shallow.
        spread.insert_row_after(1)
        graph = spread.dependency_graph
        # Formula C1499 shifted to C1500; its span A2998:A2999 to A2999:A3000.
        assert graph.direct_dependents(addr("A3000")) == {addr("C1500")}
        assert scan_dependents(graph, addr("A3000")) == {addr("C1500")}


# ---------------------------------------------------------------------- #
# structural edits recompute what they reshape, not what lies below them
# ---------------------------------------------------------------------- #
def _record_evaluations(spread: DataSpread) -> list[CellAddress]:
    """Record the formula cell of every ``Evaluator.evaluate_node`` call."""
    evaluator = spread.evaluator
    evaluate_node = evaluator.evaluate_node
    evaluated: list[CellAddress] = []

    def counting(node):
        evaluated.append(evaluator.aggregate_cell)
        return evaluate_node(node)

    evaluator.evaluate_node = counting
    return evaluated


class TestStructuralRecomputeScope:
    """A formula whose references only *translate* keeps its value; one the
    edit *reshapes* (lost referent, range that grew or shrank) recomputes,
    and so does everything downstream of it."""

    ROWS = 1000
    WINDOW = RangeRef(1, 1, ROWS + 2, 3)

    def _row_formula_sheet(self) -> Sheet:
        return Sheet.from_rows(
            [[row, 3 * row, f"=A{row}+B{row}*2"] for row in range(1, self.ROWS + 1)]
        )

    def test_sync_mid_sheet_edits_evaluate_no_row_formula(self):
        sheet = self._row_formula_sheet()
        spread = DataSpread.from_sheet(sheet.copy())
        evaluated = _record_evaluations(spread)
        passes = spread.recompute_passes
        for target in (spread, sheet):
            target.insert_row_after(500)
            target.delete_row(250)
        assert evaluated == []
        assert spread.recompute_passes == passes
        assert spread.get_cell(1000, 3).formula == "A1000+B1000*2"
        assert spread.get_value(1000, 3) == 1000 + 3000 * 2
        assert_oracle_agrees(spread, sheet, window=self.WINDOW)

    def test_async_mid_sheet_edits_evaluate_no_row_formula(self):
        sheet = self._row_formula_sheet()
        spread = DataSpread.from_sheet(sheet.copy(), async_recompute=True)
        spread.flush_compute()
        stats = spread.compute_scheduler.stats
        before = stats.evaluated
        for target in (spread, sheet):
            target.insert_row_after(500)
            target.delete_row(250)
        assert spread.compute_pending == 0
        spread.flush_compute()
        assert stats.evaluated == before
        assert_oracle_agrees(spread, sheet, window=self.WINDOW)

    def test_reshaped_formulas_and_their_dependents_do_recompute(self):
        rows = [[10 * row] for row in range(1, 13)]
        sheet = Sheet.from_rows(rows)
        formulas = {
            "C1": "SUM(A2:A6)",          # straddles the insert: grows
            "C20": "INDEX(A2:A8,5)",     # straddled too: a different 5th cell
            "D30": "C20*2",              # translated, but reads a reshaped cell
            "C2": "SUM(A1:A3)",          # wholly above: untouched
            "E40": "A7+A8",              # wholly below: translated only
        }
        for reference, text in formulas.items():
            address = addr(reference)
            sheet.set_formula(address.row, address.column, text)
        spread = DataSpread.from_sheet(sheet.copy())
        evaluated = _record_evaluations(spread)
        for target in (spread, sheet):
            target.insert_row_after(4)
        assert set(evaluated) == {addr("C1"), addr("C21"), addr("D31")}
        assert spread.get_cell(21, 3).formula == "INDEX(A2:A9,5)"
        assert spread.get_value(21, 3) == 50      # was A6 (60): row 5 moved into place
        assert spread.get_value(31, 4) == 100
        assert spread.get_cell(41, 5).formula == "A8+A9"
        assert_oracle_agrees(spread, sheet, window=RangeRef(1, 1, 45, 6))

        del evaluated[:]
        for target in (spread, sheet):
            target.set_formula(50, 3, "SUM(A11:A13)")   # clipped by the delete
            target.set_formula(51, 3, "A12*2")          # loses its referent
            target.set_formula(52, 3, "C51+1")          # downstream of the #REF!
        del evaluated[:]
        for target in (spread, sheet):
            target.delete_row(12)
        assert set(evaluated) == {addr("C49"), addr("C50"), addr("C51")}
        assert spread.get_cell(49, 3).formula == "SUM(A11:A12)"
        assert spread.get_cell(50, 3).formula == "#REF!*2"
        assert spread.get_value(50, 3) == "#REF!"
        assert_oracle_agrees(spread, sheet, window=RangeRef(1, 1, 55, 6))

    @pytest.mark.parametrize("mode", ["sync", "async", "mid-batch"])
    @pytest.mark.parametrize("seed", range(8))
    def test_evaluated_set_is_the_closure_of_the_reshaped(self, seed, mode):
        """Every edit kind, every engine mode: the grid equals the oracle
        and exactly the reshaped formulas' dependents were evaluated."""
        rng = random.Random(1500 + seed)
        sheet = Sheet()
        for row in range(1, DATA_ROWS + 1):
            for column in range(1, DATA_COLUMNS + 1):
                sheet.set_value(row, column, rng.randint(0, 99))
        for _ in range(40):
            column = rng.choice(FORMULA_COLUMNS)
            row = rng.randint(1, DATA_ROWS + 10)
            if rng.random() < 0.2:
                top = rng.randint(1, DATA_ROWS - 6)
                text = f"INDEX(A{top}:A{top + 5},{rng.randint(1, 5)})"
            else:
                text = random_formula(rng, column)
            sheet.set_formula(row, column, text)
        spread = DataSpread.from_sheet(sheet.copy(), async_recompute=mode == "async")
        spread.flush_compute()
        graph = spread.dependency_graph
        rekey = graph.apply_structural_edit
        reports = []
        graph.apply_structural_edit = lambda edit: reports.append(rekey(edit)) or reports[-1]
        evaluated = _record_evaluations(spread)
        for kind in ("insert_row_after", "delete_row", "insert_column_after",
                     "delete_column"):
            line = rng.randint(1, DATA_ROWS) if "row" in kind else rng.randint(1, 5)
            op = (kind, line, rng.randint(1, 2))
            del evaluated[:]
            apply_structural(sheet, op)
            if mode == "mid-batch":
                with spread.batch():
                    apply_structural(spread, op)
                    assert evaluated == []
            else:
                apply_structural(spread, op)
            spread.flush_compute()
            expected = set(graph.recompute_order(reports[-1].reshaped))
            assert set(evaluated) == expected, (seed, mode, op)
            assert len(evaluated) == len(expected), (seed, mode, op)
            assert_oracle_agrees(spread, sheet, (seed, mode, op))
