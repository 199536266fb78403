"""Tests for the asynchronous compute scheduler and its satellites.

Covers the ComputeScheduler itself (stale/fresh/computing states, stale
placeholders, coalescing, cancellation, viewport priority, targeted
``ensure``, cycle handling, structural-edit rewriting of queued work), the
engine integration (``async_recompute`` mode, provisional cache entries
that are never flushed as committed values, batch/abort semantics), the
dependency-graph slicing primitives, the shifted interval-stripe reuse,
the RCV bulk-write batching, the evaluator prime/stats fixes — and the
headline guarantee: randomized interleavings of edits, batches, aborts and
*unbounded* structural edits converge, after ``flush_compute()``, to the
same grid as the synchronous engine and the ``Sheet`` oracle (the shared
generators and drain-and-compare loop live in ``tests/support/``; the
scalable seed sweep is ``tests/test_equivalence_fuzz.py`` / ``make fuzz``).
"""

import random
from dataclasses import replace

import pytest

from repro.compute import CellState, ComputeScheduler
from repro.engine.dataspread import DataSpread
from repro.errors import CircularDependencyError
from repro.formula.dependencies import DependencyGraph
from repro.formula.evaluator import Evaluator
from repro.formula.parser import parse_formula
from repro.formula.rewrite import StructuralEdit
from repro.grid.address import CellAddress
from repro.grid.cell import Cell
from repro.grid.range import RangeRef
from repro.models.hybrid import HybridDataModel, HybridRegion
from repro.models.rcv import RowColumnValueModel
from tests.support import EQUIVALENCE, MID_BATCH, run


def addr(reference: str) -> CellAddress:
    return CellAddress.from_a1(reference)


# ---------------------------------------------------------------------- #
# scheduler + engine integration
# ---------------------------------------------------------------------- #
class TestAsyncEngine:
    def test_edit_enqueues_instead_of_recomputing(self):
        spread = DataSpread(async_recompute=True)
        spread.set_value(1, 1, 10)
        spread.set_formula(1, 2, "A1*2")
        assert spread.compute_pending == 1
        assert spread.cell_state(1, 2) is CellState.STALE
        assert spread.flush_compute() == 1
        assert spread.get_value(1, 2) == 20
        assert spread.is_fresh(1, 2)

        spread.set_value(1, 1, 50)  # the constant itself lands immediately
        assert spread.get_value(1, 1) == 50
        assert not spread.is_fresh(1, 2)
        assert spread.get_value(1, 2) == 20  # stale placeholder
        spread.flush_compute()
        assert spread.get_value(1, 2) == 100

    def test_new_formula_keeps_previous_value_as_placeholder(self):
        spread = DataSpread(async_recompute=True)
        spread.set_value(1, 1, 7)
        spread.set_value(2, 1, 41)
        spread.flush_compute()
        assert spread.set_formula(1, 1, "A2+1") is None  # acknowledged, not computed
        assert spread.get_value(1, 1) == 7  # previous value as placeholder
        spread.flush_compute()
        assert spread.get_value(1, 1) == 42

    def test_placeholder_is_never_flushed_to_storage(self):
        spread = DataSpread(async_recompute=True)
        spread.set_value(1, 1, 3)
        spread.set_formula(2, 1, "A1*3")
        # Queued: storage must not hold the placeholder as a committed value.
        assert spread.model.get_cell(2, 1) == Cell()
        assert spread.cache.provisional_count == 1
        spread.flush_compute()
        stored = spread.model.get_cell(2, 1)
        assert stored.value == 9 and stored.formula == "A1*3"
        assert spread.cache.provisional_count == 0

    def test_batch_exit_enqueues_once_without_committing_placeholders(self):
        spread = DataSpread(async_recompute=True)
        with spread.batch():
            for row in range(1, 6):
                spread.set_value(row, 1, row)
            spread.set_formula(6, 1, "SUM(A1:A5)")
        # Constants flushed at exit; the formula stays provisional.
        assert spread.model.get_cell(1, 1).value == 1
        assert spread.model.get_cell(6, 1) == Cell()
        assert spread.compute_pending == 1
        spread.flush_compute()
        assert spread.get_value(6, 1) == 15
        assert spread.model.get_cell(6, 1).value == 15

    def test_bulk_reads_overlay_placeholders(self):
        spread = DataSpread(async_recompute=True)
        spread.set_value(1, 1, 5)
        spread.set_formula(2, 1, "A1+1")
        cells = spread.get_cells("A1:A2")
        assert cells[addr("A2")].formula == "A1+1"
        assert spread.cell_count() == 2
        assert spread.used_range() == RangeRef(1, 1, 2, 1)
        spread.flush_compute()
        assert spread.get_cells("A1:A2")[addr("A2")].value == 6

    def test_formula_reading_stale_placeholder_through_range(self):
        """A queued formula evaluating before its precedent would read the
        placeholder — the topological order must prevent that."""
        spread = DataSpread(async_recompute=True)
        spread.set_value(1, 1, 1)
        spread.set_formula(2, 1, "A1*10")
        spread.set_formula(3, 1, "SUM(A1:A2)")
        spread.flush_compute()
        assert spread.get_value(3, 1) == 11

    def test_abort_rolls_back_placeholders(self):
        spread = DataSpread(async_recompute=True)
        spread.set_value(1, 1, 2)
        spread.set_formula(2, 1, "A1+2")  # queued placeholder from before the batch
        with pytest.raises(RuntimeError):
            with spread.batch():
                spread.set_formula(2, 1, "A1+100")
                spread.set_formula(3, 1, "A1+200")
                raise RuntimeError("boom")
        spread.flush_compute()
        assert spread.get_value(2, 1) == 4  # the pre-batch formula won
        assert spread.get_cell(3, 1) == Cell()
        assert spread.cache.provisional_count == 0

    def test_mid_batch_drain_survives_abort(self):
        """Draining pre-batch queued work inside a batch commits through the
        batch's discardable writes: an abort must restore the placeholder
        and re-queue the cell, never lose the formula."""
        spread = DataSpread(async_recompute=True)
        spread.set_value(1, 1, 2)
        spread.set_formula(2, 1, "A1+2")  # formula text lives only provisionally
        with pytest.raises(RuntimeError):
            with spread.batch():
                assert spread.get_fresh_value(2, 1) == 4  # mid-batch drain
                raise RuntimeError("boom")
        assert spread.get_cell(2, 1).formula == "A1+2"
        assert not spread.is_fresh(2, 1)
        spread.flush_compute()
        assert spread.get_value(2, 1) == 4
        assert spread.model.get_cell(2, 1).value == 4

    def test_abort_requeues_a_queued_formula_the_batch_overwrote(self):
        """A drain inside the batch drops the queued cell once a constant
        replaced its formula; the abort that brings the formula back must
        bring its stale mark back too, or it stays fresh at a stale value."""
        spread = DataSpread(async_recompute=True)
        spread.set_value(1, 1, 5)
        spread.set_formula(2, 1, "A1*2")
        spread.flush_compute()
        spread.set_value(1, 1, 7)  # A2 is queued stale at value 10
        with pytest.raises(RuntimeError):
            with spread.batch():
                spread.set_value(2, 1, 46)
                spread.flush_compute()  # the overwritten cell leaves the queue
                raise RuntimeError("boom")
        assert spread.get_cell(2, 1).formula == "A1*2"
        assert not spread.is_fresh(2, 1)
        spread.flush_compute()
        assert spread.get_value(2, 1) == 14

    def test_mid_batch_drain_commits_on_clean_exit(self):
        spread = DataSpread(async_recompute=True)
        spread.set_value(1, 1, 2)
        spread.set_formula(2, 1, "A1+2")
        with spread.batch():
            spread.set_value(1, 1, 10)
            assert spread.get_fresh_value(2, 1) == 12  # sees the batch's edit
        spread.flush_compute()
        assert spread.get_value(2, 1) == 12
        assert spread.model.get_cell(2, 1).value == 12

    def test_aborted_batch_does_not_grow_stored_extent(self):
        """The extent-growing write for a provisional formula must be
        buffered with the batch, so sync and async extents stay equal."""
        make = lambda is_async: DataSpread(async_recompute=is_async)
        for spread in (make(True), make(False)):
            spread.set_value(1, 1, 1)
            with pytest.raises(RuntimeError):
                with spread.batch():
                    spread.set_formula(50, 8, "A1+1")
                    raise RuntimeError("boom")
            spread.flush_compute()
            assert spread.model.region() == RangeRef(1, 1, 1, 1), spread.async_recompute
            assert spread.used_range() == RangeRef(1, 1, 1, 1), spread.async_recompute

    def test_clean_batch_grows_stored_extent_like_sync(self):
        spreads = [DataSpread(async_recompute=True), DataSpread()]
        for spread in spreads:
            spread.set_value(1, 1, 1)
            with spread.batch():
                spread.set_formula(50, 8, "A1+1")
            spread.flush_compute()
        assert spreads[0].model.region() == spreads[1].model.region()
        assert spreads[0].get_value(50, 8) == 2

    def test_coalescing_and_cancellation(self):
        spread = DataSpread(async_recompute=True)
        spread.set_value(1, 1, 1)
        spread.set_formula(2, 1, "A1+1")
        spread.flush_compute()
        stats = spread.compute_scheduler.stats
        stats.reset()
        spread.set_value(1, 1, 2)
        spread.set_value(1, 1, 3)  # re-edit coalesces with the queued subtree
        assert spread.compute_pending == 1
        assert stats.coalesced >= 1
        spread.set_value(2, 1, 99)  # overwrite the queued formula: cancel it
        spread.flush_compute()
        assert stats.cancelled >= 1
        assert spread.get_value(2, 1) == 99

    def test_cycle_detected_at_drain_and_recoverable(self):
        spread = DataSpread(async_recompute=True)
        spread.set_formula(1, 1, "B1+1")
        spread.set_formula(1, 2, "A1+1")
        with pytest.raises(CircularDependencyError):
            spread.flush_compute()
        spread.set_value(1, 2, 5)  # break the cycle
        spread.flush_compute()
        assert spread.get_value(1, 1) == 6

    def test_ensure_evaluates_only_the_needed_subtree(self):
        spread = DataSpread(async_recompute=True)
        spread.set_value(1, 1, 1)
        spread.set_formula(2, 1, "A1+1")
        spread.set_formula(3, 1, "A2+1")
        spread.set_formula(4, 1, "A1*100")
        spread.flush_compute()
        spread.set_value(1, 1, 10)
        assert spread.compute_pending == 3
        assert spread.get_fresh_value(3, 1) == 12
        assert spread.is_fresh(2, 1) and spread.is_fresh(3, 1)
        assert not spread.is_fresh(4, 1)  # untouched by the targeted drain
        spread.flush_compute()
        assert spread.get_value(4, 1) == 1000

    def test_viewport_cells_and_their_ancestors_run_first(self):
        spread = DataSpread(async_recompute=True)
        with spread.batch():
            spread.set_value(1, 1, 1)
            spread.set_formula(2, 1, "A1+1")       # off-screen ancestor
            spread.set_formula(10, 1, "A2*2")      # in the viewport
            for row in range(3, 9):
                spread.set_formula(row, 1, "A1*3")  # off-screen noise
        spread.set_viewport("A10:A10")
        spread.flush_compute(limit=2)
        assert spread.is_fresh(10, 1) and spread.is_fresh(2, 1)
        assert spread.get_value(10, 1) == 4
        assert not all(spread.is_fresh(row, 1) for row in range(3, 9))
        assert spread.compute_scheduler.stats.priority_evaluations == 2
        spread.flush_compute()

    def test_hot_cell_edit_acks_with_every_reader_pending_viewport_first(self):
        """One edit to a cell all N formulas read is acknowledged with N
        pending; a viewport over V of them is fresh after V evaluations
        with the other N - V still queued; the drained grid equals the
        synchronous engine's."""
        formulas, viewport_rows = 200, 40

        def build(**options) -> DataSpread:
            spread = DataSpread(**options)
            with spread.batch():
                for row in range(1, 101):
                    spread.set_value(row, 1, row % 97)
                for index in range(formulas):
                    spread.set_formula(index + 1, 3, f"SUM(A1:A10)+A{11 + index % 90}")
            spread.flush_compute()
            return spread

        sync_spread, spread = build(), build(async_recompute=True)
        spread.set_viewport(RangeRef(1, 3, viewport_rows, 3))
        for target in (sync_spread, spread):
            target.set_value(5, 1, 1_000)
        assert spread.compute_pending == formulas
        assert spread.flush_compute(limit=viewport_rows) == viewport_rows
        assert all(spread.is_fresh(row, 3) for row in range(1, viewport_rows + 1))
        assert spread.compute_pending == formulas - viewport_rows
        spread.flush_compute()
        assert spread.get_range_values(RangeRef(1, 3, formulas, 3)) == \
            sync_spread.get_range_values(RangeRef(1, 3, formulas, 3))

    def test_structural_edit_rewrites_queued_work(self):
        spread = DataSpread(async_recompute=True)
        spread.set_value(1, 1, 1)
        spread.set_value(2, 1, 2)
        spread.set_formula(5, 1, "SUM(A1:A2)")
        assert spread.compute_pending == 1
        spread.insert_row_after(1)  # queued cell moves from A5 to A6
        assert spread.compute_pending >= 1
        spread.flush_compute()
        assert spread.get_cell(6, 1).formula == "SUM(A1:A3)"
        assert spread.get_value(6, 1) == 3
        # The placeholder text survived the cache clear + remap.
        assert spread.model.get_cell(6, 1).formula == "SUM(A1:A3)"

    def test_structural_edit_cancels_deleted_queued_cells(self):
        spread = DataSpread(async_recompute=True)
        spread.set_value(1, 1, 1)
        spread.set_formula(3, 1, "A1+1")
        assert spread.compute_pending == 1
        spread.delete_row(3)
        spread.flush_compute()
        assert spread.get_cell(3, 1) == Cell()

    def test_mid_batch_structural_edit_converges(self):
        spread = DataSpread(async_recompute=True)
        with spread.batch():
            spread.set_value(1, 1, 4)
            spread.set_formula(2, 1, "A1*A1")
            spread.insert_row_after(0)  # everything shifts down one row
            spread.set_value(4, 1, 9)
        spread.flush_compute()
        assert spread.get_cell(3, 1).formula == "A2*A2"
        assert spread.get_value(3, 1) == 16
        assert spread.get_value(4, 1) == 9

    def test_optimize_storage_drains_first(self):
        spread = DataSpread(async_recompute=True)
        spread.set_value(1, 1, 2)
        spread.set_formula(1, 2, "A1^3")
        spread.optimize_storage("aggressive")
        assert spread.compute_pending == 0
        assert spread.get_value(1, 2) == 8
        assert spread.get_cell(1, 2).formula == "A1^3"

    def test_disabling_async_mode_drains(self):
        spread = DataSpread(async_recompute=True)
        spread.set_value(1, 1, 6)
        spread.set_formula(2, 1, "A1/2")
        assert spread.compute_pending == 1
        spread.async_recompute = False
        assert spread.compute_pending == 0
        assert spread.get_value(2, 1) == 3
        spread.set_value(1, 1, 8)  # synchronous again
        assert spread.get_value(2, 1) == 4


class TestQueuedViewAnchors:
    def test_structural_edit_leaves_no_phantom_anchor_in_the_queue(self):
        from repro.query import col, region, select
        spread = DataSpread(async_recompute=True)
        spread.set_value(1, 1, 50)
        view = spread.create_live_view(
            select(region(RangeRef(1, 1, 10, 2), header=False)).where(col("A") > 40))
        spread.set_value(2, 1, 60)
        assert spread.compute_pending == 1  # the view's anchor
        spread.insert_row_after(1, 1)
        assert spread.compute_scheduler.pending() == {view.anchor}
        spread.flush_compute()
        assert view.value().rows == ((50, None), (60, None))


class TestCacheOverlay:
    def test_probe_and_scan_branches_agree(self):
        """overlay_values has a per-coordinate probe path for small regions
        and a map-scan path for large ones; both must return the same
        overlay (provisional entries superseding pending ones)."""
        from repro.engine.cache import LRUCellCache

        store: dict[tuple[int, int], Cell] = {}
        cache = LRUCellCache(
            loader=lambda row, column: store.get((row, column), Cell()),
            writer=lambda row, column, cell: store.__setitem__((row, column), cell),
            capacity=100,
            bulk_writer=lambda items: store.update(
                ((row, column), cell) for row, column, cell in items),
        )
        cache.begin_deferred()
        for row in range(1, 9):
            cache.put(row, 1, Cell(value=row))
        cache.put_provisional(3, 1, Cell(value=-3, formula="X"))
        small = RangeRef(2, 1, 4, 1)      # area 3 < 9 entries: probe path
        large = RangeRef(1, 1, 20, 2)     # area 40 > 9 entries: scan path
        probed = cache.overlay_values(small)
        scanned = cache.overlay_values(large)
        assert probed == {key: cell for key, cell in scanned.items()
                          if small.contains_coordinates(key[0], key[1])}
        assert probed[(3, 1)].formula == "X"  # provisional wins over pending
        cache.discard_deferred()


# ---------------------------------------------------------------------- #
# dependency-graph slicing primitives
# ---------------------------------------------------------------------- #
class TestGraphSlicing:
    def _graph(self) -> DependencyGraph:
        graph = DependencyGraph()
        graph.register(addr("B1"), "A1+1")
        graph.register(addr("C1"), "B1+1")
        graph.register(addr("D1"), "SUM(A1:B1)")
        graph.register(addr("Z9"), "Y9+1")
        return graph

    def test_affected_set_is_the_bfs_slice(self):
        graph = self._graph()
        assert graph.affected_set([addr("A1")]) == {addr("B1"), addr("C1"), addr("D1")}
        # A seed that is itself a formula joins the slice...
        assert addr("B1") in graph.affected_set([addr("B1")])
        # ...unless excluded.
        assert graph.affected_set([addr("Z9")], include_seeds=False) == set()

    def test_slice_edges_are_internal_only(self):
        graph = self._graph()
        subset = {addr("B1"), addr("C1"), addr("D1")}
        edges = set(graph.slice_edges(subset))
        assert edges == {(addr("B1"), addr("C1")), (addr("B1"), addr("D1"))}

    def test_slice_order_does_not_expand(self):
        graph = self._graph()
        order = graph.slice_order([addr("C1"), addr("B1")])
        assert order == [addr("B1"), addr("C1")]  # D1 not pulled in
        with pytest.raises(CircularDependencyError):
            cyclic = DependencyGraph()
            cyclic.register(addr("A1"), "B1")
            cyclic.register(addr("B1"), "A1")
            cyclic.slice_order([addr("A1"), addr("B1")])

    def test_contains(self):
        graph = self._graph()
        assert addr("B1") in graph
        assert addr("A1") not in graph


# ---------------------------------------------------------------------- #
# shifted interval-stripe reuse (satellite)
# ---------------------------------------------------------------------- #
class TestShiftedStripeReuse:
    def _built_graph(self) -> DependencyGraph:
        graph = DependencyGraph()
        graph.register(addr("Z10"), "SUM(C1:C100)")
        graph.register(addr("Z11"), "SUM(D5:D50)")
        graph.direct_dependents(addr("C50"))  # build the C stripe's tree
        graph.direct_dependents(addr("D20"))  # build the D stripe's tree
        return graph

    def test_column_insert_shifts_trees_without_rebuild(self):
        graph = self._built_graph()
        graph.stats.reset()
        graph.apply_structural_edit(StructuralEdit.insert_columns(1))
        assert graph.stats.stripes_shifted == 2
        graph.stats.reset()
        # C ranges moved to D, D to E; the formula cells shifted too (Z->AA).
        assert graph.direct_dependents(addr("D50")) == {addr("AA10")}
        assert graph.direct_dependents(addr("E20")) == {addr("AA11")}
        assert graph.direct_dependents(addr("C50")) == set()
        assert graph.stats.index_rebuilds == 0  # served from the shifted trees

    def test_column_delete_shifts_trees_without_rebuild(self):
        graph = self._built_graph()
        graph.stats.reset()
        graph.apply_structural_edit(StructuralEdit.delete_columns(1))
        assert graph.stats.stripes_shifted == 2
        graph.stats.reset()
        assert graph.direct_dependents(addr("B50")) == {addr("Y10")}
        assert graph.direct_dependents(addr("C20")) == {addr("Y11")}
        assert graph.stats.index_rebuilds == 0

    def test_row_edit_splices_uniform_stripes_and_rebuilds_straddlers(self):
        graph = self._built_graph()
        graph.stats.reset()
        graph.apply_structural_edit(StructuralEdit.insert_rows(1))
        # D5:D50 sits entirely below the insert: every span shifts by the
        # same delta, so the D stripe's tree translates (PR 5 row splice).
        # C1:C100 straddles the insert (it expands to C1:C101), which breaks
        # the uniform translate, so only the C stripe rebuilds.
        assert graph.stats.stripes_shifted == 1
        # The Z10 formula itself shifted down one row with everything else.
        assert graph.direct_dependents(addr("C50")) == {addr("Z11")}
        assert graph.direct_dependents(addr("D20")) == {addr("Z12")}
        assert graph.stats.index_rebuilds == 1  # C rebuilt; D served spliced

    def test_shift_reuse_matches_fresh_registration(self):
        rng = random.Random(7)
        formulas = {}
        graph = DependencyGraph()
        for index in range(80):
            column = rng.choice("CDEFGH")
            top = rng.randint(1, 40)
            bottom = top + rng.randint(0, 30)
            address = CellAddress(100 + index, rng.randint(1, 12))
            text = f"SUM({column}{top}:{column}{bottom})"
            formulas[address] = text
            graph.register(address, text)
        for probe in ("C10", "D20", "E30", "F5", "G40", "H1"):
            graph.direct_dependents(addr(probe))  # build the trees
        edit = StructuralEdit.insert_columns(2, count=3)
        graph.apply_structural_edit(edit)
        assert graph.stats.stripes_shifted > 0

        expected = DependencyGraph()
        for address, text in formulas.items():
            new_address = edit.map_address(address)
            if new_address is not None:
                from repro.formula.rewrite import rewrite_formula

                node, _changed = rewrite_formula(parse_formula(text), edit)
                expected.register(new_address, node)
        for row in range(1, 75):
            for column in range(1, 14):
                probe = CellAddress(row, column)
                assert graph.direct_dependents(probe) == expected.direct_dependents(probe), probe


# ---------------------------------------------------------------------- #
# RCV bulk-write batching (satellite)
# ---------------------------------------------------------------------- #
class TestRcvBulkWrites:
    def test_distinct_rows_and_columns_resolved_once(self, monkeypatch):
        model = RowColumnValueModel(top=1, left=1)
        resolved = []
        axis_type = type(model._rows)
        original_id_at = axis_type.id_at
        monkeypatch.setattr(
            axis_type, "id_at",
            lambda axis, line: (resolved.append(axis), original_id_at(axis, line))[1],
        )
        items = [
            (row, column, Cell(value=row * 100 + column))
            for row in range(1, 11)
            for column in range(1, 11)
        ]
        model.update_cells(items)
        assert sum(axis is model._rows for axis in resolved) == 10
        assert sum(axis is model._columns for axis in resolved) == 10
        assert model.cell_count() == 100
        assert model.get_cell(7, 3).value == 703

    def test_bulk_write_equals_per_cell_writes(self):
        """One fixed block of the differential ``tests/test_write_contracts.py``
        runs over every store, order and seed."""
        rng = random.Random(3)
        items = [
            (rng.randint(1, 20), rng.randint(1, 20), Cell(value=rng.randint(0, 99)))
            for _ in range(200)
        ] + [(5, 5, Cell())]  # include a delete
        bulk = RowColumnValueModel(top=1, left=1)
        bulk.update_cells(items)
        loop = RowColumnValueModel(top=1, left=1)
        for row, column, cell in items:
            loop.update_cell(row, column, cell)
        region = RangeRef(1, 1, 25, 25)
        assert bulk.get_cells(region) == loop.get_cells(region)

    def test_hybrid_routes_runs_through_bulk_path(self):
        """A block split between a region and the lazily created catch-all
        (per owner since the hybrid stopped grouping by consecutive run;
        ``tests/test_write_contracts.py`` holds the general contract)."""
        region_model = RowColumnValueModel(top=1, left=1, rows=5, columns=5)
        hybrid = HybridDataModel(
            regions=[HybridRegion(range=RangeRef(1, 1, 5, 5), model=region_model)]
        )
        items = [
            (row, column, Cell(value=row * 10 + column))
            for row in range(1, 9)
            for column in range(1, 4)
        ]
        hybrid.update_cells(items)
        assert hybrid.get_cell(3, 2).value == 32      # owned region
        assert hybrid.get_cell(8, 3).value == 83      # catch-all (created lazily)
        assert hybrid.catch_all is not None
        mirror = HybridDataModel(
            regions=[HybridRegion(
                range=RangeRef(1, 1, 5, 5),
                model=RowColumnValueModel(top=1, left=1, rows=5, columns=5),
            )]
        )
        for row, column, cell in items:
            mirror.update_cell(row, column, cell)
        box = RangeRef(1, 1, 10, 10)
        assert hybrid.get_cells(box) == mirror.get_cells(box)


# ---------------------------------------------------------------------- #
# evaluator prime / cache stats (satellite)
# ---------------------------------------------------------------------- #
class TestEvaluatorPrimeAndStats:
    def test_prime_of_cached_formula_keeps_node_and_refreshes_recency(self):
        evaluator = Evaluator(lambda row, column: 0, parse_cache_capacity=3)
        node = evaluator.parse("A1+1")
        evaluator.parse("A1+2")
        evaluator.parse("A1+3")  # cache now full: [A1+1, A1+2, A1+3]
        evaluator.prime("A1+1", parse_formula("A1+1"))  # refresh, not replace
        assert evaluator.parse("A1+1") is node  # the original AST object survives
        evaluator.parse("A1+4")  # evicts the least recent: A1+2
        stats = evaluator.parse_cache_stats()
        assert stats.size == 3
        before = stats.misses
        evaluator.parse("A1+2")
        assert evaluator.parse_cache_stats().misses == before + 1

    def test_parse_cache_stats_counts(self):
        evaluator = Evaluator(lambda row, column: 0)
        evaluator.parse("A1+1")
        evaluator.parse("A1+1")
        evaluator.prime("B1*2", parse_formula("B1*2"))
        stats = evaluator.parse_cache_stats()
        assert (stats.hits, stats.misses, stats.primes) == (1, 1, 1)
        assert stats.size == 2
        assert 0.0 < stats.hit_rate < 1.0
        evaluator.reset_parse_cache_stats()
        reset = evaluator.parse_cache_stats()
        assert (reset.hits, reset.misses, reset.primes) == (0, 0, 0)
        assert reset.size == 2  # the ASTs themselves are kept


# ---------------------------------------------------------------------- #
# randomized equivalence: async == sync == Sheet oracle
# ---------------------------------------------------------------------- #
# The one fuzz harness lives in tests/support/harness.py (shared with the
# scalable fuzz suite, tests/test_equivalence_fuzz.py).
# Structural edits are sampled *unbounded* — beyond the stored extent,
# above the catch-all RCV anchor, and at the MAX_ROWS/MAX_COLUMNS sheet
# boundary — because extent-free structural edits are part of the contract.
class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_interleavings_converge_to_sync_and_oracle(self, seed):
        for recompute in ("sync", "async"):
            run(seed, replace(EQUIVALENCE, recompute=recompute))

    @pytest.mark.parametrize("seed", [11, 12])
    def test_interleavings_with_mid_batch_structural_edits(self, seed):
        for recompute in ("sync", "async"):
            run(seed, replace(MID_BATCH, recompute=recompute))


# ---------------------------------------------------------------------- #
# scheduler unit behaviour (engine-free)
# ---------------------------------------------------------------------- #
class TestComputeSchedulerUnit:
    def test_states_and_deterministic_order(self):
        graph = DependencyGraph()
        graph.register(addr("B1"), "A1+1")
        graph.register(addr("C1"), "B1+1")
        order: list[CellAddress] = []
        scheduler = ComputeScheduler(graph, order.append)
        scheduler.mark_dirty([addr("A1")])
        assert scheduler.pending_count == 2
        assert scheduler.state_of(addr("B1")) is CellState.STALE
        assert scheduler.state_of(addr("A1")) is CellState.FRESH  # not a formula
        assert scheduler.run() == 2
        assert order == [addr("B1"), addr("C1")]
        assert scheduler.is_fresh(addr("B1"))

    def test_computing_state_visible_during_evaluation(self):
        graph = DependencyGraph()
        graph.register(addr("B1"), "A1+1")
        seen: list[CellState] = []
        scheduler = ComputeScheduler(
            graph, lambda address: seen.append(scheduler.state_of(address))
        )
        scheduler.mark_dirty([addr("A1")])
        scheduler.run()
        assert seen == [CellState.COMPUTING]

    def test_failed_evaluation_retried_within_run(self):
        graph = DependencyGraph()
        graph.register(addr("B1"), "A1+1")
        attempts = []

        def evaluate(address):
            attempts.append(address)
            if len(attempts) == 1:
                raise RuntimeError("transient")

        scheduler = ComputeScheduler(graph, evaluate)
        scheduler.mark_dirty([addr("A1")])
        assert scheduler.run() == 1
        assert attempts == [addr("B1"), addr("B1")]
        assert scheduler.pending_count == 0
        assert scheduler.stats.quarantine_retries == 1
        assert not scheduler.quarantined
        assert scheduler.is_fresh(addr("B1"))

    def test_persistent_failure_quarantined_and_drain_continues(self):
        graph = DependencyGraph()
        graph.register(addr("B1"), "A1+1")
        graph.register(addr("C1"), "A1+2")
        attempts = []

        def evaluate(address):
            attempts.append(address)
            if address == addr("B1"):
                raise RuntimeError("poisoned")

        scheduler = ComputeScheduler(graph, evaluate)
        scheduler.mark_dirty([addr("A1")])
        scheduler.run()
        # B1 exhausts its retry budget and is quarantined; C1 still drains.
        assert attempts.count(addr("B1")) == ComputeScheduler.max_evaluate_attempts
        assert attempts.count(addr("C1")) == 1
        assert scheduler.pending_count == 0
        assert addr("B1") in scheduler.quarantined
        assert "poisoned" in scheduler.quarantined[addr("B1")]
        assert scheduler.stats.quarantined == 1
        # Re-dirtying the seed clears the quarantine and retries from scratch.
        scheduler.mark_dirty([addr("A1")])
        assert addr("B1") not in scheduler.quarantined
        assert scheduler.pending_count == 2


# ---------------------------------------------------------------------- #
# idle-drain policy (PR 5 satellite)
# ---------------------------------------------------------------------- #
class TestIdleDrain:
    def _dirty_spread(self, budget_ms: float) -> DataSpread:
        spread = DataSpread(async_recompute=True, idle_drain_ms=budget_ms)
        with spread.batch():
            for row in range(1, 11):
                spread.set_value(row, 1, row)
            for row in range(1, 11):
                spread.set_formula(row, 2, f"A{row}*2")
        return spread

    def test_batched_reads_do_not_drain(self):
        spread = self._dirty_spread(budget_ms=100.0)
        with spread.batch():
            spread.get_value(1, 2)
            assert spread.compute_pending == 10
        spread.get_value(1, 2)
        assert spread.compute_pending < 10

    def test_cyclic_work_never_fails_a_read(self):
        spread = DataSpread(async_recompute=True, idle_drain_ms=100.0)
        with spread.batch():
            spread.set_formula(1, 1, "B1+1")
            spread.set_formula(1, 2, "A1+1")
        spread.get_value(5, 5)  # the drain meets only cyclic work: no raise
        assert spread.compute_pending == 2
        with pytest.raises(CircularDependencyError):
            spread.flush_compute()  # the explicit drain still surfaces it

    def test_drain_retires_acyclic_work_around_a_cycle(self):
        scheduler_spread = DataSpread(async_recompute=True)
        with scheduler_spread.batch():
            scheduler_spread.set_formula(1, 1, "B1+1")
            scheduler_spread.set_formula(1, 2, "A1+1")
            scheduler_spread.set_value(5, 1, 7)
            scheduler_spread.set_formula(5, 2, "A5*3")
        scheduler = scheduler_spread.compute_scheduler
        assert scheduler.drain_for(1000.0) == 1  # A5*3 evaluates; the cycle stays
        assert scheduler_spread.get_value(5, 2) == 21
        assert scheduler.pending_count == 2


class TestTimeBudgetedIdleDrain:
    """``drain_for(budget_ms)`` / ``DataSpread(idle_drain_ms=...)`` (PR 9)."""

    def _dirty_spread(self, **kwargs) -> DataSpread:
        spread = DataSpread(async_recompute=True, **kwargs)
        with spread.batch():
            for row in range(1, 11):
                spread.set_value(row, 1, row)
            for row in range(1, 11):
                spread.set_formula(row, 2, f"A{row}*2")
        return spread

    def test_drain_for_stops_at_the_deadline(self):
        spread = self._dirty_spread()
        scheduler = spread.compute_scheduler
        assert scheduler.pending_count == 10
        ticks = [0.0]

        def clock() -> float:
            ticks[0] += 1.0  # one fake second per evaluation probe
            return ticks[0]

        # deadline = clock() + 2.5 = 3.5; probes read 2, 3, 4: the third
        # evaluation crosses the deadline, so exactly three cells retire.
        assert scheduler.drain_for(2500.0, clock=clock) == 3
        assert scheduler.pending_count == 7

    def test_drain_for_always_makes_progress(self):
        spread = self._dirty_spread()
        scheduler = spread.compute_scheduler
        ticks = [0.0]

        def clock() -> float:
            ticks[0] += 10.0
            return ticks[0]

        # The budget expires before the first probe, but the deadline is
        # only checked *after* an evaluation: one cell always retires.
        assert scheduler.drain_for(0.001, clock=clock) == 1
        assert scheduler.drain_for(0.0) == 0  # a zero budget stays passive

    def test_reads_converge_staleness_with_a_time_budget(self):
        spread = self._dirty_spread(idle_drain_ms=100.0)
        assert spread.compute_pending == 10
        reads = 0
        while spread.compute_pending and reads < 50:
            spread.get_value(20, 20)
            reads += 1
        assert spread.compute_pending == 0
        assert all(spread.get_value(row, 2) == row * 2 for row in range(1, 11))

    def test_zero_ms_budget_keeps_reads_passive(self):
        spread = self._dirty_spread(idle_drain_ms=0.0)
        spread.get_value(1, 2)
        assert spread.compute_pending == 10

    def test_negative_ms_budget_rejected(self):
        with pytest.raises(ValueError):
            DataSpread(async_recompute=True, idle_drain_ms=-0.5)
