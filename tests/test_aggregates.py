"""Tests for delta-based aggregate recompute (PR 5).

Covers the running-state components (exact integer sums, min/max with
multiplicity and support loss, inexact-float degradation), the store's
delta routing through the interval index, and the engine integration:
sync edits, batches, aborts, async scheduling, structural edits, and the
full-range-read fallback matrix — always asserting agreement with a
from-scratch evaluation.
"""

import math
import random

import pytest

from repro.engine.dataspread import DataSpread
from repro.formula.aggregates import (
    AggregateStore,
    RangeAggregateState,
    combine_aggregate,
)
from repro.formula.functions import RangeValue, fn_average, fn_count, fn_max, fn_min, fn_sum
from repro.formula.stripes import REBUILD_CHURN_MIN
from repro.errors import FormulaEvaluationError
from repro.grid.address import MAX_COLUMNS, MAX_ROWS, CellAddress
from repro.grid.range import RangeRef
from repro.grid.structural import StructuralEdit

from tests.support import full_read_engine


def addr(reference: str) -> CellAddress:
    return CellAddress.from_a1(reference)


def _range_value(values) -> RangeValue:
    return RangeValue(values=(tuple(values),))


class TestRangeAggregateState:
    def test_components_match_full_functions_on_random_int_sequences(self):
        rng = random.Random(5)
        for trial in range(30):
            pool = [rng.randint(-50, 50) for _ in range(rng.randint(1, 12))]
            pool += [None, "text", True] * rng.randint(0, 2)
            rng.shuffle(pool)
            state = RangeAggregateState.from_range_value(_range_value(pool))
            grid = _range_value(pool)
            assert combine_aggregate("SUM", [state]) == fn_sum(grid), trial
            assert combine_aggregate("COUNT", [state]) == fn_count(grid), trial
            assert combine_aggregate("MIN", [state]) == fn_min(grid), trial
            assert combine_aggregate("MAX", [state]) == fn_max(grid), trial

    def test_delta_sequence_matches_rebuilt_state(self):
        rng = random.Random(11)
        values = [rng.randint(0, 9) for _ in range(10)]
        state = RangeAggregateState.from_range_value(_range_value(values))
        for _ in range(200):
            index = rng.randrange(len(values))
            new = rng.choice([rng.randint(0, 9), None, "x", True])
            state.remove(values[index])
            state.add(new)
            values[index] = new
        fresh = RangeAggregateState.from_range_value(_range_value(values))
        assert state.total == fresh.total
        assert state.count == fresh.count
        assert state.filled == fresh.filled
        if state.min_valid:
            assert (state.min_value, state.min_count) == (fresh.min_value, fresh.min_count)
        if state.max_valid:
            assert (state.max_value, state.max_count) == (fresh.max_value, fresh.max_count)

    def test_removing_last_copy_of_minimum_loses_support(self):
        state = RangeAggregateState.from_range_value(_range_value([3, 1, 1, 7]))
        state.remove(1)
        assert state.min_valid  # a duplicate minimum survives
        state.remove(1)
        assert not state.min_valid  # the runner-up is unknown
        assert state.max_valid
        assert state.supports("SUM") and not state.supports("MIN")

    def test_emptying_the_support_restores_min_max(self):
        state = RangeAggregateState.from_range_value(_range_value([4]))
        state.remove(4)
        assert state.count == 0
        assert state.min_valid and state.max_valid
        assert combine_aggregate("MIN", [state]) == 0  # Excel's MIN of nothing

    def test_non_integral_floats_degrade_only_the_sum(self):
        state = RangeAggregateState.from_range_value(_range_value([1, 2.5, 3]))
        assert not state.supports("SUM") and not state.supports("AVERAGE")
        assert state.supports("COUNT") and state.supports("MIN")
        assert combine_aggregate("MIN", [state]) == 1
        assert combine_aggregate("COUNT", [state]) == 3

    def test_huge_integers_degrade_the_sum(self):
        state = RangeAggregateState.from_range_value(_range_value([1 << 40, 2]))
        assert not state.supports("SUM")
        assert combine_aggregate("MAX", [state]) == float(1 << 40)

    def test_average_of_no_numbers_raises_div0(self):
        state = RangeAggregateState.from_range_value(_range_value(["a", None]))
        with pytest.raises(FormulaEvaluationError) as info:
            combine_aggregate("AVERAGE", [state])
        assert info.value.code == "#DIV/0!"
        assert fn_average.__name__  # mirror of the full path's behaviour

    def test_average_matches_full_path_bit_for_bit(self):
        values = [1, 2, 4]
        state = RangeAggregateState.from_range_value(_range_value(values))
        assert combine_aggregate("AVERAGE", [state]) == fn_average(_range_value(values))


def _full_read_sum(spread: DataSpread, reference: str) -> object:
    """Ground truth: a fresh engine never served by any running state."""
    grid = spread.get_range_values(reference)
    return sum(
        value for row in grid for value in row
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    )


class TestEngineAggregateDeltas:
    def _build(self, rows=200, **kwargs):
        spread = DataSpread(**kwargs)
        # Test grids are small; exercise the delta machinery anyway.
        spread.aggregate_store.min_state_area = 1
        spread.import_rows([[row % 7] for row in range(1, rows + 1)])
        return spread

    def test_point_edit_inside_large_range_uses_one_delta(self):
        spread = self._build()
        assert spread.set_formula(1, 3, "SUM(A1:A200)") == _full_read_sum(spread, "A1:A200")
        stats = spread.aggregate_store.stats
        assert stats.builds == 1
        spread.set_value(50, 1, 1_000)
        assert stats.deltas == 1
        assert stats.builds == 1  # no rebuild: the state absorbed the delta
        assert spread.get_value(1, 3) == _full_read_sum(spread, "A1:A200")

    def test_all_decomposable_functions_stay_correct_under_edits(self):
        spread = self._build(rows=60)
        spread.set_formula(1, 3, "SUM(A1:A60)")
        spread.set_formula(2, 3, "AVERAGE(A1:A60)")
        spread.set_formula(3, 3, "COUNT(A1:A60)")
        spread.set_formula(4, 3, "COUNTA(A1:A60)")
        spread.set_formula(5, 3, "MIN(A1:A60)")
        spread.set_formula(6, 3, "MAX(A1:A60)")
        rng = random.Random(3)
        for _ in range(40):
            row = rng.randint(1, 60)
            value = rng.choice([rng.randint(-9, 99), None, "text", True])
            if value is None:
                spread.clear_cell(row, 1)
            else:
                spread.set_value(row, 1, value)
            oracle = full_read_engine()
            for check_row in range(1, 61):
                stored = spread.get_value(check_row, 1)
                if stored is not None:
                    oracle.set_value(check_row, 1, stored)
            for slot, formula in enumerate(
                ("SUM(A1:A60)", "AVERAGE(A1:A60)", "COUNT(A1:A60)",
                 "COUNTA(A1:A60)", "MIN(A1:A60)", "MAX(A1:A60)"), start=1
            ):
                expected = oracle.set_formula(slot, 5, formula)
                assert spread.get_value(slot, 3) == expected, (formula, row, value)

    def test_min_support_loss_falls_back_to_full_read(self):
        spread = DataSpread()
        spread.aggregate_store.min_state_area = 1
        spread.set_values((row, 1, row * 10) for row in range(1, 51))
        assert spread.set_formula(1, 3, "MIN(A1:A50)") == 10
        stats = spread.aggregate_store.stats
        builds_before = stats.builds
        spread.set_value(1, 1, 500)  # removes the unique minimum
        assert stats.support_losses == 1
        assert spread.get_value(1, 3) == 20  # rebuilt from a full read
        assert stats.builds > builds_before

    def test_formula_cells_inside_ranges_propagate_deltas(self):
        """Aggregates over other formulas' outputs update through the
        recompute chain (the _reevaluate delta path)."""
        spread = DataSpread()
        spread.aggregate_store.min_state_area = 1
        spread.set_values((row, 1, row) for row in range(1, 21))
        spread.set_formula(1, 2, "SUM(A1:A20)")        # B1 = 210
        spread.set_formula(1, 3, "SUM(B1:B10)+COUNT(B1:B10)")
        assert spread.get_value(1, 3) == 211
        spread.set_value(5, 1, 105)                    # B1 -> 310
        assert spread.get_value(1, 2) == 310
        assert spread.get_value(1, 3) == 311

    def test_batch_edits_delta_through_the_pending_overlay(self):
        spread = self._build(rows=100)
        spread.set_formula(1, 3, "SUM(A1:A100)")
        expected_before = spread.get_value(1, 3)
        with spread.batch():
            spread.set_value(10, 1, 70)   # cached: delta applies via peek
            spread.set_value(10, 1, 71)   # re-edit folds sequentially
        assert spread.get_value(1, 3) == _full_read_sum(spread, "A1:A100")
        assert spread.get_value(1, 3) != expected_before

    def test_batch_abort_restores_the_snapshot_and_recovers(self):
        spread = self._build(rows=50)
        spread.set_formula(1, 3, "SUM(A1:A50)")
        expected = spread.get_value(1, 3)
        with pytest.raises(RuntimeError):
            with spread.batch():
                spread.set_value(5, 1, 999)
                raise RuntimeError("boom")
        # The abort restores the frame's aggregate snapshot (no commit point
        # intervened), so the pre-batch state survives intact.
        assert spread.aggregate_store.state_count == 1
        assert spread.get_value(1, 3) == expected  # the abort rolled back
        spread.set_value(5, 1, 123)  # delta straight off the restored state
        assert spread.get_value(1, 3) == _full_read_sum(spread, "A1:A50")

    def test_structural_edit_splices_surviving_states(self):
        spread = self._build(rows=30)
        spread.set_formula(1, 3, "SUM(A1:A30)")
        before = spread.get_value(1, 3)
        stats = spread.aggregate_store.stats
        assert stats.builds == 1
        spread.insert_row_after(10, 2)
        # An insert inside the range only adds blank lines (a no-op
        # contribution): the running state is spliced to the widened key,
        # never invalidated or rebuilt.
        assert stats.splices == 1
        assert stats.full_invalidations == 0
        assert spread.aggregate_store.state_count == 1
        # The formula was rewritten to span the shifted rows; inserting
        # blank rows must not change the sum.
        assert spread.get_cell(1, 3).formula == "SUM(A1:A32)"
        assert spread.get_value(1, 3) == before
        assert stats.builds == 1  # still the original state
        spread.set_value(11, 1, 40)  # a new row inside the widened range
        assert spread.get_value(1, 3) == before + 40
        assert stats.builds == 1  # the edit was a delta, not a rebuild

    def test_structural_edit_drops_states_losing_content(self):
        spread = self._build(rows=30)
        spread.set_formula(1, 3, "SUM(A5:A20)")
        before = spread.get_value(1, 3)
        stats = spread.aggregate_store.stats
        spread.delete_row(10, 3)  # rows 10-12 leave the aggregated range
        # Overlapping a deletion loses contributions whose values the
        # store cannot know: that state must drop (the post-edit recompute
        # then rebuilds it from a fresh full read), never splice.
        assert stats.invalidations >= 1
        assert stats.splices == 0
        assert stats.builds == 2
        assert spread.get_cell(1, 3).formula == "SUM(A5:A17)"
        assert spread.get_value(1, 3) == _full_read_sum(spread, "A5:A17")
        assert spread.get_value(1, 3) != before

    def test_structural_edit_translates_states_below_the_edit(self):
        spread = self._build(rows=40)
        spread.set_formula(1, 3, "SUM(A20:A40)")
        before = spread.get_value(1, 3)
        stats = spread.aggregate_store.stats
        spread.insert_row_after(5, 3)  # strictly above: pure translation
        assert stats.splices == 1
        assert spread.aggregate_store.state_count == 1
        assert spread.get_cell(1, 3).formula == "SUM(A23:A43)"
        assert spread.get_value(1, 3) == before
        assert stats.builds == 1
        spread.set_value(30, 1, 77)  # lands inside the translated range
        assert spread.get_value(1, 3) == _full_read_sum(spread, "A23:A43")
        assert stats.builds == 1  # absorbed as a delta on the spliced state

    def test_async_scheduler_routes_through_the_same_delta_path(self):
        spread = DataSpread(async_recompute=True)
        spread.aggregate_store.min_state_area = 1
        with spread.batch():
            for row in range(1, 101):
                spread.set_value(row, 1, row)
            spread.set_formula(1, 3, "SUM(A1:A100)")
        spread.flush_compute()
        assert spread.get_value(1, 3) == 5050
        spread.set_value(100, 1, 0)
        spread.flush_compute()
        assert spread.get_value(1, 3) == 4950
        assert spread.aggregate_store.stats.deltas >= 1

    def test_full_read_reference_matches_delta_results(self):
        incremental = self._build(rows=80)
        baseline = full_read_engine()
        baseline.import_rows(incremental.get_range_values("A1:A80"))
        for spread in (baseline, incremental):
            spread.set_formula(1, 3, "SUM(A1:A80)")
            spread.set_formula(2, 3, "AVERAGE(A1:A80)")
            spread.set_value(40, 1, 555)
            spread.clear_cell(41, 1)
        for row in (1, 2):
            assert baseline.get_value(row, 3) == incremental.get_value(row, 3)
        assert baseline.aggregate_store.stats.deltas == 0
        assert baseline.aggregate_store.stats.builds == 0
        assert incremental.aggregate_store.stats.deltas > 0
        assert baseline.aggregate_store.state_count == 0

    def test_float_ranges_fall_back_without_losing_correctness(self):
        spread = DataSpread()
        spread.aggregate_store.min_state_area = 1
        spread.set_values((row, 1, row + 0.5) for row in range(1, 11))
        value = spread.set_formula(1, 3, "SUM(A1:A10)")
        assert value == sum(row + 0.5 for row in range(1, 11))
        assert spread.aggregate_store.stats.fallbacks >= 1
        spread.set_value(5, 1, 2.25)
        assert spread.get_value(1, 3) == sum(
            (row + 0.5) if row != 5 else 2.25 for row in range(1, 11)
        )
        # COUNT over the same range still serves from state.
        assert spread.set_formula(2, 3, "COUNT(A1:A10)") == 10

    def test_mixed_scalar_arguments_use_the_classic_path(self):
        spread = self._build(rows=20)
        assert spread.set_formula(1, 3, "SUM(A1:A20,5)") == _full_read_sum(spread, "A1:A20") + 5
        spread.set_value(3, 1, 50)
        assert spread.get_value(1, 3) == _full_read_sum(spread, "A1:A20") + 5

    def test_overwriting_a_formula_drops_its_states(self):
        spread = self._build(rows=30)
        spread.set_formula(1, 3, "SUM(A1:A30)")
        assert spread.aggregate_store.state_count == 1
        spread.set_value(1, 3, 42)
        assert spread.aggregate_store.state_count == 0
        spread.set_value(2, 1, 9)  # no stale state may absorb this delta
        spread.set_formula(1, 3, "SUM(A1:A30)")
        assert spread.get_value(1, 3) == _full_read_sum(spread, "A1:A30")


class TestAggregateStoreUnit:
    def test_targets_exclude_the_edited_formula_itself(self):
        from repro.formula.dependencies import DependencyGraph

        graph = DependencyGraph()
        store = AggregateStore(graph)
        graph.register(addr("A1"), "SUM(A1:A10)")  # self-referential cycle
        state = store.build(addr("A1"), next(iter(graph.precedents_of(addr("A1"))[1])),
                            _range_value([1, 2]))
        assert state is not None
        assert store.targets_for(addr("A1")) == []


def _survivor(edit: StructuralEdit, region: RangeRef) -> RangeRef | None:
    """Where ``region``'s state lands across ``edit``, derived cell by cell.

    The state keeps holding when every old line along the edited axis maps
    onto the sheet (none deleted, none pushed past the limit) and the only
    lines the new span gains are inserted, blank ones.
    """
    start, end = (region.top, region.bottom) if edit.axis == "row" \
        else (region.left, region.right)
    limit = MAX_ROWS if edit.axis == "row" else MAX_COLUMNS
    moved = [edit.map_line(line) for line in range(start, end + 1)]
    if any(line is None or line > limit for line in moved):
        return None
    inserted = set(range(edit.line + 1, edit.line + edit.count + 1)) \
        if edit.kind == "insert" else set()
    if not set(range(moved[0], moved[-1] + 1)) - set(moved) <= inserted:
        return None
    if edit.axis == "row":
        return RangeRef(moved[0], region.left, moved[-1], region.right)
    return RangeRef(region.top, moved[0], region.bottom, moved[-1])


class TestStructuralSurvival:
    """A state crosses a structural edit exactly when no cell it aggregated
    is lost: ``_splice_region`` against a cell-by-cell derivation."""

    @pytest.mark.parametrize("axis", ["row", "column"])
    @pytest.mark.parametrize("edge", ["start", "sheet-limit"])
    def test_splice_region_matches_cell_by_cell_survival(self, axis, edge):
        limit = MAX_ROWS if axis == "row" else MAX_COLUMNS
        # Lines 1-11, or the last 11 lines of the sheet, where inserts
        # clamp spans at the edge or push them off it.
        base = 0 if edge == "start" else limit - 11
        spans = [(base + start, base + end)
                 for start in range(1, 12) for end in range(start, 12)]
        edits = [StructuralEdit(axis, "insert", base + line, count)
                 for line in range(0, 12) for count in (1, 2, 3)]
        edits += [StructuralEdit(axis, "delete", base + line, count)
                  for line in range(1, 12) for count in (1, 2, 3)]
        survived = 0
        for start, end in spans:
            region = RangeRef(start, 2, end, 3) if axis == "row" else RangeRef(2, start, 3, end)
            for edit in edits:
                expected = _survivor(edit, region)
                assert AggregateStore._splice_region(edit, region) == expected, (edit, region)
                survived += expected is not None
        assert 0 < survived < len(spans) * len(edits)

    def test_insert_inside_keeps_a_state_unless_the_sheet_edge_clips_it(self):
        inside = StructuralEdit.insert_rows(4, 2)
        assert AggregateStore._splice_region(inside, RangeRef(3, 1, 8, 1)) == RangeRef(3, 1, 10, 1)
        at_edge = StructuralEdit.insert_rows(MAX_ROWS - 3, 2)
        assert AggregateStore._splice_region(at_edge, RangeRef(MAX_ROWS - 5, 1, MAX_ROWS, 1)) is None


class TestTargetIndex:
    """``targets_for`` stabs the stripe index: with N disjoint states held,
    a one-hit lookup examines O(log N + hits) index entries, not N."""

    STATES = 1000

    def _store(self) -> AggregateStore:
        store = AggregateStore(None)
        reader = addr("Z1")
        for index in range(self.STATES):
            region = RangeRef(3 * index + 1, 1, 3 * index + 2, 1)  # A1:A2, A4:A5, ...
            store.install(reader, region, RangeAggregateState())
        return store

    def test_one_hit_probes_logarithmically(self):
        store = self._store()
        store.targets_for(addr("A1"))  # the first stab builds the stripe's tree
        bound = 2 * math.log2(self.STATES) + 1 + 4
        for row in (2, 1501, 2999):
            store.index_stats.range_probes = 0
            targets = store.targets_for(CellAddress(row, 1))
            top = row - (row - 1) % 3
            assert [region for region, _state in targets] == [RangeRef(top, 1, top + 1, 1)]
            assert len(targets) <= store.index_stats.range_probes <= bound

    def test_misses_cost_no_probes_beyond_their_column(self):
        store = self._store()
        store.targets_for(addr("A1"))
        store.index_stats.range_probes = 0
        assert store.targets_for(CellAddress(3, 1)) == []  # the gap between two states
        assert store.index_stats.range_probes <= 2 * math.log2(self.STATES) + 4
        store.index_stats.range_probes = 0
        assert store.targets_for(addr("B2")) == []  # a column no state covers
        assert store.index_stats.range_probes == 0

    def test_a_dropped_state_is_revived_in_place_and_dead_entries_compact(self):
        store = self._store()
        region = RangeRef(1, 1, 2, 1)
        store.invalidate_targets(store.targets_for(addr("A1")))
        assert store.targets_for(addr("A1")) == []
        before = (store.index_stats.incremental_inserts, store.index_stats.index_rebuilds)
        store.install(addr("Z1"), region, RangeAggregateState())
        assert [found for found, _state in store.targets_for(addr("A1"))] == [region]
        assert store.subscribers_of(region) == {addr("Z1")}
        assert (store.index_stats.incremental_inserts, store.index_stats.index_rebuilds) == before
        for row in range(1, 3 * self.STATES, 3):
            store.invalidate_targets(store.targets_for(CellAddress(row, 1)))
        assert store.state_count == 0
        assert len(store._indexed) <= REBUILD_CHURN_MIN

    def test_clearing_formulas_that_each_read_two_ranges(self):
        """Dead entries compact from inside ``drop_formula``, between the
        ranges of one formula: no subscription may outlive its state."""
        from tests.support import check_engine

        spread = DataSpread()
        spread.aggregate_store.min_state_area = 1
        spread.set_values((row, 1, row) for row in range(1, 121))
        for row in range(1, 81):
            spread.set_formula(row, 3, f"SUM(A{row}:A{row + 10})+SUM(A{row + 1}:A{row + 30})")
        store = spread.aggregate_store
        assert store.state_count == 160
        for row in range(1, 81):
            spread.clear_cell(row, 3)
        check_engine(spread)
        assert store.state_count == 0
        assert len(store._indexed) <= REBUILD_CHURN_MIN  # the dead entries compacted


class TestFallbackEfficiency:
    """Review regressions: the fallback path must not do wasted work."""

    def test_inexact_sum_never_rebuilds_state_on_recompute(self):
        """While inexact values sit in the range, SUM must not trigger a
        futile rebuild (plus a second materialisation) per recompute —
        rebuilding cannot restore exactness until the content changes."""
        spread = DataSpread()
        spread.aggregate_store.min_state_area = 1
        spread.set_values((row, 1, row + 0.5) for row in range(1, 11))
        spread.set_formula(1, 3, "SUM(A1:A10)")
        stats = spread.aggregate_store.stats
        assert stats.builds == 1  # the initial state build
        for edit in range(3):
            spread.set_value(5, 1, 7.25 + edit)
            assert spread.get_value(1, 3) == sum(
                (row + 0.5) if row != 5 else 7.25 + edit for row in range(1, 11)
            )
        assert stats.builds == 1  # no rebuild can restore exactness
        assert stats.fallbacks == 4  # one per evaluation, single-read each

    def test_min_support_loss_rebuild_still_recovers(self):
        """The no-futile-rebuild rule must not break the MIN/MAX repair."""
        spread = DataSpread()
        spread.aggregate_store.min_state_area = 1
        spread.set_values((row, 1, row * 10) for row in range(1, 21))
        spread.set_formula(1, 3, "MIN(A1:A20)")
        spread.set_value(1, 1, 999)  # the unique minimum leaves
        assert spread.get_value(1, 3) == 20  # full read repaired the state
        spread.set_value(2, 1, 5)
        assert spread.get_value(1, 3) == 5  # and deltas serve again

    def test_async_set_formula_skips_the_delta_capture(self):
        """set_formula acknowledgment in async mode must not pay the
        capture (interval stab + old-value read): the visible value stays
        the placeholder, so there is no delta to fold."""
        spread = DataSpread(async_recompute=True)
        spread.aggregate_store.min_state_area = 1
        with spread.batch():
            for row in range(1, 11):
                spread.set_value(row, 1, row)
            spread.set_formula(1, 2, "SUM(A1:A10)")
        spread.flush_compute()

        def must_not_capture(address):
            raise AssertionError("async set_formula captured a delta")

        spread.aggregate_store.targets_for = must_not_capture
        try:
            spread.set_formula(5, 1, "A1+1")  # inside the aggregated range
        finally:
            del spread.aggregate_store.targets_for
        spread.flush_compute()
        assert spread.get_value(1, 2) == sum(range(1, 11)) - 5 + 2

    def test_sum_recovers_after_transient_float_leaves_the_range(self):
        """Inexactness is tracked by multiplicity: once the last inexact
        value is edited out, SUM returns to the O(Δ) path instead of
        paying a full range read per recompute forever."""
        spread = DataSpread()
        spread.aggregate_store.min_state_area = 1
        spread.set_values((row, 1, row) for row in range(1, 41))
        spread.set_formula(1, 3, "SUM(A1:A40)")
        stats = spread.aggregate_store.stats
        assert stats.builds == 1

        spread.set_value(3, 1, 2.5)  # the range goes inexact
        assert spread.get_value(1, 3) == sum(range(1, 41)) - 3 + 2.5
        fallbacks_while_inexact = stats.fallbacks
        assert fallbacks_while_inexact >= 1

        spread.set_value(3, 1, 7)    # the last inexact value leaves
        assert spread.get_value(1, 3) == sum(range(1, 41)) - 3 + 7
        hits_after_recovery = stats.hits
        spread.set_value(10, 1, 100)
        assert spread.get_value(1, 3) == sum(range(1, 41)) - 3 + 7 - 10 + 100
        assert stats.hits > hits_after_recovery      # served from state again
        assert stats.fallbacks == fallbacks_while_inexact  # no more full reads
        assert stats.builds == 1                     # and never a rebuild

    def test_overflowing_integer_poisons_without_corrupting_state(self):
        """float(10**400) raises OverflowError; the delta must fold it as
        a poisoned contribution with consistent counters, never leave the
        state half-mutated serving silently wrong sums."""
        spread = DataSpread()
        spread.aggregate_store.min_state_area = 1
        spread.set_values((row, 1, row) for row in range(1, 11))
        assert spread.set_formula(1, 3, "SUM(A1:A10)") == 55
        with pytest.raises(OverflowError):
            # The delta folds the huge value in consistently; the dependent
            # recompute's full-read fallback then raises exactly like a
            # from-scratch evaluation of this grid would.
            spread.set_value(5, 1, 10**400)
        spread.set_value(5, 1, 5)  # the poison leaves with its value
        assert spread.get_value(1, 3) == 55
        assert spread.aggregate_store.stats.builds == 1  # state never corrupted

    def test_self_referential_aggregate_matches_baseline(self):
        """A formula aggregating over a range containing its own cell (a
        self-cycle the topological order tolerates) must never cache
        state: the delta path and the full-read baseline must stay
        value-identical through any edit sequence."""
        def run(spread: DataSpread) -> list:
            spread.set_value(3, 3, 10)
            spread.set_formula(1, 3, "SUM(C1:C10)")
            trace = [spread.get_value(1, 3)]
            spread.set_value(5, 3, 7)
            trace.append(spread.get_value(1, 3))
            spread.set_value(3, 3, 1)
            trace.append(spread.get_value(1, 3))
            return trace

        delta_engine = DataSpread()
        delta_engine.aggregate_store.min_state_area = 1
        assert run(delta_engine) == run(full_read_engine())

    def test_self_range_states_are_never_cached(self):
        spread = DataSpread()
        spread.aggregate_store.min_state_area = 1
        spread.set_value(2, 3, 5)
        spread.set_formula(1, 3, "SUM(C1:C10)")  # C1 inside its own range
        assert spread.aggregate_store.state_count == 0
        spread.set_formula(1, 4, "SUM(C1:C10)")  # D1 outside: cached fine
        assert spread.aggregate_store.state_count == 1

    def test_nan_poisoned_min_skips_futile_rebuilds_then_recovers(self):
        """NaN content poisons MIN/MAX; like inexact sums, that is not
        repairable by rebuilding, so recomputes must not pay an extra
        state pass per evaluation — and the state must recover once the
        NaN is edited out."""
        spread = DataSpread()
        spread.aggregate_store.min_state_area = 1
        spread.set_values((row, 1, row + 10) for row in range(1, 21))
        spread.set_value(5, 1, float("nan"))
        spread.set_formula(1, 3, "MIN(A1:A20)")
        stats = spread.aggregate_store.stats
        assert stats.builds == 1
        spread.set_value(7, 1, 3)   # recompute: fallback, but no rebuild
        spread.set_value(8, 1, 2)
        assert stats.builds == 1
        assert stats.fallbacks >= 2
        spread.set_value(5, 1, 50)  # the NaN leaves: one rebuild repairs MIN
        assert spread.get_value(1, 3) == 2
        assert stats.builds == 2
        hits_before = stats.hits
        spread.set_value(9, 1, 1)   # and deltas serve again
        assert spread.get_value(1, 3) == 1
        assert stats.hits > hits_before


class TestSharedRefcountedStates:
    """States are keyed per distinct range and refcounted per subscriber."""

    def _build(self, rows=50):
        spread = DataSpread()
        spread.aggregate_store.min_state_area = 1
        spread.import_rows([[row] for row in range(1, rows + 1)])
        return spread

    def test_state_count_equals_distinct_ranges(self):
        spread = self._build()
        for slot in range(1, 41):
            spread.set_formula(slot, 3, "SUM(A1:A50)")
        for slot in range(1, 11):
            spread.set_formula(slot, 4, "MIN(A1:A25)")
        store = spread.aggregate_store
        # 50 formulas, 2 distinct ranges, exactly 2 shared states.
        assert store.state_count == 2
        assert len(store.subscribers_of(RangeRef(1, 1, 50, 1))) == 40
        assert len(store.subscribers_of(RangeRef(1, 1, 25, 1))) == 10

    def test_point_edit_costs_one_delta_regardless_of_subscribers(self):
        spread = self._build()
        for slot in range(1, 31):
            spread.set_formula(slot, 3, "SUM(A1:A50)")
        stats = spread.aggregate_store.stats
        deltas_before = stats.deltas
        spread.set_value(10, 1, 500)
        # One shared state, one update — not one per subscribing formula.
        assert stats.deltas == deltas_before + 1
        for slot in range(1, 31):
            assert spread.get_value(slot, 3) == _full_read_sum(spread, "A1:A50")

    def _shared_column(self, formulas=100, rows=500):
        """``formulas`` SUMs over one column above the default area floor."""
        spread = DataSpread()
        spread.import_rows([[(row * 7) % 211] for row in range(1, rows + 1)])
        with spread.batch():
            for slot in range(1, formulas + 1):
                spread.set_formula(slot, 3, f"SUM(A1:A{rows})")
        store = spread.aggregate_store
        assert store.state_count == 1
        assert len(store.subscribers_of(RangeRef(1, 1, rows, 1))) == formulas
        return spread

    @pytest.mark.parametrize("event", [
        lambda spread: spread.optimize_storage(),
        lambda spread: spread.link_table("side", at="H1", columns=["k", "v"], rows=[[1, 2]]),
    ], ids=["optimize_storage", "off_range_link_table"])
    def test_shared_state_survives_events_that_change_no_value_it_reads(self, event):
        """A relayout moves cells between physical models and an off-range
        link changes another rectangle: neither changes a coordinate→value
        binding under A1:A500, so the one shared state keeps running."""
        spread = self._shared_column()
        stats = spread.aggregate_store.stats
        invalidations, builds, deltas = stats.invalidations, stats.builds, stats.deltas
        event(spread)
        assert stats.invalidations == invalidations
        spread.set_value(10, 1, 999)
        assert (stats.builds, stats.deltas) == (builds, deltas + 1)
        expected = _full_read_sum(spread, "A1:A500")
        assert all(spread.get_value(slot, 3) == expected for slot in range(1, 101))

    def test_link_table_over_the_range_drops_only_that_state(self):
        spread = self._shared_column(formulas=3, rows=300)
        spread.import_rows([[row] for row in range(1, 301)], left=2)
        spread.set_formula(1, 4, "SUM(B1:B300)")
        store = spread.aggregate_store
        invalidations = store.stats.invalidations
        spread.link_table("inside", at="A10", columns=["k"], rows=[[5]])
        assert store.stats.invalidations == invalidations + 1
        assert store.subscribers_of(RangeRef(1, 1, 300, 1)) == frozenset()
        assert len(store.subscribers_of(RangeRef(1, 2, 300, 2))) == 1
        builds = store.stats.builds
        spread.set_value(1, 1, 77)  # the dropped state is rebuilt from a full read
        assert store.stats.builds == builds + 1
        assert spread.get_value(1, 3) == _full_read_sum(spread, "A1:A300")

    def test_state_survives_until_the_last_subscriber_leaves(self):
        spread = self._build()
        spread.set_formula(1, 3, "SUM(A1:A50)")
        spread.set_formula(2, 3, "AVERAGE(A1:A50)")
        store = spread.aggregate_store
        assert store.state_count == 1
        assert store.stats.builds == 1  # the second formula shared the state
        spread.set_value(1, 3, 42)      # first subscriber unregisters
        assert store.state_count == 1   # the other still reads the range
        spread.set_value(2, 3, 42)      # last subscriber unregisters
        assert store.state_count == 0

    def test_rebuild_repairs_the_state_for_every_subscriber(self):
        spread = self._build()
        spread.set_formula(1, 3, "MIN(A1:A50)")
        spread.set_formula(2, 3, "MIN(A1:A50)")
        stats = spread.aggregate_store.stats
        spread.set_value(1, 1, 999)  # unique minimum leaves: support loss
        assert spread.get_value(1, 3) == 2
        assert spread.get_value(2, 3) == 2
        # The first recompute's rebuild repaired the *shared* state; the
        # second subscriber was served from it without another build.
        assert stats.support_losses == 1
        builds_after_repair = stats.builds
        spread.set_value(3, 1, 1)
        assert spread.get_value(1, 3) == 1
        assert spread.get_value(2, 3) == 1
        assert stats.builds == builds_after_repair  # deltas, no more builds

    def test_small_ranges_promote_once_enough_formulas_share_them(self):
        spread = DataSpread()
        store = spread.aggregate_store
        store.min_state_subscribers = 4
        spread.import_rows([[row] for row in range(1, 11)])
        # Area 10 is far below the default floor: the first readers get no
        # state...
        for slot in range(1, 4):
            spread.set_formula(slot, 3, "SUM(A1:A10)")
        assert store.state_count == 0
        # ...but the fourth distinct formula crosses the interest
        # threshold, and one shared state amortises across all of them.
        spread.set_formula(4, 3, "SUM(A1:A10)")
        assert store.state_count == 1
        deltas_before = store.stats.deltas
        spread.set_value(5, 1, 50)
        assert store.stats.deltas == deltas_before + 1
        for slot in range(1, 5):
            assert spread.get_value(slot, 3) == _full_read_sum(spread, "A1:A10")


class TestColumnarBitIdentity:
    """The vectorized build must agree with the scalar fold bit-for-bit."""

    def _assert_states_identical(self, left, right, context=None):
        for slot in RangeAggregateState.__slots__:
            a, b = getattr(left, slot), getattr(right, slot)
            assert a == b or (a != a and b != b), (slot, a, b, context)

    def test_property_random_mixed_slabs(self):
        from repro.formula import columnar

        rng = random.Random(17)
        pool = [
            lambda: rng.randint(-50, 50),
            lambda: rng.randint(-(1 << 30), 1 << 30),   # beyond 2**28: inexact
            lambda: rng.uniform(-10, 10),               # non-integral floats
            lambda: float(rng.randint(-5, 5)),          # integral floats
            lambda: float("nan"),                       # ordering poison
            lambda: float("inf"),
            lambda: -0.0,
            lambda: None,
            lambda: "text",
            lambda: rng.choice([True, False]),
        ]
        for trial in range(200):
            kinds = rng.sample(pool, rng.randint(1, len(pool)))
            values = [rng.choice(kinds)() for _ in range(rng.randint(0, 60))]
            vectorized, used_numpy = columnar.build_state(values)
            scalar, _ = columnar.build_state(values, force_python=True)
            assert used_numpy
            self._assert_states_identical(vectorized, scalar, trial)

    def test_nan_prefix_min_max_matches_scalar_exactly(self):
        from repro.formula import columnar

        values = [5, 2, 9, float("nan"), 1, 7]
        vectorized, _ = columnar.build_state(values)
        scalar, _ = columnar.build_state(values, force_python=True)
        # The scalar loop stops tracking order at the first NaN: the
        # dormant min/max components cover only the prefix before it.
        assert not vectorized.min_valid and not vectorized.max_valid
        self._assert_states_identical(vectorized, scalar)
        assert vectorized.min_value == 2 and vectorized.max_value == 9

    def test_huge_integers_bail_to_the_scalar_fold(self):
        from repro.formula import columnar

        values = [1, 10**400, 3]  # float() overflows: NaN-poison semantics
        state, used_numpy = columnar.build_state(values)
        assert not used_numpy  # OverflowError routed to the python fold
        scalar, _ = columnar.build_state(values, force_python=True)
        self._assert_states_identical(state, scalar)
        assert state.poisoned == 1

    def test_counta_and_empty_cell_semantics(self):
        from repro.formula import columnar

        values = [None, "x", True, 4, None, 2.5]
        vectorized, _ = columnar.build_state(values)
        assert vectorized.filled == 4   # text/bools filled, blanks not
        assert vectorized.count == 2    # only the two numerics
        assert vectorized.inexact == 1  # the non-integral float
        scalar, _ = columnar.build_state(values, force_python=True)
        self._assert_states_identical(vectorized, scalar)

    def test_engine_cold_build_uses_the_columnar_path(self):
        spread = DataSpread()
        spread.aggregate_store.min_state_area = 1
        spread.import_rows([[row] for row in range(1, 101)])
        assert spread.set_formula(1, 3, "SUM(A1:A100)") == 5050
        stats = spread.aggregate_store.stats
        assert stats.builds == 1
        assert stats.columnar_builds == 1

    def test_scalar_and_columnar_engines_agree_on_mixed_content(self, monkeypatch):
        from repro.formula import columnar

        rng = random.Random(23)
        rows = []
        for row in range(1, 81):
            value = rng.choice(
                [row, row * 1.5, None, "t", True, float(row), -0.0])
            rows.append([value])

        def build():
            spread = DataSpread()
            spread.aggregate_store.min_state_area = 1
            spread.import_rows(rows)
            results = []
            for slot, name in enumerate(
                ("SUM", "COUNT", "COUNTA", "AVERAGE", "MIN", "MAX"), start=1
            ):
                results.append(spread.set_formula(slot, 3, f"{name}(A1:A80)"))
            spread.set_value(40, 1, 7)
            results.extend(spread.get_value(slot, 3) for slot in range(1, 7))
            return results

        def unsupported(values):
            raise columnar._Unsupported

        vectorized = build()
        monkeypatch.setattr(columnar, "_build_numpy", unsupported)
        assert build() == vectorized
