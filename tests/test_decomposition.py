"""Tests for the hybrid-model optimisation algorithms (Section IV)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.decomposition import (
    decompose_aggressive,
    decompose_dp,
    decompose_greedy,
    evaluate_primitive_models,
    incremental_decompose,
    migration_cost,
    optimal_lower_bound,
    table_count_upper_bound,
)
from repro.decomposition.cost import RegionCostModel, primitive_costs
from repro.decomposition.dp_vectorized import solve_vectorized
from repro.decomposition.recursive_dp import _optimal, _reconstruct
from repro.grid.range import RangeRef
from repro.grid.weighted import WeightedGrid
from repro.models.base import ModelKind
from repro.models.hybrid import HybridDataModel
from repro.grid.sheet import Sheet
from repro.storage.costs import IDEAL_COSTS, POSTGRES_COSTS


def block(top, left, rows, columns):
    return {(top + r, left + c) for r in range(rows) for c in range(columns)}


TWO_TABLES = block(1, 1, 20, 5) | block(40, 10, 15, 4)
ONE_TABLE = block(1, 1, 10, 10)
SPARSE = {(1, 1), (50, 50), (100, 3), (7, 90)}

def assert_solvers_agree(grid, costs):
    """``solve_vectorized`` (what ``decompose_dp`` runs) against the
    textbook memoised solver kept beside it as the reference: the same
    optimum, and each plan adds up to it."""
    model = RegionCostModel(grid, costs)
    corners = (0, 0, grid.shape[0] - 1, grid.shape[1] - 1)
    choice = {}
    reference = _optimal(*corners, model, {}, choice)
    cost, regions = solve_vectorized(model)
    assert cost == pytest.approx(reference)
    assert sum(region.cost for region in regions) == pytest.approx(cost)
    assert sum(region.cost for region in _reconstruct(*corners, model, choice)) \
        == pytest.approx(reference)


coords_strategy = st.sets(
    st.tuples(st.integers(1, 25), st.integers(1, 15)), min_size=1, max_size=80
)


class TestRegionCostModel:
    def test_filled_counts(self):
        grid = WeightedGrid.from_coordinates(ONE_TABLE)
        model = RegionCostModel(grid, POSTGRES_COSTS)
        rows, columns = grid.shape
        assert model.filled(0, 0, rows - 1, columns - 1) == 100

    def test_original_dimensions(self):
        grid = WeightedGrid.from_coordinates(ONE_TABLE)
        model = RegionCostModel(grid, POSTGRES_COSTS)
        rows, columns = grid.shape
        assert model.original_dimensions(0, 0, rows - 1, columns - 1) == (10, 10)

    def test_best_choice_prefers_cheaper_model(self):
        grid = WeightedGrid.from_coordinates(SPARSE)
        model = RegionCostModel(grid, POSTGRES_COSTS)
        rows, columns = grid.shape
        choice = model.best_choice(0, 0, rows - 1, columns - 1)
        assert choice.kind is ModelKind.RCV   # 4 loose cells: RCV beats ROM/COM

    def test_max_columns_constraint(self):
        grid = WeightedGrid.from_coordinates(block(1, 1, 2, 50))
        model = RegionCostModel(grid, POSTGRES_COSTS, kinds=(ModelKind.ROM,), max_columns=10)
        rows, columns = grid.shape
        assert model.best_choice(0, 0, rows - 1, columns - 1).cost == float("inf")

    def test_split_cost_helpers_match_scalar(self):
        grid = WeightedGrid.dense_from_coordinates(TWO_TABLES)
        model = RegionCostModel(grid, POSTGRES_COSTS)
        rows, columns = grid.shape
        horizontal = model.horizontal_split_costs(0, 0, rows - 1, columns - 1)
        assert len(horizontal) == rows - 1
        # Cross-check one cut against the scalar path.
        cut = rows // 2
        upper = model.best_choice(0, 0, cut - 1, columns - 1)
        lower = model.best_choice(cut, 0, rows - 1, columns - 1)
        upper_cost = upper.cost if model.filled(0, 0, cut - 1, columns - 1) else 0.0
        lower_cost = lower.cost if model.filled(cut, 0, rows - 1, columns - 1) else 0.0
        assert horizontal[cut - 1] == pytest.approx(upper_cost + lower_cost)

    def test_primitive_costs_helper(self):
        costs = primitive_costs(ONE_TABLE, POSTGRES_COSTS)
        assert costs["rom"] == pytest.approx(POSTGRES_COSTS.rom_cost(10, 10))
        assert costs["rcv"] == pytest.approx(POSTGRES_COSTS.rcv_cost(100))
        assert primitive_costs(set(), POSTGRES_COSTS) == {"rom": 0.0, "com": 0.0, "rcv": 0.0}


class TestDecompositionAlgorithms:
    @pytest.mark.parametrize("algorithm", [decompose_dp, decompose_greedy, decompose_aggressive])
    def test_empty_input(self, algorithm):
        result = algorithm(set(), POSTGRES_COSTS)
        assert result.cost == 0.0
        assert result.regions == []

    @pytest.mark.parametrize("costs", [POSTGRES_COSTS, IDEAL_COSTS])
    def test_dp_never_worse_than_heuristics_or_primitives(self, costs):
        for coords in (TWO_TABLES, ONE_TABLE, SPARSE):
            dp = decompose_dp(coords, costs)
            greedy = decompose_greedy(coords, costs)
            aggressive = decompose_aggressive(coords, costs)
            primitives = evaluate_primitive_models(coords, costs)
            best_primitive = min(result.cost for result in primitives.values())
            assert dp.cost <= greedy.cost + 1e-6
            assert dp.cost <= aggressive.cost + 1e-6
            assert dp.cost <= best_primitive + 1e-6

    def test_dp_agrees_with_memoised_reference(self):
        # Unweighted comparison on the small dense grid, weighted on the rest
        # (the reference is too slow for large unweighted grids).
        assert_solvers_agree(WeightedGrid.dense_from_coordinates(ONE_TABLE), POSTGRES_COSTS)
        for coords in (TWO_TABLES, SPARSE):
            assert_solvers_agree(WeightedGrid.from_coordinates(coords), POSTGRES_COSTS)

    def test_dp_has_no_engine_switch_and_no_ignored_budget(self):
        """``time_budget_seconds=0`` used to return normally on the default
        engine: an option that is silently ignored is worse than none."""
        for removed in ({"engine": "recursive"}, {"time_budget_seconds": 0}):
            with pytest.raises(TypeError):
                decompose_dp(ONE_TABLE, POSTGRES_COSTS, **removed)

    def test_weighted_grid_does_not_hurt_optimality(self):
        for coords in (TWO_TABLES, ONE_TABLE):
            weighted = decompose_dp(coords, POSTGRES_COSTS, use_weighted=True)
            raw = decompose_dp(coords, POSTGRES_COSTS, use_weighted=False)
            assert weighted.cost == pytest.approx(raw.cost)

    def test_ideal_costs_split_distant_tables(self):
        result = decompose_dp(TWO_TABLES, IDEAL_COSTS)
        assert result.table_count >= 2
        covered = set()
        for region in result.regions:
            for address in region.range.addresses():
                covered.add((address.row, address.column))
        assert TWO_TABLES <= covered

    def test_plans_cover_all_filled_cells(self):
        for algorithm in (decompose_dp, decompose_greedy, decompose_aggressive):
            plan = algorithm(TWO_TABLES, IDEAL_COSTS)
            covered = set()
            for region in plan.regions:
                for address in region.range.addresses():
                    covered.add((address.row, address.column))
            assert TWO_TABLES <= covered

    def test_cost_equals_sum_of_regions_plus_shared_rcv(self):
        result = decompose_dp(SPARSE, POSTGRES_COSTS)
        expected = sum(region.cost for region in result.regions)
        if any(region.kind is ModelKind.RCV for region in result.regions):
            expected += POSTGRES_COSTS.table_cost
        assert result.cost == pytest.approx(expected)

    def test_max_weighted_cells_guard(self):
        big = block(1, 1, 40, 40) | {(r, r) for r in range(45, 120)}
        with pytest.raises(ValueError):
            decompose_dp(big, POSTGRES_COSTS, max_weighted_cells=10)

    def test_kind_restriction_respected(self):
        result = decompose_dp(SPARSE, POSTGRES_COSTS, kinds=(ModelKind.ROM,))
        assert all(region.kind is ModelKind.ROM for region in result.regions)

    def test_result_metadata_and_helpers(self):
        result = decompose_aggressive(TWO_TABLES, IDEAL_COSTS)
        assert result.algorithm == "aggressive"
        assert result.filled_cells == len(TWO_TABLES)
        assert sum(result.regions_by_kind().values()) == result.table_count
        plan = result.as_plan()
        assert all(isinstance(entry[0], RangeRef) for entry in plan)

    def test_plan_materialises_into_hybrid_model(self):
        sheet = Sheet()
        for row, column in TWO_TABLES:
            sheet.set_value(row, column, 1)
        plan = decompose_aggressive(sheet.coordinates(), IDEAL_COSTS)
        hybrid = HybridDataModel.from_decomposition(sheet, plan.as_plan())
        assert hybrid.cell_count() == len(TWO_TABLES)

    @settings(max_examples=25, deadline=None)
    @given(coords_strategy)
    def test_property_dp_is_lower_envelope(self, coords):
        dp = decompose_dp(coords, POSTGRES_COSTS)
        greedy = decompose_greedy(coords, POSTGRES_COSTS)
        aggressive = decompose_aggressive(coords, POSTGRES_COSTS)
        primitives = evaluate_primitive_models(coords, POSTGRES_COSTS)
        lower = optimal_lower_bound(coords, POSTGRES_COSTS)
        assert lower <= dp.cost + 1e-6
        assert dp.cost <= min(greedy.cost, aggressive.cost) + 1e-6
        assert dp.cost <= min(result.cost for result in primitives.values()) + 1e-6

    @settings(max_examples=15, deadline=None)
    @given(coords_strategy)
    def test_property_dp_agrees_with_memoised_reference(self, coords):
        assert_solvers_agree(WeightedGrid.from_coordinates(coords), IDEAL_COSTS)


class TestBounds:
    def test_lower_bound_below_any_plan(self):
        for coords in (TWO_TABLES, ONE_TABLE, SPARSE):
            assert optimal_lower_bound(coords, POSTGRES_COSTS) <= decompose_dp(coords, POSTGRES_COSTS).cost + 1e-6

    def test_table_count_bound_positive(self):
        assert table_count_upper_bound(ONE_TABLE, POSTGRES_COSTS) >= 1
        assert table_count_upper_bound(set(), POSTGRES_COSTS) == 0

    def test_bound_grows_with_emptiness(self):
        dense = block(1, 1, 10, 10)
        ragged = dense - {(r, 10) for r in range(1, 9)}
        assert table_count_upper_bound(ragged, POSTGRES_COSTS) >= table_count_upper_bound(dense, POSTGRES_COSTS)

    def test_zero_table_cost_degenerate_bound(self):
        assert table_count_upper_bound(ONE_TABLE, IDEAL_COSTS) == len(ONE_TABLE)


class TestIncremental:
    def test_keep_when_eta_large(self):
        old = decompose_aggressive(TWO_TABLES, POSTGRES_COSTS)
        drifted = TWO_TABLES | {(70, 2), (71, 2), (72, 2)}
        result = incremental_decompose(drifted, old.regions, POSTGRES_COSTS, eta=1e9)
        assert result.metadata["migrated"] is False
        assert result.metadata["migration_cells"] == 0

    def test_migrate_when_eta_zero(self):
        old = decompose_aggressive(TWO_TABLES, POSTGRES_COSTS)
        drifted = TWO_TABLES | block(80, 1, 10, 5)
        result = incremental_decompose(drifted, old.regions, POSTGRES_COSTS, eta=0.0)
        fresh = decompose_aggressive(drifted, POSTGRES_COSTS)
        assert result.cost == pytest.approx(fresh.cost)

    def test_migration_cost_exact_match_is_free(self):
        old = decompose_dp(ONE_TABLE, POSTGRES_COSTS)
        assert migration_cost(ONE_TABLE, old.regions, old.regions) == 0

    def test_migration_cost_counts_moved_cells(self):
        old_plan = [(RangeRef(1, 1, 10, 10), ModelKind.ROM)]
        new = decompose_dp(TWO_TABLES, IDEAL_COSTS)
        moved = migration_cost(TWO_TABLES, old_plan, new.regions)
        assert 0 < moved <= len(TWO_TABLES)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            incremental_decompose(ONE_TABLE, [], POSTGRES_COSTS, algorithm="magic")
