"""Optimal recursive-decomposition dynamic programming (Section IV-D).

The DP considers every weighted sub-rectangle of the sheet's bounding box and
chooses the cheapest of: not storing it (when empty), storing it as a single
table, or cutting it horizontally or vertically and recursing.  Run on the
weighted grid this is optimal within the class of recursive decompositions
(Theorems 2 and 5).
"""

from __future__ import annotations

import time
from typing import Collection, Sequence

from repro.decomposition.cost import DEFAULT_KINDS, RegionCostModel
from repro.decomposition.dp_vectorized import solve_vectorized
from repro.decomposition.result import DecomposedRegion, DecompositionResult
from repro.grid.weighted import WeightedGrid
from repro.models.base import ModelKind
from repro.storage.costs import CostParameters

#: Weighted grids larger than this (in weighted cells) are rejected to keep
#: the O(n^5) DP tractable; callers should fall back to the greedy variants.
DEFAULT_MAX_WEIGHTED_CELLS = 4_096


def decompose_dp(
    coordinates: Collection[tuple[int, int]],
    costs: CostParameters,
    *,
    kinds: Sequence[ModelKind] = DEFAULT_KINDS,
    use_weighted: bool = True,
    max_weighted_cells: int = DEFAULT_MAX_WEIGHTED_CELLS,
    max_columns: int | None = None,
) -> DecompositionResult:
    """Optimal recursive decomposition of the filled cells.

    Parameters
    ----------
    coordinates:
        Filled (row, column) pairs of the sheet.
    costs:
        The storage cost constants.
    kinds:
        Primitive model kinds the plan may use.
    use_weighted:
        Collapse structurally identical rows/columns first (Theorem 5: no
        loss of optimality, large speed-up).
    max_weighted_cells:
        Refuse grids whose weighted area exceeds this bound.
    max_columns:
        Database column-count limit (Appendix A-C4); ``None`` disables it.
    """
    started = time.perf_counter()
    coordinates = set(coordinates)
    if not coordinates:
        return DecompositionResult(
            algorithm="dp", regions=[], cost=0.0, costs=costs, elapsed_seconds=0.0
        )
    grid = (
        WeightedGrid.from_coordinates(coordinates)
        if use_weighted
        else WeightedGrid.dense_from_coordinates(coordinates)
    )
    rows, columns = grid.shape
    if rows * columns > max_weighted_cells:
        raise ValueError(
            f"weighted grid of {rows}x{columns} cells exceeds the DP budget of "
            f"{max_weighted_cells}; use the greedy algorithms instead"
        )

    def run(pass_kinds: Sequence[ModelKind]) -> tuple[float, list[DecomposedRegion]]:
        model = RegionCostModel(grid, costs, kinds=pass_kinds, max_columns=max_columns)
        return _finalize_rcv(*solve_vectorized(model), costs)

    # RCV regions share a single physical table whose fixed cost is charged
    # up-front; the per-region search therefore under-counts RCV by s1.  To
    # stay optimal we compare the RCV-enabled plan (plus the up-front charge)
    # with the best plan that avoids RCV altogether.
    total_cost, regions = run(kinds)
    subproblems = rows * columns
    non_rcv_kinds = tuple(kind for kind in kinds if kind is not ModelKind.RCV)
    if (
        ModelKind.RCV in kinds
        and non_rcv_kinds
        and any(region.kind is ModelKind.RCV for region in regions)
    ):
        alt_cost, alt_regions = run(non_rcv_kinds)
        subproblems += rows * columns
        if alt_cost < total_cost:
            total_cost, regions = alt_cost, alt_regions

    return DecompositionResult(
        algorithm="dp",
        regions=regions,
        cost=total_cost,
        costs=costs,
        elapsed_seconds=time.perf_counter() - started,
        metadata={"weighted_shape": (rows, columns), "subproblems": subproblems},
    )


# ---------------------------------------------------------------------- #
# The textbook memoised formulation: one sub-rectangle at a time, easy to
# read and too slow to run.  ``decompose_dp`` never calls it; it is the
# reference the tests hold ``solve_vectorized`` against.
def _optimal(
    top: int,
    left: int,
    bottom: int,
    right: int,
    model: RegionCostModel,
    memo: dict,
    choice: dict,
) -> float:
    key = (top, left, bottom, right)
    cached = memo.get(key)
    if cached is not None:
        return cached
    filled = model.filled(top, left, bottom, right)
    if filled == 0:
        memo[key] = 0.0
        choice[key] = ("empty", -1)
        return 0.0
    best = model.best_choice(top, left, bottom, right)
    best_cost = best.cost
    best_action: tuple[str, int] = ("table", -1)
    # Horizontal cuts: between weighted rows i and i+1.
    for cut in range(top, bottom):
        cost = (
            _optimal(top, left, cut, right, model, memo, choice)
            + _optimal(cut + 1, left, bottom, right, model, memo, choice)
        )
        if cost < best_cost:
            best_cost = cost
            best_action = ("horizontal", cut)
    # Vertical cuts: between weighted columns j and j+1.
    for cut in range(left, right):
        cost = (
            _optimal(top, left, bottom, cut, model, memo, choice)
            + _optimal(top, cut + 1, bottom, right, model, memo, choice)
        )
        if cost < best_cost:
            best_cost = cost
            best_action = ("vertical", cut)
    memo[key] = best_cost
    choice[key] = best_action
    return best_cost


def _reconstruct(
    top: int,
    left: int,
    bottom: int,
    right: int,
    model: RegionCostModel,
    choice: dict,
) -> list[DecomposedRegion]:
    action, cut = choice[(top, left, bottom, right)]
    if action == "empty":
        return []
    if action == "table":
        best = model.best_choice(top, left, bottom, right)
        return [
            DecomposedRegion(
                range=model.original_range(top, left, bottom, right),
                kind=best.kind,
                cost=best.cost,
                filled_cells=best.filled,
            )
        ]
    if action == "horizontal":
        return (
            _reconstruct(top, left, cut, right, model, choice)
            + _reconstruct(cut + 1, left, bottom, right, model, choice)
        )
    return (
        _reconstruct(top, left, bottom, cut, model, choice)
        + _reconstruct(top, cut + 1, bottom, right, model, choice)
    )


def _finalize_rcv(
    total_cost: float, regions: list[DecomposedRegion], costs: CostParameters
) -> tuple[float, list[DecomposedRegion]]:
    """Charge the shared RCV table-instantiation cost once, if any RCV region exists."""
    if any(region.kind is ModelKind.RCV for region in regions) and costs.table_cost:
        total_cost += costs.table_cost
    return total_cost, regions
