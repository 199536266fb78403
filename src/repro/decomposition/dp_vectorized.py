"""Vectorised recursive-decomposition DP.

The textbook formulation in :mod:`repro.decomposition.recursive_dp` memoises
one sub-rectangle at a time, which is easy to read but slow in pure Python
once the weighted grid grows past a few hundred cells.  This module computes
exactly the same optimum with numpy: rectangles are processed in increasing
(height, width) order, and for every cut position the candidate costs of
*all* rectangles of that shape are evaluated in one array operation.

The result is identical to that memoised reference (the test suite asserts
this on randomised grids); only the constant factor changes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.decomposition.cost import RegionCostModel
from repro.decomposition.result import DecomposedRegion
from repro.models.base import ModelKind

#: Action codes stored per rectangle shape.
_EMPTY, _TABLE, _HCUT, _VCUT = 0, 1, 2, 3


def solve_vectorized(model: RegionCostModel) -> tuple[float, list[DecomposedRegion]]:
    """Optimal recursive decomposition over the whole weighted grid."""
    rows, columns = model.grid.shape
    if rows == 0 or columns == 0:
        return 0.0, []
    costs = model.costs
    kinds = model.kinds
    prefix = model._prefix               # (rows+1, columns+1) filled-cell prefix sums
    row_prefix = model._row_prefix       # original-row prefix sums
    col_prefix = model._col_prefix       # original-column prefix sums

    opt: dict[tuple[int, int], np.ndarray] = {}
    action: dict[tuple[int, int], np.ndarray] = {}
    cut_position: dict[tuple[int, int], np.ndarray] = {}

    for height in range(1, rows + 1):
        original_heights = (row_prefix[height:] - row_prefix[:-height]).astype(np.float64)
        for width in range(1, columns + 1):
            start_rows = rows - height + 1
            start_columns = columns - width + 1
            filled = (
                prefix[height: height + start_rows, width: width + start_columns]
                - prefix[:start_rows, width: width + start_columns]
                - prefix[height: height + start_rows, :start_columns]
                + prefix[:start_rows, :start_columns]
            )
            original_widths = (col_prefix[width:] - col_prefix[:-width]).astype(np.float64)
            region_rows = original_heights[:, None]
            region_columns = original_widths[None, :]

            best = _single_table_costs(
                filled, region_rows, region_columns, costs, kinds, model.max_columns
            )
            act = np.full(best.shape, _TABLE, dtype=np.int8)
            cut = np.full(best.shape, -1, dtype=np.int32)

            for offset in range(1, height):
                top_part = opt[(offset, width)][:start_rows, :start_columns]
                bottom_part = opt[(height - offset, width)][offset: offset + start_rows, :start_columns]
                candidate = top_part + bottom_part
                better = candidate < best
                best = np.where(better, candidate, best)
                act = np.where(better, _HCUT, act)
                cut = np.where(better, offset, cut)

            for offset in range(1, width):
                left_part = opt[(height, offset)][:start_rows, :start_columns]
                right_part = opt[(height, width - offset)][:start_rows, offset: offset + start_columns]
                candidate = left_part + right_part
                better = candidate < best
                best = np.where(better, candidate, best)
                act = np.where(better, _VCUT, act)
                cut = np.where(better, offset, cut)

            empty = filled == 0
            best = np.where(empty, 0.0, best)
            act = np.where(empty, _EMPTY, act)

            opt[(height, width)] = best
            action[(height, width)] = act
            cut_position[(height, width)] = cut

    total = float(opt[(rows, columns)][0, 0])
    regions: list[DecomposedRegion] = []
    _reconstruct(model, action, cut_position, 0, 0, rows, columns, regions)
    return total, regions


def _single_table_costs(
    filled: np.ndarray,
    region_rows: np.ndarray,
    region_columns: np.ndarray,
    costs,
    kinds: Sequence[ModelKind],
    max_columns: int | None,
) -> np.ndarray:
    """Vectorised ``RegionCostModel.best_choice`` cost for one rectangle shape."""
    best = np.full(filled.shape, np.inf)
    if ModelKind.ROM in kinds:
        rom = (
            costs.table_cost
            + costs.cell_cost * region_rows * region_columns
            + costs.column_cost * region_columns
            + costs.row_cost * region_rows
        )
        rom = rom + np.zeros_like(best)
        if max_columns is not None:
            rom = np.where(region_columns + np.zeros_like(best) > max_columns, np.inf, rom)
        best = np.minimum(best, rom)
    if ModelKind.COM in kinds:
        com = (
            costs.table_cost
            + costs.cell_cost * region_rows * region_columns
            + costs.column_cost * region_rows
            + costs.row_cost * region_columns
        )
        com = com + np.zeros_like(best)
        if max_columns is not None:
            com = np.where(region_rows + np.zeros_like(best) > max_columns, np.inf, com)
        best = np.minimum(best, com)
    if ModelKind.RCV in kinds:
        best = np.minimum(best, costs.rcv_tuple_cost * filled)
    return best


def _reconstruct(
    model: RegionCostModel,
    action: dict[tuple[int, int], np.ndarray],
    cut_position: dict[tuple[int, int], np.ndarray],
    top: int,
    left: int,
    height: int,
    width: int,
    out: list[DecomposedRegion],
) -> None:
    act = int(action[(height, width)][top, left])
    if act == _EMPTY:
        return
    if act == _TABLE:
        choice = model.best_choice(top, left, top + height - 1, left + width - 1)
        out.append(
            DecomposedRegion(
                range=model.original_range(top, left, top + height - 1, left + width - 1),
                kind=choice.kind,
                cost=choice.cost,
                filled_cells=choice.filled,
            )
        )
        return
    offset = int(cut_position[(height, width)][top, left])
    if act == _HCUT:
        _reconstruct(model, action, cut_position, top, left, offset, width, out)
        _reconstruct(model, action, cut_position, top + offset, left, height - offset, width, out)
    else:
        _reconstruct(model, action, cut_position, top, left, height, offset, out)
        _reconstruct(model, action, cut_position, top, left + offset, height, width - offset, out)
