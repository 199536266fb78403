"""Bounds used in the evaluation (Theorems 3 and 4, Figure 13's OPT, Figure 14).

* ``optimal_lower_bound`` — the OPT line of Figure 13: the cost of storing
  only the non-empty cells in a single ROM table, i.e. ignoring the overhead
  of extra tables and of empty cells.
* ``table_count_upper_bound`` — the Theorem-4 bound: for each connected
  component's bounding rectangle, the optimal decomposition uses at most
  ``floor(e * s2 / s1 + 1)`` tables, where ``e`` is the number of empty cells
  in that rectangle.  Summing over components bounds the whole sheet and,
  with Theorem 3, bounds the additive gap of recursive decomposition.
"""

from __future__ import annotations

from typing import Collection

from repro.grid.components import connected_components
from repro.storage.costs import CostParameters


def optimal_lower_bound(
    coordinates: Collection[tuple[int, int]], costs: CostParameters
) -> float:
    """Lower bound on the cost of any hybrid data model (the OPT line of Fig. 13).

    The paper's bound is the cost of storing only the non-empty cells in a
    single ROM table (no empty-cell or extra-table overhead).  Because this
    reproduction also allows COM and RCV regions, the bound is the minimum of
    the three analogous ideals: a ROM/COM charged only for distinct rows and
    columns actually used, and an RCV charged one tuple per filled cell.
    """
    coordinates = set(coordinates)
    if not coordinates:
        return 0.0
    distinct_rows = len({row for row, _ in coordinates})
    distinct_columns = len({column for _, column in coordinates})
    base = costs.table_cost + costs.cell_cost * len(coordinates)
    rom_style = base + costs.column_cost * distinct_columns + costs.row_cost * distinct_rows
    com_style = base + costs.column_cost * distinct_rows + costs.row_cost * distinct_columns
    rcv_style = costs.rcv_cost(len(coordinates))
    return min(rom_style, com_style, rcv_style)


def table_count_upper_bound(
    coordinates: Collection[tuple[int, int]], costs: CostParameters
) -> int:
    """Theorem-4 upper bound on the number of tables in the optimal plan."""
    coordinates = set(coordinates)
    if not coordinates:
        return 0
    if costs.table_cost == 0:
        # With no per-table cost the bound degenerates; every cell may get its
        # own table.
        return len(coordinates)
    total = 0
    for component in connected_components(coordinates):
        empty = component.box.area - component.cell_count
        total += int(empty * costs.cell_cost / costs.table_cost + 1)
    return total


def recursive_decomposition_gap(
    coordinates: Collection[tuple[int, int]], costs: CostParameters
) -> float:
    """Theorem-3 additive bound: ``s1 * k(k-1)/2`` with k from Theorem 4."""
    k = table_count_upper_bound(coordinates, costs)
    return costs.table_cost * k * (k - 1) / 2
