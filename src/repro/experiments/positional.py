"""Section V / VII-C experiments: Table II, Figure 18 and Figures 22-24.

These measure presentational access *with updates*: how the three positional
mapping schemes behave for fetch / insert / delete as the sheet grows, and how
the ROM and RCV primitive models behave for region selects, region updates and
row inserts as density, column count and row count vary.

Sizes are scaled down relative to the paper (10^7-row sheets do not fit a
pure-Python test run) but span enough orders of magnitude to show the same
complexity trends.

A reproduction artefact, not a benchmark: the timings exist to show the
shapes of Table II and Figures 18 and 22-24; engine speed is measured by
``bench/``.
"""

from __future__ import annotations

import random
import time

from repro.experiments.reporting import ExperimentResult
from repro.grid.cell import Cell
from repro.grid.range import RangeRef
from repro.models.rcv import RowColumnValueModel
from repro.models.rom import RowOrientedModel
from repro.positional import create_mapping
from repro.storage.btree import BPlusTree
from repro.workloads.synthetic import generate_dense_sheet


# ---------------------------------------------------------------------- #
# Table II — position-as-is on ROM and RCV
# ---------------------------------------------------------------------- #
def run_table2(*, scale: float = 1.0, seed: int = 3) -> ExperimentResult:
    """Table II: row insert + fetch cost when positions are stored as-is.

    The paper stores the spreadsheet's explicit row numbers in the database
    (ROM: one tuple per row; RCV: one tuple per cell, each carrying its row
    number) and indexes them with a B+-tree.  Inserting a spreadsheet row in
    the middle then forces every subsequent tuple's row number — and its
    index entry — to be rewritten, which is what makes RCV roughly an order
    of magnitude slower than ROM (it has ``columns``-times more tuples to
    renumber).  Fetching a window is an index range scan and stays cheap for
    both.  The sheet is scaled down from the paper's 10^6 cells.
    """
    del seed
    rows = max(int(20_000 * scale), 1_000)
    columns = 10

    rom_index = BPlusTree()          # row number -> row record
    for row in range(1, rows + 1):
        rom_index.insert(row, tuple((row * 31 + column) % 1_000 for column in range(columns)))
    rcv_index = BPlusTree()          # (row, column) -> value
    for row in range(1, rows + 1):
        for column in range(1, columns + 1):
            rcv_index.insert((row, column), (row * 31 + column) % 1_000)

    middle = rows // 2

    started = time.perf_counter()
    _cascade_rom_insert(rom_index, middle, rows, columns)
    rom_insert = time.perf_counter() - started

    started = time.perf_counter()
    _cascade_rcv_insert(rcv_index, middle, rows, columns)
    rcv_insert = time.perf_counter() - started

    started = time.perf_counter()
    fetched = list(rom_index.range_scan(middle, middle + 99))
    rom_fetch = time.perf_counter() - started
    started = time.perf_counter()
    fetched_rcv = list(rcv_index.range_scan((middle, 1), (middle + 99, columns)))
    rcv_fetch = time.perf_counter() - started
    assert fetched and fetched_rcv

    rows_out = [
        {"operation": "Insert (row in the middle)", "rcv_ms": round(1000 * rcv_insert, 1),
         "rom_ms": round(1000 * rom_insert, 1)},
        {"operation": "Fetch (100-row window)", "rcv_ms": round(1000 * rcv_fetch, 2),
         "rom_ms": round(1000 * rom_fetch, 2)},
    ]
    return ExperimentResult(
        experiment_id="table2",
        title="Storing position as-is: insert and fetch",
        rows=rows_out,
        paper_reference="Table II",
        notes=[
            f"Sheet of {rows} rows x {columns} columns (scaled down from the paper's 10^6 cells).",
            "Expected shape: insert is far slower for RCV than ROM; fetch is cheap for both.",
        ],
    )


def _cascade_rom_insert(index: BPlusTree, position: int, rows: int, columns: int) -> None:
    """Insert a ROM row at ``position`` by renumbering all subsequent rows."""
    for row in range(rows, position - 1, -1):
        record = index.get(row)
        index.delete(row)
        index.insert(row + 1, record)
    index.insert(position, tuple(0 for _ in range(columns)))


def _cascade_rcv_insert(index: BPlusTree, position: int, rows: int, columns: int) -> None:
    """Insert an RCV row at ``position`` by renumbering every subsequent cell."""
    for row in range(rows, position - 1, -1):
        for column in range(1, columns + 1):
            value = index.get((row, column))
            index.delete((row, column))
            index.insert((row + 1, column), value)
    for column in range(1, columns + 1):
        index.insert((position, column), 0)


# ---------------------------------------------------------------------- #
# Figure 18 — positional mapping schemes
# ---------------------------------------------------------------------- #
def run_fig18(*, scale: float = 1.0, seed: int = 17, operations: int = 50) -> ExperimentResult:
    """Figure 18: fetch/insert/delete latency of the three positional schemes."""
    sizes = [int(size * scale) for size in (1_000, 10_000, 100_000)]
    sizes = [max(size, 100) for size in sizes]
    rng = random.Random(seed)
    rows = []
    for size in sizes:
        row: dict[str, object] = {"rows": size}
        for scheme in ("as-is", "monotonic", "hierarchical"):
            mapping = create_mapping(scheme)
            mapping.extend(range(size))
            fetch_time = _time_operations(
                lambda m=mapping: m.fetch(rng.randint(1, len(m))), operations
            )
            insert_time = _time_operations(
                lambda m=mapping: m.insert_at(rng.randint(1, len(m) + 1), -1), operations
            )
            delete_time = _time_operations(
                lambda m=mapping: m.delete_at(rng.randint(1, len(m))), operations
            )
            prefix = scheme.replace("-", "")
            row[f"{prefix}_fetch_ms"] = fetch_time
            row[f"{prefix}_insert_ms"] = insert_time
            row[f"{prefix}_delete_ms"] = delete_time
        rows.append(row)
    return ExperimentResult(
        experiment_id="fig18",
        title="Positional mapping performance: fetch / insert / delete",
        rows=rows,
        paper_reference="Figure 18",
        notes=[
            "Expected shape: as-is degrades on insert/delete; hierarchical stays flat for "
            "all three; monotonic historically degraded on fetch (the paper's Figure 18a "
            "story) but now fetches O(1) off its sorted key list (PR 5).",
        ],
    )


# ---------------------------------------------------------------------- #
# Figures 22-24 — ROM vs RCV for update-range / insert-row / select
# ---------------------------------------------------------------------- #
def run_fig22(*, scale: float = 1.0, seed: int = 23) -> ExperimentResult:
    """Figure 22: update-range time vs density, column count and row count."""
    return _rom_rcv_sweep("fig22", "Update a 100x20 region", _measure_update, scale, seed,
                          reference="Figure 22")


def run_fig23(*, scale: float = 1.0, seed: int = 29) -> ExperimentResult:
    """Figure 23: insert-row time vs density, column count and row count."""
    return _rom_rcv_sweep("fig23", "Insert one row", _measure_insert_row, scale, seed,
                          reference="Figure 23")


def run_fig24(*, scale: float = 1.0, seed: int = 31) -> ExperimentResult:
    """Figure 24: select (scroll) time vs density, column count and row count."""
    return _rom_rcv_sweep("fig24", "Select a 1000x20 region", _measure_select, scale, seed,
                          reference="Figure 24")


def _rom_rcv_sweep(experiment_id: str, title: str, measure, scale: float, seed: int,
                   *, reference: str) -> ExperimentResult:
    base_rows = max(int(3_000 * scale), 300)
    base_columns = 40
    rows = []
    # Sweep density at fixed size.
    for density in (0.2, 0.6, 1.0):
        sheet = generate_dense_sheet(base_rows, base_columns, density=density, seed=seed)
        rows.append({"sweep": "density", "value": density, **_measure_both(sheet, measure)})
    # Sweep column count at full density.
    for columns in (10, 40, 80):
        sheet = generate_dense_sheet(base_rows, columns, seed=seed + columns)
        rows.append({"sweep": "columns", "value": columns, **_measure_both(sheet, measure)})
    # Sweep row count at full density.
    for row_count in (base_rows // 4, base_rows, base_rows * 3):
        sheet = generate_dense_sheet(row_count, base_columns, seed=seed + row_count)
        rows.append({"sweep": "rows", "value": row_count, **_measure_both(sheet, measure)})
    return ExperimentResult(
        experiment_id=experiment_id,
        title=f"{title}: ROM vs RCV",
        rows=rows,
        paper_reference=reference,
    )


def _measure_both(sheet, measure) -> dict[str, float]:
    rom = RowOrientedModel.from_sheet(sheet)
    rcv = RowColumnValueModel.from_sheet(sheet)
    return {"rom_ms": measure(rom), "rcv_ms": measure(rcv)}


def _measure_update(model) -> float:
    region = model.region()
    rows = min(100, region.rows)
    columns = min(20, region.columns)
    started = time.perf_counter()
    for row in range(region.top, region.top + rows):
        for column in range(region.left, region.left + columns):
            model.update_cell(row, column, Cell(value=1))
    return round(1000 * (time.perf_counter() - started), 3)


def _measure_insert_row(model) -> float:
    region = model.region()
    middle = (region.top + region.bottom) // 2
    started = time.perf_counter()
    model.insert_row_after(middle)
    elapsed = time.perf_counter() - started
    return round(1000 * elapsed, 3)


def _measure_select(model) -> float:
    region = model.region()
    rows = min(1_000, region.rows)
    columns = min(20, region.columns)
    window = RangeRef(region.top, region.left, region.top + rows - 1, region.left + columns - 1)
    started = time.perf_counter()
    model.get_cells(window)
    return round(1000 * (time.perf_counter() - started), 3)


def _time_operations(operation, count: int) -> float:
    started = time.perf_counter()
    for _ in range(count):
        operation()
    return round(1000 * (time.perf_counter() - started) / count, 4)
