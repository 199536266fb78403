"""Query experiment: pushdown/streaming vs naive materialisation, and
what a live view reads per source edit.

The ``query`` experiment measures what the generative query subsystem's
planner buys over the obvious implementation:

* **Pushdown ladder.**  For a ladder of region sizes (10k / 100k / 1M
  rows, scaled by ``--scale``), the same selective
  ``select(region).where(amount > t).limit(k)`` query runs two ways —
  through the planner (predicate + projection pushed into chunked bulk
  model reads, the LIMIT short-circuiting the scan) and naively
  (materialise the whole region into a ``TableValue``, then filter in
  Python).  Each row records wall time and the hybrid model's bulk-read
  counters, so the speedup is explained by cells actually read, not just
  clock noise.  Both paths must return identical rows.
* **Live-view row.**  A live view over the smallest scaled region takes a
  stream of point edits, each refreshing the view reactively (sync
  engine).  The row reports the cells the hybrid model was asked for per
  edit — a count, which repeats exactly; what an edit costs on the clock
  is ``bench/``'s ``edit_p50_ms`` on ``query_analytics`` — and the
  refreshed view is compared against a naive re-materialisation oracle
  after every edit.

``scripts/check_bench.py`` fails the ``bench-query`` target when the
pushdown speedup at the largest ladder size drops below the floor, when
either path disagrees with the other, or when the live view stops
refreshing reactively, diverges from its oracle, or reads more cells per
edit than one row of the columns its query reads.
"""

from __future__ import annotations

import time
from typing import Any

from repro.engine.dataspread import DataSpread
from repro.engine.relational import TableValue
from repro.experiments.reporting import ExperimentResult
from repro.grid.range import RangeRef
from repro.grid.sheet import Sheet
from repro.query import col, select

#: Region-size ladder (data rows), scaled by the ``scale`` option.
_LADDER = (10_000, 100_000, 1_000_000)
#: Selectivity: roughly this fraction of rows passes the predicate.
_MATCH_FRACTION = 0.01
#: LIMIT applied by the streamed query.
_LIMIT = 50
#: Point edits timed against the live view.
_EDITS = 20

_STATUSES = ("open", "overdue", "closed", "draft")


def _build(rows: int) -> tuple[DataSpread, RangeRef, int]:
    """A spreadsheet with ``rows`` data rows of (id, amount, status)."""
    sheet = Sheet()
    sheet.set_value(1, 1, "id")
    sheet.set_value(1, 2, "amount")
    sheet.set_value(1, 3, "status")
    for row in range(2, rows + 2):
        sheet.set_value(row, 1, row - 1)
        sheet.set_value(row, 2, (row * 7919) % 10_000)
        sheet.set_value(row, 3, _STATUSES[row % len(_STATUSES)])
    spread = DataSpread.from_sheet(sheet)
    threshold = int(10_000 * (1.0 - _MATCH_FRACTION))
    return spread, RangeRef(1, 1, rows + 1, 3), threshold


def _naive_rows(spread: DataSpread, region: RangeRef, threshold: int,
                limit: int | None) -> list[tuple]:
    """The baseline: materialise everything, filter and slice in Python."""
    table = TableValue.from_grid(spread.get_range_values(region), header=True)
    matched = [
        (record[0], record[1])
        for record in table.rows
        if isinstance(record[1], (int, float)) and record[1] > threshold
    ]
    return matched if limit is None else matched[:limit]


def _pushdown_rows(spread: DataSpread, region: RangeRef, threshold: int,
                   limit: int | None) -> list[tuple]:
    query = (select(region)
             .where(col("amount") > threshold)
             .project(col("id"), col("amount")))
    if limit is not None:
        query = query.limit(limit)
    return [tuple(row) for row in spread.execute(query)]


def _ladder_row(rows: int) -> dict[str, Any]:
    spread, region, threshold = _build(rows)

    spread.model.reset_read_counters()
    start = time.perf_counter()
    streamed = _pushdown_rows(spread, region, threshold, _LIMIT)
    pushdown_ms = (time.perf_counter() - start) * 1000.0
    pushdown_reads = spread.model.bulk_reads
    pushdown_cells = spread.model.cells_read

    spread.model.reset_read_counters()
    start = time.perf_counter()
    naive = _naive_rows(spread, region, threshold, _LIMIT)
    naive_ms = (time.perf_counter() - start) * 1000.0
    naive_cells = spread.model.cells_read

    return {
        "mode": "pushdown-vs-naive",
        "rows": rows,
        "pushdown_ms": round(pushdown_ms, 3),
        "naive_ms": round(naive_ms, 3),
        "speedup": round(naive_ms / pushdown_ms, 2) if pushdown_ms > 0 else float("inf"),
        "pushdown_bulk_reads": pushdown_reads,
        "pushdown_cells_read": pushdown_cells,
        "naive_cells_read": naive_cells,
        "results_match": [tuple(row) for row in streamed] == naive,
    }


def _live_view_row(rows: int) -> dict[str, Any]:
    spread, region, threshold = _build(rows)
    view = spread.create_live_view(
        select(region).where(col("amount") > threshold).project(col("id"), col("amount")),
        name="bench",
    )
    baseline_refreshes = view.refresh_count

    matches = True
    cells_read = 0
    for index in range(_EDITS):
        row = 2 + (index * 631) % rows
        spread.model.reset_read_counters()
        spread.set_value(row, 2, 9_999 - index)  # lands inside the match band
        cells_read += spread.model.cells_read
        oracle = _naive_rows(spread, region, threshold, None)
        if [tuple(record) for record in view.value().rows] != oracle:
            matches = False

    return {
        "mode": "live-view",
        "rows": rows,
        "read_columns": 2,  # id, amount
        "cells_read_per_edit": cells_read / _EDITS,
        "refreshes": view.refresh_count - baseline_refreshes,
        "edits": _EDITS,
        "view_matches_oracle": matches,
    }


def run_query(*, scale: float = 1.0, **_options: Any) -> ExperimentResult:
    """Run the query-subsystem benchmark (see module docstring)."""
    if not 0 < scale <= 1.0:
        raise ValueError("scale must be in (0, 1]")
    ladder = sorted({max(1_000, int(size * scale)) for size in _LADDER})
    rows = [_ladder_row(size) for size in ladder]
    rows.append(_live_view_row(ladder[0]))
    return ExperimentResult(
        experiment_id="query",
        title="Generative query pushdown vs naive materialisation",
        rows=rows,
        notes=[
            f"ladder (data rows): {ladder}; LIMIT {_LIMIT}; "
            f"~{_MATCH_FRACTION:.0%} of rows match the predicate",
            "pushdown path streams chunked bulk reads with the predicate, "
            "projection and LIMIT inside the scan; naive path materialises "
            "the full region then filters in Python",
            f"live view: {_EDITS} point edits, each refreshing the view "
            "reactively (sync engine) by re-reading the edited row's read "
            "columns, checked against a full re-materialisation oracle",
        ],
        paper_reference="Appendix B (relational operators over presentational data)",
    )
