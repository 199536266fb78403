"""Service experiment: multi-client edit-ack latency and convergence.

The ``service`` experiment drives the multi-session workspace layer the
way a spreadsheet server would — several writer sessions interleaving
single edits, transactions and savepoint rollbacks over one shared async
engine while reader sessions move viewports and drain partial results —
and measures what the asynchronous acknowledgement model buys:

* **Multi-session rows.**  For a ladder of ``(writers, readers)``
  configurations, every writer edit is timed from call to return (the
  "ack": the engine has durably adopted the edit and queued the affected
  formulas, but has not recomputed them yet).  After the interleaving the
  workspace is drained and the grid is compared cell-for-cell against a
  synchronous replay of the committed ops in commit order — the same
  convergence oracle the ``fuzz-sessions`` harness enforces.
* **Sync baseline.**  The identical workload on a synchronous engine,
  where each edit's latency includes recomputing every dirty dependent
  before the call returns.

Every multi-session row carries ``converged``; ``scripts/check_bench.py``
fails the ``bench-sessions`` target when any configuration diverged from
the replay or when the async ack stops beating the synchronous baseline.
"""

from __future__ import annotations

import time
from typing import Any

from repro.engine.dataspread import DataSpread
from repro.experiments.reporting import ExperimentResult
from repro.grid.range import RangeRef
from repro.service import Workspace

#: (writers, readers) ladder for the multi-session rows.
_CONFIGURATIONS = ((1, 0), (2, 2), (4, 4))
#: Grid shape: the data column the formulas aggregate over.
_DATA_ROWS = 80
#: Window compared between the drained workspace and the sync replay.
_WINDOW = RangeRef(1, 1, _DATA_ROWS + 4, 8)


def _setup_ops(formulas: int) -> list[tuple]:
    """The untimed preamble: the data column plus the formula fan-out.

    The formulas are what separates the two acknowledgement models: a
    synchronous engine recomputes every overlapping ``SUM`` before an
    edit returns, the service layer acknowledges first and recomputes on
    the drain.
    """
    ops: list[tuple] = [("value", row, 1, row * 7 % 101) for row in range(1, _DATA_ROWS + 1)]
    for index in range(formulas):
        top = index * 3 % (_DATA_ROWS - 10) + 1
        ops.append(("formula", index % _DATA_ROWS + 1, 3,
                    f"SUM(A{top}:A{top + 9})"))
    return ops


def _timed_ops(edits: int) -> list[tuple]:
    """The measured edits: values landing inside the aggregated column."""
    return [
        ("value", index * 13 % _DATA_ROWS + 1, 1, index * 31 % 997)
        for index in range(edits)
    ]


def _apply(target: Any, op: tuple) -> None:
    kind, row, column, payload = op
    if kind == "value":
        target.set_value(row, column, payload)
    else:
        target.set_formula(row, column, payload)


def _fingerprint(spread: DataSpread) -> dict[tuple[int, int], tuple[Any, str | None]]:
    return {
        (address.row, address.column): (cell.value, cell.formula)
        for address, cell in spread.get_cells(_WINDOW).items()
    }


def _replay(committed: list[tuple]) -> DataSpread:
    """The convergence oracle: a sync engine fed the ops in commit order."""
    oracle = DataSpread()
    for op in committed:
        _apply(oracle, op)
    return oracle


def _transaction_interlude(writer, base_row: int, committed: list[tuple]) -> None:
    """One batch with a savepoint rollback; only the survivors commit."""
    kept = ("value", base_row, 5, f"txn-{writer.name}")
    doomed = ("value", base_row + 1, 5, "rolled-back")
    after = ("value", base_row + 2, 5, f"post-{writer.name}")
    with writer.batch():
        _apply(writer, kept)
        savepoint = writer.savepoint()
        _apply(writer, doomed)
        savepoint.rollback()
        _apply(writer, after)
    committed.extend([kept, after])


def _run_configuration(writers: int, readers: int, *, edits: int,
                       formulas: int) -> dict[str, Any]:
    ws = Workspace()
    try:
        sessions = [ws.open_session(f"writer-{n}") for n in range(writers)]
        viewers = [ws.open_session(f"reader-{n}") for n in range(readers)]
        committed: list[tuple] = []
        for op in _setup_ops(formulas):
            _apply(sessions[0], op)
            committed.append(op)
        ws.flush()
        for index, viewer in enumerate(viewers):
            top = index * 20 % _DATA_ROWS + 1
            viewer.set_viewport(RangeRef(top, 1, top + 12, 6))

        ops = _timed_ops(edits)
        latencies: list[float] = []
        rollbacks = 0
        for index, op in enumerate(ops):
            writer = sessions[index % writers]
            start = time.perf_counter()
            _apply(writer, op)
            latencies.append((time.perf_counter() - start) * 1_000.0)
            committed.append(op)
            if viewers and index % 10 == 9:
                viewer = viewers[(index // 10) % readers]
                viewer.get_range_values(RangeRef(1, 3, 12, 3))
                ws.drain(4)
            if index % (max(edits // writers, 1)) == max(edits // writers, 1) - 1:
                _transaction_interlude(writer, _DATA_ROWS + 1 + 3 * (index % writers),
                                       committed)
                rollbacks += 1

        start = time.perf_counter()
        ws.flush()
        drain_ms = (time.perf_counter() - start) * 1_000.0

        oracle = _replay(committed)
        converged = _fingerprint(ws.engine) == _fingerprint(oracle)
        latencies.sort()
        return {
            "mode": "multi-session",
            "writers": writers,
            "readers": readers,
            "edits": edits,
            "ack_ms_mean": sum(latencies) / len(latencies),
            "ack_ms_p95": latencies[int(len(latencies) * 0.95)],
            "drain_ms": drain_ms,
            "savepoint_rollbacks": rollbacks,
            "converged": converged,
        }
    finally:
        ws.close()


def _run_sync_baseline(*, edits: int, formulas: int) -> dict[str, Any]:
    spread = DataSpread()
    for op in _setup_ops(formulas):
        _apply(spread, op)
    latencies: list[float] = []
    for op in _timed_ops(edits):
        start = time.perf_counter()
        _apply(spread, op)
        latencies.append((time.perf_counter() - start) * 1_000.0)
    latencies.sort()
    return {
        "mode": "sync-baseline",
        "writers": 1,
        "readers": 0,
        "edits": edits,
        "ack_ms_mean": sum(latencies) / len(latencies),
        "ack_ms_p95": latencies[int(len(latencies) * 0.95)],
        "drain_ms": 0.0,
        "savepoint_rollbacks": 0,
        "converged": True,
    }


def run_service(*, scale: float = 1.0, **_options) -> ExperimentResult:
    """Multi-client ack latency + convergence vs the synchronous baseline."""
    edits = max(int(240 * scale), 40)
    formulas = max(int(30 * scale), 8)
    rows = [
        _run_configuration(writers, readers, edits=edits, formulas=formulas)
        for writers, readers in _CONFIGURATIONS
    ]
    rows.append(_run_sync_baseline(edits=edits, formulas=formulas))
    return ExperimentResult(
        experiment_id="service",
        title="Multi-session service layer: edit-ack latency and convergence",
        rows=rows,
        notes=[
            "multi-session rows interleave writer edits, savepoint-rollback "
            "transactions, reader viewports and partial drains over one "
            "shared async engine; ack is the time for the edit call to return",
            "converged compares the drained grid cell-for-cell (values and "
            "formula text) against a synchronous replay of the committed ops "
            "in commit order",
            "the sync-baseline row recomputes every dirty dependent inside "
            "each edit call, which is what the service layer's deferred "
            "acknowledgement avoids",
        ],
    )
