"""Overload experiment: graceful degradation under injected latency.

The ``overload`` experiment drives the admission-controlled service layer
the way a saturated spreadsheet server would — a ladder of writer counts
firing edit bursts into one shared async engine whose every evaluation is
made artificially slow — and measures what the overload machinery buys,
by running each ladder rung twice:

* **admission on**: the scheduler's depth quotas are armed.  Writers run
  their edits through the shared retry policy (draining a little on each
  backoff — the backpressure loop), so an edit's *ack* is the virtual
  time from first attempt to acceptance.  Queue depth stays pinned near
  the quota; reads degrade to tagged stale values instead of blocking.
* **admission off**: the same workload with no quotas.  Every edit is
  acknowledged instantly, but the queue grows without bound — the
  pathology the quotas exist to prevent, reported as ``max_queue_depth``.

All time is virtual: a deterministic clock advanced by the injected
per-evaluation delays and the retry backoffs, so the numbers are exactly
reproducible.  After each run the chaos is lifted, the queue drained, and
the grid compared cell-for-cell against a synchronous replay of the
committed ops — ``lost_committed_edits`` must be zero and ``converged``
true in every configuration; ``scripts/check_bench.py`` fails the
``bench-overload`` target otherwise, or when the admission-on p99 ack or
queue depth stops being bounded.
"""

from __future__ import annotations

from typing import Any

from repro.engine.dataspread import DataSpread
from repro.errors import EngineOverloadedError
from repro.experiments.reporting import ExperimentResult
from repro.grid.range import RangeRef
from repro.service import Workspace
from repro.service.retry import RetryPolicy

#: Writer counts for the ladder; each rung runs admission on and off.
_WRITER_LADDER = (2, 4, 8)
#: Queue-depth quota the admission-on rungs arm.
_MAX_PENDING = 16
#: Admission overshoot allowance: one edit's dirty fan-out may land past
#: the high-water check (committed batch work is never refused).
_FANOUT_SLACK = 64
#: Rows of the data column the formulas aggregate over.
_DATA_ROWS = 60
#: Virtual seconds one evaluation costs under the injected slowdown.
_EVAL_SECONDS = 0.004
#: Window compared between the drained workspace and the sync replay.
_WINDOW = RangeRef(1, 1, _DATA_ROWS + 4, 8)


class _VirtualClock:
    """Deterministic monotonic clock + sleep (virtual seconds)."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += max(0.0, seconds)


def _setup_ops(formulas: int) -> list[tuple]:
    """Untimed preamble: the data column plus the formula fan-out."""
    ops: list[tuple] = [
        ("value", row, 1, row * 7 % 101) for row in range(1, _DATA_ROWS + 1)
    ]
    for index in range(formulas):
        top = index * 3 % (_DATA_ROWS - 10) + 1
        ops.append(("formula", index % _DATA_ROWS + 1, 3,
                    f"SUM(A{top}:A{top + 9})"))
    return ops


def _timed_ops(edits: int) -> list[tuple]:
    """The measured edits: mostly *distinct* new formula cells.

    Distinct targets cannot coalesce into already-queued work, so each
    one genuinely deepens the queue — that is what makes the
    admission-off rungs grow without bound while the quota pins the
    admission-on rungs.  Every fourth op is a value edit into the data
    column, whose dirty fan-out (every SUM reading it) exercises the
    bounded high-water overshoot.
    """
    ops: list[tuple] = []
    for index in range(edits):
        if index % 4 == 3:
            ops.append(("value", index * 13 % _DATA_ROWS + 1, 1,
                        index * 31 % 997))
        else:
            top = index * 5 % (_DATA_ROWS - 10) + 1
            row = index % (_DATA_ROWS + 40) + 1
            column = 4 + (index // (_DATA_ROWS + 40)) % 4
            ops.append(("formula", row, column, f"SUM(A{top}:A{top + 9})"))
    return ops


def _apply(target: Any, op: tuple) -> None:
    kind, row, column, payload = op
    if kind == "value":
        target.set_value(row, column, payload)
    else:
        target.set_formula(row, column, payload)


def _diff_against_replay(spread: DataSpread, committed: list[tuple]) -> int:
    """Cells where the drained grid differs from the synchronous replay."""
    oracle = DataSpread()
    for op in committed:
        _apply(oracle, op)
    mismatches = 0
    for row in range(_WINDOW.top, _WINDOW.bottom + 1):
        for column in range(_WINDOW.left, _WINDOW.right + 1):
            expected = oracle.get_cell(row, column)
            actual = spread.get_cell(row, column)
            if (actual.value, actual.formula) != (expected.value, expected.formula):
                mismatches += 1
    return mismatches


def _percentile(sorted_values: list[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(int(len(sorted_values) * fraction), len(sorted_values) - 1)
    return sorted_values[index]


def _run_configuration(writers: int, *, admission: bool, edits: int,
                       formulas: int) -> dict[str, Any]:
    clock = _VirtualClock()
    policy = RetryPolicy(max_attempts=5, base_delay_ms=1.0,
                         max_delay_ms=32.0, clock=clock, sleep=clock.sleep)
    ws = Workspace(
        clock=clock,
        retry_policy=policy,
    )
    scheduler = ws.engine.compute_scheduler
    try:
        sessions = [ws.open_session(f"writer-{n}") for n in range(writers)]
        reader = ws.open_session("reader")
        committed: list[tuple] = []
        for op in _setup_ops(formulas):
            _apply(sessions[0], op)
            committed.append(op)
        ws.flush()
        # Arm the quota and the injected slowdown only for the measured
        # region: the preamble is setup, not the workload under test.
        if admission:
            scheduler.max_pending = _MAX_PENDING
        scheduler.before_evaluate = lambda _address: clock.sleep(_EVAL_SECONDS)

        acks_ms: list[float] = []
        refused = 0
        max_depth = scheduler.pending_count
        for index, op in enumerate(_timed_ops(edits)):
            writer = sessions[index % writers]
            start = clock()
            try:
                policy.call(lambda: _apply(writer, op),
                            on_retry=lambda _e, _a: ws.drain(4))
            except EngineOverloadedError:
                refused += 1  # shed for good: never enters the ledger
            else:
                committed.append(op)
                acks_ms.append((clock() - start) * 1000.0)
            max_depth = max(max_depth, scheduler.pending_count)
            if index % 10 == 9:
                # A deadline-bounded read: degrade, never block.
                reader.value(index % _DATA_ROWS + 1, 3,
                             deadline_ms=2.0, allow_stale=True)

        # Lift the chaos and drain: nothing committed may be lost.
        scheduler.before_evaluate = None
        ws.flush()
        lost = _diff_against_replay(ws.engine, committed)
        acks_ms.sort()
        return {
            "mode": "admission-on" if admission else "admission-off",
            "writers": writers,
            "edits": edits,
            "quota": _MAX_PENDING if admission else None,
            "ack_ms_p50": _percentile(acks_ms, 0.50),
            "ack_ms_p99": _percentile(acks_ms, 0.99),
            "max_queue_depth": max_depth,
            "high_water": scheduler.stats.high_water,
            "shed": scheduler.stats.shed,
            "refused_after_retries": refused,
            "stale_serves": ws.stale_serve_count,
            "lost_committed_edits": lost,
            "converged": lost == 0,
        }
    finally:
        ws.close()


def run_overload(*, scale: float = 1.0, **_options) -> ExperimentResult:
    """Ack latency and queue depth under overload, admission on vs off."""
    edits = max(int(240 * scale), 60)
    formulas = max(int(40 * scale), 12)
    rows = []
    for writers in _WRITER_LADDER:
        # Offered load grows with the rung: more writers, more edits.
        load = edits * writers // _WRITER_LADDER[0]
        for admission in (True, False):
            rows.append(_run_configuration(
                writers, admission=admission, edits=load, formulas=formulas))
    return ExperimentResult(
        experiment_id="overload",
        title="Overload protection: admission control under injected latency",
        rows=rows,
        notes=[
            "every evaluation costs virtual time (deterministic clock), so "
            "acks, backoffs and queue growth are exactly reproducible",
            "admission-on rungs run each edit through the shared retry "
            "policy, draining on backoff; ack is virtual time from first "
            "attempt to acceptance, and shed counts quota refusals",
            "admission-off rungs accept everything instantly; "
            "max_queue_depth records the unbounded growth the quotas prevent",
            "lost_committed_edits compares the drained grid cell-for-cell "
            "against a synchronous replay of the committed ops — shed edits "
            "are excluded, acknowledged edits must all survive",
        ],
    )
