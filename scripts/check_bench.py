"""Guard the benchmark experiments against regressions.

Reads the JSON emitted by ``python -m repro.experiments <id> --json ...``
and fails (exit code 1) when a guarded experiment regressed.  Guards are
dispatched per experiment id, so one JSON file may carry several results:

``recompute-incremental`` (``make bench-incremental``)
    * ``index_rebuilds`` above 0 in the index-maintenance row — formula
      (un)registration stopped being absorbed incrementally and went back
      to invalidate-and-rebuild;
    * the aggregate delta speedup below the (deliberately lenient) floor,
      or the delta-maintained values diverging from the from-scratch
      engine.

``columnar`` (``make bench-columnar``)
    * the cold vectorized build below the fixed 10x floor (when NumPy is
      available) or disagreeing with the scalar fold;
    * the 10k-subscriber ladder holding more than one shared state, point
      edits costing more than one delta, or ``optimize_storage`` /
      off-range ``link_table`` invalidating any running state.

``recovery`` (``make bench-recovery``)
    * any row whose recovered grid diverged from the live engine
      (``grids_match``);
    * the post-checkpoint log not truncated — checkpointing stopped
      folding the WAL into the snapshot.

``service`` (``make bench-sessions``)
    * any multi-session configuration whose drained grid diverged from
      the synchronous replay of the committed ops (``converged``);
    * the multi-session edit ack falling behind the synchronous
      baseline — the deferred acknowledgement stopped paying for itself.

``overload`` (``make bench-overload``)
    * any configuration that lost a committed (acknowledged) edit or
      failed to converge to the synchronous replay;
    * an admission-on rung whose queue depth exceeded the quota plus the
      documented one-edit fan-out overshoot, or whose p99 ack latency
      blew the virtual-time ceiling — backpressure stopped bounding the
      system;
    * an admission-off rung whose queue stayed *shallower* than its
      admission-on twin — the experiment no longer demonstrates the
      unbounded growth the quotas exist to prevent;
    * no admission-on rung shedding any work — the ladder stopped
      actually overloading the scheduler.

``query`` (``make bench-query``)
    * the pushdown speedup at the largest ladder size below the floor —
      the planner stopped pushing predicates/projections/LIMIT into the
      scan;
    * either execution path disagreeing with the other, or the live view
      diverging from (or refreshing less often than) its
      re-materialisation oracle.

Usage::

    PYTHONPATH=src python scripts/check_bench.py BENCH_file.json \
        [--min-speedup 5.0]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def check_recompute_incremental(result: dict, *, min_speedup: float) -> list[str]:
    rows = {row.get("mode"): row for row in result["rows"]}
    failures: list[str] = []

    maintenance = rows.get("index-maintenance")
    if maintenance is None:
        failures.append("missing index-maintenance row")
    elif maintenance["index_rebuilds"] > 0:
        failures.append(
            f"steady-state index_rebuilds regressed above 0 "
            f"(got {maintenance['index_rebuilds']} over {maintenance['steady_ops']} ops)"
        )

    incremental = rows.get("delta-incremental")
    baseline = rows.get("full-read-baseline")
    if incremental is None or baseline is None:
        failures.append("missing delta-incremental / full-read-baseline rows")
    else:
        if not incremental.get("grids_match", False):
            failures.append("delta-maintained values diverged from the from-scratch engine")
        if incremental.get("relayout_invalidations", 0) > 0:
            failures.append(
                f"optimize_storage invalidated "
                f"{incremental['relayout_invalidations']} running state(s) — "
                f"relayout stopped preserving aggregate state"
            )
        per_edit = incremental["ms_per_edit"]
        speedup = (baseline["ms_per_edit"] / per_edit) if per_edit > 0 else float("inf")
        if speedup < min_speedup:
            failures.append(
                f"aggregate delta speedup {speedup:.1f}x fell below the "
                f"{min_speedup:.1f}x floor"
            )
    return failures


def check_recovery(result: dict, **_options) -> list[str]:
    failures: list[str] = []
    checkpoint_rows = []
    for row in result["rows"]:
        if not row.get("grids_match", False):
            failures.append(
                f"recovered grid diverged from the live engine "
                f"({row.get('mode')} row, {row.get('edits')} edits)"
            )
        if row.get("mode") == "post-checkpoint":
            checkpoint_rows.append(row)
    if not checkpoint_rows:
        failures.append("missing post-checkpoint row")
    for row in checkpoint_rows:
        if row.get("wal_bytes", 0) > 0:
            failures.append(
                f"checkpoint left {row['wal_bytes']} bytes of log untruncated"
            )
    return failures


def check_service(result: dict, **_options) -> list[str]:
    failures: list[str] = []
    multi = [row for row in result["rows"] if row.get("mode") == "multi-session"]
    baseline = next(
        (row for row in result["rows"] if row.get("mode") == "sync-baseline"), None)
    if not multi:
        failures.append("missing multi-session rows")
    for row in multi:
        label = f"{row.get('writers')}w/{row.get('readers')}r"
        if not row.get("converged", False):
            failures.append(
                f"drained grid diverged from the committed-op replay ({label})"
            )
        if baseline is not None and row["ack_ms_mean"] > baseline["ack_ms_mean"]:
            failures.append(
                f"multi-session ack {row['ack_ms_mean']:.3f}ms fell behind the "
                f"sync baseline {baseline['ack_ms_mean']:.3f}ms ({label})"
            )
    if baseline is None:
        failures.append("missing sync-baseline row")
    return failures


#: Fan-out allowance above the quota for admission-on queue depth: one
#: admitted edit's dirty fan-out may land past the high-water check, and
#: committed batch work is never refused.
OVERLOAD_FANOUT_SLACK = 64
#: Virtual-milliseconds ceiling for the admission-on p99 ack (bounded
#: retries: 4 backoffs capped at 32ms plus the drain work per backoff).
OVERLOAD_ACK_P99_CEILING_MS = 150.0


def check_overload(result: dict, **_options) -> list[str]:
    failures: list[str] = []
    on_rows = [row for row in result["rows"] if row.get("mode") == "admission-on"]
    off_rows = {row.get("writers"): row
                for row in result["rows"] if row.get("mode") == "admission-off"}
    if not on_rows:
        failures.append("missing admission-on rows")
    if not off_rows:
        failures.append("missing admission-off rows")
    for row in result["rows"]:
        label = f"{row.get('mode')}, {row.get('writers')}w"
        if row.get("lost_committed_edits", 1) != 0:
            failures.append(
                f"{row.get('lost_committed_edits')} committed edit(s) lost ({label})"
            )
        if not row.get("converged", False):
            failures.append(
                f"drained grid diverged from the committed-op replay ({label})"
            )
    for row in on_rows:
        label = f"{row.get('writers')}w"
        quota = row.get("quota") or 0
        bound = quota + OVERLOAD_FANOUT_SLACK
        if row.get("max_queue_depth", bound + 1) > bound:
            failures.append(
                f"admission-on queue depth {row.get('max_queue_depth')} exceeded "
                f"quota {quota} + fan-out slack {OVERLOAD_FANOUT_SLACK} ({label})"
            )
        if row.get("ack_ms_p99", OVERLOAD_ACK_P99_CEILING_MS + 1) > OVERLOAD_ACK_P99_CEILING_MS:
            failures.append(
                f"admission-on p99 ack {row.get('ack_ms_p99'):.1f}ms blew the "
                f"{OVERLOAD_ACK_P99_CEILING_MS:.0f}ms virtual-time ceiling ({label})"
            )
        twin = off_rows.get(row.get("writers"))
        if twin is not None and twin.get("max_queue_depth", 0) <= row.get("max_queue_depth", 0):
            failures.append(
                f"admission-off queue depth {twin.get('max_queue_depth')} did not "
                f"exceed the admission-on depth {row.get('max_queue_depth')} ({label}) "
                f"— the ladder no longer demonstrates unbounded growth"
            )
    if on_rows and not any(row.get("shed", 0) > 0 for row in on_rows):
        failures.append(
            "no admission-on rung shed any work — the ladder stopped "
            "overloading the scheduler"
        )
    return failures


def check_query(result: dict, *, min_speedup: float) -> list[str]:
    failures: list[str] = []
    ladder = [row for row in result["rows"] if row.get("mode") == "pushdown-vs-naive"]
    if not ladder:
        failures.append("missing pushdown-vs-naive rows")
    for row in ladder:
        if not row.get("results_match", False):
            failures.append(
                f"pushdown result diverged from the naive materialisation "
                f"({row.get('rows')} rows)"
            )
    if ladder:
        largest = max(ladder, key=lambda row: row.get("rows", 0))
        if largest.get("speedup", 0.0) < min_speedup:
            failures.append(
                f"pushdown speedup {largest.get('speedup', 0.0):.1f}x at "
                f"{largest.get('rows')} rows fell below the {min_speedup:.1f}x floor"
            )
    view = next((row for row in result["rows"] if row.get("mode") == "live-view"), None)
    if view is None:
        failures.append("missing live-view row")
    else:
        if not view.get("view_matches_oracle", False):
            failures.append("live view diverged from the re-materialisation oracle")
        if view.get("refreshes", 0) < view.get("edits", 0):
            failures.append(
                f"live view refreshed {view.get('refreshes')} times for "
                f"{view.get('edits')} source edits — reactivity regressed"
            )
        if view.get("cells_read_per_edit", float("inf")) > view.get("read_columns", 0):
            failures.append(
                f"live view read {view.get('cells_read_per_edit')} cells per "
                f"edit, more than one row of its {view.get('read_columns')} "
                f"read columns — the refresh is rescanning"
            )
    return failures


#: The columnar cold-build floor is fixed (the ISSUE's acceptance bar),
#: independent of the CLI-tunable ``--min-speedup`` used elsewhere.
COLUMNAR_MIN_SPEEDUP = 10.0


def check_columnar(result: dict, **_options) -> list[str]:
    rows = {row.get("mode"): row for row in result["rows"]}
    failures: list[str] = []

    cold = rows.get("cold-sum-columnar")
    if cold is None:
        failures.append("missing cold-sum-columnar row")
    else:
        if not cold.get("values_match", False):
            failures.append("columnar cold build diverged from the scalar fold")
        if cold.get("numpy", False):
            if cold.get("speedup", 0.0) < COLUMNAR_MIN_SPEEDUP:
                failures.append(
                    f"columnar cold-build speedup {cold.get('speedup', 0.0):.1f}x "
                    f"fell below the {COLUMNAR_MIN_SPEEDUP:.1f}x floor"
                )
            if cold.get("columnar_builds", 0) < 1:
                failures.append(
                    "NumPy available but the cold build did not go columnar")
        # Without NumPy the pure-Python fallback serves; no speedup floor.

    ladder = rows.get("shared-state-ladder")
    if ladder is None:
        failures.append("missing shared-state-ladder row")
    else:
        if ladder.get("shared_states") != 1:
            failures.append(
                f"{ladder.get('formulas')} formulas over one column held "
                f"{ladder.get('shared_states')} states — sharing regressed"
            )
        if ladder.get("deltas_per_edit", 0.0) != 1.0:
            failures.append(
                f"point edits applied {ladder.get('deltas_per_edit')} deltas "
                f"each — expected exactly one per distinct range"
            )
        if ladder.get("relayout_invalidations", 0) > 0:
            failures.append(
                f"optimize_storage invalidated "
                f"{ladder['relayout_invalidations']} running state(s)"
            )
        if ladder.get("link_invalidations", 0) > 0:
            failures.append(
                f"off-range link_table invalidated "
                f"{ladder['link_invalidations']} running state(s)"
            )
        if ladder.get("post_relayout_builds", 0) > 0:
            failures.append(
                f"{ladder['post_relayout_builds']} state rebuild(s) after the "
                f"relayout — states were not preserved in place"
            )
        if not ladder.get("grids_match", False):
            failures.append("ladder values diverged from the from-scratch engine")
    return failures


#: Guarded experiments; results with other ids pass through unchecked.
CHECKERS = {
    "columnar": check_columnar,
    "overload": check_overload,
    "recompute-incremental": check_recompute_incremental,
    "query": check_query,
    "recovery": check_recovery,
    "service": check_service,
}


def check(path: Path, *, min_speedup: float) -> list[str]:
    """Return the list of regression messages (empty when healthy)."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    results = payload.get("results", [])
    guarded = [result for result in results if result.get("experiment_id") in CHECKERS]
    if not guarded:
        return [f"{path}: no guarded experiment results found "
                f"(known: {', '.join(sorted(CHECKERS))})"]
    failures: list[str] = []
    for result in guarded:
        checker = CHECKERS[result["experiment_id"]]
        failures.extend(
            f"{result['experiment_id']}: {message}"
            for message in checker(result, min_speedup=min_speedup)
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("json_path", type=Path,
                        help="JSON file emitted by an experiment run with --json")
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help="minimum acceptable delta-vs-full-read speedup (default 5.0)")
    arguments = parser.parse_args(argv)
    failures = check(arguments.json_path, min_speedup=arguments.min_speedup)
    if failures:
        for failure in failures:
            print(f"BENCH REGRESSION: {failure}", file=sys.stderr)
        return 1
    print(f"{arguments.json_path}: guarded experiments healthy")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
