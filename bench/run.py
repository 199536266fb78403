#!/usr/bin/env python3
"""The repository's benchmark: one closed-loop client, four workloads.

    python bench/run.py --workload <name> --seed <n> [--seconds 30] [--trace [0|1]]
    python bench/run.py --summarize RUNS.jsonl          # medians and quartiles
    python bench/run.py --compare A B                   # two sets of runs

A run is laps over the sheet's whole life: build, warm every op class up,
two mix rounds around a structural set, re-lay the sheet out, persist and
recover it, verify the outputs against a plain-dict model.  It starts laps
for as long as the next one still ends within ``--seconds`` (four to eight
at 30; a traced run is one lap).  It prints every metric by name with its
unit; the last line of standard output is one JSON object: the end-to-end
metrics, or with ``--trace 1`` the per-layer metrics.

Every timed statistic is the *best round*: each round computes its own
median latency (or ops / wall) and the run reports the best of them.  On a
shared two-core box whole seconds, and some whole minutes, run up to 2x
slow, so a whole-run median moves with the share of the run the neighbours
took; the best round needs one undisturbed round (see README.md).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

if __package__ in (None, ""):
    # Run as a script: import siblings as ``bench.*`` from the repository
    # root, and keep this directory (whose ``trace.py`` would shadow the
    # standard library's) off the path.
    sys.path[0] = str(ROOT)
if str(ROOT / "src") not in sys.path:
    sys.path.insert(1, str(ROOT / "src"))

#: ``name -> (unit, better)``; bounds live in BENCHMARK.json.
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "import_cells_per_s": ("1/s", "higher"),
    "edit_p50_ms": ("ms", "lower"),
    "read_p50_ms": ("ms", "lower"),
    "structural_p50_ms": ("ms", "lower"),
    "query_p50_ms": ("ms", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "relayout_s": ("s", "lower"),
    "recovery_s": ("s", "lower"),
    "storage_bytes_per_cell": ("B", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Layers whose spans give a ``calls`` and/or ``self_ms`` metric.
_LAYER_FIELDS: dict[str, tuple[str, ...]] = {
    "formula.parser": ("calls", "self_ms"),
    "formula.evaluator": ("calls", "self_ms"),
    "formula.dependencies": ("calls", "self_ms"),
    "formula.aggregates": ("self_ms",),
    "formula.rewrite": ("calls", "self_ms"),
    "compute.scheduler": ("calls", "self_ms"),
    "engine.cache": ("calls", "self_ms"),
    "engine.dataspread": ("self_ms",),
    "engine.backend": ("self_ms",),
    "models.hybrid": ("calls", "self_ms"),
    "models.rom": ("self_ms",),
    "models.com": ("self_ms",),
    "models.rcv": ("self_ms",),
    "positional": ("calls", "self_ms"),
    "storage.heap": ("calls", "self_ms"),
    "storage.btree": ("calls", "self_ms"),
    "storage.wal": ("self_ms",),
    "query.planner": ("calls", "self_ms"),
    "query.executor": ("self_ms",),
    "query.views": ("self_ms",),
    "service.workspace": ("self_ms",),
}
#: Op classes outside the mix rounds and the structural set.
_PHASE_CLASSES = ("checkpoint", "relayout", "persist", "recover")


class Settings:
    """How much work one run does."""

    def __init__(self, seconds: float, *, trace: bool, smoke: bool) -> None:
        self.smoke = smoke
        self.scale = 0.02 if smoke else 1.0
        self.effort = 0.1 if smoke else 1.0
        # A run is passes ("laps") over the sheet's whole life (build, warm
        # up, mix rounds around a structural set, relayout, persist and
        # recover), so every metric is sampled once per lap, in stretches
        # of the run that lie seconds apart.  An untraced run keeps starting
        # laps while the next one still fits into ``seconds``; a traced run
        # and a smoke run are one lap.
        self.seconds = seconds
        self.one_lap = smoke or trace
        self.rounds_per_lap = 1 if smoke else 2
        # A traced lap: reference rounds without wrappers, then traced ones.
        self.reference_rounds = 1 if smoke else 2


# ---------------------------------------------------------------------- #
# running operations
# ---------------------------------------------------------------------- #
class RoundResult:
    def __init__(self) -> None:
        self.latencies: dict[str, list[int]] = {}
        self.failed: dict[str, int] = {}
        self.last: dict[str, Any] = {}
        self.first_failure: str | None = None
        self.wall_ns = 0
        self.ops = 0

    def median_ms(self, kind: str) -> float | None:
        samples = self.latencies.get(kind)
        return statistics.median(samples) / 1e6 if samples else None

    def ops_per_s(self) -> float:
        done = sum(len(samples) for samples in self.latencies.values())
        return done / (self.wall_ns / 1e9)


def run_ops(ops: list, tracer: Any = None) -> RoundResult:
    """Run one round closed-loop: each op starts when the previous returned."""
    result = RoundResult()
    result.ops = len(ops)
    latencies, last = result.latencies, result.last
    for kind in {op[0] for op in ops}:
        latencies[kind] = []
    gc.collect()
    if tracer is None:
        started = perf_counter_ns()
        for kind, function, arguments in ops:
            begin = perf_counter_ns()
            try:
                value = function(*arguments)
            except Exception:  # a failed op is counted, never timed
                _note_failure(result, kind)
                continue
            latencies[kind].append(perf_counter_ns() - begin)
            last[kind] = value
        result.wall_ns = perf_counter_ns() - started
        return result
    class_ids = {kind: tracer.class_id(kind) for kind in latencies}
    started = perf_counter_ns()
    for index, (kind, function, arguments) in enumerate(ops):
        tracer.begin(class_ids[kind], index)
        try:
            value = function(*arguments)
        except Exception:
            tracer.end()
            _note_failure(result, kind)
            continue
        latencies[kind].append(tracer.end())
        last[kind] = value
    result.wall_ns = perf_counter_ns() - started
    return result


def _note_failure(result: RoundResult, kind: str) -> None:
    result.failed[kind] = result.failed.get(kind, 0) + 1
    if result.first_failure is None:
        result.first_failure = f"{kind}: {traceback.format_exc(limit=4)}"


def estimate(rounds: list[float], better: str) -> float:
    """One number from a metric's rounds: the best of them.

    Over sets of runs in this box's quiet and noisy hours the best round
    was the steadiest choice among it, the second best, the quartiles, the
    median and the densest cluster (see README.md, "The estimator").
    """
    return min(rounds) if better == "lower" else max(rounds)


def _timed_s(function: Callable[[], Any]) -> tuple[float, Any]:
    gc.collect()
    begin = perf_counter_ns()
    value = function()
    return (perf_counter_ns() - begin) / 1e9, value


class Run:
    """One benchmark run of one workload."""

    def __init__(self, name: str, seed: int, seconds: float, *, trace: bool,
                 smoke: bool) -> None:
        from bench import workloads

        if name not in workloads.WORKLOADS:
            raise SystemExit(f"unknown workload {name!r}; choose from "
                             f"{', '.join(workloads.WORKLOADS)}")
        self.name, self.seed, self.seconds = name, seed, seconds
        self.trace = trace
        self.settings = Settings(seconds, trace=trace, smoke=smoke)
        self.workdir = OUT_DIR / f"work-{os.getpid()}-{name}"
        self.workloads = workloads
        self.setups: list[float] = []
        self.imports: list[float] = []
        self.rounds: list[RoundResult] = []
        self.reference: list[RoundResult] = []
        self.structural: list[RoundResult] = []
        self.phases: dict[str, list[RoundResult]] = {}
        self.verified = {"cells": 0, "recovered_cells": 0}
        self.tracer: Any = None
        self.errors: list[str] = []
        self.laps = 0

    # -- phases ------------------------------------------------------------- #
    def execute(self) -> dict[str, Any]:
        OUT_DIR.mkdir(exist_ok=True)
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir()
        started = time.perf_counter()
        try:
            self.workload = self.workloads.WORKLOADS[self.name](
                self.seed, scale=self.settings.scale, effort=self.settings.effort,
                workdir=str(self.workdir),
            )
            # The benchmark's own model of the sheet is not the engine's
            # garbage: keep the collector, which stays on inside every
            # timed section, from walking it.
            gc.collect()
            gc.freeze()
            try:
                self._laps(started)
            finally:
                gc.unfreeze()
                if self.tracer is not None:
                    self.tracer.uninstall()
                self.workload.discard()
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)
        document = self._document()
        if self.trace:
            aggregate = self.tracer.aggregate()  # one pass over every span
            document["per_layer"] = self._per_layer(aggregate)
            self._write_trace(document, aggregate)
        else:
            document["end_to_end"] = self._end_to_end()
        document["run_wall_s"] = time.perf_counter() - started
        return document

    def _laps(self, started: float) -> None:
        """Run laps for as long as a lap of typical length still ends within
        ``seconds``.  (Typical, not longest: after a lap the neighbours
        slowed down is when the run most needs another one.)"""
        settings = self.settings
        durations: list[float] = []
        while True:
            begin = time.perf_counter()
            self._lap(self.laps)
            self.laps += 1
            now = time.perf_counter()
            durations.append(now - begin)
            if settings.one_lap or (
                    self.laps >= 2
                    and now - started + statistics.median(durations) > settings.seconds):
                break

    def _lap(self, lap: int) -> None:
        workload = self.workload
        workload.discard()
        seconds, (import_s, cells) = _timed_s(workload.build)
        self.setups.append(seconds)
        self.imports.append(cells / import_s)
        # Warm-up, untimed: one full mix round gives every op class of the
        # mix its >= 200 (fast) or >= 20 (slow) warm calls, fills the
        # caches and builds the lazy interval trees; one structural pair
        # (they take up to 0.3 s each) warms the rewrite path.
        self._mix_round(0)
        run_ops(self.workload.plan_structural()[1:2])
        if self.trace:
            self._traced_rounds()
        else:
            self._rounds()
        workload.settle()
        if self.trace:
            # The per-layer window closes here: mix rounds + one structural set.
            self.window = {**workload.counters(), **self.tracer.counts, **_heap_stats()}

        cells_before = workload.engine.cell_count()
        self.plan = self._phase("relayout", workload.relayout)
        cells_after = workload.engine.cell_count()
        if cells_after != cells_before:
            self.errors.append(f"relayout changed cell_count() {cells_before} -> {cells_after}")
        if lap == 0:  # a count: the same for a seed however many laps fit
            self.bytes_per_cell = workload.engine.storage_cost() / cells_after

        # recover() checkpoints the directory it opens, so each lap
        # recovers from a directory nothing has opened yet.
        directory = str(self.workdir / f"persisted-{lap}")
        self._phase("persist", lambda: workload.persist(directory))
        recovered = self._phase("recover", lambda: workload.recover(directory))
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if self.tracer is not None:
            self.tracer.uninstall()
        self._verify(recovered)
        if recovered is not None:
            recovered.close()
        shutil.rmtree(directory, ignore_errors=True)

    def _mix_round(self, index: int, tracer: Any = None) -> RoundResult:
        """Plan, run and check one mix round (``index`` 0 is the warm-up)."""
        workload = self.workload
        plan = workload.plan_round()
        outcome = run_ops(plan.ops, tracer)
        try:
            workload.check_round(plan, outcome.last)
        except (self.workloads.VerificationError, KeyError) as error:
            self.errors.append(str(error))
        outcome.last.clear()  # results are checked; do not keep them alive
        between = workload.after_round(index)
        if between is not None:
            self.phases.setdefault(between[0], []).append(run_ops([between], tracer))
        return outcome

    def _rounds(self, tracer: Any = None) -> None:
        # The structural set sits between mix rounds, never next to another.
        for index in range(1, self.settings.rounds_per_lap + 1):
            self.rounds.append(self._mix_round(index, tracer))
            if index == 1:
                self.structural.append(run_ops(self.workload.plan_structural(), tracer))

    def _traced_rounds(self) -> None:
        from bench.trace import Tracer

        self.reference = [self._mix_round(-1)
                          for _ in range(self.settings.reference_rounds)]
        self.tracer = Tracer()
        self.tracer.install()
        self.workload.reset_counters()
        # Plans are drawn after install() so that the bound methods they
        # hold resolve to the wrapped functions.
        self._rounds(self.tracer)

    def _phase(self, kind: str, function: Callable[[], Any]) -> Any:
        outcome = run_ops([(kind, function, ())], self.tracer)
        self.phases.setdefault(kind, []).append(outcome)
        # Popped, not read: a recovered engine kept alive by every lap's
        # result would make each later lap's collections cost more.
        return outcome.last.pop(kind, None)

    def _verify(self, recovered: Any) -> None:
        workload = self.workload
        try:
            self.verified["cells"] += workload.verify_cells()
            workload.final_queries()
            if recovered is None:
                raise self.workloads.VerificationError("recovery did not return an engine")
            self.verified["recovered_cells"] += workload.verify_recovered(recovered)
        except self.workloads.VerificationError as error:
            self.errors.append(str(error))

    # -- results ------------------------------------------------------------ #
    def _all_results(self) -> list[RoundResult]:
        return [*self.rounds, *self.structural,
                *(result for results in self.phases.values() for result in results)]

    def _medians(self, results: list[RoundResult], kind: str) -> list[float]:
        """Each round's median latency of ``kind`` in ms (rounds without one skipped)."""
        medians = [value for result in results
                   if (value := result.median_ms(kind)) is not None]
        if not medians:
            raise SystemExit(f"{self.name}: no successful {kind!r} op to report")
        return medians

    def _best(self, results: list[RoundResult], kind: str) -> float:
        return min(self._medians(results, kind))

    def _series(self) -> dict[str, list]:
        """Every timed metric's value in each of its rounds (or laps)."""
        rounds = self.rounds
        positions = len(self.workload.structural_fractions)
        pairs = [sample / 1e6 for result in self.structural if not result.failed
                 for sample in result.latencies["structural"]]
        if not pairs:
            raise SystemExit(f"{self.name}: no complete structural set to report")
        return {
            "setup_s": self.setups,
            "import_cells_per_s": self.imports,
            "edit_p50_ms": self._medians(rounds, "edit"),
            "read_p50_ms": self._medians(rounds, "read"),
            # One list per position (25, 50, 75 % of the rows): every pair
            # the run timed there, over all passes of all sets.
            "structural_p50_ms": [pairs[index::positions] for index in range(positions)],
            "query_p50_ms": self._medians(rounds, "query"),
            "ops_per_s": [result.ops_per_s() for result in rounds],
            "relayout_s": [ms / 1e3 for ms in self._medians(self.phases["relayout"], "relayout")],
            "recovery_s": [ms / 1e3 for ms in self._medians(self.phases["recover"], "recover")],
        }

    def _end_to_end(self) -> dict[str, Any]:
        series = self._series()
        values = {
            name: (statistics.median(estimate(position, "lower") for position in rounds)
                   if name == "structural_p50_ms" else estimate(rounds, END_TO_END[name][1]))
            for name, rounds in series.items()
        }
        values["storage_bytes_per_cell"] = self.bytes_per_cell
        values["peak_rss_mb"] = self.peak_rss_mb
        per_round = {name: 1 for name in END_TO_END}
        for name, kind in (("edit_p50_ms", "edit"), ("read_p50_ms", "read"),
                           ("query_p50_ms", "query")):
            per_round[name] = len(self.rounds[0].latencies.get(kind, ()))
        per_round["ops_per_s"] = self.rounds[0].ops
        rounds = {name: len(values) for name, values in series.items()}
        rounds["structural_p50_ms"] = len(series["structural_p50_ms"][0])
        return {
            name: {"value": values[name], "unit": END_TO_END[name][0],
                   "rounds": rounds.get(name, 1), "samples_per_round": per_round[name],
                   **({"series": series[name]} if name in series else {})}
            for name in END_TO_END
        }

    def _document(self) -> dict[str, Any]:
        attempted: dict[str, int] = {}
        failed: dict[str, int] = {}
        pooled: dict[str, list[int]] = {}
        first_failure = None
        for result in self._all_results():  # the warm-up rounds are not in it
            for kind, samples in result.latencies.items():
                attempted[kind] = attempted.get(kind, 0) + len(samples)
                pooled.setdefault(kind, []).extend(samples)
            for kind, count in result.failed.items():
                attempted[kind] = attempted.get(kind, 0) + count
                failed[kind] = failed.get(kind, 0) + count
            first_failure = first_failure or result.first_failure
        diagnostics = {}
        results = self._all_results()
        for kind, samples in sorted(pooled.items()):
            ordered = sorted(samples)
            diagnostics[kind] = {
                "samples": len(ordered),
                "p50_ms": statistics.median(ordered) / 1e6,
                "p95_ms": ordered[min(len(ordered) - 1, int(len(ordered) * 0.95))] / 1e6,
                "best_round_p50_ms": self._best(results, kind),
            }
        return {
            "workload": self.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "smoke": self.settings.smoke,
            "traced": self.trace,
            "correct": not self.errors,
            "errors": self.errors,
            "ops_attempted": attempted,
            "ops_failed": {kind: failed.get(kind, 0) for kind in attempted},
            "first_failure": first_failure,
            "diagnostics": diagnostics,
            "verified": self.verified,
            "laps": self.laps,
            "sizes": self.workload.sizes(),
            "mix_rounds": len(self.rounds),
            "structural_sets": len(self.structural),
            "round_wall_s": [result.wall_ns / 1e9 for result in self.rounds],
            "wal_flush_policy": "one flush per commit point, counted, not sent to the device",
            "wal_dir": str(self.workdir.relative_to(ROOT)),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
        }

    def _per_layer(self, aggregate: dict[str, Any]) -> dict[str, Any]:
        # ``window`` closed after the structural set; ``probes`` ran on
        # through the traced relayout, persist and recover.
        counters, plan = self.window, self.plan
        probes = self.tracer.counts

        def total(layer: str, field: str, classes: Any = None) -> float:
            return sum(
                layers[layer][field] for kind, layers in aggregate.items()
                if layer in layers
                and (kind in classes if classes else kind not in _PHASE_CLASSES)
            )

        def ratio(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator else 0.0

        values: dict[str, tuple[float, str]] = {}
        for layer, fields in _LAYER_FIELDS.items():
            for field in fields:
                unit = "count" if field == "calls" else "ms"
                values[f"{layer}.{field}"] = (total(layer, field), unit)
        edits = sum(len(result.latencies.get("edit", ())) for result in self.rounds)
        reference = min(result.wall_ns for result in self.reference)
        traced = min(result.wall_ns for result in self.rounds)
        values.update({
            "formula.parse_cache.hit_rate": (ratio(
                counters["parse_hits"], counters["parse_hits"] + counters["parse_misses"]),
                "ratio"),
            "formula.dependencies.probes_per_lookup": (ratio(
                counters["graph_probes"], counters["graph_lookups"]), "ratio"),
            "formula.dependencies.index_rebuilds": (counters["graph_rebuilds"], "count"),
            "formula.aggregates.deltas": (counters["aggregate_deltas"], "count"),
            "formula.aggregates.builds": (counters["aggregate_builds"], "count"),
            "formula.aggregates.invalidations": (
                counters["aggregate_invalidations"], "count"),
            "formula.aggregates.delta_ratio": (ratio(
                counters["aggregate_deltas"],
                counters["aggregate_deltas"] + counters["aggregate_builds"]), "ratio"),
            "compute.scheduler.evaluated": (counters["compute_evaluated"], "count"),
            "compute.scheduler.coalesced": (counters["compute_coalesced"], "count"),
            "compute.scheduler.high_water": (counters["compute_high_water"], "count"),
            "compute.scheduler.shed": (counters["compute_shed"], "count"),
            "engine.cache.hit_rate": (ratio(
                counters["cache_hits"], counters["cache_hits"] + counters["cache_misses"]),
                "ratio"),
            "engine.cache.evictions": (counters["cache_evictions"], "count"),
            "engine.dataspread.recompute_passes": (counters["recompute_passes"], "count"),
            "models.hybrid.bulk_reads": (counters["bulk_reads"], "count"),
            "models.hybrid.cells_read": (counters["cells_read"], "count"),
            "models.cells_read_per_cell_returned": (ratio(
                counters["cells_read"], counters["cells_returned"]), "ratio"),
            "decomposition.self_ms": (total("decomposition", "self_ms", ("relayout",)), "ms"),
            "decomposition.tables": (plan.table_count, "count"),
            "storage.heap.pages": (counters["heap_pages"], "count"),
            "storage.heap.dead_bytes_ratio": (counters["heap_dead_bytes_ratio"], "ratio"),
            "storage.wal.appends": (counters["wal_appends"], "count"),
            "storage.wal.fsyncs": (counters["wal_fsyncs"], "count"),
            "storage.wal.bytes": (counters["wal_bytes"], "B"),
            "storage.wal.bytes_per_edit": (ratio(counters["wal_bytes"], edits), "B"),
            "storage.wal.fsyncs_per_commit": (ratio(
                counters["wal_fsyncs"], counters["durable_commits"]), "ratio"),
            "storage.snapshot.self_ms": (total(
                "storage.snapshot", "self_ms", ("checkpoint", "persist", "recover")), "ms"),
            "storage.snapshot.bytes": (probes["snapshot_bytes"], "B"),
            "storage.recovery.self_ms": (
                total("storage.recovery", "self_ms", ("recover",)), "ms"),
            "storage.recovery.records_replayed": (probes["records_replayed"], "count"),
            "query.executor.cells_read_per_row_returned": (ratio(
                counters["query_cells_read"], counters["rows_returned"]), "ratio"),
            "query.views.refreshes": (counters["view_refreshes"], "count"),
            "trace_overhead_ratio": (traced / reference, "ratio"),
        })
        return {name: {"value": value, "unit": unit}
                for name, (value, unit) in values.items()}

    def _write_trace(self, document: dict[str, Any], aggregate: dict[str, Any]) -> None:
        shares = {}
        for kind, layers in aggregate.items():
            root = layers["bench.op"]
            shares[kind] = {
                "ops": root["calls"],
                "wall_ms": root["total_ms"],
                "unattributed_share": root["self_ms"] / root["total_ms"],
                "self_ms_share": {
                    layer: row["self_ms"] / root["total_ms"]
                    for layer, row in sorted(layers.items()) if layer != "bench.op"
                },
            }
        document["op_class_shares"] = shares
        path = OUT_DIR / f"{self.name}.trace.json"
        header = {key: document[key] for key in ("workload", "seed", "seconds", "sizes")}
        header.update(op_class_shares=shares, aggregate=aggregate)
        self.tracer.write(str(path), header)
        document["trace_file"] = str(path.relative_to(ROOT))


def _heap_stats() -> dict[str, float]:
    """Pages and dead space of every live heap file (found through the
    collector: the models keep their heaps private)."""
    from repro.storage.heap import HeapFile

    gc.collect()
    heaps = [item for item in gc.get_objects() if type(item) is HeapFile]
    used = sum(heap.used_bytes() for heap in heaps)
    return {
        "heap_pages": sum(heap.page_count for heap in heaps),
        "heap_dead_bytes_ratio":
            sum(heap.dead_bytes() for heap in heaps) / used if used else 0.0,
    }


# ---------------------------------------------------------------------- #
# reporting
# ---------------------------------------------------------------------- #
def print_report(document: dict[str, Any]) -> None:
    """Every metric by name with its unit, then the diagnostics."""
    sizes = ", ".join(f"{key}={value}" for key, value in document["sizes"].items())
    print(f"workload {document['workload']}  seed {document['seed']}  "
          f"seconds {document['seconds']}  ({sizes})")
    if document["traced"]:
        print(f"per-layer metrics over {document['mix_rounds']} traced mix rounds "
              f"and {document['structural_sets']} structural set:")
        for name, metric in document["per_layer"].items():
            print(f"  {name:<46} {metric['value']:>14.4f} {metric['unit']}")
        print("share of each op class's wall time (self time by layer):")
        for kind, share in document["op_class_shares"].items():
            top = sorted(share["self_ms_share"].items(), key=lambda item: -item[1])[:5]
            layers = ", ".join(f"{layer} {part:.0%}" for layer, part in top)
            print(f"  {kind:<11} {share['ops']:>5} ops {share['wall_ms']:>10.1f} ms  "
                  f"unattributed {share['unattributed_share']:.1%}  {layers}")
        print(f"trace written to {document['trace_file']}")
    else:
        print("end-to-end metrics (best round of R, n samples per round):")
        for name, metric in document["end_to_end"].items():
            print(f"  {name:<24} {metric['value']:>14.4f} {metric['unit']:<4} "
                  f"R={metric['rounds']} n={metric['samples_per_round']}")
    print("ungated diagnostics per op class (tails on a shared box measure the neighbours):")
    for kind, row in document["diagnostics"].items():
        print(f"  {kind:<11} attempted {document['ops_attempted'][kind]:>6} "
              f"failed {document['ops_failed'][kind]:>3}  best-round p50 "
              f"{row['best_round_p50_ms']:.4f} ms  p95 {row['p95_ms']:.4f} ms "
              f"(n={row['samples']})")
    print(f"verified {document['verified']['cells']} cells against the model and "
          f"{document['verified']['recovered_cells']} recovered cells against the live engine; "
          f"WAL: {document['wal_flush_policy']} (in {document['wal_dir']})")
    for error in document["errors"]:
        print(f"WRONG ANSWER: {error}")
    if document["first_failure"]:
        print(f"FAILED OP: {document['first_failure']}")
    print(f"run took {document['run_wall_s']:.1f} s")


def driver_line(document: dict[str, Any]) -> str:
    """The one-line JSON object the benchmark contract asks for."""
    metrics = document["per_layer"] if document["traced"] else document["end_to_end"]
    return json.dumps({
        "correct": document["correct"],
        "attempted": sum(document["ops_attempted"].values()),
        "failed": sum(document["ops_failed"].values()),
        "metrics": {name: {"value": metric["value"], "unit": metric["unit"]}
                    for name, metric in metrics.items()},
    })


# ---------------------------------------------------------------------- #
# sets of runs: summarize and compare
# ---------------------------------------------------------------------- #
def _load_runs(path: str) -> dict[str, Any]:
    """A summary, from a summary file or from a JSON-lines file of runs."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        document = json.loads(text)
    except json.JSONDecodeError:  # more than one document: JSON lines, one run each
        return summarize([json.loads(line) for line in text.splitlines() if line.strip()])
    return document if "workloads" in document else summarize([document])


def summarize(runs: list[dict[str, Any]]) -> dict[str, Any]:
    """Median and quartiles of every end-to-end metric, per workload."""
    summary: dict[str, Any] = {"workloads": {}}
    for run in runs:
        if run.get("traced") or "end_to_end" not in run:
            continue
        entry = summary["workloads"].setdefault(run["workload"], {
            "seeds": [], "seconds": run["seconds"], "sizes": run["sizes"],
            "python": run["python"], "nproc": run["nproc"], "values": {},
            "rounds": {name: metric["rounds"] for name, metric in run["end_to_end"].items()},
            "samples_per_round": {name: metric["samples_per_round"]
                                  for name, metric in run["end_to_end"].items()},
        })
        entry["seeds"].append(run["seed"])
        for name, metric in run["end_to_end"].items():
            entry["values"].setdefault(name, []).append(metric["value"])
    for entry in summary["workloads"].values():
        entry["runs"] = len(entry["seeds"])
        entry["metrics"] = {}
        for name, values in entry.pop("values").items():
            quartiles = (statistics.quantiles(values, n=4) if len(values) > 1
                         else [values[0]] * 3)
            entry["metrics"][name] = {
                "unit": END_TO_END[name][0], "median": statistics.median(values),
                "q1": quartiles[0], "q3": quartiles[2],
                "min": min(values), "max": max(values),
            }
    return summary


def compare(base_path: str, other_path: str) -> int:
    """Print B against A per workload x metric; 0 when nothing regressed."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        contract = json.load(handle)
    bounds = {metric["name"]: metric["bound"] for metric in contract["end_to_end"]}
    base, other = _load_runs(base_path), _load_runs(other_path)
    verdicts = {"PASS": 0, "REGRESSED": 0, "UNRESOLVED": 0}
    print(f"A = {base_path}   B = {other_path}   (ratio = B median / A median)")
    for name in sorted(set(base["workloads"]) & set(other["workloads"])):
        left, right = base["workloads"][name], other["workloads"][name]
        print(f"\n{name}  (A: {left['runs']} runs, B: {right['runs']} runs)")
        print(f"  {'metric':<24} {'A median [q1, q3]':>36} {'B median [q1, q3]':>36} "
              f"{'ratio':>7} {'spread':>7} {'bound':>6}  verdict")
        for metric, (unit, better) in END_TO_END.items():
            a, b = left["metrics"][metric], right["metrics"][metric]
            bound = bounds[metric]
            worse = (b["median"] - a["median"]) / a["median"]
            if better == "higher":
                worse = -worse
            spread = max((a["q3"] - a["q1"]) / a["median"], (b["q3"] - b["q1"]) / b["median"])
            separated = (b["max"] < a["min"]) if better == "lower" else (b["min"] > a["max"])
            if spread > bound and not separated:
                verdict = "UNRESOLVED"  # the runs cannot tell a change this small
            elif worse > bound:
                verdict = "REGRESSED"
            else:
                verdict = "PASS"
            verdicts[verdict] += 1
            print(f"  {metric:<24} {_cell(a, unit):>36} {_cell(b, unit):>36} "
                  f"{b['median'] / a['median']:>7.3f} {spread:>7.1%} {bound:>6.0%}  {verdict}")
    print("\n" + ", ".join(f"{count} {verdict}" for verdict, count in verdicts.items()))
    return 1 if verdicts["REGRESSED"] or verdicts["UNRESOLVED"] else 0


def _cell(row: dict[str, float], unit: str) -> str:
    return f"{row['median']:.4g} [{row['q1']:.4g}, {row['q3']:.4g}] {unit}"


# ---------------------------------------------------------------------- #
# command line
# ---------------------------------------------------------------------- #
def run_benchmark(workload: str, seed: int, seconds: float = 30.0, *,
                  trace: bool = False, smoke: bool = False) -> dict[str, Any]:
    """Run one workload in this process and return its result document."""
    return Run(workload, seed, seconds, trace=trace, smoke=smoke).execute()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long to measure: laps start while the next one still fits")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        help="1: print per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="2 %% size, one round: the contract test's mode")
    parser.add_argument("--out", help="append this run's full result to a JSON-lines file")
    parser.add_argument("--summarize", metavar="RUNS",
                        help="print medians and quartiles of a JSON-lines file of runs")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two sets of runs by the bounds in BENCHMARK.json")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.summarize:
        print(json.dumps(_load_runs(args.summarize), indent=1))
        return 0
    if not args.workload:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench/run.py: the engine's sources are not at {ROOT / 'src'}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set and dict-of-str iteration order must not differ between runs.
        environment = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], environment)
    document = run_benchmark(args.workload, args.seed, args.seconds,
                             trace=bool(args.trace), smoke=args.smoke)
    print_report(document)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(document) + "\n")
    print(driver_line(document))
    failed = sum(document["ops_failed"].values())
    return 0 if document["correct"] and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
