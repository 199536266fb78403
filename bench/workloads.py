"""The four benchmark workloads.

Each workload generates its inputs from the seed *here*, in the benchmark
process; the engine only ever sees generated rows and operations.  Beside
the engine each workload keeps a plain-dict model of the raw values it
wrote (``self.model``) and checks the engine against it — during the run
for the last read and query of every round, and cell for cell at the end.

All four expose the same phases (build, mix rounds, structural sets,
relayout, persist + recover, verify) so that every workload reports every
metric; why each exists is recorded in its ``why`` and in the README.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import time
import zlib
from dataclasses import dataclass
from typing import Any, Callable

from repro.engine.dataspread import DataSpread
from repro.grid.address import column_index_to_letter
from repro.grid.range import RangeRef
from repro.query import col, count, region as grid_region, select, sum_
from repro.service import Workspace
from repro.storage import recovery, snapshot
from repro.storage.wal import WALFileIO
from repro.workloads.synthetic import SyntheticSheetSpec, generate_synthetic_sheet

#: One operation of a plan: ``(op class, callable, arguments)``.
Op = tuple[str, Callable[..., Any], tuple]

VIEWPORT_ROWS = 40
STATUSES = ("open", "overdue", "closed", "draft")
#: Raw values are uniform in ``[0, VALUE_MAX]``; queries keep the top 1 %.
VALUE_MAX = 9_999
THRESHOLD = 9_900


class VerificationError(Exception):
    """The engine returned something the plain-dict model disagrees with."""


@dataclass
class RoundPlan:
    """The operations of one round and what its last checked ops return."""

    ops: list[Op]
    #: op class -> expected result of the *last* op of that class.
    expect: dict[str, Any]


@dataclass
class WalCounters:
    """Exact counts of what the engine asked of the log device."""

    appends: int = 0
    bytes: int = 0
    fsyncs: int = 0


class CountingWalIO(WALFileIO):
    """WAL file IO that counts flushes instead of waiting for the device.

    Appends go to a real file in the benchmark's work directory.  ``sync``
    is counted but not forwarded to ``os.fsync``: on this sandbox's disk a
    flush takes 2.4-4.0 ms in two modes, which would make every durable
    latency a measurement of the neighbours.  The policy is the same for
    every run on both sides of a comparison: one flush per commit point,
    reported as an exact count.
    """

    def __init__(self, path: str, counters: WalCounters) -> None:
        super().__init__(path)
        self._counters = counters

    def append(self, data: bytes) -> None:
        super().append(data)
        self._counters.appends += 1
        self._counters.bytes += len(data)

    def sync(self) -> None:
        self._counters.fsyncs += 1


def _cells_of(engine: DataSpread) -> dict[tuple[int, int], tuple[Any, str | None]]:
    """Every stored cell of ``engine`` as ``{(row, column): (value, formula)}``."""
    return {
        (address.row, address.column): (cell.value, cell.formula)
        for address, cell in engine.get_cells(engine.used_range()).items()
    }


def _same(left: Any, right: Any) -> bool:
    if isinstance(left, float) or isinstance(right, float):
        try:
            return math.isclose(left, right, rel_tol=1e-12, abs_tol=1e-12)
        except TypeError:
            return False
    return left == right


def _first_difference(expected: list, got: list) -> str:
    for index, (want, have) in enumerate(zip(expected, got)):
        if want != have:
            return f"{have!r} at position {index}, the model says {want!r}"
    return f"{len(got)} rows, the model says {len(expected)}"


class Workload:
    """Phases and bookkeeping shared by the four workloads."""

    name = ""
    why = ""
    #: Number of data rows at scale 1.0.
    base_rows = 0
    #: ``(op class, repeats)`` of one cycle of a mix round, in order.
    cycle: tuple[tuple[str, int], ...] = ()
    #: Cycles per mix round at effort 1.0 (a full-size run).
    base_cycles = 0
    #: Rows (as shares of the sheet) where a structural set inserts and deletes.
    structural_fractions = (0.25, 0.5, 0.75)
    #: Passes over those rows in one structural set: 1 where a pair takes
    #: 0.2 s, more where it takes under a millisecond.
    structural_passes = 1

    def __init__(self, seed: int, *, scale: float, effort: float, workdir: str) -> None:
        self.seed = seed
        self.rng = random.Random(seed * 1_000_003 + zlib.crc32(self.name.encode()))
        self.rows = max(int(self.base_rows * scale), 2 * VIEWPORT_ROWS)
        self.cycles = max(int(round(self.base_cycles * effort)), 2)
        self.workdir = workdir
        self.engine: DataSpread | None = None
        #: Raw values of the generated sheet, ``{(row, column): value}``.
        self.initial: dict[tuple[int, int], Any] = {}
        #: ``initial`` plus every edit drawn since the last build.
        self.model: dict[tuple[int, int], Any] = {}
        #: Formula cells, ``{(row, column): text}``.
        self.formulas: dict[tuple[int, int], str] = {}
        self.wal = WalCounters()
        self._baseline: dict[str, int] = {}
        self.generate()

    # -- inputs ----------------------------------------------------------- #
    def generate(self) -> None:
        """Fill ``self.initial`` (and ``self.formulas``) from ``self.rng``."""
        raise NotImplementedError

    def sizes(self) -> dict[str, int]:
        return {
            "rows": self.rows,
            "raw_cells": len(self.initial),
            "formulas": len(self.formulas),
            "cycles_per_round": self.cycles,
            "ops_per_round": self.cycles * sum(repeats for _, repeats in self.cycle),
        }

    # -- build ------------------------------------------------------------ #
    def build(self) -> tuple[float, int]:
        """Construct a fresh engine over the generated sheet.

        Returns ``(import seconds, cells imported)``: the bulk data import
        is timed on its own inside the build.
        """
        self.model = dict(self.initial)
        return self._build(), len(self.initial)

    def _build(self) -> float:
        raise NotImplementedError

    def discard(self) -> None:
        """Drop the engine of the last build."""
        if self.engine is not None:
            self.engine.close()
        self.engine = None

    @staticmethod
    def _timed(load: Callable[[], Any]) -> float:
        start = time.perf_counter_ns()
        load()
        return (time.perf_counter_ns() - start) / 1e9

    # -- operations --------------------------------------------------------- #
    def op(self, kind: str) -> Op:
        """Draw the next operation of class ``kind`` (updates the model)."""
        return getattr(self, "_op_" + kind)()

    def expected(self, kind: str, op: Op) -> Any:
        """What ``op`` must return given the model now, or ``None`` to skip."""
        check = getattr(self, "_expect_" + kind, None)
        return None if check is None else check(*op[2])

    def plan_round(self) -> RoundPlan:
        """One mix round: ``self.cycles`` repeats of the fixed interleave."""
        kinds = [kind for _ in range(self.cycles)
                 for kind, repeats in self.cycle for _ in range(repeats)]
        last = {kind: index for index, kind in enumerate(kinds)}
        ops: list[Op] = []
        expect: dict[str, Any] = {}
        for index, kind in enumerate(kinds):
            op = self.op(kind)
            ops.append(op)
            if last[kind] == index:
                # The model holds exactly the edits drawn before this op.
                value = self.expected(kind, op)
                if value is not None:
                    expect[kind] = value
        return RoundPlan(ops, expect)

    def plan_structural(self) -> list[Op]:
        """One structural set: ``structural_passes`` times an insert/delete
        pair at 25, 50 and 75 % of the rows.

        A pair is one op (it leaves the sheet as it found it); inserts and
        deletes cost very different amounts on some layouts, so a median
        over the six single edits would sit between two modes.
        """
        return [("structural", self._row_pair, (int(self.rows * fraction),))
                for _ in range(self.structural_passes)
                for fraction in self.structural_fractions]

    def _row_pair(self, row: int) -> None:
        self.engine.insert_row_after(row)
        self.engine.delete_row(row + 1)

    def after_round(self, index: int) -> Op | None:
        """An operation to run after the lap's mix round ``index`` (1-based;
        the warm-up round is 0)."""
        return None

    def _compare(self, kind: str, when: str, expected: Any, got: Any) -> None:
        got = self._raw_window(got) if kind == "read" else [tuple(row) for row in got]
        if got != expected:
            raise VerificationError(
                f"{self.name}: {when} {kind} returned "
                f"{_first_difference(expected, got)}"
            )

    def check_round(self, plan: RoundPlan, results: dict[str, Any]) -> None:
        for kind, expected in plan.expect.items():
            self._compare(kind, "last", expected, results[kind])

    def _raw_window(self, window: list[list[Any]]) -> list[list[Any]]:
        """The part of a viewport read that the model can vouch for."""
        return window

    # -- whole-sheet phases ------------------------------------------------- #
    def settle(self) -> None:
        """Finish deferred work (async engines drain here)."""

    def relayout(self) -> Any:
        return self.engine.optimize_storage("aggressive")

    def persist(self, directory: str) -> None:
        """Leave a recoverable workspace in ``directory``."""
        os.makedirs(directory)
        cells = sorted(
            (row, column, value, formula)
            for (row, column), (value, formula) in _cells_of(self.engine).items()
        )
        snapshot.write_snapshot(
            directory, generation=1, cells=cells,
            config={"mapping_scheme": self.engine.mapping_scheme},
        )

    def recover(self, directory: str) -> DataSpread:
        return recovery.recover(directory, wal_options=self._wal_options())

    def _wal_options(self) -> dict[str, Any]:
        return {"io_factory": lambda path: CountingWalIO(path, self.wal)}

    # -- counters ------------------------------------------------------------ #
    def _running_counts(self) -> dict[str, int]:
        engine = self.engine
        return {
            "cache_hits": engine.cache.hits,
            "cache_misses": engine.cache.misses,
            "recompute_passes": engine.recompute_passes,
            "durable_commits": engine.storage_backend.durable_commits,
            "view_refreshes": sum(view.refresh_count for view in engine.live_views),
        }

    def reset_counters(self) -> None:
        """Zero (or take a baseline of) every public counter the layers expose."""
        engine = self.engine
        engine.evaluator.reset_parse_cache_stats()
        engine.dependency_graph.stats.reset()
        engine.aggregate_store.stats.reset()
        engine.compute_scheduler.stats.reset()
        engine.model.reset_read_counters()
        self.wal.appends = self.wal.bytes = self.wal.fsyncs = 0
        self._baseline = self._running_counts()

    def counters(self) -> dict[str, int]:
        """The engine's public counters since :meth:`reset_counters`."""
        engine = self.engine
        parse = engine.evaluator.parse_cache_stats()
        graph = engine.dependency_graph.stats
        aggregates = engine.aggregate_store.stats
        compute = engine.compute_scheduler.stats
        counts = {
            "parse_hits": parse.hits,
            "parse_misses": parse.misses,
            "graph_lookups": graph.lookups,
            "graph_probes": graph.range_probes,
            "graph_rebuilds": graph.index_rebuilds,
            "aggregate_deltas": aggregates.deltas,
            "aggregate_builds": aggregates.builds,
            "aggregate_invalidations": aggregates.invalidations,
            "compute_evaluated": compute.evaluated,
            "compute_coalesced": compute.coalesced,
            "compute_high_water": compute.high_water,
            "compute_shed": compute.shed,
            "bulk_reads": engine.model.bulk_reads,
            "cells_read": engine.model.cells_read,
            "wal_appends": self.wal.appends,
            "wal_bytes": self.wal.bytes,
            "wal_fsyncs": self.wal.fsyncs,
        }
        for key, value in self._running_counts().items():
            counts[key] = value - self._baseline[key]
        return counts

    # -- verification -------------------------------------------------------- #
    def formula_value(self, key: tuple[int, int]) -> Any:
        """The Python-computed value of the formula at ``key``."""
        raise NotImplementedError

    def _is_row_formula(self, key: tuple[int, int]) -> bool:
        return False

    def final_queries(self) -> None:
        """Run every query class once more and compare it with the model."""
        for kind in dict(self.cycle):
            if kind == "read" or not hasattr(self, "_expect_" + kind):
                continue
            op = self.op(kind)
            self._compare(kind, "final", self.expected(kind, op), op[1](*op[2]))

    def verify_cells(self, *, formula_samples: int = 200) -> int:
        """Check every raw cell and a sample of formulas; returns cells checked."""
        self.settle()
        stored = _cells_of(self.engine)
        if self.engine.cell_count() != len(stored):
            raise VerificationError(
                f"{self.name}: cell_count() is {self.engine.cell_count()} but "
                f"{len(stored)} cells read back"
            )
        written = set(self.model) | set(self.formulas)
        if set(stored) != written:
            extra = sorted(set(stored) - written)
            missing = sorted(written - set(stored))
            raise VerificationError(
                f"{self.name}: {len(stored)} cells stored, {len(written)} "
                f"written (first extra {extra[:1]}, first missing {missing[:1]})"
            )
        for key in sorted(self.model):
            value = self.model[key]
            got = stored[key]
            if got[0] != value or got[1] is not None:
                raise VerificationError(
                    f"{self.name}: cell {key} holds {got}, wrote {value!r}"
                )
        wide = sorted(key for key in self.formulas if not self._is_row_formula(key))
        rows = sorted(key for key in self.formulas if self._is_row_formula(key))
        sample = self.rng.sample(rows, min(formula_samples, len(rows)))
        for key in wide + sample:
            got = stored[key]
            want = self.formula_value(key)
            if got[1] is None or not _same(got[0], want):
                raise VerificationError(
                    f"{self.name}: formula {self.formulas[key]} at {key} "
                    f"holds {got}, Python computes {want!r}"
                )
        return len(self.model) + len(wide) + len(sample)

    def verify_recovered(self, recovered: DataSpread) -> int:
        """The recovered engine must equal the live one cell for cell."""
        live = _cells_of(self.engine)
        other = _cells_of(recovered)
        for key in sorted(set(live) | set(other)):
            left, right = live.get(key), other.get(key)
            if (left is None or right is None or left[1] != right[1]
                    or not _same(left[0], right[0])):
                raise VerificationError(
                    f"{self.name}: recovered cell {key} is {right}, live is {left}"
                )
        return len(live)


# ---------------------------------------------------------------------- #
# a numeric block with row formulas, sliding window sums and column totals
# ---------------------------------------------------------------------- #
class _FormulaSheet(Workload):
    """``rows`` x ``raw_columns`` integers under a header row, plus formulas.

    Column ``F = raw_columns + 1`` holds ``=A{r}+B{r}*2`` on every data
    row; column ``F + 1`` holds a sliding ``window``-row ``SUM`` every
    ``window_step`` rows, over column A and column B in turn; the header
    row holds ``SUM(A)`` and ``AVERAGE(B)``.  Edits land in columns A-B on
    the rows every window length covers, so each one has the same work
    downstream — a row formula, ``window / (2 * window_step)`` window sums
    and one column aggregate — and the edit population is homogeneous (a
    median over two kinds of edit would sit between two modes).
    """

    raw_columns = 8
    window_step = 25
    #: Rows the filter-scan query covers.
    query_rows = 1_000

    def generate(self) -> None:
        rng, rows, columns = self.rng, self.rows, self.raw_columns
        self.header = [f"c{index}" for index in range(columns)]
        self.data = [
            [rng.randint(0, VALUE_MAX) for _ in range(columns)] for _ in range(rows)
        ]
        for column, name in enumerate(self.header, start=1):
            self.initial[(1, column)] = name
        for offset, values in enumerate(self.data):
            for column, value in enumerate(values, start=1):
                self.initial[(offset + 2, column)] = value
        self.formula_column = columns + 1
        self.window = min(500, max(rows // 6, 8))
        last = rows + 1
        for row in range(2, last + 1):
            self.formulas[(row, self.formula_column)] = f"=A{row}+B{row}*2"
        #: Window formula row -> the raw column (1 = A, 2 = B) it sums.
        self.window_source: dict[int, int] = {}
        for index, row in enumerate(range(2, last - self.window + 2, self.window_step)):
            source = 1 + index % 2
            self.window_source[row] = source
            self.formulas[(row, self.formula_column + 1)] = (
                f"=SUM({'AB'[source - 1]}{row}:{'AB'[source - 1]}{row + self.window - 1})"
            )
        self.formulas[(1, self.formula_column + 2)] = f"=SUM(A2:A{last})"
        self.formulas[(1, self.formula_column + 3)] = f"=AVERAGE(B2:B{last})"
        # Rows covered by a full complement of windows of either column.
        self.edit_rows = (self.window + 2 * self.window_step, last - self.window)
        self.read_width = columns + 4
        self.query_bottom = min(rows, self.query_rows) + 1
        self.query = (
            select(grid_region(RangeRef(1, 1, self.query_bottom, columns)))
            .where(col("c2") > THRESHOLD)
            .project(col("c0"), col("c2"))
        )

    def _import_block(self) -> list[list[Any]]:
        return [self.header, *self.data]

    def _enter_formulas(self, engine: DataSpread) -> None:
        with engine.batch():
            for (row, column), text in self.formulas.items():
                engine.set_formula(row, column, text)

    def _is_row_formula(self, key: tuple[int, int]) -> bool:
        return key[1] == self.formula_column

    def formula_value(self, key: tuple[int, int]) -> Any:
        row, column = key
        model, last = self.model, self.rows + 1
        if column == self.formula_column:
            return model[(row, 1)] + model[(row, 2)] * 2
        if column == self.formula_column + 1:
            source = self.window_source[row]
            return sum(model[(index, source)] for index in range(row, row + self.window))
        if column == self.formula_column + 2:
            return sum(model[(index, 1)] for index in range(2, last + 1))
        return sum(model[(index, 2)] for index in range(2, last + 1)) / self.rows

    # -- operations --------------------------------------------------------- #
    def _draw_edit(self) -> tuple[int, int, int]:
        rng = self.rng
        row, column = rng.randint(*self.edit_rows), rng.randint(1, 2)
        value = rng.randint(0, VALUE_MAX)
        self.model[(row, column)] = value
        return row, column, value

    def _draw_top(self) -> int:
        return self.rng.randint(1, self.rows + 2 - VIEWPORT_ROWS)

    def _expect_read(self, top: int) -> list[list[Any]]:
        return [
            [self.model.get((row, column)) for column in range(1, self.raw_columns + 1)]
            for row in range(top, top + VIEWPORT_ROWS)
        ]

    def _raw_window(self, window: list[list[Any]]) -> list[list[Any]]:
        return [row[:self.raw_columns] for row in window]

    def _expect_query(self) -> list[tuple]:
        model = self.model
        return [
            (model[(row, 1)], model[(row, 3)])
            for row in range(2, self.query_bottom + 1)
            if model[(row, 3)] > THRESHOLD
        ]


class InteractiveFormulas(_FormulaSheet):
    name = "interactive_formulas"
    why = ("sync engine, default layout; a row formula per row, sliding window sums and "
           "column aggregates: the formula layers and the cell cache do the work, "
           "storage and query almost none")
    base_rows = 3_000
    cycle = (("edit", 5), ("read", 5), ("query", 1))
    base_cycles = 40

    def _build(self) -> float:
        self.engine = engine = DataSpread()
        block = self._import_block()
        seconds = self._timed(lambda: engine.import_rows(block))
        self._enter_formulas(engine)
        return seconds

    def _op_edit(self) -> Op:
        return ("edit", self.engine.set_value, self._draw_edit())

    def _op_read(self) -> Op:
        return ("read", self._scroll, (self._draw_top(),))

    def _scroll(self, top: int) -> list[list[Any]]:
        return self.engine.scroll(top, height=VIEWPORT_ROWS, width=self.read_width)

    def _op_query(self) -> Op:
        return ("query", self._run_query, ())

    def _run_query(self) -> tuple:
        return self.engine.execute(self.query).to_table().rows


class DurableService(_FormulaSheet):
    name = "durable_service"
    why = ("WAL-backed workspace, a writer and a reader session over the async engine: WAL, "
           "snapshot, recovery, backend, scheduler and service work here and only here, "
           "beside acknowledged-then-drained formulas")
    base_rows = 2_000
    raw_columns = 6
    #: Ten acked edits then a drain, five times; then one 20-edit batch
    #: with a rolled-back savepoint: a flush every 10 edits, a batch every 50.
    cycle = (("edit", 10), ("drain", 1), ("read", 10), ("query", 1)) * 5 + (
        ("batch", 1), ("drain", 1),
    )
    base_cycles = 5
    #: Mix round of each lap after which the workspace checkpoints, so that
    #: what is recovered is a snapshot plus the log of the rounds after it.
    checkpoint_after_round = 1

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        self.workspace: Workspace | None = None
        self._builds = 0
        super().__init__(*args, **kwargs)

    def _build(self) -> float:
        self._builds += 1
        self.storage_dir = os.path.join(self.workdir, f"workspace-{self._builds}")
        self.workspace = workspace = Workspace(
            durability="wal", storage_dir=self.storage_dir,
            wal_options=self._wal_options(),
        )
        self.engine = engine = workspace.engine
        block = self._import_block()
        seconds = self._timed(lambda: engine.import_rows(block))
        self._enter_formulas(engine)
        workspace.flush()
        self.writer = workspace.open_session("writer")
        self.reader = workspace.open_session("reader")
        self.reader.set_viewport(self._viewport(1))
        return seconds

    def discard(self) -> None:
        if self.workspace is not None:
            self.workspace.close()
        self.workspace = self.engine = None

    def settle(self) -> None:
        self.workspace.flush()

    def after_round(self, index: int) -> Op | None:
        if index == self.checkpoint_after_round:
            return ("checkpoint", self._checkpoint, ())
        return None

    def _checkpoint(self) -> None:
        self.workspace.flush()
        self.engine.checkpoint()

    def _viewport(self, top: int) -> RangeRef:
        return RangeRef(top, 1, top + VIEWPORT_ROWS - 1, self.read_width)

    def _op_edit(self) -> Op:
        return ("edit", self.writer.set_value, self._draw_edit())

    def _op_drain(self) -> Op:
        return ("drain", self.workspace.flush, ())

    def _op_read(self) -> Op:
        return ("read", self._move_and_read, (self._draw_top(),))

    def _move_and_read(self, top: int) -> list[list[Any]]:
        viewport = self._viewport(top)
        self.reader.set_viewport(viewport)
        return self.reader.get_range_values(viewport)

    def _op_query(self) -> Op:
        return ("query", self._run_query, ())

    def _run_query(self) -> tuple:
        return self.reader.query(self.query).rows

    def _op_batch(self) -> Op:
        rng = self.rng
        kept_first = [self._draw_edit() for _ in range(8)]
        # Rolled back inside the batch: these never reach the model.
        undone = [(rng.randint(*self.edit_rows), rng.randint(1, 2), rng.randint(0, VALUE_MAX))
                  for _ in range(6)]
        kept_last = [self._draw_edit() for _ in range(6)]
        return ("batch", self._run_batch, (kept_first, undone, kept_last))

    def _run_batch(self, kept_first: list, undone: list, kept_last: list) -> None:
        writer = self.writer
        with writer.batch():
            for edit in kept_first:
                writer.set_value(*edit)
            savepoint = writer.savepoint()
            for edit in undone:
                writer.set_value(*edit)
            savepoint.rollback()
            savepoint.release()
            for edit in kept_last:
                writer.set_value(*edit)

    # A structural edit on the async engine acknowledges before its
    # rewritten formulas recompute; the pair times edits *and* drains so
    # the number is comparable with the sync workloads.
    def _row_pair(self, row: int) -> None:
        self.writer.insert_row_after(row)
        self.workspace.flush()
        self.writer.delete_row(row + 1)
        self.workspace.flush()

    def persist(self, directory: str) -> None:
        # What a kill would leave: the last checkpoint's snapshot plus the
        # log tail written since (appends are flushed to the file as made).
        self.workspace.flush()
        shutil.copytree(self.storage_dir, directory)

    def recover(self, directory: str) -> DataSpread:
        return recovery.recover(
            directory, wal_options=self._wal_options(), async_recompute=True,
        )


# ---------------------------------------------------------------------- #
# the paper's synthetic sheet, re-laid out by the hybrid optimizer
# ---------------------------------------------------------------------- #
class RelayoutDense(Workload):
    name = "relayout_dense"
    why = ("the paper's synthetic sheet (12 dense tables, density 0.5) re-laid out by the "
           "optimizer, cache a quarter of the cells, no formulas: models, positional "
           "mapping, decomposition and the heap do the work")
    base_rows = 1_000
    total_columns = 60
    #: Seed of the sheet's *shape* (where the 12 tables lie).  The shape is
    #: part of the workload, like the column count; ``--seed`` draws the
    #: values, the loose cells and the ops.  With a seeded shape the cell
    #: count, and with it bytes per cell, would differ 5 % between seeds.
    layout_seed = 7
    loose_cells = 100
    cycle = (("edit", 1), ("read", 5), ("query", 1))
    base_cycles = 40
    structural_passes = 20
    read_width = 30
    query_left = 28
    #: Columns the edits visit in turn.  An edit in a COM region rewrites
    #: its whole column record, so its cost depends on how full the column
    #: is; visiting the same columns every round keeps rounds comparable.
    edit_columns = range(11, 51)

    def generate(self) -> None:
        rng, rows, columns = self.rng, self.rows, self.total_columns
        synthetic = generate_synthetic_sheet(SyntheticSheetSpec(
            total_rows=rows, total_columns=columns, table_count=12, density=0.5,
            formula_count=0, seed=self.layout_seed,
        ))
        self.tables = synthetic.tables
        for table in self.tables:
            for row in range(table.top, table.bottom + 1):
                for column in range(table.left, table.right + 1):
                    self.initial[(row, column)] = round(rng.uniform(0, VALUE_MAX + 1), 2)
        self.initial[(rows, columns)] = "corner"  # pins the sheet's extent
        loose = max(self.loose_cells * rows // self.base_rows, 10)
        while loose:
            key = (rng.randint(1, rows), rng.randint(1, columns))
            if key not in self.initial:
                self.initial[key] = rng.randint(0, 99)
                loose -= 1
        self.cells = sorted((row, column, value)
                            for (row, column), value in self.initial.items())
        self.table_rows = {
            column: [row for table in self.tables if table.left <= column <= table.right
                     for row in range(table.top, table.bottom + 1)]
            for column in self.edit_columns
        }
        self._edits_drawn = 0
        left = self.query_left
        first, third = column_index_to_letter(left), column_index_to_letter(left + 2)
        self.query = (
            select(grid_region(RangeRef(1, left, rows, left + 3), header=False))
            .where(col(first) > THRESHOLD)
            .project(col(first), col(third))
        )

    def _build(self) -> float:
        self.engine = engine = DataSpread(cache_capacity=max(len(self.cells) // 4, 64))
        seconds = self._timed(lambda: engine.set_values(self.cells))
        engine.optimize_storage("aggressive")
        return seconds

    def _op_edit(self) -> Op:
        rng = self.rng
        column = self.edit_columns[self._edits_drawn % len(self.edit_columns)]
        self._edits_drawn += 1
        row = rng.choice(self.table_rows[column])
        value = round(rng.uniform(0, VALUE_MAX + 1), 2)
        self.model[(row, column)] = value
        return ("edit", self.engine.set_value, (row, column, value))

    def _op_read(self) -> Op:
        rng = self.rng
        top = rng.randint(1, self.rows + 1 - VIEWPORT_ROWS)
        left = rng.randint(1, self.total_columns + 1 - self.read_width)
        return ("read", self._scroll, (top, left))

    def _scroll(self, top: int, left: int) -> list[list[Any]]:
        return self.engine.scroll(
            top, height=VIEWPORT_ROWS, first_column=left, width=self.read_width,
        )

    def _expect_read(self, top: int, left: int) -> list[list[Any]]:
        return [
            [self.model.get((row, column))
             for column in range(left, left + self.read_width)]
            for row in range(top, top + VIEWPORT_ROWS)
        ]

    def _op_query(self) -> Op:
        return ("query", self._run_query, ())

    def _run_query(self) -> tuple:
        return self.engine.execute(self.query).to_table().rows

    def _expect_query(self) -> list[tuple]:
        model, left = self.model, self.query_left
        return [
            (value, model.get((row, left + 2)))
            for row in range(1, self.rows + 1)
            if isinstance(value := model.get((row, left)), (int, float))
            and value > THRESHOLD
        ]


# ---------------------------------------------------------------------- #
# a table-shaped region under queries and a live view
# ---------------------------------------------------------------------- #
class QueryAnalytics(Workload):
    name = "query_analytics"
    why = ("a table-shaped region under filter scans, LIMIT streaming and GROUP BY beside "
           "edits that each refresh a live view: planner, executor, views and the models' "
           "bulk reads do most of the work")
    base_rows = 2_000
    cycle = (("edit", 1), ("query", 1), ("stream", 3), ("group", 1), ("read", 5))
    base_cycles = 40
    structural_passes = 20

    def generate(self) -> None:
        rng, rows = self.rng, self.rows
        self.header = ["id", "amount", "status", "qty"]
        self.data = [
            [index, rng.randint(0, VALUE_MAX), rng.choice(STATUSES), rng.randint(1, 99)]
            for index in range(1, rows + 1)
        ]
        for column, name in enumerate(self.header, start=1):
            self.initial[(1, column)] = name
        for offset, values in enumerate(self.data):
            for column, value in enumerate(values, start=1):
                self.initial[(offset + 2, column)] = value
        source = grid_region(RangeRef(1, 1, rows + 1, 4))
        self.query = (select(source).where(col("amount") > THRESHOLD)
                      .project(col("id"), col("amount")))
        self.stream = (select(source).where(col("amount") > VALUE_MAX // 2)
                       .project(col("id"), col("amount")).limit(50))
        self.group = (select(source)
                      .project(col("status"), count(alias="n"), sum_("amount", alias="total"))
                      .group_by(col("status")))

    def _build(self) -> float:
        self.engine = engine = DataSpread()
        block = [self.header, *self.data]
        seconds = self._timed(lambda: engine.import_rows(block))
        self.view = engine.create_live_view(self.query, name="top_amounts")
        return seconds

    def _op_edit(self) -> Op:
        rng = self.rng
        row, value = rng.randint(2, self.rows + 1), rng.randint(0, VALUE_MAX)
        self.model[(row, 2)] = value
        return ("edit", self.engine.set_value, (row, 2, value))

    def _op_read(self) -> Op:
        return ("read", self._scroll, (self.rng.randint(1, self.rows + 2 - VIEWPORT_ROWS),))

    def _scroll(self, top: int) -> list[list[Any]]:
        return self.engine.scroll(top, height=VIEWPORT_ROWS, width=4)

    def _expect_read(self, top: int) -> list[list[Any]]:
        return [[self.model.get((row, column)) for column in range(1, 5)]
                for row in range(top, top + VIEWPORT_ROWS)]

    def _run(self, query: Any) -> tuple:
        return self.engine.execute(query).to_table().rows

    def _op_query(self) -> Op:
        return ("query", self._run, (self.query,))

    def _op_stream(self) -> Op:
        return ("stream", self._run, (self.stream,))

    def _op_group(self) -> Op:
        return ("group", self._run, (self.group,))

    def _matches(self, floor: int) -> list[tuple]:
        model = self.model
        return [(model[(row, 1)], model[(row, 2)])
                for row in range(2, self.rows + 2) if model[(row, 2)] > floor]

    def _expect_query(self, _query: Any) -> list[tuple]:
        return self._matches(THRESHOLD)

    def _expect_stream(self, _query: Any) -> list[tuple]:
        return self._matches(VALUE_MAX // 2)[:50]

    def _expect_group(self, _query: Any) -> list[tuple]:
        groups: dict[str, list[int]] = {}
        for row in range(2, self.rows + 2):
            groups.setdefault(self.model[(row, 3)], []).append(self.model[(row, 2)])
        return [(status, len(amounts), sum(amounts)) for status, amounts in groups.items()]

    def final_queries(self) -> None:
        super().final_queries()
        self._compare("view", "final", self._matches(THRESHOLD), self.view.value().rows)


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload
    for workload in (InteractiveFormulas, RelayoutDense, DurableService, QueryAnalytics)
}
