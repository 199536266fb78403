"""The DataSpread facade: a spreadsheet backed by the storage engine.

This is the public entry point tying together the pieces described in the
paper's architecture (Figure 12): the hybrid translator (routing cell reads
and writes to ROM/COM/RCV/TOM regions), the positional mapper (inside each
data model), the LRU cell cache, the formula parser/evaluator and dependency
graph, and the hybrid optimizer; relational queries, ``sql()`` and live views
compile and run through :mod:`repro.query`, with this class as their catalog.

Recompute architecture
----------------------
Every write runs one fixed sequence in one body, ``_edit_cell``, that
``set_value``/``set_formula``/``clear_cell`` — and through them
``set_input`` — are thin wrappers over; ``set_values``, ``import_rows``,
``from_sheet``, ``place_table`` and live-view spills stream
their cells into one ingest body, ``_ingest``, a single batch of them:

1. **admit** — on the async engine, outside a batch, admission control may
   refuse the edit before anything is touched;
2. **first-touch preimage** — inside a transaction the top undo frame
   captures the cell's registration, buffered write and placeholder
   (``TransactionStack.touch``; the transaction stack, savepoints
   and the ``autonomous()`` park/resume state live in
   :mod:`repro.engine.transactions`);
3. **mutate** — the dependency graph and the cell cache take the new
   content (a formula is parsed exactly once: the AST is shared between
   registration and evaluation through the evaluator's bounded cache);
4. **aggregate delta** — running aggregate states over the cell fold the
   old→new value in O(1), and pinned live views note the row that changed;
5. **route** — ``_route_dirty``, the only code that chooses where dirty
   cells go: *deferred* into the open batch, *queued* on the compute
   scheduler (async), or *recomputed inline* in one topological pass over
   the interval-indexed dependency graph.  The outermost batch exit, the
   abort path and structural edits hand it their dirty sets too.

* A batch therefore only collects a *dirty set*.  When the outermost batch
  exits cleanly the buffered writes land as one commit group and the set is
  routed once (``recompute_passes`` counts topological passes, so tests can
  observe the batching); if the body raises, the stack restores every
  preimage, the buffered writes are discarded and storage keeps its
  pre-batch state.
* A computed value lands through one body too, ``_reevaluate``: the
  synchronous pass, the scheduler's evaluation callback and the quarantine
  of a poisoned formula store it and feed the running aggregates alike.
* Range references (``SUM(A1:A10000)``) materialise through
  ``grid_values``, the engine's one range-of-values read — a dense block
  from one ``get_values_dense`` model call per range, no per-cell cache
  probes, overlaid with any writes still buffered in the current batch —
  which viewports (``get_range_values``/``scroll``), query scans and live
  view patches read through too.

Asynchronous recompute
----------------------
With ``async_recompute=True`` the engine decouples edits from recompute
("anti-freeze" scheduling): ``set_value``/``set_formula``/``clear_cell``
and batch exits *enqueue* the affected subtree on a
:class:`~repro.compute.ComputeScheduler` instead of evaluating it, so an
edit upstream of thousands of formulas returns immediately.

* Reads never block: a stale cell serves its last committed value as a
  placeholder (``cell_state``/``is_fresh`` expose freshness, and a freshly
  entered formula carries its cell's previous value until computed).
* Placeholders are held as *provisional* cache entries that no flush —
  write-through or batched — ever commits to the storage layer; the
  scheduler's evaluation callback performs the real write.
* ``flush_compute()`` drains the queue deterministically (viewport-priority
  cells first — register a region of interest with ``set_viewport``);
  ``get_fresh_value`` evaluates just the subtree one cell needs.
* Structural edits rewrite queued work through the same coordinate mapping
  as the graph re-keying, and a batch abort rolls placeholders back with
  the rest of the batch.

Structural-edit reference rewriting
-----------------------------------
Row/column inserts and deletes (``insert_row_after``/``delete_row``/
``insert_column_after``/``delete_column``) accept *any* grid coordinate —
the stored extent is an implementation detail, never a boundary the caller
can see (deletes clip to the stored portion, inserts extend lazily) — and
keep formulas live instead of letting them silently read shifted cells:

* One :class:`~repro.grid.structural.StructuralEdit` describes the edit
  to every layer.  It is *validated before it becomes a commit point*: the
  storage model is asked whether it can absorb the edit
  (``HybridDataModel.check_structural_edit`` — a linked table may refuse)
  before anything is flushed, barriered or logged, so a refused edit
  leaves an open batch exactly as it was.  The storage model absorbs it first
  (``HybridDataModel.apply_structural_edit`` — no cascading renumbering of
  stored tuples), then ``DependencyGraph.apply_structural_edit`` re-keys
  the dependency registrations the edit *reaches* — formula-cell keys,
  precedent cells, and range spans — through the same coordinate mapping;
  registrations wholly before the edit line are left as they are.
* **Rewritten:** every formula with a reference that moved gets its source
  text rewritten: the old text parses through the bounded AST cache, the
  AST is shifted with :func:`~repro.formula.rewrite.rewrite_formula`
  (ranges straddling the edit expand or contract; fully deleted referents
  collapse to ``#REF!``), serialized back to text, and primed into the
  cache.  All rewritten texts of one edit land as one bulk write.
* **Recomputed:** only the formulas the edit *reshaped* — a referent lost
  to ``#REF!``, a range that grew, shrank or was clamped at the sheet edge
  (``StructuralRewrite.reshaped``) — and their transitive dependents, in
  one topological pass.  A formula whose references merely translated
  reads exactly the cells it read before and keeps its value, so the cost
  of an edit follows what it crosses, not what lies below it.
* **One commit group:** writes buffered so far (mid-batch, the edit is a
  commit point), the structural record and the rewritten texts are logged
  as one atomic group — one durable commit however many formulas moved.
  Pre-batch and batch-local formulas are renumbered alike, and the reshaped
  cells join the batch's recompute at exit.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Sequence

from repro.compute import CellState, ComputeScheduler
from repro.engine.backend import DirectBackend, WALBackend
from repro.decomposition import (
    DecompositionResult,
    decompose_aggressive,
    decompose_dp,
    decompose_greedy,
)
from repro.engine.cache import LRUCellCache
from repro.engine.transactions import Savepoint, TransactionStack
from repro.errors import (
    CircularDependencyError,
    FormulaEvaluationError,
    FormulaSyntaxError,
    LinkTableError,
    QueryError,
    WALError,
)
from repro.formula.aggregates import AggregateStore
from repro.formula.ast_nodes import FormulaNode
from repro.formula.dependencies import DependencyGraph, StructuralRewrite
from repro.formula.evaluator import Evaluator
from repro.formula.rewrite import StructuralEdit, rewrite_formula
from repro.formula.serializer import to_formula
from repro.grid.address import MAX_COLUMNS, MAX_ROWS, CellAddress
from repro.grid.cell import Cell, CellValue
from repro.grid.range import RangeRef
from repro.grid.sheet import Sheet
from repro.models.hybrid import HybridDataModel, HybridRegion
from repro.models.tom import TableOrientedModel
from repro.query.builder import Select, select as build_select
from repro.query.executor import QueryResult, TableValue, run_plan
from repro.query.planner import compile_select
from repro.query.sql import parse_sql
from repro.query.views import LiveView
from repro.storage.costs import POSTGRES_COSTS
from repro.storage.database import Database, Table

_OPTIMIZERS = {
    "dp": decompose_dp,
    "greedy": decompose_greedy,
    "aggressive": decompose_aggressive,
}


class DataSpread:
    """A spreadsheet whose cells live in the PDM storage engine.

    Parameters
    ----------
    cache_capacity:
        Size of the LRU cell cache.
    async_recompute:
        When ``True``, edits enqueue their affected subtree on the compute
        scheduler instead of recomputing synchronously; drain with
        ``flush_compute()``.
    idle_drain_ms:
        When positive (async mode only), every read opportunistically
        drains queued cells for up to this many milliseconds, so staleness
        converges without an explicit ``flush_compute()`` while the read's
        latency stays bounded by *time*, not by a count of formulas of
        unknown cost.
    durability:
        ``"none"`` (default) keeps cells purely in memory; ``"wal"``
        write-ahead-logs every committed write into ``storage_dir`` at the
        engine's commit points (sync edits, batch exits, structural edits)
        so :func:`repro.storage.recovery.recover` can rebuild the
        workspace after a crash.
    storage_dir:
        Workspace directory for ``durability="wal"`` (required then).  It
        must not already hold durable state — reopen an existing workspace
        with :func:`repro.storage.recovery.recover` instead.
    wal_options:
        Advanced WAL-writer knobs (``io_factory``, ``max_retries``,
        ``backoff_seconds``, ``sleep``) — used by the fault-injection
        harness; normal callers omit it.
    max_pending_compute / max_pending_per_owner:
        Admission-control depth quotas on the async compute queue (global
        and per session token; ``None`` = unbounded).  Past a quota, new
        async edits that do not coalesce into already-queued work raise
        :class:`~repro.errors.EngineOverloadedError` *before* mutating
        anything; committed work (batch exits, rollback re-marks) is never
        refused.
    clock:
        Injectable monotonic time source (seconds) for deadline paths
        (``flush_compute(timeout_ms=)``, idle drains); tests pass a
        virtual clock so no real time is consumed.
    """

    #: The positional mapping inside every data model (the other schemes
    #: exist for Fig. 18 only); ``bench/workloads.py`` records it in the
    #: snapshots it writes.
    mapping_scheme = "hierarchical"

    def __init__(
        self,
        *,
        cache_capacity: int = 100_000,
        async_recompute: bool = False,
        idle_drain_ms: float = 0.0,
        durability: str = "none",
        storage_dir: str | None = None,
        wal_options: dict | None = None,
        max_pending_compute: int | None = None,
        max_pending_per_owner: int | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        #: Storage cost constants of the hybrid optimizer and accounting.
        self.costs = POSTGRES_COSTS
        #: The database that linked tables live in.
        self.database = Database()
        self._model = HybridDataModel()
        self._dependencies = DependencyGraph()
        self._aggregates = AggregateStore(self._dependencies)
        self._cache = LRUCellCache(
            loader=self._load_cell,
            writer=self._write_cell,
            capacity=cache_capacity,
            bulk_writer=self._write_cells,
        )
        self._evaluator = Evaluator(
            self._provide_value,
            range_provider=self.grid_values,
            aggregate_store=self._aggregates,
        )
        self._linked_tables: dict[str, TableOrientedModel] = {}
        # Live query views, keyed by the sentinel anchor address that
        # represents each view in the dependency graph / scheduler.
        self._views: dict[CellAddress, LiveView] = {}
        self._view_anchor_seq = 0
        #: Session token owning the next transaction's buffered writes
        #: (``None`` = legacy shared visibility); set by the service layer.
        self._session_scope: object | None = None
        #: Human-readable scope label annotated into WAL commit groups.
        self._scope_label: str | None = None
        #: When set, called with the list of ``(row, column)`` keys of every
        #: commit *before* the backend applies it (the model still holds the
        #: old cells) — the service layer's copy-on-write snapshot feed.
        self.before_commit_hook = None
        #: When set, called with the StructuralEdit (or ``None`` for a
        #: wholesale relink) before the coordinate space changes.
        self.invalidation_hook = None
        #: Number of topological recompute passes run so far (a batched edit
        #: of any size contributes exactly one; exposed for tests/benchmarks).
        self.recompute_passes = 0
        self._scheduler = ComputeScheduler(self._dependencies, self._reevaluate)
        self._scheduler.on_quarantine = self._quarantine_cell
        self._scheduler.max_pending = max_pending_compute
        self._scheduler.max_pending_per_owner = max_pending_per_owner
        # The transaction stack: one undo frame per open batch/savepoint
        # level (see repro.engine.transactions).
        self._txn = TransactionStack(
            self._cache, self._dependencies, self._aggregates, self._scheduler,
            commit=self._commit, route=self._route_dirty, rolled_back=self._rolled_back,
        )
        #: Injectable monotonic clock (seconds) for deadline paths.
        self.clock = clock
        #: Reads served degraded (stale value at a missed deadline); bumped
        #: by the service layer and reported in :meth:`health`.
        self.stale_serves = 0
        #: Expired transactions rolled back by the workspace reaper.
        self.reaped_transactions = 0
        self._async = False
        self.async_recompute = async_recompute
        if idle_drain_ms < 0:
            raise ValueError("idle_drain_ms must be >= 0")
        #: Milliseconds of queued work opportunistically evaluated per read
        #: (0 disables).  The time budget bounds read latency directly.
        self.idle_drain_ms = idle_drain_ms
        self._idle_draining = False
        # Built last: a WAL backend opens its log, so every option above is
        # validated first and a refused constructor leaves no open handle.
        self._backend = self._make_backend(durability, storage_dir, wal_options)

    # ------------------------------------------------------------------ #
    # durability
    # ------------------------------------------------------------------ #
    def _make_backend(self, durability: str, storage_dir: str | None,
                      wal_options: dict | None):
        if durability == "none":
            return DirectBackend(self._apply_cell_to_model, self._apply_cells_to_model)
        if durability == "wal":
            if storage_dir is None:
                raise ValueError('durability="wal" requires storage_dir')
            return self._wal_backend(storage_dir, wal_options, expect_fresh=True)
        raise ValueError(f'unknown durability {durability!r} (use "none" or "wal")')

    def _wal_backend(self, directory: str, wal_options: dict | None, *,
                     expect_fresh: bool) -> WALBackend:
        return WALBackend(
            directory,
            self._apply_cell_to_model,
            self._apply_cells_to_model,
            self._committed_cells,
            wal_options=wal_options,
            expect_fresh=expect_fresh,
        )

    @property
    def durability(self) -> str:
        """The active durability mode (``"none"`` or ``"wal"``)."""
        return self._backend.durability

    @property
    def storage_backend(self):
        """The pluggable storage backend (exposed for tests and tooling)."""
        return self._backend

    def checkpoint(self) -> dict | None:
        """Fold the write-ahead log into a fresh snapshot generation.

        Returns the new generation's stats (``None`` with
        ``durability="none"``).  Not allowed mid-batch: the snapshot holds
        only committed state and a batch's buffered writes are neither
        committed nor discarded yet.
        """
        if self.in_batch:
            raise WALError("cannot checkpoint inside an open batch")
        return self._backend.checkpoint()

    def close(self) -> None:
        """Release the storage backend (closes the WAL file handle)."""
        self._backend.close()

    def _attach_wal(self, directory: str, *, wal_options: dict | None = None) -> None:
        """Re-home the engine onto a durable workspace (recovery's last step).

        The current (direct) backend is replaced by a WAL backend over
        ``directory`` and the recovered state is checkpointed immediately,
        so the replayed log is folded away and never replayed twice.
        """
        self._backend.close()
        self._backend = self._wal_backend(directory, wal_options, expect_fresh=False)
        self._backend.checkpoint()

    def adopt_cells(self, cells: dict[tuple[int, int], tuple[CellValue, str | None]]) -> None:
        """Install recovered ``{(row, column): (value, formula)}`` cells into
        this fresh engine: one ``update_cells`` block write, the formulas
        that parse registered and routed as committed work (one topological
        pass; a cycle keeps its adopted values until it is edited away).
        Text that does not parse is adopted as-is: it can never evaluate.

        Not a transaction and not logged: a fresh engine has nothing to
        undo, and :func:`~repro.storage.recovery.recover` attaches the WAL
        afterwards, behind a checkpoint of exactly this state.
        """
        adopted = sorted(cells.items())
        self._model.update_cells([(row, column, Cell(value=value, formula=formula))
                                  for (row, column), (value, formula) in adopted])
        formulas: dict[CellAddress, FormulaNode] = {}
        for (row, column), (_value, formula) in adopted:
            if formula is not None:
                try:
                    formulas[CellAddress(row, column)] = self._evaluator.parse(formula)
                except FormulaSyntaxError:
                    pass
        for address, node in formulas.items():
            self._dependencies.register(address, node)
        self._route_dirty(formulas, committed=True)

    def _committed_cells(self) -> list[tuple[int, int, CellValue, str | None]]:
        """Every committed non-empty cell, for a checkpoint snapshot."""
        cells = self._model.get_cells(self._model.region())
        return [
            (address.row, address.column, cell.value, cell.formula)
            for address, cell in sorted(
                cells.items(), key=lambda item: (item[0].row, item[0].column)
            )
            if not cell.is_empty
        ]

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_sheet(cls, sheet: Sheet, **kwargs) -> "DataSpread":
        """Import an in-memory :class:`Sheet` (formulae are evaluated in a
        single topological pass regardless of iteration order)."""
        spread = cls(**kwargs)
        spread._ingest((address.row, address.column, cell) for address, cell in sheet.items())
        return spread

    def _ingest(self, cells: Iterable[tuple[int, int, Cell]]) -> int:
        """The one ingest body every bulk writer feeds: a stream of ``(row,
        column, cell)`` lands as one batch — each cell through the ordinary
        edit path, the storage writes flushed as one ``update_cells`` block,
        the formulas reading or among them evaluated in one topological
        pass at the end.  Returns the number of cells written."""
        count = 0
        with self.batch():
            for count, (row, column, cell) in enumerate(cells, 1):
                self._set_cell(row, column, cell)
        return count

    def import_rows(
        self,
        rows: Iterable[Sequence[CellValue]],
        *,
        top: int = 1,
        left: int = 1,
    ) -> int:
        """Bulk-import a dense block of values anchored at (top, left), as
        one batch (see ``_ingest``); ``None`` fields are skipped.  Returns
        the number of rows imported."""
        rows = list(rows)
        self._ingest((row, column, Cell(value=value))
                     for row, values in enumerate(rows, top)
                     for column, value in enumerate(values, left) if value is not None)
        return len(rows)

    # ------------------------------------------------------------------ #
    # batched edits
    # ------------------------------------------------------------------ #
    @contextmanager
    def batch(self) -> Iterator["DataSpread"]:
        """Group many edits into one recompute and one bulk storage flush.

        Inside the ``with`` block, ``set_value``/``set_formula``/
        ``clear_cell`` only record dirty cells (``set_formula`` returns
        ``None``; its value materialises at batch exit).  When the outermost
        batch exits cleanly, the engine flushes the buffered writes to the
        storage layer in bulk, then evaluates the dirty formulas and all
        their transitive dependents in one topological pass.  If an
        exception unwinds the outermost batch, the buffered writes are
        *discarded* and dependency registrations made inside the batch are
        rolled back — no recompute runs and storage keeps its pre-batch
        state — rather than persisting a half-applied batch.

        A *nested* batch is a real savepoint: its exception rolls back only
        the nested level's work (registrations, buffered writes, aggregate
        state, placeholders) and the outer batch keeps everything it did
        before and after — catch the exception outside the nested ``with``
        and keep going.  ``savepoint()`` exposes the same boundary as a
        re-rollbackable handle.

        Structural edits inside the batch remain commit points: they flush
        the writes buffered so far — those flushed writes persist,
        registrations included, and their cells are still recomputed on
        abort; savepoints created before the flush refuse to roll back
        (:class:`~repro.errors.SavepointError`).  Bulk reads overlay the
        buffered writes without flushing, so reading never commits anything.
        """
        frame = self._txn.push(self._session_scope)
        try:
            yield self
        except BaseException:
            self._txn.rollback(frame)
            raise
        self._txn.release(frame)

    def savepoint(self) -> Savepoint:
        """Open a savepoint: an undo boundary nested in the current batch.

        Outside a batch this opens a transaction level of its own (its
        release commits, like an outermost batch exit).  The returned
        handle rolls back to — or releases — exactly this boundary; see
        :class:`Savepoint`.
        """
        return Savepoint(self._txn, self._txn.push(self._session_scope))

    # ------------------------------------------------------------------ #
    # transaction exits (callbacks of the stack in repro.engine.transactions)
    # ------------------------------------------------------------------ #
    def _commit(self, dirty: dict[CellAddress, None]) -> None:
        """Outermost transaction exit: one commit group, then one routing.

        The batch's raw writes land before the recompute so range reads
        during it go straight to the bulk model path instead of overlaying
        (and linearly scanning) a pending map holding every batched cell.
        (Provisional placeholders are not raw writes and stay uncommitted.)
        The group is annotated when a session scope label is registered, so
        recovery tooling can see which session's transaction — and how many
        savepoints — a WAL group carries.  The live views hear of every
        buffered write again: only now is it every reader's state.
        """
        if self._views:
            for (row, column), _cell in self._cache.overlay_items():
                self._report_delta(row, column)
        if self._scope_label is not None and self._cache.pending_count:
            with self._backend.atomic():
                self._backend.annotate({
                    "kind": "txn-commit",
                    "scope": self._scope_label,
                    "savepoints": self._txn.savepoints,
                })
                self._cache.flush_pending()
        else:
            self._cache.flush_pending()
        self._route_dirty(dirty)

    def _rolled_back(self, flushed: dict[CellAddress, None]) -> None:
        """After any rollback: pinned view results may reflect the retracted
        writes, and the cells a mid-batch commit point had already flushed
        (handed over once the outermost level is gone) are committed work
        that still needs its recompute."""
        self._mark_views_stale()
        self._route_dirty(flushed, committed=True)

    def abort_transaction(self) -> None:
        """Roll back the entire open transaction from the outside.

        The workspace reaper calls this on an expired session's idle
        transaction: every open frame unwinds through the same undo
        machinery as an in-stack exception (buffered writes discarded,
        registrations restored, flushed pre-barrier work kept and
        recomputed), the deferred write buffer is dropped, and the cell
        write-locks derived from the frames release.  A no-op outside a
        transaction.  The abandoned :meth:`batch`/:meth:`savepoint`
        handles become inert: their later exits see a frame that is no
        longer on the stack and unwind as a no-op (clean releases raise
        :class:`~repro.errors.SavepointError`, which the service layer
        translates to ``SessionExpiredError``).
        """
        if self.in_batch:
            self._txn.rollback(self._txn.frames[0])

    @contextmanager
    def autonomous(self) -> Iterator["DataSpread"]:
        """Run cell edits *outside* the open transaction (autocommit).

        The whole transaction — buffered writes, undo stack, flushed set,
        savepoint count — is parked, the enclosed edits (single or batched)
        write through and log immediately, then the transaction resumes
        untouched.  Used by the service layer when a session issues a
        single edit while another session's transaction is open.  Cell
        edits only — structural edits and checkpoints must not run here
        (the parked writes are addressed against the current coordinate
        space).
        """
        with self._txn.parked():
            yield self

    @property
    def in_batch(self) -> bool:
        """Whether a batch (or standalone savepoint) is currently open —
        and not already committing."""
        txn = self._txn
        return len(txn.frames) > txn.committing

    def transaction_touches(self, row: int, column: int) -> bool:
        """Whether the open transaction holds uncommitted work on a cell.

        True when any open undo frame recorded the cell's preimage — it
        was edited, given a provisional placeholder, or had a computed
        value land inside the transaction.  These are the cells an
        :meth:`autonomous` edit must not overwrite: the buffered version
        would silently clobber it at the commit flush (or, for a
        placeholder, be clobbered *by* it), so the service layer refuses
        the conflicting edit instead.  Cells whose in-transaction work was
        already flushed by a mid-batch commit point are committed state
        and report False.
        """
        return self._txn.touches(CellAddress(row, column))

    def activate_scope(self, token: object | None,
                       label: str | None = None) -> tuple[object | None, str | None]:
        """Install a session scope: owner for new transactions' buffered
        writes, active reader for owner-scoped visibility, and the WAL
        annotation label.  Returns the previous ``(token, label)`` pair so
        callers can nest and restore.
        """
        previous = (self._session_scope, self._scope_label)
        self._session_scope = token
        self._scope_label = label
        self._cache.set_active_reader(token)
        return previous

    def set_values(self, updates: Iterable[tuple[int, int, CellValue]]) -> int:
        """Set many constants at once; dependents recompute in one pass.

        ``updates`` yields ``(row, column, value)`` triples.  Returns the
        number of cells written.
        """
        return self._ingest((row, column, Cell(value=value)) for row, column, value in updates)

    # ------------------------------------------------------------------ #
    # cell reads
    # ------------------------------------------------------------------ #
    def get_cell(self, row: int, column: int) -> Cell:
        """Read one cell (through the LRU cache).

        With ``idle_drain_ms`` set, the read first lets the compute
        scheduler retire queued work within a small time budget, so
        staleness converges under a read-heavy workload without
        ``flush_compute()``.
        """
        self._maybe_idle_drain()
        return self._cache.get(row, column)

    def get_value(self, row: int, column: int) -> CellValue:
        """Read one cell's value."""
        return self.get_cell(row, column).value

    def get_cells(self, region: RangeRef | str) -> dict[CellAddress, Cell]:
        """The ``getCells(range)`` primitive: all filled cells in a rectangle.

        Inside an open batch the buffered writes are overlaid (not flushed),
        so bulk reads see the batch's own edits just like per-cell
        ``get_value`` while the batch stays fully discardable.
        """
        self._maybe_idle_drain()
        region = RangeRef.from_a1(region) if isinstance(region, str) else region
        result = self._model.get_cells(region)
        for key, cell in self._cache.overlay_values(region).items():
            address = CellAddress(key[0], key[1])
            if cell.is_empty:
                result.pop(address, None)  # a buffered clear
            else:
                result[address] = cell
        return result

    def get_range_values(self, region: RangeRef | str) -> list[list[CellValue]]:
        """Dense 2-D values for a rectangle (empty cells are ``None``)."""
        self._maybe_idle_drain()
        region = RangeRef.from_a1(region) if isinstance(region, str) else region
        block = self.grid_values(region)
        width = region.columns
        return [block[start:start + width] for start in range(0, len(block), width)]

    def scroll(self, first_row: int, *, height: int = 40, first_column: int = 1,
               width: int = 20) -> list[list[CellValue]]:
        """Fetch the window a user scrolling to ``first_row`` would see."""
        region = RangeRef(
            first_row, first_column, first_row + height - 1, first_column + width - 1
        )
        return self.get_range_values(region)

    def used_range(self) -> RangeRef:
        """The bounding rectangle of everything stored or buffered in a batch."""
        region: RangeRef | None = self._model.region()
        if region == RangeRef(1, 1, 1, 1) and self._model.cell_count() == 0:
            region = None  # the empty-sheet sentinel, not a real extent
        for (row, column), cell in self._cache.overlay_items():
            if cell.is_empty:
                continue
            box = RangeRef(row, column, row, column)
            region = box if region is None else region.union_bounding(box)
        # Match the model's empty-sheet sentinel when nothing is stored.
        return region if region is not None else RangeRef(1, 1, 1, 1)

    def cell_count(self) -> int:
        """Number of filled cells stored across all regions.

        Inside an open batch the count already reflects the buffered writes
        as if they were flushed (one storage probe per pending cell), so it
        agrees with the value the flush will produce.
        """
        count = self._model.cell_count()
        for (row, column), cell in self._cache.overlay_items():
            stored = not self._model.get_cell(row, column).is_empty
            if cell.is_empty:
                count -= 1 if stored else 0
            elif not stored:
                count += 1
        return count

    # ------------------------------------------------------------------ #
    # cell writes
    # ------------------------------------------------------------------ #
    def set_input(self, reference: str, text: CellValue) -> CellValue:
        """Set a cell by A1 reference from raw user input (``=`` starts a formula)."""
        address = CellAddress.from_a1(reference)
        return self._set_cell(address.row, address.column, Cell.from_input(text))

    def _set_cell(self, row: int, column: int, cell: Cell) -> CellValue:
        """Store parsed input: a formula through ``set_formula``, else a constant."""
        if cell.formula is not None:
            return self.set_formula(row, column, cell.formula)
        return self._edit_cell(CellAddress(row, column), cell)

    def set_value(self, row: int, column: int, value: CellValue) -> None:
        """The ``updateCell`` primitive for constants; dependents re-evaluate.

        In async mode the write is acknowledged immediately and the
        dependents are queued stale instead of recomputed inline.
        """
        self._edit_cell(CellAddress(row, column), Cell(value=value))

    def set_formula(self, row: int, column: int, formula: str) -> CellValue:
        """Store a formula, register its dependencies and evaluate it.

        Inside a batch the evaluation is deferred to batch exit and ``None``
        is returned; outside a batch the evaluated value is returned.  In
        async mode the formula is stored as a stale placeholder (it keeps
        the cell's previous value until the scheduler computes it) and
        ``None`` is returned — read the result after ``flush_compute()`` or
        with ``get_fresh_value``.
        """
        text = formula.removeprefix("=")
        node = self._evaluator.parse(text)
        return self._edit_cell(CellAddress(row, column), Cell(formula=text), node)

    def clear_cell(self, row: int, column: int) -> None:
        """Empty a cell and re-evaluate its dependents."""
        self._edit_cell(CellAddress(row, column), Cell())

    def _edit_cell(self, address: CellAddress, cell: Cell,
                   node: FormulaNode | None = None) -> CellValue:
        """The one write path: admit → preimage → mutate → delta → route.

        ``cell`` is the content to store (an empty one clears the cell);
        ``node`` its parsed formula, if it has one.
        Returns the value the cell now shows when it is already known: a
        formula outside a batch on the synchronous engine is evaluated as
        it is stored, otherwise its value materialises when the routed
        recompute reaches it.
        """
        row, column = address.row, address.column
        deferred = self.in_batch
        if self._async and not deferred:
            # Admission control runs before any mutation: a refused edit
            # leaves the engine exactly as it was.
            self._scheduler.admit((address,), owner=self._session_scope)
        # An async formula is stored as a stale placeholder: the cell's
        # visible value stays what it was, so there is no delta to capture —
        # and the capture's old-value read must not tax the acknowledgment.
        placeholder = node is not None and self._async
        capture = None if placeholder else self._aggregates_capture(address)
        self._txn.touch(address)
        if placeholder:
            # Captured before the registration replaces the cell's content,
            # so stale reads keep serving the previous committed (or
            # overlaid) value.
            previous = self._cache.get(row, column).value
        # The graph drives the aggregate refcounts: leaving it (``register``
        # first unregisters the previous formula) fires ``on_unregister``,
        # which releases the old formula's subscriptions.
        if node is None:
            self._dependencies.unregister(address)
        else:
            self._dependencies.register(address, node)
        if placeholder:
            self._ensure_stored_extent(row, column)
            self._cache.put_provisional(row, column, cell.with_value(previous))
        else:
            if node is not None and not deferred:
                cell = cell.with_value(self._safe_evaluate(node, address))
            self._cache.put(row, column, cell)
            self._aggregates_commit(capture, cell.value)
        if self._views:
            self._report_delta(row, column)
        self._route_dirty((address,), landed=True)
        return cell.value

    def _route_dirty(self, dirty: Iterable[CellAddress], *, landed: bool = False,
                     committed: bool = False) -> None:
        """The one routing decision: where a dirty set goes.

        Inside an open batch it is *deferred* to the transaction's closing
        recompute; on the async engine it is *queued* on the compute
        scheduler; otherwise it is *recomputed inline*, seeds and transitive
        dependents in one topological pass.  Every producer of dirty cells —
        a cell edit, the outermost batch exit, the abort path, a structural
        edit — calls this and nothing else branches on the mode.

        ``landed``: the seeds already show their new value (a cell edit
        evaluates a formula as it stores it), so an inline pass starts at
        their dependents.  ``committed``: the seeds are durable state to
        repair (formulas a structural edit reshaped, cells a mid-batch
        commit point flushed before the batch failed) rather than the
        caller's own new work: they survive an abort of the open batch,
        are not charged to a session's admission quota, and a cycle among
        them is left in place — the cells keep their stored values until
        the cycle is edited away — instead of failing an edit that already
        happened.
        """
        if not dirty:
            return
        if self.in_batch:
            self._txn.defer(dirty, committed=committed)
        elif self._async:
            # Committed work is never refused: admission only gates *new*
            # async edits, before they mutate anything.
            self._scheduler.mark_dirty(
                dirty, owner=None if committed else self._session_scope)
        else:
            try:
                self._recompute_batch(dirty, include_seeds=not landed)
            except CircularDependencyError:
                if not committed:
                    raise

    # ------------------------------------------------------------------ #
    # structural operations
    # ------------------------------------------------------------------ #
    # Structural edits are *extent-free*: any grid coordinate is legal, not
    # just those inside the stored extent.  Deleting lines past (or above)
    # the stored portion clips the storage mutation to what actually exists
    # while still shifting the rest of the grid — and every formula
    # reference — through the same coordinate mapping; inserting beyond the
    # extent extends storage lazily (a no-op until a write lands there).
    # Only meaningless coordinates (negative anchors, line 0 deletes,
    # non-positive counts) raise :class:`~repro.errors.PositionError` — when
    # the :class:`StructuralEdit` is built, before anything is touched.

    def insert_row_after(self, row: int, count: int = 1) -> None:
        """Insert rows; stored data shifts and formula references shift with it."""
        self._apply_structural_edit(StructuralEdit.insert_rows(row, count))

    def delete_row(self, row: int, count: int = 1) -> None:
        """Delete rows; references to deleted cells collapse to ``#REF!``."""
        self._apply_structural_edit(StructuralEdit.delete_rows(row, count))

    def insert_column_after(self, column: int, count: int = 1) -> None:
        """Insert columns; stored data shifts and formula references shift with it."""
        self._apply_structural_edit(StructuralEdit.insert_columns(column, count))

    def delete_column(self, column: int, count: int = 1) -> None:
        """Delete columns; references to deleted cells collapse to ``#REF!``."""
        self._apply_structural_edit(StructuralEdit.delete_columns(column, count))

    def _apply_structural_edit(self, edit: StructuralEdit) -> None:
        """One structural edit, end to end: shift storage, re-key the graph,
        rewrite the formula texts that name a moved cell, and recompute the
        formulas the edit *reshaped*.

        The edit is a *commit point* even mid-batch, and one backend commit
        group: the writes buffered so far (they were addressed against the
        pre-edit coordinate space), the structural record and every
        rewritten text land together or not at all — so a batch that aborts
        later cannot discard the texts and leave them disagreeing with the
        re-keyed graph.  Only the formulas that now read a *different set of
        cells* (``StructuralRewrite.reshaped``: a lost referent, a range
        that grew or shrank) are re-evaluated, with their transitive
        dependents; one whose references merely translated keeps its value.
        The reshaped cells are routed as committed work: one topological
        pass outside a batch (async: one enqueue), the batch-exit (or
        abort-path) recompute inside one.
        """
        # Validate before apply: the model is the one layer that can refuse
        # an edit (a linked table's header or schema).  Asked first, a
        # refusal leaves pending writes buffered, frames un-barriered and
        # nothing logged.
        self._model.check_structural_edit(edit)
        if self.invalidation_hook is not None:
            # The coordinate space is about to shift: open read snapshots
            # cannot stay coherent and must be invalidated.
            self.invalidation_hook(edit)
        with self._backend.atomic():
            self._txn.barrier()
            self._backend.log_structural(edit)
            rewrite = self._shift_coordinates(edit)
        self._route_dirty(dict.fromkeys(sorted(rewrite.reshaped)), committed=True)

    def _shift_coordinates(self, edit: StructuralEdit) -> StructuralRewrite:
        """Move every layer's state into the post-edit coordinate space.

        Runs inside the edit's commit group, after the structural record:
        the model shifts, the aggregate states splice, the dependency graph
        re-keys the registrations the edit reaches — pre-batch and
        batch-local formulas alike — the scheduler, placeholders, batch
        bookkeeping and views follow through the same mapping,
        and every formula whose references moved gets its source text
        rewritten through the AST rewriter and serializer, written back in
        one bulk write.
        """
        # The re-key replaces each formula's registration with its remapped
        # equivalent: the formulas keep reading the same (spliced) ranges,
        # so the aggregate refcount hook must stay quiet — firing it would
        # drop the states the splice carries over.
        unregister_hook = self._dependencies.on_unregister
        self._dependencies.on_unregister = None
        try:
            # Provisional placeholders are not flushable writes: carry them
            # across the cache clear and re-key them through the edit,
            # exactly like the graph re-keys its registrations.
            provisional = self._cache.provisional_items()
            self._model.apply_structural_edit(edit)
            self._cache.clear()
            # Untouched, purely translated, and blank-expanded ranges keep
            # their running aggregate state; only ranges actually losing
            # content are dropped.
            self._aggregates.apply_structural_edit(edit)
            # View anchors sit at sentinel coordinates the edit's mapping
            # would shift or drop; pull them out of the graph first and
            # re-register them below against their *remapped* source regions.
            for anchor in self._views:
                self._dependencies.unregister(anchor)
            rewrite = self._dependencies.apply_structural_edit(edit)
            self._scheduler.apply_structural_edit(edit)
            texts: list[tuple[int, int, Cell]] = []
            for (row, column), cell in provisional:
                moved = edit.map_address(CellAddress(row, column))
                if moved is not None:
                    self._cache.put_provisional(moved.row, moved.column, cell)
                    # A placeholder can shadow an older *committed* formula
                    # (set-formula over a committed cell, not yet evaluated).
                    # The graph tracks only the placeholder's text, so the
                    # shadowed committed text is rewritten here or the
                    # stored state drifts out of the new coordinate space —
                    # which a checkpoint would then capture durably.
                    shadowed = self._rewritten_text(
                        self._model.get_cell(moved.row, moved.column), edit)
                    if shadowed is not None:
                        texts.append((moved.row, moved.column, shadowed))
            self._txn.remap(edit.map_address)
            surviving_anchors: list[CellAddress] = []
            for anchor, view in list(self._views.items()):
                if view.remap(edit):
                    self._register_view_ranges(view)
                    surviving_anchors.append(anchor)
                else:
                    del self._views[anchor]  # a source region (or spill) died
            if self._async and surviving_anchors:
                # The scheduler's remap dropped the off-sheet anchors;
                # re-queue them so the drain refreshes every surviving view.
                self._scheduler.mark_dirty(surviving_anchors)
            # ``changed`` holds post-edit addresses; the cells already live
            # there (the model shifted first) and the cache is cold, so
            # committed cells are read from, and written back to, storage
            # directly.
            for row, column in sorted((a.row, a.column) for a in rewrite.changed):
                placeholder = self._cache.provisional_at(row, column)
                if placeholder is None:
                    rewritten = self._rewritten_text(self._model.get_cell(row, column), edit)
                    if rewritten is not None:
                        texts.append((row, column, rewritten))
                else:
                    # A stale placeholder stays a placeholder: rewriting its
                    # text must not commit its stale value to storage.
                    rewritten = self._rewritten_text(placeholder, edit)
                    if rewritten is not None:
                        self._cache.put_provisional(row, column, rewritten)
            self._write_cells(texts)
        finally:
            self._dependencies.on_unregister = unregister_hook
        return rewrite

    def _rewritten_text(self, cell: Cell, edit: StructuralEdit) -> Cell | None:
        """``cell`` with its formula text shifted through ``edit``.

        ``None`` when there is nothing to rewrite: no formula, text that
        does not parse (it cannot name a moved cell), or no reference the
        edit moves.  The old text parses through the bounded AST cache and
        the new text/AST pair is primed into it, so a recompute does not
        re-parse.
        """
        if cell.formula is None:
            return None
        try:
            node, changed = rewrite_formula(self._evaluator.parse(cell.formula), edit)
        except FormulaSyntaxError:
            return None
        if not changed:
            return None
        text = to_formula(node)
        self._evaluator.prime(text, node)
        return Cell(value=cell.value, formula=text)

    # ------------------------------------------------------------------ #
    # storage optimisation
    # ------------------------------------------------------------------ #
    def optimize_storage(self, algorithm: str = "aggressive", **options) -> DecompositionResult:
        """Re-plan the hybrid layout of the *spreadsheet-native* cells.

        Runs the chosen decomposition algorithm over the current filled
        cells, rebuilds the hybrid model accordingly, and returns the plan.
        Linked (TOM) regions are preserved as-is.
        """
        try:
            optimizer = _OPTIMIZERS[algorithm]
        except KeyError as exc:
            raise ValueError(f"unknown optimizer {algorithm!r}") from exc
        if self._async:
            # The re-planned layout is rebuilt from *stored* cells; drain so
            # provisional placeholders (whose formula text exists nowhere
            # else) are committed before the snapshot.
            self.flush_compute()
        self._txn.barrier()  # the cache clear below would drop buffered writes
        snapshot = self._snapshot_native_cells()
        coordinates = snapshot.coordinates()
        plan = optimizer(coordinates, self.costs, **options)
        rebuilt = HybridDataModel.from_decomposition(snapshot, plan.as_plan())
        for tom in self._linked_tables.values():
            rebuilt.add_region(HybridRegion(range=tom.region(), model=tom), allow_overlap=True)
        self._model = rebuilt
        self._cache.clear()
        # A relayout moves cells between physical models without changing a
        # single coordinate→value binding, so every running aggregate state
        # stays valid as-is.
        self._mark_views_stale()
        return plan

    def storage_cost(self) -> float:
        """Cost-model storage footprint of the current layout."""
        return self._model.storage_cost(self.costs)

    @property
    def model(self) -> HybridDataModel:
        """The current hybrid data model (exposed for tests and benchmarks)."""
        return self._model

    @property
    def dependency_graph(self) -> DependencyGraph:
        """The formula dependency graph."""
        return self._dependencies

    @property
    def cache(self) -> LRUCellCache:
        """The LRU cell cache."""
        return self._cache

    @property
    def evaluator(self) -> Evaluator:
        """The formula evaluator (exposed for tests and benchmarks)."""
        return self._evaluator

    @property
    def aggregate_store(self) -> AggregateStore:
        """The running aggregate-state store (exposed for tests/benchmarks)."""
        return self._aggregates

    # ------------------------------------------------------------------ #
    # asynchronous recompute
    # ------------------------------------------------------------------ #
    @property
    def async_recompute(self) -> bool:
        """Whether edits enqueue recompute work instead of evaluating inline."""
        return self._async

    @async_recompute.setter
    def async_recompute(self, enabled: bool) -> None:
        enabled = bool(enabled)
        if self._async and not enabled:
            # Leaving async mode drains the queue so the synchronous
            # invariant (every stored value is fresh) holds again.
            self.flush_compute()
        self._async = enabled

    @property
    def compute_scheduler(self) -> ComputeScheduler:
        """The compute scheduler (exposed for tests and benchmarks)."""
        return self._scheduler

    @property
    def compute_pending(self) -> int:
        """Number of cells queued for recomputation."""
        return self._scheduler.pending_count

    def health(self) -> dict:
        """A self-describing overload/degradation snapshot.

        Returns a plain dict (stable keys, JSON-friendly values) so
        monitoring endpoints can serve it directly:

        * ``pending`` / ``pending_by_owner`` — queue depths (per-owner
          keys are the scope labels the service layer registers, or
          ``repr`` of raw tokens);
        * ``high_water`` — deepest queue depth observed;
        * ``shed`` — edits refused by admission control;
        * ``stale_serves`` — reads served degraded at a missed deadline;
        * ``reaped_transactions`` — expired transactions rolled back;
        * ``quarantined`` — poisoned cells (A1 reference -> last error),
          recoverable via ``compute_scheduler.requeue_quarantined()``;
        * ``in_transaction`` — whether a write transaction is open.
        """
        stats = self._scheduler.stats
        by_owner = {}
        for owner, count in self._scheduler.pending_by_owner().items():
            label = getattr(owner, "name", None)
            by_owner[label if isinstance(label, str) else repr(owner)] = count
        return {
            "pending": self._scheduler.pending_count,
            "pending_by_owner": by_owner,
            "high_water": stats.high_water,
            "shed": stats.shed,
            "stale_serves": self.stale_serves,
            "reaped_transactions": self.reaped_transactions,
            "quarantined": {
                address.to_a1(): message
                for address, message in self._scheduler.quarantined.items()
            },
            "in_transaction": self.in_batch,
        }

    def flush_compute(self, limit: int | None = None, *,
                      timeout_ms: float | None = None) -> int:
        """Drain the compute queue deterministically.

        Evaluates up to ``limit`` queued cells (all of them when ``None``)
        in topological order, viewport-priority first, committing each
        fresh value to the cache/storage path.  Returns the number of cells
        evaluated.  Raises :class:`CircularDependencyError` when only
        cyclic work remains (the queue is preserved, so breaking the cycle
        and draining again recovers).

        ``timeout_ms`` bounds the drain in time (measured on the engine's
        injectable ``clock``): past the deadline the drain stops
        cooperatively between evaluations and the rest stays queued.  At
        least one ready cell is retired per call (the scheduler's progress
        guarantee), so repeated calls always converge.
        """
        if timeout_ms is None:
            return self._scheduler.run(limit)
        return self._scheduler.run(
            limit, deadline=self.clock() + timeout_ms / 1000.0, clock=self.clock,
        )

    def is_fresh(self, row: int, column: int) -> bool:
        """Whether a cell's stored value reflects all its precedents."""
        return self._scheduler.is_fresh(CellAddress(row, column))

    def cell_state(self, row: int, column: int) -> CellState:
        """The scheduling state of one cell (FRESH / STALE / COMPUTING)."""
        return self._scheduler.state_of(CellAddress(row, column))

    def get_fresh_value(self, row: int, column: int) -> CellValue:
        """Read one cell, first computing exactly the subtree it needs.

        In async mode this drains only the cell's stale ancestors (plus the
        cell itself); everything else stays queued.  Edits buffered in an
        open batch are not scheduled until the batch exits, but *pre-batch*
        queued work can be drained mid-batch — the computed values join the
        batch's discardable writes, and an abort re-queues them.
        """
        self._scheduler.ensure(CellAddress(row, column))
        return self.get_value(row, column)

    def set_viewport(self, region: RangeRef | str | None,
                     owner: object | None = None) -> RangeRef | None:
        """Register the user-visible region the scheduler serves first.

        Stale cells inside the region — and the stale cells they
        transitively read — are evaluated before off-screen work during a
        drain.  ``owner`` keys the viewport (the service layer passes a
        session token; several owners' viewports drain round-robin).  Pass
        ``region=None`` to clear the owner's viewport.  Returns the
        registered region.
        """
        region = RangeRef.from_a1(region) if isinstance(region, str) else region
        self._scheduler.set_viewport(region, owner)
        return region

    # ------------------------------------------------------------------ #
    # database-oriented operations
    # ------------------------------------------------------------------ #
    def link_table(
        self,
        table_name: str,
        *,
        at: str | CellAddress = "A1",
        columns: Sequence[str] | None = None,
        rows: Iterable[Sequence[CellValue]] | None = None,
        header: bool = True,
    ) -> TableOrientedModel:
        """``linkTable(range, tableName)``: two-way link a region to a table.

        When the table does not exist it is created (``columns`` required)
        and optionally populated from ``rows``.
        """
        anchor = CellAddress.from_a1(at) if isinstance(at, str) else at
        if not self.database.has_table(table_name):
            if columns is None:
                raise LinkTableError(
                    f"table {table_name!r} does not exist and no columns were given to create it"
                )
            self.database.create_table(table_name, list(columns))
            if rows is not None:
                self.database.insert_many(table_name, [tuple(row) for row in rows])
        table = self.database.table(table_name)
        if self.invalidation_hook is not None:
            # The linked region's content changes wholesale under any
            # open read snapshot.
            self.invalidation_hook(None)
        if self._async:
            # add_region clears the cache; commit placeholders first.
            self.flush_compute()
        self._txn.barrier()  # likewise the batch's buffered writes
        tom = TableOrientedModel(table, top=anchor.row, left=anchor.column, header=header)
        self._model.add_region(HybridRegion(range=tom.region(), model=tom), allow_overlap=True)
        self._linked_tables[table_name] = tom
        self._cache.clear()
        # The linked region's content changed wholesale under the
        # aggregates reading *it* — states elsewhere on the sheet did not
        # read the linked rectangle and keep their running state.
        self._aggregates.invalidate_region(tom.region())
        self._mark_views_stale()
        for view in self._views.values():
            # A view naming this table now has a grid footprint to watch.
            self._register_view_ranges(view)
        return tom

    def sql(self, query: str, *parameters: CellValue) -> TableValue:
        """Run a SQL SELECT against linked tables or grid regions (``sql()``)."""
        statement = parse_sql(query, parameters)
        return run_plan(compile_select(statement, self), self).to_table()

    def place_table(self, table: TableValue, *, at: str | CellAddress,
                    include_header: bool = True) -> RangeRef:
        """Spill a composite table value onto the sheet as plain cells (one
        ``import_rows`` block); returns the range it covers."""
        anchor = CellAddress.from_a1(at) if isinstance(at, str) else at
        rows = (table.columns, *table.rows) if include_header else table.rows
        self.import_rows(rows, top=anchor.row, left=anchor.column)
        bottom = anchor.row + max(len(rows) - 1, 0)
        right = anchor.column + max(table.column_count - 1, 0)
        return RangeRef(anchor.row, anchor.column, bottom, right)

    # ------------------------------------------------------------------ #
    # the generative query subsystem
    # ------------------------------------------------------------------ #
    def execute(self, query: Select | RangeRef | str) -> QueryResult:
        """Run a generative :func:`~repro.query.select` query.

        ``query`` may also be a bare region/table source, which runs as
        ``select(source)``.  The result streams: iterate it row by row
        (a ``limit(n)`` query over a huge region reads only the chunks it
        needs) or drain it with ``to_table()``.
        """
        return run_plan(compile_select(self._as_select(query), self), self)

    @staticmethod
    def _as_select(query: Select | RangeRef | str) -> Select:
        """A bare region/table source runs as ``select(source)``."""
        return query if isinstance(query, Select) else build_select(query)

    def explain(self, query: Select | RangeRef | str) -> str:
        """The compiled plan of a query, one human-readable line per stage."""
        return compile_select(self._as_select(query), self).explain()

    def create_live_view(
        self,
        query: Select | RangeRef | str,
        *,
        at: str | CellAddress | None = None,
        name: str | None = None,
        include_header: bool = True,
    ) -> LiveView:
        """Pin a query as a :class:`~repro.query.LiveView`.

        The view's source regions are registered in the dependency graph
        under a sentinel anchor, so edits inside them recompute the view
        through the same reactive path as formulas (synchronously in the
        topological pass, via the compute scheduler in async mode).  With
        ``at=`` the result also spills onto the sheet, rewriting exactly
        the cells that change on each refresh.
        """
        query = self._as_select(query)
        self._view_anchor_seq += 1
        anchor = CellAddress(MAX_ROWS - self._view_anchor_seq, MAX_COLUMNS)
        spill = CellAddress.from_a1(at) if isinstance(at, str) else at
        view = LiveView(
            self, name or f"view{self._view_anchor_seq}", anchor, query,
            spill_at=spill, include_header=include_header,
        )
        self._views[anchor] = view
        self._register_view_ranges(view)
        try:
            # Initial materialisation (and spill).  Unlike a reactive
            # refresh, a bad query here propagates to the caller.
            view.refresh(self._write_view_spill)
        except QueryError:
            self._dependencies.unregister(anchor)
            del self._views[anchor]
            raise
        return view

    def drop_live_view(self, view: LiveView | str) -> None:
        """Unregister a live view (its spilled cells stay on the sheet)."""
        if isinstance(view, str):
            by_name = [v for v in self._views.values() if v.name == view]
            if not by_name:
                raise KeyError(f"no live view named {view!r}")
            view = by_name[0]
        self._dependencies.unregister(view.anchor)
        self._views.pop(view.anchor, None)
        view.detach("the view was dropped")

    @property
    def live_views(self) -> list[LiveView]:
        """The currently registered live views."""
        return list(self._views.values())

    # -- catalog protocol (the planner/executor read through these) ----- #
    def grid_values(self, region: RangeRef) -> list[CellValue]:
        """The values of ``region`` as one dense row-major block (``None``
        = blank): one bulk model read, whoever asks — a viewport, a formula
        range, the columnar aggregate build, a query scan or a view patch.

        Writes still buffered in an open batch — and provisional stale
        placeholders in async mode — are scattered on top so readers see
        the batch's own edits and stale cells' last known values.  The cell
        cache is overlaid, never populated: a range read leaves it as it
        was.
        """
        values = self._model.get_values_dense(region)
        pending = self._cache.overlay_values(region)
        if pending:
            width = region.columns
            top, left = region.top, region.left
            for (row, column), cell in pending.items():
                values[(row - top) * width + (column - left)] = cell.value
        return values

    def resolve_table(self, name: str) -> Table:
        """The linked or database table of that name (the stored table)."""
        if self.database.has_table(name):
            return self.database.table(name)
        raise LinkTableError(f"unknown table {name!r}")

    def table_region(self, name: str) -> RangeRef | None:
        """The sheet footprint of a linked table (``None`` if not linked)."""
        tom = self._linked_tables.get(name)
        return tom.region() if tom is not None else None

    # -- view internals -------------------------------------------------- #
    def _register_view_ranges(self, view: LiveView) -> None:
        self._dependencies.register_ranges(view.anchor, view.watched_regions())

    def _report_delta(self, row: int, column: int) -> None:
        """A value landed at a cell: the live views patch just that row."""
        for view in self._views.values():
            view.note_delta(row, column)

    def _refresh_view(self, view: LiveView) -> None:
        try:
            view.refresh(self._write_view_spill)
        except QueryError as exc:
            # A reactive refresh runs inside the edit that triggered it; a
            # query invalidated by a schema change (say, its header column
            # was deleted) detaches instead of blowing up that edit.
            view.detach(str(exc))

    def _ensure_view_fresh(self, view: LiveView) -> None:
        """Bring one view up to date (the ``LiveView.value()`` slow path)."""
        if self._async:
            # Drain exactly the view's scheduler subtree (stale source
            # formulas first, then the anchor itself).
            self._scheduler.ensure(view.anchor)
        if view.stale or view._table is None:
            self._refresh_view(view)

    def _mark_views_stale(self) -> None:
        """Wholesale invalidation: every view refreshes on next access."""
        for view in self._views.values():
            view.mark_stale()

    def _write_view_spill(self, changes: dict[tuple[int, int], CellValue]) -> None:
        """Land a view's spill diff through the ingest body, as one batch:
        formulas and views reading the spilled region recompute (or queue)
        once per spill, and a durable spill is one commit group.  A ``None``
        clears; unchanged cells are skipped — a point edit rewrites only the
        rows it actually moved."""
        self._ingest(
            (row, column, Cell(value=value)) for (row, column), value in sorted(changes.items())
            if (existing := self._cache.get(row, column)).formula is not None
            or existing.value != value)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _aggregates_capture(self, address: CellAddress):
        """Pre-edit half of the aggregate delta: targets plus the old value.

        Must run before the cell is mutated.  On the synchronous non-batch
        path the old value is read authoritatively (a cache miss costs one
        storage probe — cheap against the inline recompute the edit
        triggers anyway).  Inside a batch, and on the async
        edit-acknowledgment path where no inline recompute amortises the
        probe, only in-memory overlays are consulted: a cold cell's first
        touch invalidates the affected states (they rebuild from the next
        full read) instead of costing storage IO before the edit returns.
        """
        targets = self._aggregates.targets_for(address)
        if not targets:
            return None
        if self.in_batch or self._async:
            known, old = self._cache.peek_value(address.row, address.column)
        else:
            known, old = True, self._cache.get(address.row, address.column).value
        return (targets, known, old)

    def _aggregates_commit(self, capture, new_value: CellValue) -> None:
        """Post-edit half: fold the old→new delta into the captured states."""
        if capture is None:
            return
        targets, known, old = capture
        if known:
            self._aggregates.apply_delta(targets, old, new_value)
        else:
            self._aggregates.invalidate_targets(targets)

    def _ensure_stored_extent(self, row: int, column: int) -> None:
        """Grow the storage extent to cover a provisional-only cell.

        A synchronous formula write lands in the model (immediately, or at
        the batch flush), growing the positional extent; a provisional
        placeholder must grow it on the same schedule or structural edits
        near the sheet's edge would behave differently between the two
        modes.  Only the coordinate space is touched: the write is an empty
        cell, and only when storage holds nothing there.  It goes through
        the cache like any other write: written through outside a batch,
        *buffered* inside one — it grows the extent at the flush and is
        discarded with an aborted batch.
        """
        if self._model.get_cell(row, column).is_empty:
            self._cache.put(row, column, Cell())

    def _maybe_idle_drain(self) -> None:
        """Opportunistically retire queued compute work on a read.

        Active only in async mode with a positive ``idle_drain_ms``, outside
        batches (batched edits are not even scheduled yet), and never
        re-entrantly (a drain's own evaluations read cells through the
        cache, not through this path, but ``get_fresh_value`` style nesting
        must not recurse).
        Cycles are left queued rather than raised — an opportunistic drain
        must never fail a read.
        """
        if (
            not self._async
            or self.idle_drain_ms <= 0
            or self._idle_draining
            or self.in_batch
            or not self._scheduler.pending_count
        ):
            return
        self._idle_draining = True
        try:
            self._scheduler.drain_for(self.idle_drain_ms)
        finally:
            self._idle_draining = False

    def _load_cell(self, row: int, column: int) -> Cell:
        return self._model.get_cell(row, column)

    def _write_cell(self, row: int, column: int, cell: Cell) -> None:
        # The cache's write-through path: every synchronous commit funnels
        # here, so the backend sees (and logs) exactly the committed writes.
        if self.before_commit_hook is not None:
            self.before_commit_hook([(row, column)])
        self._backend.write_cell(row, column, cell)
        self._txn.commit_epoch += 1

    def _write_cells(self, items: list[tuple[int, int, Cell]]) -> None:
        # The cache's bulk (batch-flush) path: the backend groups the flush
        # into one atomic commit point.
        if not items:
            return
        if self.before_commit_hook is not None:
            self.before_commit_hook([(row, column) for row, column, _cell in items])
        self._backend.write_cells(items)
        self._txn.commit_epoch += 1

    def _apply_cell_to_model(self, row: int, column: int, cell: Cell) -> None:
        self._model.update_cell(row, column, cell)

    def _apply_cells_to_model(self, items: list[tuple[int, int, Cell]]) -> None:
        self._model.update_cells(items)

    def _provide_value(self, row: int, column: int) -> CellValue:
        return self._cache.get(row, column).value

    def _safe_evaluate(self, formula: str | FormulaNode,
                       address: CellAddress | None = None) -> CellValue:
        """Evaluate a formula; errors become their code strings.

        ``address`` names the formula cell being evaluated, which keys the
        aggregate store's running state for decomposable range aggregates.
        """
        self._evaluator.aggregate_cell = address
        try:
            if isinstance(formula, str):
                return self._evaluator.evaluate(formula)
            return self._evaluator.evaluate_node(formula)
        except FormulaEvaluationError as error:
            return error.code
        finally:
            self._evaluator.aggregate_cell = None

    def _recompute_batch(self, dirty: Iterable[CellAddress], *,
                         include_seeds: bool = True) -> None:
        """One topological recompute over a dirty set's transitive
        dependents (and, with ``include_seeds``, the dirty formulas
        themselves)."""
        self.recompute_passes += 1
        order = (self._dependencies.recompute_order(dirty) if include_seeds
                 else self._dependencies.dependents_of(dirty))
        for address in order:
            self._reevaluate(address)

    def _reevaluate(self, address: CellAddress, *, poisoned: bool = False) -> None:
        """Land one formula cell's freshly computed value — the one body
        behind the synchronous pass, the scheduler's evaluation callback
        and (``poisoned``) the quarantine of a formula that keeps raising.

        A changed value is stored and then routed to the running aggregates
        as a delta (topological order guarantees downstream aggregates read
        this cell only after the delta lands; storing first means a failed
        write leaves the aggregates untouched).  A provisional placeholder
        is written back through the real put even when the value happens to
        equal the placeholder's — commitment (formula text landing in
        storage) is the point, not just the value.
        """
        mid_batch = self.in_batch
        view = self._views.get(address)
        if view is not None:
            # A live view's sentinel anchor landed in the recompute order:
            # one of its source cells changed.  Re-run the query now so the
            # view (and its spill) stays reactive like any formula.  (A
            # poisoned anchor has no cell to hold an error value.)
            if not poisoned:
                if mid_batch:
                    # An abort re-marks the anchor dirty, so the view
                    # re-runs against the rolled-back data.
                    self._txn.requeue_on_rollback(address)
                self._refresh_view(view)
            return
        existing = self._cache.get(address.row, address.column)
        if existing.formula is None:
            return
        if mid_batch:
            # A mid-batch drain: the committing put lands in the discardable
            # pending map, so the displaced state is captured and the cell
            # recorded for a rollback to queue stale again.
            self._txn.touch(address)
            self._txn.requeue_on_rollback(address)
        value = "#ERROR!" if poisoned else self._safe_evaluate(existing.formula, address)
        changed = value != existing.value
        if changed or self._cache.is_provisional(address.row, address.column):
            self._cache.put(address.row, address.column, existing.with_value(value))
        if changed:
            self._aggregates.apply_edit(address, existing.value, value)
            if self._views:
                self._report_delta(address.row, address.column)

    def _quarantine_cell(self, address: CellAddress, error: BaseException) -> None:
        """Commit a poisoned formula's cell as ``#ERROR!``.

        The scheduler calls this after bounded retries of an evaluation
        that raised *unexpectedly* (expected spreadsheet errors become
        their code strings inside ``_safe_evaluate`` and never get here).
        Committing an error value unblocks the cell's dependents and keeps
        the queue draining; re-editing the cell or any precedent clears
        the quarantine and re-schedules it.
        """
        self._reevaluate(address, poisoned=True)

    def _snapshot_native_cells(self) -> Sheet:
        """Copy all cells except those owned by linked tables into a Sheet."""
        sheet = Sheet()
        linked_regions = [tom.region() for tom in self._linked_tables.values()]
        for address, cell in self._model.get_cells(self._model.region()).items():
            if any(region.contains(address) for region in linked_regions):
                continue
            sheet.set_cell(address.row, address.column, cell)
        return sheet
