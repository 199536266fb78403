"""Multi-session service layer over a single DataSpread engine.

A :class:`Workspace` owns one :class:`~repro.engine.dataspread.DataSpread`
and hands out :class:`Session` objects — the unit a client (a spreadsheet
tab, an API connection) holds.  Sessions share the committed grid but are
isolated in what they have *not* yet committed:

* **Single-writer transactions.**  At most one session's write transaction
  (``session.batch()`` / ``session.savepoint()``) is open at a time — the
  SQLite model.  While session A's transaction is open, session B's single
  edits still succeed: they run *autonomously* (the engine parks A's
  buffered writes, commits B's edit, resumes A), so short edits never wait
  on a long transaction.  Cells A's transaction has uncommitted work on
  are *write-locked* — B editing one raises
  :class:`~repro.errors.TransactionBusyError` (the database row-lock
  model) rather than racing A's commit flush.  B's own transaction — and
  any structural edit, which would shift the coordinate space under A's
  buffered writes — raise :class:`~repro.errors.TransactionBusyError`
  as well.

* **Read-committed visibility.**  A transaction's buffered writes are
  visible only to the session that owns it.  Other sessions (and the async
  scheduler draining between edits) read the last committed values.

* **Real savepoints.**  ``session.savepoint()`` captures an undo boundary
  inside the open transaction; ``rollback()`` restores exactly that
  boundary — cache writes, dependency registrations, aggregate delta
  state, provisional placeholders — without discarding outer work.
  Releases and rollbacks map onto the engine's WAL group commit points
  (the commit group is annotated with the owning session's name).

* **Snapshot reads.**  ``session.read_snapshot()`` pins the committed
  generation at open time: concurrent commits — including the async
  scheduler's own committing evaluations — do not move values under the
  snapshot (copy-on-write via the engine's before-commit hook).  A
  structural edit changes the coordinate space and *invalidates* open
  snapshots; reading one afterwards raises
  :class:`~repro.errors.SnapshotInvalidatedError`.

* **Per-session viewports.**  Each session's viewport feeds the async
  scheduler's priority queue; the scheduler round-robins between
  sessions' viewports so one client cannot starve another's visible
  region.

* **Overload protection.**  Admission-control quotas
  (``max_pending_compute`` / ``max_pending_per_owner`` engine kwargs)
  shed async edits past the queue's high-water mark with
  :class:`~repro.errors.EngineOverloadedError`; sessions retry through
  the shared :class:`~repro.service.retry.RetryPolicy`
  (:meth:`Session.retrying`).  :meth:`Session.value` reads with a
  deadline, degrading to the last *committed* value — tagged, never a
  silent placeholder — when ``allow_stale=True``.  Sessions carry a
  lease (heartbeat on every op); the :meth:`Workspace.reap` sweep rolls
  back expired idle transactions through the engine's undo machinery so
  their write-locks release, and later use of the reaped session raises
  :class:`~repro.errors.SessionExpiredError`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.compute import CellState
from repro.engine.dataspread import DataSpread, Savepoint
from repro.grid.address import CellAddress
from repro.errors import (
    EngineOverloadedError,
    SavepointError,
    SessionError,
    SessionExpiredError,
    SnapshotInvalidatedError,
    TransactionBusyError,
)
from repro.grid.range import RangeRef
from repro.service.retry import RetryPolicy


@dataclass(frozen=True)
class CellRead:
    """One deadline-aware read result with its staleness metadata.

    ``fresh`` means the value reflects every precedent at read time.  A
    ``degraded`` read missed its deadline and served the cell's last
    *committed* value instead of blocking — stale but never a lost edit
    and never an uncommitted placeholder; ``retry_after_ms`` hints when a
    re-read is likely to come back fresh.
    """

    value: Any
    fresh: bool
    degraded: bool
    state: CellState
    retry_after_ms: float = 0.0


class Workspace:
    """One shared engine, many sessions.

    Keyword arguments are forwarded to the :class:`DataSpread` constructor;
    ``async_recompute`` defaults to ``True`` because a multi-client service
    wants edits acknowledged before dependents recompute.  Pass an existing
    engine via ``engine=`` to wrap one (e.g. a recovered workspace).

    ``session_lease_ms`` arms the transaction reaper: a session whose
    write transaction sits idle (no op, no heartbeat) past the lease is
    rolled back by the next :meth:`reap` sweep.  ``clock`` injects the
    time source both the lease and read deadlines are measured on;
    ``retry_policy`` overrides the default policy :meth:`Session.retrying`
    uses.  These three are workspace-level and may accompany ``engine=``.
    """

    def __init__(self, *, engine: DataSpread | None = None,
                 session_lease_ms: float | None = None,
                 clock: Callable[[], float] | None = None,
                 retry_policy: RetryPolicy | None = None,
                 **engine_kwargs: Any) -> None:
        if engine is None:
            engine_kwargs.setdefault("async_recompute", True)
            if clock is not None:
                engine_kwargs.setdefault("clock", clock)
            engine = DataSpread(**engine_kwargs)
        elif engine_kwargs:
            raise SessionError("pass either an engine or engine kwargs, not both")
        self._spread = engine
        self._spread.before_commit_hook = self._before_commit
        self._spread.invalidation_hook = self._coordinates_changed
        self._sessions: dict[str, "Session"] = {}
        self._txn_owner: "Session | None" = None
        self._snapshots: list["ReadSnapshot"] = []
        self._next_session = 0
        self._closed = False
        self._clock = clock if clock is not None else engine.clock
        self._lease_ms = session_lease_ms
        #: Policy session retry loops use by default (:meth:`Session.retrying`).
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()

    # ------------------------------------------------------------------ #
    @property
    def engine(self) -> DataSpread:
        """The shared engine (read freely; prefer sessions for writes)."""
        return self._spread

    @property
    def transaction_owner(self) -> "Session | None":
        """The session currently holding the write transaction, if any."""
        return self._txn_owner

    def open_session(self, name: str | None = None) -> "Session":
        self._require_open()
        self._next_session += 1
        if name is None:
            name = f"session-{self._next_session}"
        if name in self._sessions:
            raise SessionError(f"session {name!r} already open")
        session = Session(self, name)
        self._sessions[name] = session
        return session

    def drain(self, limit: int | None = None) -> int:
        """Run up to ``limit`` queued evaluations (all of them when None).

        Draining happens outside any session scope: the scheduler computes
        from committed values only, never from a transaction's buffered
        writes.
        """
        return self._spread.flush_compute(limit)

    def flush(self) -> int:
        """Drain the compute queue completely."""
        return self._spread.flush_compute()

    # ------------------------------------------------------------------ #
    # overload protection
    # ------------------------------------------------------------------ #
    @property
    def shed_count(self) -> int:
        """Edits refused by the scheduler's admission control so far."""
        return self._spread.compute_scheduler.stats.shed

    @property
    def stale_serve_count(self) -> int:
        """Deadline reads served degraded (stale value tagged) so far."""
        return self._spread.stale_serves

    @property
    def reaped_count(self) -> int:
        """Expired idle transactions the reaper has rolled back so far."""
        return self._spread.reaped_transactions

    def health(self) -> dict:
        """The engine's overload snapshot plus per-session lease status."""
        snapshot = self._spread.health()
        now = self._clock()
        snapshot["sessions"] = {
            name: {
                "in_transaction": session.in_transaction,
                "idle_ms": (now - session.last_heartbeat) * 1000.0,
            }
            for name, session in self._sessions.items()
        }
        snapshot["transaction_owner"] = (
            self._txn_owner.name if self._txn_owner is not None else None
        )
        snapshot["lease_ms"] = self._lease_ms
        return snapshot

    def reap(self, now: float | None = None) -> list[str]:
        """Roll back expired idle transactions; returns reaped session names.

        A sweep, meant to run periodically (or opportunistically before
        acquiring the write slot).  When ``session_lease_ms`` is armed and
        the transaction-holding session has not heartbeat within it, the
        whole transaction unwinds through the engine's savepoint/undo
        machinery — buffered writes discarded, flushed pre-barrier work
        kept, cell write-locks released — and the session handle expires:
        every later op on it raises
        :class:`~repro.errors.SessionExpiredError`.  ``now`` overrides the
        workspace clock (tests drive virtual time through it).

        Sessions *without* an open transaction are never reaped — an idle
        reader holds no locks, so there is nothing to reclaim.
        """
        self._require_open()
        if self._lease_ms is None:
            return []
        now = self._clock() if now is None else now
        owner = self._txn_owner
        if owner is None:
            return []
        if (now - owner.last_heartbeat) * 1000.0 < self._lease_ms:
            return []
        with self._scope(owner):
            self._spread.abort_transaction()
        self._txn_owner = None
        owner._expired = True
        self._spread.reaped_transactions += 1
        self._sessions.pop(owner.name, None)
        self._spread.set_viewport(None, owner=owner)
        return [owner.name]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for snapshot in list(self._snapshots):
            snapshot.close()
        self._sessions.clear()
        self._spread.before_commit_hook = None
        self._spread.invalidation_hook = None
        self._spread.close()

    # ------------------------------------------------------------------ #
    # engine hooks
    # ------------------------------------------------------------------ #
    def _before_commit(self, keys: list[tuple[int, int]]) -> None:
        # Copy-on-write for open snapshots: capture the committed value of
        # every about-to-be-overwritten cell a snapshot has not pinned yet.
        for snapshot in self._snapshots:
            snapshot._capture(keys)

    def _coordinates_changed(self, _edit: Any) -> None:
        # A structural edit (or wholesale relink) shifts the coordinate
        # space; pinned (row, column) keys no longer name the same cells.
        for snapshot in self._snapshots:
            snapshot._invalidated = True
        self._snapshots.clear()

    # ------------------------------------------------------------------ #
    # session plumbing
    # ------------------------------------------------------------------ #
    @contextmanager
    def _scope(self, session: "Session") -> Iterator[None]:
        previous = self._spread.activate_scope(session, session.name)
        try:
            yield
        finally:
            self._spread.activate_scope(*previous)

    def _acquire_txn(self, session: "Session") -> bool:
        """Claim the single write-transaction slot.

        Returns True when this call took the slot (the caller must release
        it), False when ``session`` already holds it (re-entrant nesting).
        """
        if self._txn_owner is None:
            self._txn_owner = session
            return True
        if self._txn_owner is session:
            return False
        raise TransactionBusyError(
            f"session {session.name!r}: write transaction held by session "
            f"{self._txn_owner.name!r}"
        )

    def _release_txn(self, session: "Session") -> None:
        if self._txn_owner is session and not self._spread.in_batch:
            self._txn_owner = None

    def _check_structural(self, session: "Session") -> None:
        if self._txn_owner is not None and self._txn_owner is not session:
            raise TransactionBusyError(
                "structural edits must wait for session "
                f"{self._txn_owner.name!r} to commit (they would shift the "
                "coordinate space under its buffered writes)"
            )

    def _require_open(self) -> None:
        if self._closed:
            raise SessionError("workspace is closed")


class Session:
    """One client's handle on a shared :class:`Workspace`.

    All reads and writes run under the session's *scope*: buffered
    transaction writes belong to (and are visible to) this session only.
    Do not share one session between threads; open one per client instead.
    """

    def __init__(self, workspace: Workspace, name: str) -> None:
        self._workspace = workspace
        self.name = name
        self._closed = False
        self._expired = False
        #: Lease heartbeat (workspace-clock seconds); every op renews it.
        self.last_heartbeat = workspace._clock()

    # ------------------------------------------------------------------ #
    @property
    def workspace(self) -> Workspace:
        return self._workspace

    @property
    def in_transaction(self) -> bool:
        return self._workspace._txn_owner is self

    @property
    def expired(self) -> bool:
        """Whether the reaper rolled this session's lease-expired
        transaction back; an expired handle is dead."""
        return self._expired

    def heartbeat(self) -> None:
        """Renew the session's lease without performing any operation."""
        self._touch()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        ws = self._workspace
        ws._sessions.pop(self.name, None)
        ws._spread.set_viewport(None, owner=self)
        if ws._txn_owner is self and not ws._spread.in_batch:
            ws._txn_owner = None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #
    def set_value(self, row: int, column: int, value: Any) -> None:
        self._write(lambda engine: engine.set_value(row, column, value),
                    (row, column))

    def set_formula(self, row: int, column: int, formula: str) -> Any:
        return self._write(lambda engine: engine.set_formula(row, column, formula),
                           (row, column))

    def set_input(self, reference: str, text: Any) -> Any:
        address = CellAddress.from_a1(reference)
        return self._write(lambda engine: engine.set_input(reference, text),
                           (address.row, address.column))

    def clear_cell(self, row: int, column: int) -> None:
        self._write(lambda engine: engine.clear_cell(row, column),
                    (row, column))

    def insert_row_after(self, row: int, count: int = 1) -> None:
        self._structural(lambda engine: engine.insert_row_after(row, count))

    def delete_row(self, row: int, count: int = 1) -> None:
        self._structural(lambda engine: engine.delete_row(row, count))

    def insert_column_after(self, column: int, count: int = 1) -> None:
        self._structural(lambda engine: engine.insert_column_after(column, count))

    def delete_column(self, column: int, count: int = 1) -> None:
        self._structural(lambda engine: engine.delete_column(column, count))

    # ------------------------------------------------------------------ #
    # transactions
    # ------------------------------------------------------------------ #
    @contextmanager
    def batch(self) -> Iterator["Session"]:
        """Open (or nest within) this session's write transaction.

        Acquires the workspace's single-writer slot; a nested call is a
        savepoint (engine semantics).  Raises
        :class:`~repro.errors.TransactionBusyError` when another session's
        transaction is open.
        """
        self._require_usable()
        ws = self._workspace
        acquired = ws._acquire_txn(self)
        try:
            with ws._scope(self), ws._spread.batch():
                yield self
        except SavepointError:
            if self._expired:
                # The reaper unwound this transaction while the block was
                # open; the clean exit found its frame gone.
                raise SessionExpiredError(
                    f"session {self.name!r} expired: its idle transaction "
                    f"was reaped after its lease lapsed"
                ) from None
            raise
        finally:
            if acquired:
                ws._release_txn(self)

    def savepoint(self) -> "SessionSavepoint":
        """Capture an undo boundary in this session's transaction.

        Outside a batch this opens a transaction of its own (released on
        ``release()`` / context-manager exit).
        """
        self._require_usable()
        ws = self._workspace
        acquired = ws._acquire_txn(self)
        try:
            with ws._scope(self):
                handle = ws._spread.savepoint()
        except BaseException:
            if acquired:
                ws._release_txn(self)
            raise
        return SessionSavepoint(self, handle, acquired)

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #
    def get_value(self, row: int, column: int) -> Any:
        self._require_usable()
        with self._workspace._scope(self):
            return self._workspace._spread.get_value(row, column)

    def value(self, row: int, column: int, *,
              deadline_ms: float | None = None,
              allow_stale: bool = False) -> CellRead:
        """Read one cell with freshness metadata and an optional deadline.

        Without a deadline this behaves like ``get_fresh_value``: the
        scheduler evaluates exactly the stale subtree the cell reads, then
        the fresh value returns.  With ``deadline_ms`` the targeted drain
        stops cooperatively at the deadline (measured on the workspace's
        injectable clock; ``deadline_ms=0`` does no compute work at all).
        If the cell is still stale then:

        * ``allow_stale=True`` → the read *degrades*: the cell's last
          committed value returns tagged ``degraded`` (with a
          ``retry_after_ms`` hint) — stale, but never an uncommitted
          placeholder and never a lost committed edit;
        * ``allow_stale=False`` → raises
          :class:`~repro.errors.EngineOverloadedError` naming this
          session, so callers distinguish "overloaded" from "no value".
        """
        self._require_usable()
        ws = self._workspace
        engine = ws._spread
        scheduler = engine.compute_scheduler
        address = CellAddress(row, column)
        with ws._scope(self):
            if deadline_ms is None:
                scheduler.ensure(address)
            elif deadline_ms > 0:
                scheduler.ensure(
                    address,
                    deadline=ws._clock() + deadline_ms / 1000.0,
                    clock=ws._clock,
                )
            state = scheduler.state_of(address)
            value = engine.get_value(row, column)
        if state is CellState.FRESH:
            return CellRead(value=value, fresh=True, degraded=False, state=state)
        if allow_stale:
            engine.stale_serves += 1
            return CellRead(
                value=value, fresh=False, degraded=True, state=state,
                retry_after_ms=scheduler.retry_after_hint(),
            )
        raise EngineOverloadedError(
            f"session {self.name!r}: cell {address.to_a1()} still stale "
            f"after its {deadline_ms}ms read deadline",
            retry_after_ms=scheduler.retry_after_hint(),
        )

    def retrying(self, operation: Any, *, policy: RetryPolicy | None = None) -> Any:
        """Run ``operation()`` under the workspace's retry policy.

        Retries :class:`~repro.errors.TransactionBusyError` (another
        session's transaction holds a lock) and
        :class:`~repro.errors.EngineOverloadedError` (admission control
        shed the edit, whose ``retry_after_ms`` hint the backoff honours);
        the final failure re-raises unchanged.
        """
        policy = policy if policy is not None else self._workspace.retry_policy
        return policy.call(operation)

    def get_cell(self, row: int, column: int) -> Any:
        self._require_usable()
        with self._workspace._scope(self):
            return self._workspace._spread.get_cell(row, column)

    def get_range_values(self, region: RangeRef | str) -> list[list[Any]]:
        self._require_usable()
        with self._workspace._scope(self):
            return self._workspace._spread.get_range_values(region)

    def set_viewport(self, region: RangeRef | str | None) -> None:
        """Declare this session's visible region (scheduler priority)."""
        self._workspace._spread.set_viewport(region, owner=self)

    def query(self, query: Any) -> Any:
        """Run a generative ``select()`` query (or SQL-free source) and
        return the drained :class:`~repro.query.executor.TableValue`.

        Runs under this session's scope, so the session's own buffered
        transaction writes are visible to the scan.
        """
        with self._workspace._scope(self):
            return self._workspace._spread.execute(query).to_table()

    def create_live_view(self, query: Any, *, at: str | None = None,
                         name: str | None = None) -> Any:
        """Pin a live view on the shared engine (visible to all sessions)."""
        self._require_usable()
        with self._workspace._scope(self):
            return self._workspace._spread.create_live_view(query, at=at, name=name)

    def live_view_value(self, name: str) -> Any:
        """The current table of a named live view (refreshing if stale)."""
        self._require_usable()
        for view in self._workspace._spread.live_views:
            if view.name == name:
                with self._workspace._scope(self):
                    return view.value()
        raise KeyError(f"no live view named {name!r}")

    def read_snapshot(self) -> "ReadSnapshot":
        """Pin the committed generation for consistent multi-cell reads."""
        self._require_usable()
        snapshot = ReadSnapshot(self._workspace, session=self)
        self._workspace._snapshots.append(snapshot)
        return snapshot

    # ------------------------------------------------------------------ #
    def _write(self, operation, key: tuple[int, int]):
        self._require_usable()
        ws = self._workspace
        owner = ws._txn_owner
        if owner is None or owner is self:
            with ws._scope(self):
                return operation(ws._spread)
        # Another session's transaction is open: commit autonomously so a
        # long transaction never blocks other clients' single edits.  Cells
        # the transaction has uncommitted work on are write-locked — an
        # autonomous overwrite would race the owner's commit flush.
        if ws._spread.transaction_touches(*key):
            raise TransactionBusyError(
                f"session {self.name!r}: cell {key} is write-locked by "
                f"session {owner.name!r}'s open transaction"
            )
        with ws._scope(self), ws._spread.autonomous():
            return operation(ws._spread)

    def _structural(self, operation):
        self._require_usable()
        ws = self._workspace
        ws._check_structural(self)
        with ws._scope(self):
            return operation(ws._spread)

    def _require_usable(self) -> None:
        if self._expired:
            raise SessionExpiredError(
                f"session {self.name!r} expired: its idle transaction was "
                f"reaped after its lease lapsed; open a new session"
            )
        if self._closed:
            raise SessionError(f"session {self.name!r} is closed")
        self._workspace._require_open()
        self._touch()

    def _touch(self) -> None:
        self.last_heartbeat = self._workspace._clock()


class SessionSavepoint:
    """A session-scoped wrapper over the engine's :class:`Savepoint`.

    Rollback and release run under the owning session's scope; releasing
    (or unwinding) the savepoint that *opened* the transaction also frees
    the workspace's single-writer slot.
    """

    def __init__(self, session: Session, handle: Savepoint, acquired: bool) -> None:
        self._session = session
        self._handle = handle
        self._acquired = acquired

    @property
    def active(self) -> bool:
        return self._handle.active

    def rollback(self) -> None:
        """Restore the boundary; the savepoint stays open for re-rollback.

        Raises :class:`~repro.errors.SavepointError` when a mid-batch
        commit point (structural edit) made the work durable, and
        :class:`~repro.errors.SessionExpiredError` when the owning
        session's transaction was reaped out from under this handle.
        """
        self._check_expired()
        ws = self._session._workspace
        with ws._scope(self._session):
            self._handle.rollback()

    def release(self) -> None:
        """Keep the work and close the boundary (commits when outermost)."""
        self._check_expired()
        ws = self._session._workspace
        with ws._scope(self._session):
            self._handle.release()
        self._settle_txn()

    def _check_expired(self) -> None:
        if self._session._expired:
            raise SessionExpiredError(
                f"session {self._session.name!r} expired: this savepoint's "
                f"transaction was reaped after its lease lapsed"
            )

    def __enter__(self) -> "SessionSavepoint":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # A reaped transaction leaves the handle inert (its frame is gone):
        # the engine exit no-ops, but a *clean* exit must not pretend the
        # work was kept — surface the expiry instead.
        reaped = self._session._expired and not self._handle._released
        ws = self._session._workspace
        try:
            with ws._scope(self._session):
                self._handle.__exit__(exc_type, exc, tb)
        finally:
            self._settle_txn()
        if exc_type is None and reaped:
            self._check_expired()

    def _settle_txn(self) -> None:
        if self._acquired:
            self._session._workspace._release_txn(self._session)


class ReadSnapshot:
    """A consistent view of the committed grid at open time.

    Values the snapshot has read — or could read — do not move while it is
    open: the workspace captures the committed preimage of every cell just
    before a commit overwrites it (copy-on-write), including the async
    scheduler's own committing evaluations mid-drain.  Uncommitted work
    (any session's buffered transaction writes) is never visible.

    A structural edit invalidates the snapshot wholesale: the pinned
    (row, column) keys no longer name the same conceptual cells, so reads
    raise :class:`~repro.errors.SnapshotInvalidatedError` afterwards.
    """

    def __init__(self, workspace: Workspace, *,
                 session: "Session | None" = None) -> None:
        self._workspace = workspace
        self._session = session
        self._overlay: dict[tuple[int, int], Any] = {}
        self._invalidated = False
        self._closed = False

    # ------------------------------------------------------------------ #
    @property
    def valid(self) -> bool:
        return not (self._invalidated or self._closed)

    def get_value(self, row: int, column: int) -> Any:
        if self._invalidated:
            raise SnapshotInvalidatedError(
                f"{self._owner_label()}: a structural edit changed the "
                f"coordinate space after this snapshot was opened"
            )
        if self._closed:
            raise SessionError(f"{self._owner_label()} is closed")
        key = (row, column)
        if key in self._overlay:
            return self._overlay[key]
        # The data model holds exactly the committed state: transaction
        # buffers and provisional placeholders live in the cache and never
        # reach the model before their commit point.
        return self._workspace._spread.model.get_cell(row, column).value

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._workspace._snapshots.remove(self)
        except ValueError:
            pass  # already invalidated (and unregistered) or workspace closed

    def __enter__(self) -> "ReadSnapshot":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def _owner_label(self) -> str:
        if self._session is not None:
            return f"session {self._session.name!r}'s snapshot"
        return "snapshot"

    def _capture(self, keys: list[tuple[int, int]]) -> None:
        model = self._workspace._spread.model
        for key in keys:
            if key not in self._overlay:
                self._overlay[key] = model.get_cell(*key).value
