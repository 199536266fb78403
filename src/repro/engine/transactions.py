"""The engine's transaction stack: undo frames, savepoints, commit barriers.

A :class:`TransactionStack` holds one :class:`_UndoFrame` per open
batch/savepoint level of a :class:`~repro.engine.dataspread.DataSpread`.
The outermost frame is the batch; nested frames are real savepoints
(rolling one back preserves the outer levels' work).

The stack remembers and restores; it decides nothing about recompute:

* :meth:`TransactionStack.touch` is the *one* first-touch recorder.  The
  engine calls it before a cell changes — an edit, or a computed value
  landing mid-batch — and the top frame captures everything a rollback of
  that cell needs: its dependency registration, its buffered write and
  its stale placeholder.
* :meth:`TransactionStack.rollback` is the *one* restore routine, behind
  ``Savepoint.rollback``, a failed ``with`` block and the reaper alike.  It
  hands the committed cells that still need a recompute to the engine's
  ``rolled_back`` callback; :meth:`TransactionStack.release` hands the
  outermost level's dirty set to the engine's ``commit`` callback.  Where
  those cells go — deferred, queued or recomputed inline — is the engine's
  routing decision.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Iterator

from repro.engine.cache import LRUCellCache
from repro.errors import SavepointError
from repro.grid.address import CellAddress

Dirty = dict[CellAddress, None]


class _UndoFrame:
    """One savepoint boundary on the transaction stack.

    Every open level records what it needs to restore exactly its own
    boundary without disturbing outer levels:

    * ``preimages`` — per touched cell, its pre-frame ``(registration,
      buffered write or ABSENT, placeholder)``, first touch wins;
    * ``dirty`` — addresses first dirtied by this frame (insertion order);
    * ``requeue`` — cells a rollback queues stale again: those the scheduler
      evaluated inside this frame (their computed values sit in the
      discardable pending map) and queued formulas the frame replaced (the
      scheduler drops a queued cell that stops being a formula, so the
      restored registration must bring its stale mark back with it);
    * ``aggregates`` — a deep copy of the running aggregate states at frame
      creation, restorable only while ``commit_epoch`` still matches the
      stack's (no commit landed in between);
    * ``barriered`` — a mid-frame commit point (structural edit, explicit
      flush) wiped the records above; a user rollback across it raises
      :class:`~repro.errors.SavepointError` instead of desyncing.
    """

    __slots__ = ("preimages", "dirty", "requeue", "aggregates",
                 "commit_epoch", "barriered")

    def __init__(self, commit_epoch: int, aggregates) -> None:
        self.aggregates = aggregates
        self.commit_epoch = commit_epoch
        self.barriered = False
        self.clear_records()

    def clear_records(self) -> None:
        """Forget everything recorded (after a flush made it durable)."""
        self.preimages: dict[CellAddress, tuple] = {}
        self.dirty: Dirty = {}
        self.requeue: Dirty = {}


class Savepoint:
    """A handle on one :class:`_UndoFrame` (returned by ``savepoint()``).

    SQLAlchemy-style semantics: :meth:`rollback` restores the boundary and
    *keeps the savepoint live* (it can roll back again); :meth:`release`
    merges its work into the enclosing level (or commits, when it is the
    outermost transaction level).  As a context manager, a clean exit
    releases and an exception rolls back, discards the savepoint, and
    re-raises.  Operating on a non-innermost savepoint first collapses the
    savepoints nested inside it.
    """

    __slots__ = ("_stack", "_frame", "_released")

    def __init__(self, stack: "TransactionStack", frame: _UndoFrame) -> None:
        self._stack = stack
        self._frame = frame
        self._released = False

    @property
    def active(self) -> bool:
        """Whether the savepoint can still be rolled back or released."""
        return not self._released and self._stack.holds(self._frame)

    def rollback(self) -> None:
        """Restore the boundary captured at creation; stays re-rollbackable.

        Raises :class:`~repro.errors.SavepointError` if the savepoint was
        already released, or if a mid-batch commit point (structural edit,
        explicit flush) has made part of its work durable.
        """
        self._stack.rollback(self._require_frame(), keep_open=True)

    def release(self) -> None:
        """Merge this level's work into the enclosing one (or commit)."""
        self._stack.release(self._require_frame())
        self._released = True

    def _require_frame(self) -> _UndoFrame:
        if not self.active:
            raise SavepointError("savepoint is no longer active")
        return self._frame

    def __enter__(self) -> "Savepoint":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self.active:
            return
        if exc_type is None:
            self.release()
        else:
            self._stack.rollback(self._frame)
            self._released = True


class TransactionStack:
    """The open batch/savepoint levels of one engine and their undo state.

    Works on the engine's collaborators directly — the cell cache (whose
    deferred mode it opens with the first level and closes with the last),
    the dependency graph, the aggregate store and the compute scheduler.
    ``commit(dirty)`` lands and routes an outermost level's work;
    ``route(dirty)`` routes the work of a level opened during that commit;
    ``rolled_back(flushed)`` follows every rollback with the committed
    cells that still need a recompute.
    """

    def __init__(self, cache: LRUCellCache, dependencies, aggregates, scheduler,
                 *, commit: Callable[[Dirty], None], route: Callable[[Dirty], None],
                 rolled_back: Callable[[Dirty], None]) -> None:
        self._commit = commit
        self._route = route
        self._rolled_back = rolled_back
        self._cache = cache
        self._dependencies = dependencies
        self._aggregates = aggregates
        self._scheduler = scheduler
        self.frames: list[_UndoFrame] = []
        #: Dirty cells whose writes a mid-batch commit point already landed
        #: in storage: they survive a failed batch and still get recomputed,
        #: so no flushed formula lingers at value ``None``.
        self.flushed: Dirty = {}
        #: Savepoints opened inside the current outermost level.
        self.savepoints = 0
        #: Whether the outermost level is committing: it stays on the stack
        #: until its commit is done, so a level the commit itself opens (a
        #: view spill's ingest) nests in it instead of opening — and
        #: closing — the cache's deferred mode a second time.
        #: A level is open for writing while ``len(frames) > committing``;
        #: the per-cell checks (``touch``, ``DataSpread.in_batch``) compare
        #: inline rather than through a property.
        self.committing = False
        #: Monotonic count of commit points (write-throughs, flushes,
        #: structural edits), bumped by the engine's commit funnel.  Frames
        #: capture it so an aggregate snapshot is only restored when
        #: nothing committed in between.
        self.commit_epoch = 0

    # ------------------------------------------------------------------ #
    # levels
    # ------------------------------------------------------------------ #
    def push(self, owner: object | None) -> _UndoFrame:
        """Open a level; the first one puts the cache in deferred mode,
        its buffered writes scoped to ``owner``."""
        if not self.frames:
            self._cache.begin_deferred(owner=owner)
            self.savepoints = 0
        else:
            self.savepoints += 1
        frame = _UndoFrame(self.commit_epoch, self._aggregates.snapshot_states())
        self.frames.append(frame)
        return frame

    def holds(self, frame: _UndoFrame) -> bool:
        """Whether ``frame`` is still an open level of this stack."""
        return any(open_frame is frame for open_frame in self.frames)

    def _index(self, frame: _UndoFrame) -> int:
        for index in range(len(self.frames) - 1, -1, -1):
            if self.frames[index] is frame:
                return index
        raise SavepointError("savepoint does not belong to the open transaction")

    @contextmanager
    def parked(self) -> Iterator[None]:
        """Set the whole open transaction aside for an autonomous commit:
        frames, flushed set, savepoint count and the cache's buffered writes
        all leave together and come back untouched."""
        state = (self.frames, self.flushed, self.savepoints, self.committing)
        self.frames, self.flushed, self.savepoints, self.committing = [], {}, 0, False
        buffered = self._cache.suspend_deferred()
        try:
            yield
        finally:
            self._cache.resume_deferred(buffered)
            self.frames, self.flushed, self.savepoints, self.committing = state

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def touch(self, address: CellAddress) -> None:
        """Capture a cell's pre-frame state before it changes (first touch).

        Each open level needs its *own* preimage: rolling a savepoint back
        restores what the cell held when that savepoint opened, not the
        pre-batch state.  A formula that was queued stale at that point is
        queued again by the rollback.  A no-op outside a transaction.
        """
        if len(self.frames) <= self.committing:
            return
        frame = self.frames[-1]
        if address in frame.preimages:
            return
        row, column = address.row, address.column
        frame.preimages[address] = (
            self._dependencies.snapshot_registration(address),
            self._cache.pending_at(row, column),
            self._cache.provisional_at(row, column),
        )
        if self._scheduler.pending_count and not self._scheduler.is_fresh(address):
            frame.requeue[address] = None

    def requeue_on_rollback(self, address: CellAddress) -> None:
        """A queued cell was evaluated inside the top level: its result sits
        in the discardable pending map, so a rollback marks it stale again."""
        self.frames[-1].requeue[address] = None

    def defer(self, dirty: Iterable[CellAddress], *, committed: bool) -> None:
        """Hold dirty cells for the transaction's closing recompute.

        Uncommitted work joins the top level's dirt and is forgotten with
        it on a rollback (the first-touch check keeps addresses unique
        across levels, so their bottom-up union preserves first-set order);
        ``committed`` cells are recomputed however the transaction ends.
        """
        if committed:
            self.flushed.update(dict.fromkeys(dirty))
            return
        for address in dirty:
            if not any(address in frame.dirty for frame in self.frames):
                self.frames[-1].dirty[address] = None

    def touches(self, address: CellAddress) -> bool:
        """Whether any open level holds uncommitted work on ``address``."""
        return any(address in frame.preimages for frame in self.frames)

    # ------------------------------------------------------------------ #
    # commit points
    # ------------------------------------------------------------------ #
    def barrier(self) -> None:
        """Land the buffered writes mid-transaction (a commit point).

        Every open level is *barriered*: its dirt moves to :attr:`flushed`,
        its undo records are wiped (mid-batch drained values just landed in
        storage and need no re-queue either) and a user rollback across the
        barrier raises.  A no-op outside a transaction.
        """
        if len(self.frames) <= self.committing:
            return
        self._cache.flush_pending()
        for frame in self.frames:
            self.flushed.update(frame.dirty)
            frame.clear_records()
            frame.barriered = True
        # Aggregate snapshots captured before the flush can no longer be
        # restored truthfully.
        self.commit_epoch += 1

    def remap(self, mapper: Callable[[CellAddress], CellAddress | None]) -> None:
        """Renumber dirty/flushed addresses after a structural edit, so the
        closing recompute finds the moved cells.  ``mapper`` returns the new
        address, or ``None`` for a deleted cell.  (Undo records need no
        remapping: the barrier preceding every structural edit wiped them.)
        """
        def remapped(addresses: Dirty) -> Dirty:
            return {moved: None for address in addresses
                    if (moved := mapper(address)) is not None}

        self.flushed = remapped(self.flushed)
        for frame in self.frames:
            frame.dirty = remapped(frame.dirty)

    def release(self, frame: _UndoFrame) -> None:
        """Clean exit of a level: merge into the parent, or commit.

        Savepoints left open inside the level are collapsed first; their
        work is kept (first-touch-wins merge), exactly as if released.  The
        outermost level hands its dirty cells (flushed ones included) to
        the engine's commit — still in deferred mode and still on the
        stack, so what the commit recomputes (view spills included) lands
        as one more bulk write — and then leaves deferred mode.  A level
        opened by that commit hands its dirty cells to the engine's
        ``route`` on release: they are recomputed now, their writes join
        the same bulk write.
        """
        index = self._index(frame)
        while len(self.frames) > max(index, 1):
            child = self.frames.pop()
            parent = self.frames[-1]
            for address, preimage in child.preimages.items():
                parent.preimages.setdefault(address, preimage)
            parent.dirty.update(child.dirty)
            parent.requeue.update(child.requeue)
            # ``parent.aggregates`` keeps the earlier boundary.
        if index > 0:
            if index == 1 and self.committing:
                dirty, self.frames[0].dirty = self.frames[0].dirty, {}
                self._route(dirty)
            return
        dirty, self.flushed = self.flushed, {}
        dirty.update(frame.dirty)
        frame.dirty = {}
        self.committing = True
        try:
            if dirty:
                self._commit(dirty)
        finally:
            self.committing = False
            self.frames.pop()
            self._cache.end_deferred()

    def rollback(self, frame: _UndoFrame, *, keep_open: bool = False) -> None:
        """Restore the boundary ``frame`` captured, levels inside it included.

        ``keep_open`` is the user-driven :meth:`Savepoint.rollback`: the
        frame stays on the stack, and a barriered one refuses.  Otherwise
        (a failed ``with`` block, the reaper) the frame is popped and a
        barrier does not raise: whatever was recorded *after* it is
        restored, the durably flushed work before it stays.  Once the
        outermost level is gone the flushed cells go to the engine's
        ``rolled_back``, so no durable formula lingers at value ``None``.

        A frame that already left the stack (its transaction was reaped) is
        a no-op, so abandoned ``with`` blocks unwind without masking the
        exception in flight.
        """
        if not keep_open and not self.holds(frame):
            return
        index = self._index(frame)
        if keep_open and frame.barriered:
            raise SavepointError(
                "cannot roll back across a mid-batch commit point "
                "(a structural edit or flush made this work durable)"
            )
        for inner in reversed(self.frames[index:]):
            self._restore_records(inner)
        del self.frames[index + 1 if keep_open else index:]
        if frame.commit_epoch == self.commit_epoch:
            self._aggregates.restore_states(frame.aggregates)
        else:
            # Something committed since the boundary was captured (a
            # barrier, an autonomous edit): the rollback rewound cell values
            # the delta path already folded in and the store cannot replay
            # them backwards, so the states rebuild lazily.
            self._aggregates.invalidate_all()
        flushed: Dirty = {}
        if not self.frames:
            flushed, self.flushed = self.flushed, flushed
            self._cache.discard_deferred()
        self._rolled_back(flushed)

    def _restore_records(self, frame: _UndoFrame) -> None:
        """Undo everything a frame recorded (records are consumed)."""
        requeue = frame.requeue
        queued = self._scheduler.pending_count
        for address, preimage in frame.preimages.items():
            registration, pending, provisional = preimage
            row, column = address.row, address.column
            if registration is None and queued and not self._scheduler.is_fresh(address):
                # A formula of the frame's that an autonomous commit queued:
                # leaving the graph, it leaves the queue too.
                requeue[address] = None
            self._dependencies.restore_registration(address, registration)
            self._cache.restore_pending((row, column), pending)
            self._cache.restore_provisional(row, column, provisional)
        frame.clear_records()
        if requeue:
            # Values the scheduler computed inside the frame sat in the
            # pending map the restore just rewound, and queued formulas the
            # frame replaced left the queue with their registration: those
            # cells are stale again (their placeholders were restored above).
            self._scheduler.mark_dirty(requeue)

