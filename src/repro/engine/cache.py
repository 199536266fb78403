"""LRU cell cache (Section VI).

The execution engine keeps recently touched cells in memory.  Reads are
*read-through* (misses pull from the storage layer) and writes are
*write-through* (updates are pushed to the storage layer immediately, then
cached).

For batched edits the cache additionally supports a *deferred* write mode:
between ``begin_deferred()`` and ``end_deferred()`` puts are buffered in a
pending map and pushed to the storage layer in one bulk call
(``bulk_writer``).  Pending entries survive LRU eviction — a read miss
consults the pending map before the loader — so a batch larger than the
cache capacity still flushes completely and never reads stale storage.  A
failed batch can instead abandon its buffered writes with
``discard_deferred()``, leaving storage untouched.

For asynchronous recompute the cache also holds *provisional* entries
(``put_provisional``): stale placeholders — typically a freshly entered
formula still carrying the cell's previous value — that are readable like
any cached cell but are **never** flushed to the storage layer, neither by
write-through nor by a deferred-mode flush.  A provisional entry survives
LRU eviction (it may be the only copy of the formula text) and is retired
by the next real ``put`` of the same cell, which is how the compute
scheduler commits a freshly evaluated value.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

from repro.grid.cell import Cell
from repro.grid.range import RangeRef

CellLoader = Callable[[int, int], Cell]
CellWriter = Callable[[int, int, Cell], None]
BulkCellWriter = Callable[[list[tuple[int, int, Cell]]], None]

DEFAULT_CAPACITY = 100_000


class _Absent:
    """Sentinel preimage: the key had no buffered write before this put."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<absent>"


#: Preimage marker used by :meth:`LRUCellCache.restore_pending` — restoring a
#: key to ``ABSENT`` removes its buffered write instead of replacing it.
ABSENT = _Absent()


class LRUCellCache:
    """A bounded read-through / write-through cache of cells keyed by (row, column)."""

    def __init__(
        self,
        loader: CellLoader,
        writer: CellWriter,
        capacity: int = DEFAULT_CAPACITY,
        *,
        bulk_writer: BulkCellWriter,
    ) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self._loader = loader
        self._writer = writer
        self._bulk_writer = bulk_writer
        self._capacity = capacity
        self._entries: OrderedDict[tuple[int, int], Cell] = OrderedDict()
        self._pending: dict[tuple[int, int], Cell] | None = None
        self._pending_owner: object | None = None
        self._active_reader: object | None = None
        self._provisional: dict[tuple[int, int], Cell] = {}
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def capacity(self) -> int:
        """Maximum number of cached cells."""
        return self._capacity

    @property
    def pending_count(self) -> int:
        """Number of buffered writes awaiting a flush."""
        return len(self._pending) if self._pending is not None else 0

    def set_active_reader(self, token: object | None) -> object | None:
        """Set the reader whose session-scoped writes are visible.

        Owner-scoped buffered writes (``begin_deferred(owner=...)``) are only
        read-visible to the matching active reader; every other reader sees
        the committed storage state (read-committed isolation between
        sessions).  Returns the previous token so callers can nest scopes.
        """
        previous = self._active_reader
        self._active_reader = token
        return previous

    def _pending_visible(self) -> bool:
        owner = self._pending_owner
        return owner is None or owner == self._active_reader

    def get(self, row: int, column: int) -> Cell:
        """Read a cell, pulling it from the storage layer on a miss."""
        key = (row, column)
        pending = self._pending
        if pending is not None and self._pending_owner is not None and key in pending:
            # Owner-scoped buffered write: the shared entry map deliberately
            # holds no mirror of it, so resolve visibility explicitly.
            provisional = self._provisional.get(key)
            if provisional is not None:
                self.hits += 1
                return provisional
            if self._pending_owner == self._active_reader:
                self.hits += 1
                return pending[key]
            self.misses += 1
            # Foreign readers see the committed state.  Not cached: the
            # entry map must stay free of this key while it is buffered.
            return self._loader(row, column)
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return cached
        self.misses += 1
        provisional = self._provisional.get(key)
        if provisional is not None:
            # A stale placeholder that was LRU-evicted: it is newer than
            # both the pending map (a later provisional supersedes a
            # buffered write for reads) and storage.
            self._store(key, provisional)
            return provisional
        if self._pending is not None:
            pending = self._pending.get(key)
            if pending is not None:
                # A buffered write that was LRU-evicted: storage is stale.
                self._store(key, pending)
                return pending
        cell = self._loader(row, column)
        self._store(key, cell)
        return cell

    def peek_value(self, row: int, column: int) -> tuple[bool, object]:
        """The overlay-visible value of a cell, *without* any storage IO.

        Returns ``(True, value)`` when the cell's current read-visible
        value is already in memory (cached entry, provisional placeholder,
        or buffered write — consulted in the same precedence order as
        :meth:`get`), and ``(False, None)`` when only the storage layer
        knows.  Used by the engine's aggregate-delta capture, which must
        not turn every batched write into a storage probe.
        """
        key = (row, column)
        pending = self._pending
        if pending is not None and self._pending_owner is not None and key in pending:
            cell = self._provisional.get(key)
            if cell is None and self._pending_owner == self._active_reader:
                cell = pending[key]
            if cell is None:
                return (False, None)  # only storage knows the committed state
            return (True, cell.value)
        cell = self._entries.get(key)
        if cell is None:
            cell = self._provisional.get(key)
        if cell is None and pending is not None:
            cell = pending.get(key)
        if cell is None:
            return (False, None)
        return (True, cell.value)

    def put(self, row: int, column: int, cell: Cell) -> None:
        """Write a cell through to storage (or buffer it in deferred mode).

        A real write retires any provisional (stale-placeholder) entry for
        the same cell — this is how a freshly computed value commits.
        """
        key = (row, column)
        if self._pending is not None:
            self._pending[key] = cell
            self._provisional.pop(key, None)
            if self._pending_owner is not None:
                # Owner-scoped buffering: never mirror uncommitted data
                # into the shared entry map.
                self._entries.pop(key, None)
                return
        else:
            self._writer(row, column, cell)
            self._provisional.pop(key, None)
        self._store(key, cell)

    # ------------------------------------------------------------------ #
    # provisional (stale-placeholder) entries
    # ------------------------------------------------------------------ #
    def put_provisional(self, row: int, column: int, cell: Cell) -> None:
        """Cache a cell *without* scheduling any storage write.

        Used by the async engine for stale placeholders: the cell is
        readable immediately (and survives eviction) but no flush — bulk or
        write-through — will ever commit it.  The entry lives until a real
        ``put`` of the same cell or ``restore_provisional(..., None)``.
        """
        key = (row, column)
        self._provisional[key] = cell
        self._store(key, cell)

    def is_provisional(self, row: int, column: int) -> bool:
        """Whether the cell currently holds an uncommitted placeholder."""
        return (row, column) in self._provisional

    def provisional_at(self, row: int, column: int) -> Cell | None:
        """The provisional entry for a cell (``None`` when absent)."""
        return self._provisional.get((row, column))

    def provisional_items(self) -> list[tuple[tuple[int, int], Cell]]:
        """All provisional entries, keyed by (row, column)."""
        return list(self._provisional.items())

    @property
    def provisional_count(self) -> int:
        """Number of provisional (never-flushed) entries."""
        return len(self._provisional)

    def restore_provisional(self, row: int, column: int, cell: Cell | None) -> None:
        """Reset a cell's provisional entry to a captured snapshot.

        ``None`` removes the entry (and its cached mirror, so the next read
        reloads the committed state); a cell reinstates it.  Used to roll
        back the placeholders of a failed batch.
        """
        key = (row, column)
        if cell is None:
            if self._provisional.pop(key, None) is not None:
                self._entries.pop(key, None)
        else:
            self.put_provisional(row, column, cell)

    def clear(self) -> None:
        """Drop every cached cell, buffered write *and* provisional entry.

        Callers that must preserve uncommitted placeholders across a clear
        (structural edits remapping the coordinate space) snapshot them
        first via :meth:`provisional_items`.
        """
        self._entries.clear()
        self._provisional.clear()
        if self._pending is not None:
            self._pending.clear()

    # ------------------------------------------------------------------ #
    # deferred (batched) write-through
    # ------------------------------------------------------------------ #
    def begin_deferred(self, owner: object | None = None) -> None:
        """Start buffering writes; idempotent.

        With ``owner`` set, the buffered writes are *session-scoped*: they
        are read-visible only while :meth:`set_active_reader` holds the same
        token, and they are never mirrored into the shared entry map.  With
        the default ``owner=None`` the buffer behaves as before — visible to
        every reader.
        """
        if self._pending is None:
            self._pending = {}
            self._pending_owner = owner

    def pending_at(self, row: int, column: int) -> "Cell | _Absent":
        """The buffered write for a cell, or :data:`ABSENT` — the preimage
        :meth:`restore_pending` takes back."""
        if self._pending is None:
            return ABSENT
        return self._pending.get((row, column), ABSENT)

    def restore_pending(self, key: tuple[int, int], preimage: Cell | _Absent) -> None:
        """Reset one buffered write to a captured preimage (savepoint rollback).

        ``ABSENT`` removes the buffered write (and any cached mirror, so the
        next read reloads the committed state); a cell reinstates the prior
        buffered content.
        """
        if self._pending is None:
            return
        if preimage is ABSENT:
            self._pending.pop(key, None)
            self._entries.pop(key, None)
        else:
            self._pending[key] = preimage
            if self._pending_owner is None:
                self._store(key, preimage)
            else:
                self._entries.pop(key, None)

    def suspend_deferred(self) -> tuple[dict[tuple[int, int], Cell] | None, object | None]:
        """Temporarily leave deferred mode, stashing the buffer untouched.

        Used for autonomous commits: an edit issued outside the open
        transaction writes through immediately while the transaction's
        buffered writes stay parked.  Returns an opaque state token for
        :meth:`resume_deferred`.
        """
        state = (self._pending, self._pending_owner)
        self._pending = None
        self._pending_owner = None
        return state

    def resume_deferred(
        self, state: tuple[dict[tuple[int, int], Cell] | None, object | None]
    ) -> None:
        """Re-enter the deferred mode stashed by :meth:`suspend_deferred`."""
        self._pending, self._pending_owner = state

    def flush_pending(self) -> int:
        """Push buffered writes to storage in bulk; stays in deferred mode.

        Returns the number of cells written.
        """
        if not self._pending:
            return 0
        items = [(row, column, cell) for (row, column), cell in self._pending.items()]
        self._bulk_writer(items)
        if self._pending_owner is not None:
            # Now committed: safe (and necessary) to refresh the shared
            # entry map — it may hold values from autonomous writes that
            # this flush just superseded.  Provisional placeholders stay:
            # they are always newer than the buffered write they shadow (a
            # real put retires the placeholder), so the mirror must keep
            # serving them or a queued formula would lose its text.
            for row, column, cell in items:
                if (row, column) not in self._provisional:
                    self._store((row, column), cell)
        self._pending.clear()
        return len(items)

    def end_deferred(self) -> int:
        """Flush buffered writes and return to write-through mode."""
        flushed = self.flush_pending()
        self._pending = None
        self._pending_owner = None
        return flushed

    def discard_deferred(self) -> int:
        """Drop buffered writes *unflushed* and return to write-through mode.

        Used when a batch body fails: the cached entries mirroring the
        discarded writes are dropped too, so subsequent reads reload the
        untouched storage state.  Returns the number of writes discarded.
        """
        if self._pending is None:
            return 0
        discarded = len(self._pending)
        # Only entries mirroring buffered writes can diverge from storage;
        # the rest of the working set stays warm.
        for key in self._pending:
            self._entries.pop(key, None)
        self._pending = None
        self._pending_owner = None
        return discarded

    # ------------------------------------------------------------------ #
    # read overlays (buffered writes + provisional placeholders)
    # ------------------------------------------------------------------ #
    def overlay_items(self) -> list[tuple[tuple[int, int], Cell]]:
        """Every entry that supersedes storage for reads.

        Buffered (deferred-mode) writes merged with provisional
        placeholders; a provisional entry wins for a cell holding both,
        since it was written over the buffered content.  Owner-scoped
        buffered writes are included only for the matching active reader.
        """
        pending = (self._pending or {}) if self._pending_visible() else {}
        if not pending and not self._provisional:
            return []
        merged: dict[tuple[int, int], Cell] = dict(pending)
        merged.update(self._provisional)
        return list(merged.items())

    def overlay_values(self, region: RangeRef) -> dict[tuple[int, int], Cell]:
        """The read-superseding entries falling inside ``region``.

        Small regions probe the overlay maps per coordinate (O(area))
        instead of scanning every buffered/provisional entry, so a drain of
        thousands of stale formulas does not pay an O(stale) scan on each
        range read.
        """
        pending = (self._pending or {}) if self._pending_visible() else {}
        provisional = self._provisional
        if not pending and not provisional:
            return {}
        merged: dict[tuple[int, int], Cell] = {}
        if region.area <= len(pending) + len(provisional):
            for row in range(region.top, region.bottom + 1):
                for column in range(region.left, region.right + 1):
                    key = (row, column)
                    cell = provisional.get(key)
                    if cell is None:
                        cell = pending.get(key)
                    if cell is not None:
                        merged[key] = cell
            return merged
        for source in (pending, provisional):
            for key, cell in source.items():
                if region.contains_coordinates(key[0], key[1]):
                    merged[key] = cell
        return merged

    # ------------------------------------------------------------------ #
    def _store(self, key: tuple[int, int], cell: Cell) -> None:
        self._entries[key] = cell
        self._entries.move_to_end(key)
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
