"""Slotted pages for the heap-file layer."""

from __future__ import annotations

from typing import Iterator

from repro.errors import StorageError
from repro.storage.tuples import Record, record_payload_size

#: Page size matching PostgreSQL's default 8 KB block size.
PAGE_SIZE_BYTES = 8 * 1024

#: Fixed page header overhead (page header + line-pointer array slack).
PAGE_HEADER_BYTES = 24


class Page:
    """A slotted page: a bounded container of records with stable slot ids.

    Deleting a record leaves its slot as a tombstone (``None``) so that the
    slot ids of surviving records — and therefore tuple pointers — never
    change, which is what lets positional mappings avoid cascading updates.

    Each slot's payload size is kept beside it, so a stored record is
    measured once, when it is written: ``insert``/``update`` take the size
    a caller already computed, and ``update``/``delete`` account with the
    cached size of the record they replace.
    """

    def __init__(self, page_id: int, capacity_bytes: int = PAGE_SIZE_BYTES) -> None:
        self.page_id = page_id
        self.capacity_bytes = capacity_bytes
        self._slots: list[Record | None] = []
        self._sizes: list[int] = []
        self._used_bytes = PAGE_HEADER_BYTES
        self._live_bytes = PAGE_HEADER_BYTES

    # ------------------------------------------------------------------ #
    @property
    def used_bytes(self) -> int:
        """Bytes consumed on the page: header, live records, and the line
        pointers of every slot ever allocated (tombstones keep their 4-byte
        pointer so surviving slot ids stay stable)."""
        return self._used_bytes

    @property
    def live_bytes(self) -> int:
        """Bytes attributable to live records only (payloads + their line
        pointers + the header) — what the page would occupy with every
        tombstone reclaimed."""
        return self._live_bytes

    @property
    def dead_bytes(self) -> int:
        """Bytes held by tombstones (their orphaned line pointers)."""
        return self._used_bytes - self._live_bytes

    @property
    def free_bytes(self) -> int:
        """Bytes still available on this page."""
        return self.capacity_bytes - self._used_bytes

    @property
    def live_count(self) -> int:
        """Number of live (non-deleted) records."""
        return sum(1 for record in self._slots if record is not None)

    def size_of(self, slot_id: int) -> int:
        """The payload size of the live record at ``slot_id``."""
        self.read(slot_id)
        return self._sizes[slot_id]

    # ------------------------------------------------------------------ #
    def insert(self, record: Record, size: int) -> int:
        """Append ``record`` of payload ``size`` (its ``record_payload_size``,
        measured by the caller); returns its slot id.  Raises when the page
        is full.
        """
        if size + 4 > self.free_bytes:
            raise StorageError(f"page {self.page_id} has no room for a {size}-byte record")
        self._slots.append(record)
        self._sizes.append(size)
        self._used_bytes += size + 4
        self._live_bytes += size + 4
        return len(self._slots) - 1

    def read(self, slot_id: int) -> Record:
        """Return the record at ``slot_id``; raises for tombstones/bad slots."""
        record = self._slot(slot_id)
        if record is None:
            raise StorageError(f"slot {slot_id} of page {self.page_id} is deleted")
        return record

    def update(self, slot_id: int, record: Record, size: int) -> None:
        """Replace the record at ``slot_id`` in place (``size`` as for
        :meth:`insert`).  Raises, changing nothing, when it no longer fits."""
        delta = size - self.size_of(slot_id)
        if delta > self.free_bytes:
            raise StorageError(f"updated record does not fit on page {self.page_id}")
        self._slots[slot_id] = record
        self._sizes[slot_id] = size
        self._used_bytes += delta
        self._live_bytes += delta

    def delete(self, slot_id: int) -> None:
        """Tombstone the record at ``slot_id``.

        The payload bytes are freed but the slot's 4-byte line pointer
        stays allocated (and counted in ``used_bytes``) so surviving slot
        ids — and therefore tuple pointers — never move; ``compact``
        reclaims trailing pointers.
        """
        size = self.size_of(slot_id)
        self._slots[slot_id] = None
        self._used_bytes -= size
        self._live_bytes -= size + 4

    def compact(self) -> int:
        """Reclaim the line pointers of *trailing* tombstones.

        Interior tombstones must keep their pointers (dropping them would
        renumber later slots and invalidate live tuple pointers), but a
        run of tombstones at the tail of the slot array is safe to
        truncate.  Returns the number of bytes reclaimed.
        """
        reclaimed = 0
        while self._slots and self._slots[-1] is None:
            self._slots.pop()
            self._sizes.pop()
            self._used_bytes -= 4
            reclaimed += 4
        return reclaimed

    def is_deleted(self, slot_id: int) -> bool:
        """Whether ``slot_id`` holds a tombstone."""
        return self._slot(slot_id) is None

    def records(self) -> Iterator[tuple[int, Record]]:
        """Iterate live ``(slot_id, record)`` pairs in slot order."""
        for slot_id, record in enumerate(self._slots):
            if record is not None:
                yield slot_id, record

    def check_invariants(self) -> None:
        """Validate the cached sizes and byte counters against a
        from-scratch recount (used by tests)."""
        if len(self._sizes) != len(self._slots):
            raise AssertionError(f"page {self.page_id}: size cache and slots differ in length")
        live = PAGE_HEADER_BYTES
        for slot_id, record in self.records():
            if self._sizes[slot_id] != record_payload_size(record):
                raise AssertionError(f"page {self.page_id} slot {slot_id}: stale cached size")
            live += self._sizes[slot_id] + 4
        dead = 4 * (len(self._slots) - self.live_count)
        if (self._live_bytes, self._used_bytes) != (live, live + dead):
            raise AssertionError(f"page {self.page_id}: byte counters disagree with a recount")

    # ------------------------------------------------------------------ #
    def _slot(self, slot_id: int) -> Record | None:
        if slot_id < 0 or slot_id >= len(self._slots):
            raise StorageError(f"slot {slot_id} out of range on page {self.page_id}")
        return self._slots[slot_id]
