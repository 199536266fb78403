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
    """

    def __init__(self, page_id: int, capacity_bytes: int = PAGE_SIZE_BYTES) -> None:
        self.page_id = page_id
        self.capacity_bytes = capacity_bytes
        self._slots: list[Record | None] = []
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

    def has_room_for(self, record: Record) -> bool:
        """Whether ``record`` fits on this page."""
        return record_payload_size(record) + 4 <= self.free_bytes

    # ------------------------------------------------------------------ #
    def insert(self, record: Record) -> int:
        """Append ``record``; returns its slot id.  Raises when the page is full."""
        if not self.has_room_for(record):
            raise StorageError(f"page {self.page_id} has no room for a {record_payload_size(record)}-byte record")
        self._slots.append(record)
        self._used_bytes += record_payload_size(record) + 4
        self._live_bytes += record_payload_size(record) + 4
        return len(self._slots) - 1

    def read(self, slot_id: int) -> Record:
        """Return the record at ``slot_id``; raises for tombstones/bad slots."""
        record = self._slot(slot_id)
        if record is None:
            raise StorageError(f"slot {slot_id} of page {self.page_id} is deleted")
        return record

    def update(self, slot_id: int, record: Record) -> None:
        """Replace the record at ``slot_id`` in place."""
        old = self.read(slot_id)
        delta = record_payload_size(record) - record_payload_size(old)
        if delta > self.free_bytes:
            raise StorageError(f"updated record does not fit on page {self.page_id}")
        self._slots[slot_id] = record
        self._used_bytes += delta
        self._live_bytes += delta

    def delete(self, slot_id: int) -> None:
        """Tombstone the record at ``slot_id``.

        The payload bytes are freed but the slot's 4-byte line pointer
        stays allocated (and counted in ``used_bytes``) so surviving slot
        ids — and therefore tuple pointers — never move; ``compact``
        reclaims trailing pointers.
        """
        record = self.read(slot_id)
        self._slots[slot_id] = None
        self._used_bytes -= record_payload_size(record)
        self._live_bytes -= record_payload_size(record) + 4

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

    # ------------------------------------------------------------------ #
    def _slot(self, slot_id: int) -> Record | None:
        if slot_id < 0 or slot_id >= len(self._slots):
            raise StorageError(f"slot {slot_id} out of range on page {self.page_id}")
        return self._slots[slot_id]
