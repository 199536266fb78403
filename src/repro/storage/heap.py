"""Heap files: an unordered collection of pages with stable tuple pointers."""

from __future__ import annotations

from itertools import compress
from operator import is_not
from typing import Iterator

from repro.errors import StorageError
from repro.storage.page import PAGE_HEADER_BYTES, PAGE_SIZE_BYTES, Page
from repro.storage.tuples import Record, TuplePointer, record_payload_size, value_size


class _ChainMarker:
    """A sentinel tagging overflow-chain links; never equal to user data."""

    __slots__ = ("_label",)

    def __init__(self, label: str) -> None:
        self._label = label

    def __repr__(self) -> str:  # a stable repr keeps size accounting exact
        return self._label


#: First field of the head / continuation link of a chained record.
_CHAIN_HEAD = _ChainMarker("__chain_head__")
_CHAIN_CONT = _ChainMarker("__chain_cont__")

#: Worst-case pointer used when sizing chain links before they exist.
_PROBE_POINTER = TuplePointer(page_id=1 << 40, slot_id=1 << 40)


def _is_chain_link(record: Record) -> bool:
    return bool(record) and (record[0] is _CHAIN_HEAD or record[0] is _CHAIN_CONT)


class HeapFile:
    """An append-friendly heap of slotted pages.

    Records are addressed by :class:`TuplePointer`; pointers remain valid for
    the lifetime of the record regardless of other inserts and deletes, which
    is the property positional mappings rely on.

    A record wider than one page is stored as an *overflow chain* (the moral
    equivalent of PostgreSQL's TOAST): its fields are split across linked
    continuation records, each of which fits a page, and the head link's
    pointer addresses the logical record.  Chaining is transparent —
    ``read``/``scan`` reassemble, ``delete`` releases every link — so
    column/row-oriented grid stores can hold arbitrarily long lines.  A
    link is the unit of an update: rewriting a chained record patches in
    place just the links whose fields changed, so a point write into a long
    line costs one link, not the line.  Only a single *field* larger than a
    page remains unstorable.
    """

    def __init__(self, page_capacity_bytes: int = PAGE_SIZE_BYTES) -> None:
        self._page_capacity = page_capacity_bytes
        self._pages: list[Page] = []
        self._live_records = 0
        self._insert_count = 0
        self._read_count = 0

    # ------------------------------------------------------------------ #
    @property
    def page_count(self) -> int:
        """Number of allocated pages."""
        return len(self._pages)

    @property
    def record_count(self) -> int:
        """Number of live records."""
        return self._live_records

    @property
    def stats(self) -> dict[str, int]:
        """Operation counters (used by access-cost accounting in benches)."""
        return {"inserts": self._insert_count, "reads": self._read_count, "pages": len(self._pages)}

    # ------------------------------------------------------------------ #
    def insert(self, record: Record) -> TuplePointer:
        """Insert ``record``, allocating a new page when the last one is full.

        A record too wide for one page is stored as an overflow chain; the
        returned pointer addresses the whole logical record either way.
        """
        pointer = self._store(record)
        self._live_records += 1
        self._insert_count += 1
        return pointer

    def read(self, pointer: TuplePointer) -> Record:
        """Fetch the (reassembled) record at ``pointer``."""
        self._read_count += 1
        return self._fetch(pointer)

    def update(self, pointer: TuplePointer, record: Record) -> TuplePointer:
        """Update in place when possible; otherwise relocate and return the new pointer.

        A chained record keeps its pointer as long as it keeps its field
        count and every changed link still fits its page; it moves only
        when one of those fails, or when a one-page record outgrows a page.
        """
        page = self._page(pointer)
        existing = page.read(pointer.slot_id)
        if _is_chain_link(existing):
            if self._patch_chain(pointer, existing, record):
                return pointer
        else:
            size = record_payload_size(record)
            if self._fits_one_page(size):
                try:
                    page.update(pointer.slot_id, record, size)
                    return pointer
                except StorageError:
                    pass
        self._release(pointer)
        self._live_records -= 1
        return self.insert(record)

    def delete(self, pointer: TuplePointer) -> None:
        """Delete the record at ``pointer`` (all links, for a chain)."""
        self._release(pointer)
        self._live_records -= 1

    def scan(self) -> Iterator[tuple[TuplePointer, Record]]:
        """Iterate all live *logical* records in physical order.

        Chain heads are reassembled and yielded at their head pointer;
        continuation links are skipped.
        """
        for page in self._pages:
            for slot_id, record in page.records():
                if record and record[0] is _CHAIN_CONT:
                    continue
                pointer = TuplePointer(page_id=page.page_id, slot_id=slot_id)
                if record and record[0] is _CHAIN_HEAD:
                    yield pointer, self._fetch(pointer)
                else:
                    yield pointer, record

    # ------------------------------------------------------------------ #
    # physical placement and overflow chains
    # ------------------------------------------------------------------ #
    def _fits_one_page(self, size: int) -> bool:
        return size + 4 <= self._page_capacity - PAGE_HEADER_BYTES

    def _place(self, record: Record, size: int) -> TuplePointer:
        """Put one physical record of payload ``size`` on a page; no chain
        handling."""
        if not self._pages or size + 4 > self._pages[-1].free_bytes:
            self._pages.append(Page(page_id=len(self._pages), capacity_bytes=self._page_capacity))
        page = self._pages[-1]
        slot_id = page.insert(record, size)
        return TuplePointer(page_id=page.page_id, slot_id=slot_id)

    def _store(self, record: Record) -> TuplePointer:
        size = record_payload_size(record)
        if self._fits_one_page(size):
            return self._place(record, size)
        chunks = self._chunk_fields(record)
        next_pointer: TuplePointer | None = None
        for index in range(len(chunks) - 1, -1, -1):
            fields, fields_size = chunks[index]
            link_head = (_CHAIN_CONT if index else _CHAIN_HEAD, next_pointer)
            next_pointer = self._place((*link_head, *fields),
                                       record_payload_size(link_head) + fields_size)
        return next_pointer

    def _chunk_fields(self, record: Record) -> list[tuple[list, int]]:
        """Greedily pack fields into link-sized chunks (each fits a page),
        each with the summed ``value_size`` of its fields.

        Runs in one pass with an additive size accumulator —
        ``record_payload_size`` is a sum over fields, so tracking the
        running total matches sizing the candidate link exactly.
        """
        budget = self._page_capacity - PAGE_HEADER_BYTES - 4
        overhead = record_payload_size((_CHAIN_CONT, _PROBE_POINTER))
        chunks: list[tuple[list, int]] = []
        current: list = []
        used = overhead
        for field in record:
            size = value_size(field)
            if current and used + size > budget:
                chunks.append((current, used - overhead))
                current = []
                used = overhead
            if used + size > budget:
                raise StorageError("record field larger than a page")
            current.append(field)
            used += size
        chunks.append((current, used - overhead))
        return chunks

    def _patch_chain(self, pointer: TuplePointer, head: Record, record: Record) -> bool:
        """Rewrite in place only the links of a chained record whose fields
        changed; every link keeps its place, so the head pointer holds.

        A changed link is re-sized from its cached size and the changed
        fields alone.  Returns ``False`` when the field count differs or a
        changed link outgrows its page: the caller then re-stores the whole
        record (links patched so far are released with it).
        """
        links = [(pointer, head)]
        next_pointer = head[1]
        while next_pointer is not None:
            link = self._page(next_pointer).read(next_pointer.slot_id)
            links.append((next_pointer, link))
            next_pointer = link[1]
        if sum(len(link) - 2 for _, link in links) != len(record):
            return False
        start = 0
        for link_pointer, link in links:
            old = link[2:]
            new = record[start:start + len(old)]
            start += len(old)
            # Identity, not equality: ``1 == True == 1.0``, so an equality
            # test would skip a write that changes only a value's type.
            # The caller rebuilds just the fields it writes.
            changed = list(compress(range(len(old)), map(is_not, old, new)))
            if not changed:
                continue
            page = self._page(link_pointer)
            size = (page.size_of(link_pointer.slot_id)
                    - sum(value_size(old[i]) for i in changed)
                    + sum(value_size(new[i]) for i in changed))
            try:
                page.update(link_pointer.slot_id, (*link[:2], *new), size)
            except StorageError:
                return False
        return True

    def _fetch(self, pointer: TuplePointer) -> Record:
        record = self._page(pointer).read(pointer.slot_id)
        if record and record[0] is _CHAIN_CONT:
            raise StorageError("pointer addresses an overflow continuation")
        if record and record[0] is _CHAIN_HEAD:
            fields = list(record[2:])
            next_pointer = record[1]
            while next_pointer is not None:
                link = self._page(next_pointer).read(next_pointer.slot_id)
                fields.extend(link[2:])
                next_pointer = link[1]
            return tuple(fields)
        return record

    def _release(self, pointer: TuplePointer) -> None:
        """Physically delete the record at ``pointer`` and any chain links."""
        page = self._page(pointer)
        record = page.read(pointer.slot_id)
        page.delete(pointer.slot_id)
        if record and record[0] is _CHAIN_HEAD:
            next_pointer = record[1]
            while next_pointer is not None:
                link = self._page(next_pointer).read(next_pointer.slot_id)
                self._page(next_pointer).delete(next_pointer.slot_id)
                next_pointer = link[1]

    # ------------------------------------------------------------------ #
    def used_bytes(self) -> int:
        """Total bytes consumed by allocated pages (full pages, like a real heap)."""
        return len(self._pages) * self._page_capacity

    def live_bytes(self) -> int:
        """Bytes attributable to live records (payloads + line pointers +
        page headers) — tombstones excluded."""
        return sum(page.live_bytes for page in self._pages)

    def dead_bytes(self) -> int:
        """Bytes held by tombstoned slots across all pages."""
        return sum(page.dead_bytes for page in self._pages)

    def check_invariants(self) -> None:
        """Validate every page's cached sizes and byte counters, the live
        record count, and that every chain walks from its head through
        continuation links each owned by exactly one head (used by tests)."""
        heads: list[TuplePointer] = []
        continuations: set[TuplePointer] = set()
        for page in self._pages:
            page.check_invariants()
            for slot_id, record in page.records():
                pointer = TuplePointer(page.page_id, slot_id)
                if record and record[0] is _CHAIN_CONT:
                    continuations.add(pointer)
                else:
                    heads.append(pointer)
        if len(heads) != self._live_records:
            raise AssertionError(f"{len(heads)} live records, {self._live_records} counted")
        owned: set[TuplePointer] = set()
        for pointer in heads:
            link = self._page(pointer).read(pointer.slot_id)
            while _is_chain_link(link) and link[1] is not None:
                next_pointer = link[1]
                if next_pointer in owned or next_pointer not in continuations:
                    raise AssertionError(f"chain at {pointer} reaches a bad link {next_pointer}")
                owned.add(next_pointer)
                link = self._page(next_pointer).read(next_pointer.slot_id)
        if owned != continuations:
            raise AssertionError(f"{len(continuations - owned)} orphaned continuation links")

    def vacuum(self) -> dict[str, int]:
        """Compact the heap without moving any live record.

        Tuple pointers of live records stay valid: each page truncates only
        its *trailing* tombstone pointers, and only *trailing* fully-dead
        pages are released (page ids are list indices, so interior pages
        must stay put).  Pointers to vacuumed records were already dead.
        Returns ``{"bytes_reclaimed", "pages_dropped"}``.
        """
        reclaimed = sum(page.compact() for page in self._pages)
        dropped = 0
        while self._pages and self._pages[-1].live_count == 0:
            self._pages.pop()
            dropped += 1
        return {"bytes_reclaimed": reclaimed, "pages_dropped": dropped}

    def _page(self, pointer: TuplePointer) -> Page:
        if pointer.page_id < 0 or pointer.page_id >= len(self._pages):
            raise StorageError(f"page {pointer.page_id} does not exist")
        return self._pages[pointer.page_id]
