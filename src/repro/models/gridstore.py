"""Orientation-agnostic tuple-per-line storage shared by ROM and COM.

ROM stores one database tuple per sheet *row*; COM stores one tuple per sheet
*column*.  Both need the same machinery: a positional mapping from the
presentational position of the major axis (row for ROM, column for COM) to a
stable tuple pointer, and a slot-indirection list on the minor axis so that
inserting or deleting a minor line does not rewrite every stored tuple.

:class:`LineGridStore` implements that machinery once, in terms of "major"
and "minor" axes, and :class:`LineOrientedModel` is the data model over it
with the major axis as data; ROM and COM are its two orientations.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import DataModelError
from repro.grid.address import CellAddress
from repro.grid.cell import Cell, CellValue
from repro.grid.range import RangeRef
from repro.grid.structural import StructuralEdit
from repro.models.base import DataModel
from repro.positional import HierarchicalMapping, PositionalMapping
from repro.storage.heap import HeapFile

#: Stored cell payload: ``None`` for an empty slot, else ``(value, formula)``.
StoredCell = tuple


class LineGridStore:
    """Stores a rectangular region one tuple per *major* line.

    Major positions are managed by a hierarchical positional mapping (so
    major-line insert/delete is O(log N)); minor positions
    are managed by an append-only slot table (so minor-line insert/delete is
    O(1) and never rewrites stored tuples).
    """

    def __init__(self) -> None:
        self._heap = HeapFile()
        self._mapping = HierarchicalMapping()
        #: minor display position (0-based) -> physical slot index in records
        self._minor_slots: list[int] = []
        self._next_slot = 0
        self._filled = 0

    # ------------------------------------------------------------------ #
    @property
    def major_count(self) -> int:
        """Number of major lines currently stored."""
        return len(self._mapping)

    @property
    def minor_count(self) -> int:
        """Number of minor lines currently visible."""
        return len(self._minor_slots)

    @property
    def filled_cells(self) -> int:
        """Number of non-empty stored cells."""
        return self._filled

    @property
    def mapping(self) -> PositionalMapping:
        """The positional mapping over major lines (exposed for benchmarks)."""
        return self._mapping

    # ------------------------------------------------------------------ #
    # sizing
    # ------------------------------------------------------------------ #
    def ensure_major(self, count: int) -> None:
        """Grow the major axis to at least ``count`` lines (appending empties)."""
        self._mapping.extend_to(count, lambda: self._heap.insert(()))

    def ensure_minor(self, count: int) -> None:
        """Grow the minor axis to at least ``count`` lines."""
        while self.minor_count < count:
            self._minor_slots.append(self._next_slot)
            self._next_slot += 1

    # ------------------------------------------------------------------ #
    # cell access (1-based major/minor positions)
    # ------------------------------------------------------------------ #
    def get(self, major: int, minor: int) -> Cell:
        """The cell at (major, minor), or an empty cell."""
        if major < 1 or major > self.major_count or minor < 1 or minor > self.minor_count:
            return Cell()
        record = self._read_record(major)
        slot = self._minor_slots[minor - 1]
        stored = record[slot] if slot < len(record) else None
        return _to_cell(stored)

    def get_major_slice(self, major: int, minor_start: int,
                        minor_end: int) -> list[StoredCell | None]:
        """Stored payloads of one major line at minor positions [start..end].

        Reads the stored tuple once and picks only the requested slots
        (positions outside the stored extent read as empty) — the raw
        slice both bulk reads decode, so a wide row is not fully decoded
        when a formula touches a narrow range and no ``Cell`` is built for
        a caller that wants values.
        """
        width = minor_end - minor_start + 1
        if major < 1 or major > self.major_count:
            return [None] * width
        record = self._read_record(major)
        size = len(record)
        first = max(minor_start, 1)
        last = max(min(minor_end, self.minor_count), first - 1)
        stored = [record[slot] if slot < size else None
                  for slot in self._minor_slots[first - 1:last]]
        return [None] * (first - minor_start) + stored + [None] * (minor_end - last)

    def set(self, major: int, minor: int, cell: Cell) -> None:
        """Store ``cell`` at (major, minor), growing the region as needed."""
        self.set_major_line(major, {minor: cell})

    def set_major_line(self, major: int, cells: dict[int, Cell]) -> None:
        """Write cells of one major line (``{minor: cell}``) with a single
        record rewrite, growing the region as needed.

        The one body that rewrites a stored record for a cell write.  A
        point write is its one-cell case; a block is handed over one line
        at a time, because rewriting a long line's record per cell is
        quadratic once the record overflows onto a heap chain.
        """
        if major < 1 or any(minor < 1 for minor in cells):
            raise DataModelError(
                f"positions must be >= 1, got ({major}, {min(cells, default=1)})")
        if not cells:
            return
        self.ensure_major(major)
        self.ensure_minor(max(cells))
        pointer = self._mapping.fetch(major)
        record = list(self._heap.read(pointer))
        for minor, cell in cells.items():
            slot = self._minor_slots[minor - 1]
            if slot >= len(record):
                record.extend([None] * (slot - len(record) + 1))
            previous = record[slot]
            stored = None if cell.is_empty else (cell.value, cell.formula)
            record[slot] = stored
            if previous is None and stored is not None:
                self._filled += 1
            elif previous is not None and stored is None:
                self._filled -= 1
        new_pointer = self._heap.update(pointer, tuple(record))
        if new_pointer != pointer:
            self._mapping.replace_at(major, new_pointer)

    # ------------------------------------------------------------------ #
    # structural operations
    # ------------------------------------------------------------------ #
    def insert_major_after(self, major: int, count: int = 1) -> None:
        """Insert ``count`` empty major lines after position ``major`` (0 = before first).

        A position at or beyond the stored extent is implicit empty space:
        inserting there shifts nothing stored, so it is a no-op (the mapping
        extends lazily when a cell is actually written).
        """
        if major < 0 or count < 1:
            raise DataModelError(f"invalid major insert ({major}, count={count})")
        if major >= self.major_count:
            return
        for offset in range(count):
            pointer = self._heap.insert(())
            self._mapping.insert_at(major + 1 + offset, pointer)

    def delete_major(self, major: int, count: int = 1) -> None:
        """Delete up to ``count`` major lines starting at ``major``.

        The span clips to the stored extent — deleting lines past the last
        stored major line removes nothing (they are implicit empty space).
        """
        if major < 1 or count < 1:
            raise DataModelError(f"invalid major delete ({major}, count={count})")
        for pointer in self._mapping.delete_span(major, count):
            record = self._heap.read(pointer)
            # Only visible slots count: a deleted minor line leaves its slot
            # behind in the record, already subtracted when it went.
            self._filled -= sum(
                1 for slot in self._minor_slots
                if slot < len(record) and record[slot] is not None
            )
            self._heap.delete(pointer)

    def insert_minor_after(self, minor: int, count: int = 1) -> None:
        """Insert ``count`` empty minor lines after position ``minor`` (0 = before first).

        Like :meth:`insert_major_after`, positions at or beyond the stored
        extent are implicit empty space and the insert is a lazy no-op.
        """
        if minor < 0 or count < 1:
            raise DataModelError(f"invalid minor insert ({minor}, count={count})")
        if minor >= self.minor_count:
            return
        new_slots = []
        for _ in range(count):
            new_slots.append(self._next_slot)
            self._next_slot += 1
        self._minor_slots[minor:minor] = new_slots

    def delete_minor(self, minor: int, count: int = 1) -> None:
        """Delete up to ``count`` minor lines starting at ``minor`` (clipped)."""
        if minor < 1 or count < 1:
            raise DataModelError(f"invalid minor delete ({minor}, count={count})")
        end = min(minor + count - 1, self.minor_count)
        if end < minor:
            return
        removed_slots = set(self._minor_slots[minor - 1: end])
        del self._minor_slots[minor - 1: end]
        # Account for cells that disappear with the deleted minor lines.
        for position in range(1, self.major_count + 1):
            record = self._read_record(position)
            for slot in removed_slots:
                if slot < len(record) and record[slot] is not None:
                    self._filled -= 1

    # ------------------------------------------------------------------ #
    def _read_record(self, major: int) -> tuple:
        return self._heap.read(self._mapping.fetch(major))


def _to_cell(stored: StoredCell | None) -> Cell:
    if stored is None:
        return Cell()
    value, formula = stored
    return Cell(value=value, formula=formula)


class LineOrientedModel(DataModel):
    """One database tuple per line of the *major* axis (Section IV).

    Subclasses fix :attr:`major_axis`: ``"row"`` is ROM, ``"column"`` is COM
    — the paper defines COM as the transpose of ROM, so every coordinate
    passes through :meth:`_oriented` and nothing else differs.  Major-line
    insert/delete costs O(log N) thanks to the positional mapping (Section
    V); minor-line insert/delete uses slot indirection so stored tuples are
    never rewritten eagerly.
    """

    #: The axis stored one tuple per line: ``"row"`` or ``"column"``.
    major_axis: str

    def __init__(
        self,
        top: int = 1,
        left: int = 1,
        *,
        rows: int = 0,
        columns: int = 0,
    ) -> None:
        #: First stored line of each axis, in absolute sheet coordinates.
        self._anchor = {"row": top, "column": left}
        self._store = LineGridStore()
        major, minor = self._oriented(rows, columns)
        if major:
            self._store.ensure_major(major)
        if minor:
            self._store.ensure_minor(minor)

    def _oriented(self, row, column):
        """``(row, column)`` as ``(major, minor)`` — and, being a transpose
        or the identity, ``(major, minor)`` back as ``(row, column)``."""
        return (row, column) if self.major_axis == "row" else (column, row)

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #
    def _shape(self) -> tuple[int, int]:
        """Stored ``(rows, columns)``."""
        return self._oriented(self._store.major_count, self._store.minor_count)

    def region(self) -> RangeRef:
        rows, columns = self._shape()
        top, left = self._anchor["row"], self._anchor["column"]
        return RangeRef(top, left, top + max(rows, 1) - 1, left + max(columns, 1) - 1)

    def cell_count(self) -> int:
        return self._store.filled_cells

    def _lines(self, region: RangeRef) -> Iterator[tuple[int, int, list]]:
        """The stored major lines crossing ``region``: ``(major, first
        minor, stored payloads of the line's slice of the region)`` per
        line, in absolute coordinates, one heap read each.  The
        orientation is decided here, so the two bulk reads only choose
        which of the pair is the row."""
        overlap = self.region().intersection(region)
        if overlap is None:
            return
        (major_first, major_last), (minor_first, minor_last) = self._oriented(
            (overlap.top, overlap.bottom), (overlap.left, overlap.right))
        major_anchor, minor_anchor = self._oriented(
            self._anchor["row"], self._anchor["column"])
        for major in range(major_first, major_last + 1):
            yield major, minor_first, self._store.get_major_slice(
                major - major_anchor + 1,
                minor_first - minor_anchor + 1, minor_last - minor_anchor + 1)

    def get_cells(self, region: RangeRef) -> dict[CellAddress, Cell]:
        result: dict[CellAddress, Cell] = {}
        row_major = self.major_axis == "row"
        for major, minor_first, stored in self._lines(region):
            for minor, payload in enumerate(stored, minor_first):
                if payload is not None:
                    address = (CellAddress(major, minor) if row_major
                               else CellAddress(minor, major))
                    result[address] = _to_cell(payload)
        return result

    def get_values_dense(self, region: RangeRef) -> list[CellValue]:
        """The block straight from the stored record slices: a row-major
        line fills a run of the block, a column-major line a stride."""
        width = region.columns
        dense: list[CellValue] = [None] * region.area
        row_major = self.major_axis == "row"
        for major, minor_first, stored in self._lines(region):
            values = [None if payload is None else payload[0] for payload in stored]
            if row_major:
                start = (major - region.top) * width + minor_first - region.left
                dense[start:start + len(values)] = values
            else:
                start = (minor_first - region.top) * width + major - region.left
                dense[start:start + len(values) * width:width] = values
        return dense

    def _position(self, row: int, column: int) -> tuple[int, int]:
        """The store's 1-based ``(major, minor)`` of an absolute coordinate."""
        return self._oriented(
            row - self._anchor["row"] + 1, column - self._anchor["column"] + 1)

    def get_cell(self, row: int, column: int) -> Cell:
        return self._store.get(*self._position(row, column))

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #
    def update_cell(self, row: int, column: int, cell: Cell) -> None:
        self._store.set(*self._position(row, column), cell)

    def update_cells(self, items: Iterable[tuple[int, int, Cell]]) -> None:
        """The block grouped by major line: one record rewrite per line it
        touches, in line order, whatever order the items arrive in."""
        lines: dict[int, dict[int, Cell]] = {}
        for row, column, cell in items:
            major, minor = self._position(row, column)
            lines.setdefault(major, {})[minor] = cell
        for major in sorted(lines):
            self._store.set_major_line(major, lines[major])

    def apply_structural_edit(self, edit: StructuralEdit) -> None:
        # Strictly above/left of the anchor only the anchor moves; beyond the
        # stored extent the store lazily no-ops (implicit empty space).
        self._anchor[edit.axis], line, count = edit.relative_to(self._anchor[edit.axis])
        if not count:
            return
        store = self._store
        if edit.axis == self.major_axis:
            change = store.insert_major_after if edit.kind == "insert" else store.delete_major
        else:
            change = store.insert_minor_after if edit.kind == "insert" else store.delete_minor
        change(line, count)

    def shift(self, rows: int = 0, columns: int = 0) -> None:
        """Translate the whole region (used by the hybrid model)."""
        self._anchor["row"] += rows
        self._anchor["column"] += columns

    @property
    def positional_mapping(self) -> PositionalMapping:
        """The major-axis positional mapping (exposed for the Section V experiments)."""
        return self._store.mapping
