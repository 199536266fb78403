"""Row-Column-Value Model (RCV): one tuple per filled cell.

The key-value representation: RCV(RowID, ColID, Value).  Efficient for sparse
sheets and single-cell access, but pays a per-cell tuple overhead that makes
it expensive for dense data (Section IV-B).

Row and column numbers are not stored directly — each filled cell references
a stable *row identifier* and *column identifier*, and two positional
mappings translate presentational positions to identifiers.  Row/column
insert and delete therefore touch only the positional mappings, never the
stored cells (no cascading updates).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.grid.address import CellAddress
from repro.grid.cell import Cell, CellValue
from repro.grid.range import RangeRef
from repro.grid.structural import StructuralEdit
from repro.models.base import DataModel, ModelKind
from repro.positional import HierarchicalMapping, PositionalMapping
from repro.storage.costs import CostParameters


@dataclass(slots=True)
class _Axis:
    """One axis of an RCV table: its anchor and its line identifiers."""

    #: Absolute sheet coordinate of the first mapped line.
    anchor: int
    #: Presentational position (1-based, anchor-relative) -> stable identifier.
    ids: PositionalMapping
    next_id: int = 0

    def new_id(self) -> int:
        identifier = self.next_id
        self.next_id += 1
        return identifier

    def ensure(self, count: int) -> None:
        """Map at least ``count`` lines (appending fresh identifiers)."""
        self.ids.extend_to(count, self.new_id)

    def id_at(self, line: int) -> int:
        """The identifier of absolute ``line``, growing the axis to reach it."""
        if line < self.anchor:
            # Grow upward: prepend identifiers so the anchor moves to ``line``
            # (writes are not restricted to land below the first-seen cell).
            for _ in range(self.anchor - line):
                self.ids.insert_at(1, self.new_id())
            self.anchor = line
        relative = line - self.anchor + 1
        self.ensure(relative)
        return self.ids.fetch(relative)


class RowColumnValueModel(DataModel):
    """RCV(RowID, ColID, Value) with positional row/column identifier mappings."""

    kind = ModelKind.RCV

    def __init__(
        self,
        top: int = 1,
        left: int = 1,
        *,
        rows: int = 0,
        columns: int = 0,
    ) -> None:
        #: ``(row identifier, column identifier) -> cell``.
        self._cells: dict[tuple[int, int], Cell] = {}
        self._rows = _Axis(top, HierarchicalMapping())
        self._columns = _Axis(left, HierarchicalMapping())
        self._rows.ensure(rows)
        self._columns.ensure(columns)

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #
    def region(self) -> RangeRef:
        top, left = self._rows.anchor, self._columns.anchor
        return RangeRef(top, left, top + max(len(self._rows.ids), 1) - 1,
                        left + max(len(self._columns.ids), 1) - 1)

    def cell_count(self) -> int:
        return len(self._cells)

    def _identifiers(self, region: RangeRef) -> tuple[RangeRef, list[int], list[int]] | None:
        """The part of ``region`` this table maps, with the row and the
        column identifiers along it — one ``fetch_range`` walk of each
        positional mapping, however large the window (``None`` when no
        mapped position falls inside)."""
        rows, columns = self._rows, self._columns
        if not rows.ids or not columns.ids:
            return None  # no mapped positions: nothing stored is visible
        overlap = self.region().intersection(region)
        if overlap is None:
            return None
        return (
            overlap,
            rows.ids.fetch_range(
                overlap.top - rows.anchor + 1, overlap.bottom - rows.anchor + 1),
            columns.ids.fetch_range(
                overlap.left - columns.anchor + 1, overlap.right - columns.anchor + 1),
        )

    def get_cells(self, region: RangeRef) -> dict[CellAddress, Cell]:
        resolved = self._identifiers(region)
        if resolved is None:
            return {}
        overlap, row_ids, column_ids = resolved
        cells = self._cells
        result: dict[CellAddress, Cell] = {}
        if overlap.area <= len(cells):
            # Probe each position of the requested rectangle.
            for row, row_id in enumerate(row_ids, overlap.top):
                for column, column_id in enumerate(column_ids, overlap.left):
                    cell = cells.get((row_id, column_id))
                    if cell is not None:
                        result[CellAddress(row, column)] = cell
        else:
            # Fewer stored cells than probe positions: invert the mapping once.
            row_of = {row_id: row for row, row_id in enumerate(row_ids, overlap.top)}
            column_of = {column_id: column
                         for column, column_id in enumerate(column_ids, overlap.left)}
            for (row_id, column_id), cell in cells.items():
                row = row_of.get(row_id)
                column = column_of.get(column_id)
                if row is not None and column is not None:
                    result[CellAddress(row, column)] = cell
        return result

    def get_values_dense(self, region: RangeRef) -> list[CellValue]:
        """The block at O(identifiers + area) dictionary probes: no
        positional ``fetch`` per row or column of the window."""
        width = region.columns
        dense: list[CellValue] = [None] * region.area
        resolved = self._identifiers(region)
        if resolved is None:
            return dense
        overlap, row_ids, column_ids = resolved
        cells = self._cells
        base = (overlap.top - region.top) * width + (overlap.left - region.left)
        if len(column_ids) == 1:
            # The hot shape (a whole-column aggregate): lift the inner loop.
            column_id = column_ids[0]
            index = base
            for row_id in row_ids:
                cell = cells.get((row_id, column_id))
                if cell is not None:
                    dense[index] = cell.value
                index += width
        else:
            for offset, row_id in enumerate(row_ids):
                index = base + offset * width
                for column_id in column_ids:
                    cell = cells.get((row_id, column_id))
                    if cell is not None:
                        dense[index] = cell.value
                    index += 1
        return dense

    def get_cell(self, row: int, column: int) -> Cell:
        rows, columns = self._rows, self._columns
        relative_row = row - rows.anchor + 1
        relative_column = column - columns.anchor + 1
        if (relative_row < 1 or relative_row > len(rows.ids)
                or relative_column < 1 or relative_column > len(columns.ids)):
            return Cell()
        key = (rows.ids.fetch(relative_row), columns.ids.fetch(relative_column))
        return self._cells.get(key, Cell())

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #
    def update_cell(self, row: int, column: int, cell: Cell) -> None:
        key = (self._rows.id_at(row), self._columns.id_at(column))
        if cell.is_empty:
            self._cells.pop(key, None)
        else:
            self._cells[key] = cell

    def update_cells(self, items) -> None:
        """Bulk write with batched positional lookups.

        A dense bulk write revisits the same rows and columns over and over;
        resolving each distinct row/column identifier once per call turns
        2·n positional-mapping fetches into (distinct rows + distinct
        columns).  Identifiers are stable, so memoising them within one call
        is safe even though ``id_at`` may grow the extent.
        """
        row_ids: dict[int, int] = {}
        column_ids: dict[int, int] = {}
        cells = self._cells
        for row, column, cell in items:
            row_id = row_ids.get(row)
            if row_id is None:
                row_id = row_ids[row] = self._rows.id_at(row)
            column_id = column_ids.get(column)
            if column_id is None:
                column_id = column_ids[column] = self._columns.id_at(column)
            key = (row_id, column_id)
            if cell.is_empty:
                cells.pop(key, None)
            else:
                cells[key] = cell

    def apply_structural_edit(self, edit: StructuralEdit) -> None:
        axis = self._rows if edit.axis == "row" else self._columns
        # Strictly above/left of the anchor only the anchor moves.
        axis.anchor, line, count = edit.relative_to(axis.anchor)
        if not count:
            return
        if edit.kind == "insert":
            # At or beyond the last mapped line nothing stored shifts: the
            # mapping extends lazily when a cell is actually written there.
            if line < len(axis.ids):
                for offset in range(count):
                    axis.ids.insert_at(line + 1 + offset, axis.new_id())
            return
        removed_ids = set(axis.ids.delete_span(line, count))
        if removed_ids:
            part = 0 if edit.axis == "row" else 1
            self._cells = {
                key: cell for key, cell in self._cells.items()
                if key[part] not in removed_ids
            }

    def shift(self, rows: int = 0, columns: int = 0) -> None:
        """Translate the whole region (used by the hybrid model)."""
        self._rows.anchor += rows
        self._columns.anchor += columns

    # ------------------------------------------------------------------ #
    def storage_cost(self, costs: CostParameters) -> float:
        return costs.rcv_cost(len(self._cells))
