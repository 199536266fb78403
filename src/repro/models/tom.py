"""Table-Oriented Model (TOM): a database-linked table shown on the sheet.

``linkTable(range, tableName)`` establishes a two-way correspondence between
a spreadsheet region and a database relation (Section III): the region shows
a header row with the column names followed by one row per record, and cell
updates through the model write back to the underlying table.
"""

from __future__ import annotations

from repro.errors import LinkTableError
from repro.grid.address import CellAddress
from repro.grid.cell import Cell
from repro.grid.range import RangeRef
from repro.grid.structural import StructuralEdit
from repro.models.base import DataModel, ModelKind
from repro.storage.costs import CostParameters
from repro.storage.database import Table
from repro.storage.tuples import TuplePointer


class TableOrientedModel(DataModel):
    """A two-way linked view of a database table anchored at (top, left)."""

    kind = ModelKind.TOM

    def __init__(self, table: Table, top: int = 1, left: int = 1, *, header: bool = True) -> None:
        self._table = table
        self._top = top
        self._left = left
        self._header = header
        # Presentational row order of the linked records.
        self._pointers: list[TuplePointer] = [pointer for pointer, _ in table.scan()]

    # ------------------------------------------------------------------ #
    @property
    def table(self) -> Table:
        """The linked database table."""
        return self._table

    # ------------------------------------------------------------------ #
    def region(self) -> RangeRef:
        rows = len(self._pointers) + (1 if self._header else 0)
        columns = self._table.schema.column_count
        return RangeRef(
            self._top,
            self._left,
            self._top + max(rows, 1) - 1,
            self._left + max(columns, 1) - 1,
        )

    def cell_count(self) -> int:
        columns = self._table.schema.column_count
        header_cells = columns if self._header else 0
        return header_cells + len(self._pointers) * columns

    def get_cells(self, region: RangeRef) -> dict[CellAddress, Cell]:
        own = self.region()
        overlap = own.intersection(region)
        if overlap is None:
            return {}
        result: dict[CellAddress, Cell] = {}
        names = self._table.schema.column_names
        header_offset = 1 if self._header else 0
        for row in range(overlap.top, overlap.bottom + 1):
            relative = row - self._top
            if self._header and relative == 0:
                for column in range(overlap.left, overlap.right + 1):
                    name = names[column - self._left]
                    result[CellAddress(row, column)] = Cell(value=name)
                continue
            record_index = relative - header_offset
            if record_index < 0 or record_index >= len(self._pointers):
                continue
            record = self._table.read(self._pointers[record_index])
            for column in range(overlap.left, overlap.right + 1):
                value = record[column - self._left]
                if value is not None:
                    result[CellAddress(row, column)] = Cell(value=value)
        return result

    # ------------------------------------------------------------------ #
    def update_cell(self, row: int, column: int, cell: Cell) -> None:
        relative_row = row - self._top
        relative_column = column - self._left
        if relative_column < 0 or relative_column >= self._table.schema.column_count:
            raise LinkTableError(f"column {column} is outside the linked table")
        if self._header and relative_row == 0:
            raise LinkTableError("cannot overwrite the header row of a linked table")
        record_index = relative_row - (1 if self._header else 0)
        if record_index < 0 or record_index >= len(self._pointers):
            raise LinkTableError(f"row {row} is outside the linked table")
        pointer = self._pointers[record_index]
        record = list(self._table.read(pointer))
        record[relative_column] = cell.value
        new_pointer = self._table.update(pointer, tuple(record))
        self._pointers[record_index] = new_pointer

    def check_structural_edit(self, edit: StructuralEdit) -> None:
        """Refuse edits a linked table cannot absorb, before anything mutates.

        Column structure is the table's schema, and the header row is
        generated from it — neither can be edited through the grid.  Row
        deletes must land entirely on data records (the hybrid router has
        already clipped the edit to this region's overlap).
        """
        if edit.axis == "column":
            raise LinkTableError(
                f"column {edit.kind} on a linked table requires a schema change"
            )
        if edit.kind == "delete":
            record_index = self._record_index(edit.line)
            if record_index < 0 or record_index + edit.count > len(self._pointers):
                raise LinkTableError(
                    f"rows [{edit.line}, {edit.line + edit.count - 1}] "
                    "are outside the linked table"
                )

    def _record_index(self, row: int) -> int:
        """Index into the record list of presentational ``row``."""
        return row - self._top - (1 if self._header else 0)

    def apply_structural_edit(self, edit: StructuralEdit) -> None:
        self.check_structural_edit(edit)
        record_index = self._record_index(edit.line)
        if edit.kind == "delete":
            for _ in range(edit.count):
                self._table.delete(self._pointers.pop(record_index))
            return
        # Blank records go in after the presentational row ``edit.line``.
        record_index = min(max(record_index + 1, 0), len(self._pointers))
        blank = tuple(None for _ in self._table.schema.columns)
        for offset in range(edit.count):
            self._pointers.insert(record_index + offset, self._table.insert(blank))

    def shift(self, rows: int = 0, columns: int = 0) -> None:
        """Translate the linked region (used by the hybrid model)."""
        self._top += rows
        self._left += columns

    # ------------------------------------------------------------------ #
    def storage_cost(self, costs: CostParameters) -> float:
        """TOM data is stored as-is in the database: a ROM-shaped table cost."""
        return costs.rom_cost(len(self._pointers), self._table.schema.column_count)
