"""The in-memory sparse sheet: the conceptual data model ``C``.

:class:`Sheet` is the reference implementation of the conceptual collection of
cells.  It supports the spreadsheet-oriented operations from Section III:
``get_cells(range)``, ``update_cell``, row/column insert/delete — with the
*naive* semantics of renumbering every subsequent cell.  The physical data
models in :mod:`repro.models` must be recoverable with respect to it, and the
test suite uses it as the behavioural oracle.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import AddressError
from repro.grid.address import CellAddress
from repro.grid.bounding import BoundingBox
from repro.grid.cell import Cell, CellValue
from repro.grid.range import RangeRef
from repro.grid.structural import StructuralEdit, check_delete_line, check_insert_line


class Sheet:
    """A sparse spreadsheet: a mapping from (row, column) to :class:`Cell`.

    Only non-empty cells are stored.  All coordinates are 1-based.
    """

    def __init__(self, name: str = "Sheet1") -> None:
        self.name = name
        self._cells: dict[tuple[int, int], Cell] = {}

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._cells)

    def __contains__(self, address: CellAddress) -> bool:
        return (address.row, address.column) in self._cells

    def cell_count(self) -> int:
        """Number of filled (non-empty) cells."""
        return len(self._cells)

    def get_cell(self, row: int, column: int) -> Cell:
        """Return the cell at (row, column); empty cells come back as ``Cell()``."""
        return self._cells.get((row, column), Cell())

    def get_value(self, row: int, column: int) -> CellValue:
        """Return just the value at (row, column) (``None`` when empty)."""
        return self.get_cell(row, column).value

    def set_cell(self, row: int, column: int, cell: Cell) -> None:
        """Store ``cell`` at (row, column); storing an empty cell clears it."""
        if row < 1 or column < 1:
            raise AddressError(f"cell coordinates must be >= 1, got ({row}, {column})")
        key = (row, column)
        if cell.is_empty:
            self._cells.pop(key, None)
        else:
            self._cells[key] = cell

    def set_value(self, row: int, column: int, value: CellValue) -> None:
        """Store a constant value, preserving no formula."""
        self.set_cell(row, column, Cell(value=value))

    def set_formula(self, row: int, column: int, formula: str, value: CellValue = None) -> None:
        """Store a formula (without the leading ``=``) and optionally a cached value."""
        self.set_cell(row, column, Cell(value=value, formula=formula))

    def set_input(self, row: int, column: int, text: CellValue) -> None:
        """Store user input, auto-detecting formulae (leading ``=``) and numbers."""
        self.set_cell(row, column, Cell.from_input(text))

    def clear_cell(self, row: int, column: int) -> None:
        """Remove the cell at (row, column)."""
        self._cells.pop((row, column), None)

    def update_cell(self, row: int, column: int, value: CellValue) -> None:
        """The paper's ``updateCell(row, column, value)`` operation."""
        existing = self._cells.get((row, column))
        if isinstance(value, str) and value.startswith("="):
            self.set_cell(row, column, Cell.from_input(value))
        elif existing is not None and existing.has_formula:
            # Overwriting a formula cell with a constant drops the formula.
            self.set_cell(row, column, Cell(value=value))
        else:
            self.set_value(row, column, value)

    # ------------------------------------------------------------------ #
    # iteration
    # ------------------------------------------------------------------ #
    def items(self) -> Iterator[tuple[CellAddress, Cell]]:
        """Iterate ``(address, cell)`` pairs in row-major order."""
        for (row, column) in sorted(self._cells):
            yield CellAddress(row, column), self._cells[(row, column)]

    def addresses(self) -> Iterator[CellAddress]:
        """Iterate filled addresses in row-major order."""
        for (row, column) in sorted(self._cells):
            yield CellAddress(row, column)

    def coordinates(self) -> set[tuple[int, int]]:
        """The set of filled ``(row, column)`` pairs (a copy)."""
        return set(self._cells)

    def formulas(self) -> Iterator[tuple[CellAddress, str]]:
        """Iterate ``(address, formula_text)`` for every formula cell."""
        for (row, column), cell in self._cells.items():
            if cell.has_formula:
                yield CellAddress(row, column), cell.formula  # type: ignore[misc]

    def formula_count(self) -> int:
        """Number of cells holding formulae."""
        return sum(1 for cell in self._cells.values() if cell.has_formula)

    # ------------------------------------------------------------------ #
    # range access (getCells)
    # ------------------------------------------------------------------ #
    def get_cells(self, region: RangeRef) -> dict[CellAddress, Cell]:
        """Return the filled cells inside ``region`` (the ``getCells`` primitive)."""
        result: dict[CellAddress, Cell] = {}
        # Iterate over whichever is smaller: the region or the filled cells.
        if region.area <= len(self._cells):
            for row in range(region.top, region.bottom + 1):
                for column in range(region.left, region.right + 1):
                    cell = self._cells.get((row, column))
                    if cell is not None:
                        result[CellAddress(row, column)] = cell
        else:
            for (row, column), cell in self._cells.items():
                if region.top <= row <= region.bottom and region.left <= column <= region.right:
                    result[CellAddress(row, column)] = cell
        return result

    def get_values(self, region: RangeRef) -> list[list[CellValue]]:
        """Return a dense 2-D list of values for ``region`` (empty cells are ``None``)."""
        grid: list[list[CellValue]] = []
        for row in range(region.top, region.bottom + 1):
            grid.append(
                [self.get_value(row, column) for column in range(region.left, region.right + 1)]
            )
        return grid

    # ------------------------------------------------------------------ #
    # extent / density
    # ------------------------------------------------------------------ #
    def bounding_box(self) -> BoundingBox | None:
        """The minimum bounding rectangle of filled cells, or ``None`` when empty."""
        if not self._cells:
            return None
        rows = [row for row, _ in self._cells]
        columns = [column for _, column in self._cells]
        return BoundingBox(min(rows), min(columns), max(rows), max(columns))

    def density(self) -> float:
        """Filled cells divided by bounding-box area (0.0 for an empty sheet)."""
        box = self.bounding_box()
        if box is None:
            return 0.0
        return len(self._cells) / box.area

    # ------------------------------------------------------------------ #
    # structural operations (naive renumbering semantics)
    # ------------------------------------------------------------------ #
    def insert_row_after(self, row: int, count: int = 1) -> None:
        """Insert ``count`` empty rows immediately after ``row``.

        ``insert_row_after(0)`` inserts before the first row.  Cells on
        subsequent rows shift down — the cascading update the storage layer
        must avoid paying for (Section V) — and formula references shift
        with them.
        """
        check_insert_line(row, count, axis="row")
        updated = {}
        for (r, c), cell in self._cells.items():
            updated[(r + count, c) if r > row else (r, c)] = cell
        self._cells = updated
        self._rewrite_formula_references("row", "insert", row, count)

    def delete_row(self, row: int, count: int = 1) -> None:
        """Delete ``count`` rows starting at ``row``; later rows shift up.

        Formula references shift with their referents; references whose
        entire referent was deleted become ``#REF!``.
        """
        check_delete_line(row, count, axis="row")
        updated = {}
        for (r, c), cell in self._cells.items():
            if row <= r < row + count:
                continue
            updated[(r - count, c) if r >= row + count else (r, c)] = cell
        self._cells = updated
        self._rewrite_formula_references("row", "delete", row, count)

    def insert_column_after(self, column: int, count: int = 1) -> None:
        """Insert ``count`` empty columns immediately after ``column``."""
        check_insert_line(column, count, axis="column")
        updated = {}
        for (r, c), cell in self._cells.items():
            updated[(r, c + count) if c > column else (r, c)] = cell
        self._cells = updated
        self._rewrite_formula_references("column", "insert", column, count)

    def delete_column(self, column: int, count: int = 1) -> None:
        """Delete ``count`` columns starting at ``column``; later columns shift left."""
        check_delete_line(column, count, axis="column")
        updated = {}
        for (r, c), cell in self._cells.items():
            if column <= c < column + count:
                continue
            updated[(r, c - count) if c >= column + count else (r, c)] = cell
        self._cells = updated
        self._rewrite_formula_references("column", "delete", column, count)

    def _rewrite_formula_references(self, axis: str, kind: str, line: int,
                                    count: int) -> None:
        """Shift every stored formula's references through a structural edit.

        The sheet is the behavioural oracle, so it applies the same
        reference rewriting the engine does: references shift with their
        referents and fully deleted referents become ``#REF!``.  Formulas
        that do not parse are left untouched (the sheet never validates
        formula text on entry).
        """
        # Imported lazily: the formula engine sits above the grid layer.
        from repro.errors import FormulaSyntaxError
        from repro.formula.parser import parse_formula
        from repro.formula.rewrite import rewrite_formula
        from repro.formula.serializer import to_formula

        edit = StructuralEdit(axis=axis, kind=kind, line=line, count=count)
        for key, cell in self._cells.items():
            if not cell.has_formula:
                continue
            try:
                node = parse_formula(cell.formula or "")
            except FormulaSyntaxError:
                continue
            node, changed = rewrite_formula(node, edit)
            if changed:
                self._cells[key] = Cell(value=cell.value, formula=to_formula(node))

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[CellValue]], *, name: str = "Sheet1",
                  top: int = 1, left: int = 1) -> "Sheet":
        """Build a sheet from a dense 2-D iterable anchored at (top, left).

        ``None`` entries are skipped; strings beginning with ``=`` become
        formulae.
        """
        sheet = cls(name=name)
        for row_offset, row_values in enumerate(rows):
            for column_offset, value in enumerate(row_values):
                if value is None:
                    continue
                sheet.set_input(top + row_offset, left + column_offset, value)
        return sheet

    def copy(self) -> "Sheet":
        """A deep-enough copy (cells are immutable, so sharing them is safe)."""
        clone = Sheet(name=self.name)
        clone._cells = dict(self._cells)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        box = self.bounding_box()
        return f"Sheet(name={self.name!r}, cells={len(self._cells)}, extent={box})"
