"""The common interface of physical data models."""

from __future__ import annotations

from abc import ABC, abstractmethod
from enum import Enum
from typing import Iterable

from repro.grid.address import CellAddress
from repro.grid.cell import Cell, CellValue
from repro.grid.range import RangeRef
from repro.grid.sheet import Sheet
from repro.grid.structural import StructuralEdit
from repro.storage.costs import CostParameters


class ModelKind(str, Enum):
    """The kind of a primitive data model (used by the hybrid optimizer)."""

    ROM = "rom"
    COM = "com"
    RCV = "rcv"
    TOM = "tom"


class DataModel(ABC):
    """A physical representation of the cells of one spreadsheet region.

    All coordinates in the interface are *absolute* sheet coordinates
    (1-based); each model anchors itself at the top-left of the region it was
    created for and translates internally.

    The interface mirrors the spreadsheet-oriented operations of Section III:
    ``get_cells``, ``update_cell``, and row/column insert/delete (which all
    route through :meth:`apply_structural_edit`).  A rectangle is read in
    one of two shapes: :meth:`get_cells`, sparse and whole-cell (formula
    text included), or :meth:`get_values_dense`, the dense block every
    consumer of a range of *values* reads.  A write likewise has two
    shapes: :meth:`update_cell`, the paper's point primitive, and
    :meth:`update_cells`, the block every bulk writer hands down.
    """

    kind: ModelKind

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #
    @abstractmethod
    def region(self) -> RangeRef:
        """The rectangular region currently covered by this model."""

    @abstractmethod
    def get_cells(self, region: RangeRef) -> dict[CellAddress, Cell]:
        """Return the filled cells of this model that fall inside ``region``."""

    def get_values(self, region: RangeRef) -> dict[tuple[int, int], CellValue]:
        """``{(row, column): value}`` for filled cells, derived from
        :meth:`get_cells`.

        Nothing in ``src/`` calls this: it stays, overridden nowhere,
        because the benchmark's tracer resolves the name on every model
        class.  Ranges of values are read with :meth:`get_values_dense`.
        """
        return {
            (address.row, address.column): cell.value
            for address, cell in self.get_cells(region).items()
        }

    def get_values_dense(self, region: RangeRef) -> list[CellValue]:
        """The values of ``region`` as one dense row-major block.

        The one value-read contract, from the stored layout to the
        viewport: a flat ``region.area``-long list, ``None`` where nothing
        is stored, that the caller slices by row.  (:meth:`get_cells` is
        the other read, sparse and whole-cell, for callers that need
        formula text.)  This default scatters :meth:`get_cells` into the
        block; the stores with an order of their own walk it directly.
        """
        width = region.columns
        dense: list[CellValue] = [None] * region.area
        top, left = region.top, region.left
        for address, cell in self.get_cells(region).items():
            dense[(address.row - top) * width + (address.column - left)] = cell.value
        return dense

    @abstractmethod
    def cell_count(self) -> int:
        """Number of filled cells stored."""

    def get_cell(self, row: int, column: int) -> Cell:
        """Single-cell read (empty cells come back as ``Cell()``)."""
        cells = self.get_cells(RangeRef(row, column, row, column))
        return cells.get(CellAddress(row, column), Cell())

    def get_value(self, row: int, column: int) -> CellValue:
        """Single-value read."""
        return self.get_cell(row, column).value

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #
    @abstractmethod
    def update_cell(self, row: int, column: int, cell: Cell) -> None:
        """Set the cell at an absolute (row, column) inside the region."""

    def update_cells(self, items: Iterable[tuple[int, int, Cell]]) -> None:
        """Write a block of ``(row, column, cell)`` triples.

        The one block write, from the engine's commit down to the stored
        records: a batch flush, a relayout, a recovery and
        :meth:`from_sheet` all land here.  It leaves the model exactly as
        :meth:`update_cell` over the items in order would — a later item
        wins its coordinate, an empty ``Cell()`` clears — and this default
        is that loop.  The stores with a per-line cost override it to pay
        that cost once per line of the block, not once per cell.
        """
        for row, column, cell in items:
            self.update_cell(row, column, cell)

    @classmethod
    def from_sheet(cls, sheet: Sheet, region: RangeRef | None = None, *,
                   mapping_scheme: str = "hierarchical") -> "DataModel":
        """Load the cells of ``sheet`` (optionally restricted to ``region``):
        an empty model over the region, then one :meth:`update_cells`.

        For the models that are constructed over a region (ROM, COM, RCV).
        """
        if region is None:
            box = sheet.bounding_box()
            region = box.to_range() if box is not None else RangeRef(1, 1, 1, 1)
        model = cls(top=region.top, left=region.left, rows=region.rows,
                    columns=region.columns, mapping_scheme=mapping_scheme)
        model.update_cells((address.row, address.column, cell)
                           for address, cell in sheet.get_cells(region).items())
        return model

    def check_structural_edit(self, edit: StructuralEdit) -> None:
        """Pre-flight hook: raise if this model cannot absorb a structural edit.

        The hybrid router calls this for every model it is about to
        delegate an (already overlap-clipped) edit to, *before* mutating
        anything — so a model that must refuse (a linked table whose header
        the span touches, or any column edit on one) fails the whole
        operation atomically instead of mid-loop with sibling regions
        already shifted.  Extent-free models absorb any edit: the default
        accepts everything.
        """

    @abstractmethod
    def apply_structural_edit(self, edit: StructuralEdit) -> None:
        """Shift the stored cells through one row/column insert or delete.

        The one storage-mutating body for structural edits; the four
        Section-III operations below are conveniences over it.
        """

    def insert_row_after(self, row: int, count: int = 1) -> None:
        """Insert ``count`` empty rows after absolute row ``row``."""
        self.apply_structural_edit(StructuralEdit.insert_rows(row, count))

    def delete_row(self, row: int, count: int = 1) -> None:
        """Delete ``count`` rows starting at absolute row ``row``."""
        self.apply_structural_edit(StructuralEdit.delete_rows(row, count))

    def insert_column_after(self, column: int, count: int = 1) -> None:
        """Insert ``count`` empty columns after absolute column ``column``."""
        self.apply_structural_edit(StructuralEdit.insert_columns(column, count))

    def delete_column(self, column: int, count: int = 1) -> None:
        """Delete ``count`` columns starting at absolute column ``column``."""
        self.apply_structural_edit(StructuralEdit.delete_columns(column, count))

    # ------------------------------------------------------------------ #
    # accounting / recoverability
    # ------------------------------------------------------------------ #
    @abstractmethod
    def storage_cost(self, costs: CostParameters) -> float:
        """Cost-model storage footprint of this model (Equation 1 family)."""

    def to_sheet(self) -> Sheet:
        """Recover the conceptual collection of cells stored by this model."""
        sheet = Sheet()
        for address, cell in self.get_cells(self.region()).items():
            sheet.set_cell(address.row, address.column, cell)
        return sheet

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(region={self.region().to_a1()}, cells={self.cell_count()})"
