"""Hybrid data model: multiple primitive models over disjoint regions.

Definition 1 of the paper: a hybrid data model is a collection of tables,
each a ROM, COM, RCV or TOM table over a rectangular region, that together
are *recoverable* with respect to the conceptual cells.  The hybrid model
routes ``get_cells``/``update_cell`` to the owning region; cells outside any
region fall into a catch-all RCV table (the paper notes a single RCV table
suffices for all loose cells).

A structural edit arrives as one :class:`~repro.grid.structural.StructuralEdit`
(either axis, insert or delete): regions below/right of it shift their
anchors, and the models whose regions span the edited lines absorb the part
that lands inside them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import RegionOverlapError
from repro.grid.address import CellAddress
from repro.grid.cell import Cell, CellValue
from repro.grid.range import RangeRef
from repro.grid.sheet import Sheet
from repro.grid.structural import StructuralEdit
from repro.models.base import DataModel, ModelKind
from repro.models.com import ColumnOrientedModel
from repro.models.rcv import RowColumnValueModel
from repro.models.rom import RowOrientedModel
from repro.storage.costs import CostParameters


@dataclass
class HybridRegion:
    """One constituent of a hybrid model: a region and the model storing it."""

    range: RangeRef
    model: DataModel

    @property
    def kind(self) -> ModelKind:
        """The primitive model kind used for this region."""
        return self.model.kind


class HybridDataModel(DataModel):
    """Routes spreadsheet operations across a set of disjoint regions."""

    kind = ModelKind.ROM  # the hybrid itself has no single kind; ROM is a placeholder

    def __init__(
        self,
        regions: Iterable[HybridRegion] = (),
        *,
        allow_overlap: bool = False,
    ) -> None:
        self._regions: list[HybridRegion] = []
        self._catch_all: RowColumnValueModel | None = None
        self._has_overlaps = False
        #: Observability counters for bulk reads (``get_cells``/``get_values_dense``):
        #: number of calls and total cell area requested.  The query executor's
        #: streaming guarantees are asserted against these in tests.
        self.bulk_reads = 0
        self.cells_read = 0
        for region in regions:
            self.add_region(region, allow_overlap=allow_overlap)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_decomposition(
        cls,
        sheet: Sheet,
        regions: Sequence[tuple[RangeRef, ModelKind]],
    ) -> "HybridDataModel":
        """Materialise a hybrid model from a decomposition plan.

        ``regions`` is typically the output of the decomposition algorithms in
        :mod:`repro.decomposition`; cells of ``sheet`` not covered by any
        listed region go to the catch-all RCV table.
        """
        hybrid = cls()
        for region, kind in regions:
            if kind not in _PRIMITIVES:
                raise ValueError(
                    f"cannot build a {kind} region from a sheet without a linked table")
            model = _PRIMITIVES[kind](
                top=region.top, left=region.left, rows=region.rows,
                columns=region.columns)
            hybrid.add_region(HybridRegion(range=region, model=model))
        hybrid.update_cells(
            (address.row, address.column, cell) for address, cell in sheet.items())
        return hybrid

    def add_region(self, region: HybridRegion, *, allow_overlap: bool = False) -> None:
        """Add a constituent region; rejects overlaps unless permitted."""
        for existing in self._regions:
            if existing.range.overlaps(region.range):
                if not allow_overlap:
                    raise RegionOverlapError(
                        f"region {region.range.to_a1()} overlaps {existing.range.to_a1()}"
                    )
                self._has_overlaps = True
        self._regions.append(region)

    @property
    def regions(self) -> list[HybridRegion]:
        """The constituent regions (excluding the catch-all RCV table)."""
        return list(self._regions)

    @property
    def catch_all(self) -> RowColumnValueModel | None:
        """The RCV table holding cells outside every region (may be ``None``)."""
        return self._catch_all

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #
    def region(self) -> RangeRef:
        boxes = [entry.range for entry in self._regions]
        if self._catch_all is not None and self._catch_all.cell_count() > 0:
            boxes.append(self._catch_all.region())
        if not boxes:
            return RangeRef(1, 1, 1, 1)
        combined = boxes[0]
        for box in boxes[1:]:
            combined = combined.union_bounding(box)
        return combined

    def cell_count(self) -> int:
        total = sum(entry.model.cell_count() for entry in self._regions)
        if self._catch_all is not None:
            total += self._catch_all.cell_count()
        return total

    def get_cells(self, region: RangeRef) -> dict[CellAddress, Cell]:
        """Bulk cell read with the same per-cell precedence as ``get_cell``:
        the first containing region owns a coordinate (even where it stores
        nothing) and the catch-all only supplies coordinates outside every
        region."""
        self._count_bulk_read(region)
        result: dict[CellAddress, Cell] = {}
        for model, part in reversed(self._layers(region)):
            if result:  # what this model answers for, it answers alone
                result = {address: cell for address, cell in result.items()
                          if not part.contains(address)}
            result.update(model.get_cells(part))
        return result

    def get_values_dense(self, region: RangeRef) -> list[CellValue]:
        """The dense block under the same precedence as ``get_cell``.

        The hot shapes delegate wholesale: a request owned entirely by one
        constituent region (or by no region at all — pure catch-all) is one
        dense read of that model.  Under mixed ownership each model's block
        is painted over the ones it takes precedence over, the catch-all's
        first, so an owning region blanks what it does not store.
        """
        self._count_bulk_read(region)
        layers = self._layers(region)
        if len(layers) == 1 and layers[0][1] == region:
            return layers[0][0].get_values_dense(region)
        width = region.columns
        dense: list[CellValue] = [None] * region.area
        for model, part in reversed(layers):
            block = model.get_values_dense(part)
            span = part.columns
            start = (part.top - region.top) * width + part.left - region.left
            for offset in range(0, len(block), span):
                dense[start:start + span] = block[offset:offset + span]
                start += width
        return dense

    def _count_bulk_read(self, region: RangeRef) -> None:
        self.bulk_reads += 1
        self.cells_read += (region.bottom - region.top + 1) * (
            region.right - region.left + 1
        )

    def reset_read_counters(self) -> None:
        """Zero the bulk-read observability counters."""
        self.bulk_reads = 0
        self.cells_read = 0

    def _layers(self, region: RangeRef) -> list[tuple[DataModel, RangeRef]]:
        """The models a bulk read of ``region`` consults, in ``get_cell``
        precedence, each with the part of ``region`` it answers for.

        A region whose visible part lies entirely inside one earlier
        region's is shadowed and skipped without being read at all, and so
        is the catch-all (whose part is the whole request) when one region
        covers the request.
        """
        candidates = [(entry.model, entry.range.intersection(region))
                      for entry in self._regions]
        if self._catch_all is not None:
            candidates.append((self._catch_all, region))
        layers: list[tuple[DataModel, RangeRef]] = []
        for model, part in candidates:
            if part is not None and not any(
                    claimed.contains_range(part) for _model, claimed in layers):
                layers.append((model, part))
        return layers

    def get_cell(self, row: int, column: int) -> Cell:
        owner = self._owning_region(row, column)
        if owner is not None:
            return owner.model.get_cell(row, column)
        if self._catch_all is not None:
            return self._catch_all.get_cell(row, column)
        return Cell()

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #
    def update_cell(self, row: int, column: int, cell: Cell) -> None:
        owner = self._owning_region(row, column)
        if owner is not None:
            owner.model.update_cell(row, column, cell)
            return
        self._loose_cells_table(row, column).update_cell(row, column, cell)

    def update_cells(self, items: Iterable[tuple[int, int, Cell]]) -> None:
        """The block split by owning model, one ``update_cells`` each.

        Every item goes to the model ``update_cell`` would route it to —
        the first containing region, else the catch-all — and each model
        sees all of its items at once, in their arrival order: a
        column-major region fed row-major items still rewrites each of its
        lines once.  A coordinate always routes to the same owner, so
        regrouping never reorders two writes of one cell.

        Consecutive cells usually share an owner, so the previous item's is
        retried before the linear region lookup — unless regions overlap
        (linked tables), where it may not be the *first* containing one.
        """
        reuse_owner = not self._has_overlaps
        owner: HybridRegion | None = None
        loose: list[tuple[int, int, Cell]] = []
        blocks: dict[int, list[tuple[int, int, Cell]]] = {}
        block = loose  # the block of ``owner``
        for item in items:
            row, column = item[0], item[1]
            if not (reuse_owner and owner is not None
                    and owner.range.contains_coordinates(row, column)):
                owner = self._owning_region(row, column)
                block = loose if owner is None else blocks.setdefault(id(owner), [])
            block.append(item)
        for entry in self._regions:
            if id(entry) in blocks:
                entry.model.update_cells(blocks[id(entry)])
        if loose:
            self._loose_cells_table(loose[0][0], loose[0][1]).update_cells(loose)

    def _loose_cells_table(self, row: int, column: int) -> RowColumnValueModel:
        """The catch-all, created anchored at its first cell."""
        if self._catch_all is None:
            self._catch_all = RowColumnValueModel(top=row, left=column)
        return self._catch_all

    def check_structural_edit(self, edit: StructuralEdit) -> None:
        """Raise if any region's model must refuse ``edit``; mutates nothing.

        The engine asks before the edit becomes a commit point (buffered
        writes flushed, structural record logged), so a refusal leaves an
        open batch exactly as it was.
        """
        self._plan_structural_edit(edit)

    def _plan_structural_edit(self, edit: StructuralEdit) -> list[tuple]:
        """Per region: ``(entry, part of the edit inside it, start, end)``.

        Validates against every model the edit will be delegated to before
        any region shifts, so a model that must refuse (a linked table)
        fails the whole edit atomically, never mid-loop.
        """
        plan = []
        for entry in self._regions:
            start, end = edit.span_of(entry.range)
            inside = edit.clip_to(start, end)
            if inside is not None:
                entry.model.check_structural_edit(inside)
            plan.append((entry, inside, start, end))
        return plan

    def apply_structural_edit(self, edit: StructuralEdit) -> None:
        """Shift every region through ``edit`` and delegate what lands inside.

        A region's new range is exactly where :meth:`StructuralEdit.map_span`
        puts its old one; the model behind it absorbs the part of the edit
        inside the region (:meth:`StructuralEdit.clip_to`) and is translated
        by however far the range's first line moved.  A region a delete
        swallows whole maps nowhere: its model absorbs the delete (a linked
        table drops its records) and the region is forgotten — kept as an
        empty line it would shadow whichever region shifts into its place.
        """
        survivors = []
        for entry, inside, start, end in self._plan_structural_edit(edit):
            if inside is not None:
                entry.model.apply_structural_edit(inside)
            span = edit.map_span(start, end)
            # A swallowed region's (emptied) model still follows the deletion
            # point: the engine keeps its own handle on linked tables.
            moved = (span[0] if span is not None else edit.line) - start
            if moved:
                rows, columns = (moved, 0) if edit.axis == "row" else (0, moved)
                entry.model.shift(rows, columns)  # type: ignore[attr-defined]
            if span is not None:
                entry.range = edit.with_span(entry.range, *span)
                survivors.append(entry)
        self._regions = survivors
        if self._catch_all is not None:
            self._catch_all.apply_structural_edit(edit)

    def shift(self, rows: int = 0, columns: int = 0) -> None:
        """Translate every constituent region."""
        for entry in self._regions:
            entry.model.shift(rows=rows, columns=columns)  # type: ignore[attr-defined]
            entry.range = entry.range.shifted(rows=rows, columns=columns)
        if self._catch_all is not None:
            self._catch_all.shift(rows=rows, columns=columns)

    # ------------------------------------------------------------------ #
    def storage_cost(self, costs: CostParameters) -> float:
        total = sum(entry.model.storage_cost(costs) for entry in self._regions)
        if self._catch_all is not None:
            total += self._catch_all.storage_cost(costs)
        return total

    # ------------------------------------------------------------------ #
    def _owning_region(self, row: int, column: int) -> HybridRegion | None:
        for entry in self._regions:
            if entry.range.contains_coordinates(row, column):
                return entry
        return None


#: The primitive models a decomposition plan can name (TOM regions come
#: from ``link_table``, never from a plan).
_PRIMITIVES: dict[ModelKind, type[DataModel]] = {
    ModelKind.ROM: RowOrientedModel,
    ModelKind.COM: ColumnOrientedModel,
    ModelKind.RCV: RowColumnValueModel,
}
