"""Row-Oriented Model (ROM): one database tuple per spreadsheet row."""

from __future__ import annotations

from repro.models.base import ModelKind
from repro.models.gridstore import LineOrientedModel
from repro.storage.costs import CostParameters


class RowOrientedModel(LineOrientedModel):
    """ROM(RowID, Col1, ..., Colcmax): the relational-style representation.

    Efficient for dense, tabular regions and for whole-row access; row
    insert/delete costs O(log N) thanks to the positional mapping on rows
    (Section V), and column insert/delete uses slot indirection so stored
    tuples are never rewritten eagerly.
    """

    kind = ModelKind.ROM
    major_axis = "row"

    def storage_cost(self, costs: CostParameters) -> float:
        return costs.rom_cost(*self._shape())
