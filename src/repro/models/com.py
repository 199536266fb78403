"""Column-Oriented Model (COM): one database tuple per spreadsheet column."""

from __future__ import annotations

from repro.models.base import ModelKind
from repro.models.gridstore import LineOrientedModel
from repro.storage.costs import CostParameters


class ColumnOrientedModel(LineOrientedModel):
    """COM(ColID, Row1, ..., Rowrmax): the transpose of ROM.

    Shines for sheets with many columns and few rows, and for column-oriented
    operations; column insert/delete is O(log N) via the positional mapping,
    row insert/delete uses slot indirection.
    """

    kind = ModelKind.COM
    major_axis = "column"

    def storage_cost(self, costs: CostParameters) -> float:
        return costs.com_cost(*self._shape())
