"""Spreadsheet-level relational operators (Section III / Appendix B).

The relational functions return a single *composite table value*
(:class:`TableValue`); the ``index`` function then extracts individual rows
and columns for display on the sheet.  All operators work both on linked
database tables and on tabular spreadsheet regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.errors import RelationalOperationError
from repro.grid.cell import CellValue
from repro.storage.database import Table

Row = tuple
Predicate = Callable[[dict[str, CellValue]], bool]


@dataclass(frozen=True)
class TableValue:
    """An immutable composite table: ordered columns plus rows of values."""

    columns: tuple[str, ...]
    rows: tuple[Row, ...]

    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.columns):
                raise RelationalOperationError(
                    f"row of width {len(row)} does not match {len(self.columns)} column(s)"
                )

    @property
    def row_count(self) -> int:
        """Number of rows."""
        return len(self.rows)

    @property
    def column_count(self) -> int:
        """Number of columns."""
        return len(self.columns)

    def column_index(self, name: str) -> int:
        """0-based index of a column; raises when absent."""
        try:
            return self.columns.index(name)
        except ValueError as exc:
            raise RelationalOperationError(f"no column named {name!r}") from exc

    def cell(self, row: int, column: int | str = 1) -> CellValue:
        """The ``index(table, row, column)`` function (both 1-based)."""
        if isinstance(column, str):
            column_position = self.column_index(column) + 1
        else:
            column_position = column
        if not (1 <= row <= self.row_count and 1 <= column_position <= self.column_count):
            raise RelationalOperationError(
                f"index ({row}, {column_position}) outside a {self.row_count}x{self.column_count} table"
            )
        return self.rows[row - 1][column_position - 1]

    # ------------------------------------------------------------------ #
    @classmethod
    def from_table(cls, table: Table) -> "TableValue":
        """Snapshot a database table."""
        return cls(columns=table.schema.column_names, rows=tuple(table.rows()))

    @classmethod
    def from_rows(cls, columns: Sequence[str], rows: Iterable[Sequence[CellValue]]) -> "TableValue":
        """Build from explicit columns and row data."""
        return cls(columns=tuple(columns), rows=tuple(tuple(row) for row in rows))

    @classmethod
    def from_grid(cls, grid: Sequence[Sequence[CellValue]], *, header: bool = True) -> "TableValue":
        """Build from a dense 2-D region (optionally using the first row as the header)."""
        rows = [tuple(row) for row in grid]
        if not rows:
            return cls(columns=(), rows=())
        if header:
            columns = tuple(str(value) if value is not None else f"col{i + 1}"
                            for i, value in enumerate(rows[0]))
            body = rows[1:]
        else:
            columns = tuple(f"col{i + 1}" for i in range(len(rows[0])))
            body = rows
        width = len(columns)
        padded = [tuple(list(row[:width]) + [None] * (width - len(row))) for row in body]
        return cls(columns=columns, rows=tuple(padded))


# ---------------------------------------------------------------------- #
# set operators
# ---------------------------------------------------------------------- #
def _check_union_compatible(left: TableValue, right: TableValue) -> None:
    if left.column_count != right.column_count:
        raise RelationalOperationError(
            f"union-incompatible tables: {left.column_count} vs {right.column_count} column(s)"
        )


def union(left: TableValue, right: TableValue) -> TableValue:
    """Set union (duplicates removed), keeping the left table's column names."""
    _check_union_compatible(left, right)
    seen: set[Row] = set()
    rows: list[Row] = []
    for row in left.rows + right.rows:
        if row not in seen:
            seen.add(row)
            rows.append(row)
    return TableValue(columns=left.columns, rows=tuple(rows))


def difference(left: TableValue, right: TableValue) -> TableValue:
    """Rows of ``left`` not present in ``right``."""
    _check_union_compatible(left, right)
    exclude = set(right.rows)
    return TableValue(
        columns=left.columns, rows=tuple(row for row in left.rows if row not in exclude)
    )


def intersection(left: TableValue, right: TableValue) -> TableValue:
    """Rows present in both tables."""
    _check_union_compatible(left, right)
    keep = set(right.rows)
    seen: set[Row] = set()
    rows = []
    for row in left.rows:
        if row in keep and row not in seen:
            seen.add(row)
            rows.append(row)
    return TableValue(columns=left.columns, rows=tuple(rows))


def crossproduct(left: TableValue, right: TableValue) -> TableValue:
    """Cartesian product; clashing column names get a ``_2`` suffix."""
    columns = left.columns + tuple(
        name if name not in left.columns else f"{name}_2" for name in right.columns
    )
    rows = tuple(l_row + r_row for l_row in left.rows for r_row in right.rows)
    return TableValue(columns=columns, rows=rows)


# ---------------------------------------------------------------------- #
# select / project / rename / join
# ---------------------------------------------------------------------- #
def select(table: TableValue, predicate: Predicate) -> TableValue:
    """Filter rows by a predicate over column-name dictionaries."""
    rows = tuple(
        row for row in table.rows if predicate(dict(zip(table.columns, row)))
    )
    return TableValue(columns=table.columns, rows=rows)


def project(table: TableValue, *attributes: str) -> TableValue:
    """Keep only the named columns, in the given order."""
    if not attributes:
        raise RelationalOperationError("project requires at least one attribute")
    indices = [table.column_index(name) for name in attributes]
    rows = tuple(tuple(row[index] for index in indices) for row in table.rows)
    return TableValue(columns=tuple(attributes), rows=rows)


def rename(table: TableValue, old_attribute: str, new_attribute: str) -> TableValue:
    """Rename one column."""
    index = table.column_index(old_attribute)
    columns = tuple(
        new_attribute if position == index else name
        for position, name in enumerate(table.columns)
    )
    return TableValue(columns=columns, rows=table.rows)


def join(
    left: TableValue,
    right: TableValue,
    on: str | tuple[str, str] | None = None,
    predicate: Predicate | None = None,
) -> TableValue:
    """Join two tables.

    ``on`` may be a single column name present in both tables, or a pair
    ``(left_column, right_column)``.  When ``on`` is omitted, a natural join
    over the shared column names is performed; ``predicate`` (over the merged
    row dictionary) can further filter, and with neither a cross product is
    produced.
    """
    if on is None and predicate is None:
        shared = [name for name in left.columns if name in right.columns]
        if shared:
            on = shared[0]
    if isinstance(on, str):
        left_key, right_key = on, on
    elif isinstance(on, tuple):
        left_key, right_key = on
    else:
        left_key = right_key = None  # type: ignore[assignment]

    merged = crossproduct(left, right)
    if left_key is None:
        result = merged
    else:
        left_index = left.column_index(left_key)
        right_index = left.column_count + right.column_index(right_key)
        rows = tuple(
            row for row in merged.rows if row[left_index] == row[right_index]
        )
        result = TableValue(columns=merged.columns, rows=rows)
    if predicate is not None:
        result = select(result, predicate)
    return result


def sort(table: TableValue, by: str, *, descending: bool = False) -> TableValue:
    """Order rows by one column (None values sort first)."""
    index = table.column_index(by)
    rows = tuple(
        sorted(
            table.rows,
            key=lambda row: (row[index] is not None, row[index]),
            reverse=descending,
        )
    )
    return TableValue(columns=table.columns, rows=rows)
