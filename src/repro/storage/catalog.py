"""Schemas and the catalog of the row-store substrate."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import CatalogError, SchemaError

#: Supported logical column types.
COLUMN_TYPES = ("integer", "float", "text", "boolean", "any")

_PYTHON_TYPES = {
    "integer": (int,),
    "float": (int, float),
    "text": (str,),
    "boolean": (bool,),
    "any": (object,),
}


@dataclass(frozen=True, slots=True)
class ColumnDef:
    """A column definition: name + logical type + nullability."""

    name: str
    type: str = "any"
    nullable: bool = True

    def __post_init__(self) -> None:
        if self.type not in COLUMN_TYPES:
            raise SchemaError(f"unknown column type {self.type!r}")

    def validate(self, value: object) -> None:
        """Raise :class:`SchemaError` when ``value`` does not fit this column."""
        if value is None:
            if not self.nullable:
                raise SchemaError(f"column {self.name!r} is not nullable")
            return
        expected = _PYTHON_TYPES[self.type]
        if self.type == "integer" and isinstance(value, bool):
            raise SchemaError(f"column {self.name!r} expects an integer, got a boolean")
        if not isinstance(value, expected):
            raise SchemaError(
                f"column {self.name!r} expects {self.type}, got {type(value).__name__}"
            )


@dataclass(frozen=True)
class TableSchema:
    """An ordered list of column definitions plus the table name."""

    name: str
    columns: tuple[ColumnDef, ...]
    key_column: str | None = None
    _index_by_name: dict[str, int] = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.columns:
            raise SchemaError(f"table {self.name!r} must have at least one column")
        names = [column.name for column in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"table {self.name!r} has duplicate column names")
        if self.key_column is not None and self.key_column not in names:
            raise SchemaError(f"key column {self.key_column!r} is not a column of {self.name!r}")
        object.__setattr__(self, "_index_by_name", {name: i for i, name in enumerate(names)})

    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, name: str, columns: Iterable[str | ColumnDef], key_column: str | None = None) -> "TableSchema":
        """Build a schema from column names (typed ``any``) and/or ColumnDefs."""
        definitions = tuple(
            column if isinstance(column, ColumnDef) else ColumnDef(name=column)
            for column in columns
        )
        return cls(name=name, columns=definitions, key_column=key_column)

    @property
    def column_names(self) -> tuple[str, ...]:
        """Ordered column names."""
        return tuple(column.name for column in self.columns)

    @property
    def column_count(self) -> int:
        """Number of columns."""
        return len(self.columns)

    def column_index(self, name: str) -> int:
        """0-based position of a column; raises :class:`CatalogError` if absent."""
        try:
            return self._index_by_name[name]
        except KeyError as exc:
            raise CatalogError(f"table {self.name!r} has no column {name!r}") from exc

    def validate_record(self, record: tuple) -> None:
        """Raise :class:`SchemaError` when the record shape/types do not match."""
        if len(record) != len(self.columns):
            raise SchemaError(
                f"table {self.name!r} expects {len(self.columns)} columns, got {len(record)}"
            )
        for column, value in zip(self.columns, record):
            column.validate(value)


class Catalog:
    """The set of table schemas known to a :class:`~repro.storage.database.Database`."""

    def __init__(self) -> None:
        self._schemas: dict[str, TableSchema] = {}

    def register(self, schema: TableSchema) -> None:
        """Add a schema; raises on duplicate names."""
        if schema.name in self._schemas:
            raise CatalogError(f"table {schema.name!r} already exists")
        self._schemas[schema.name] = schema

    def __contains__(self, name: str) -> bool:
        return name in self._schemas

