"""The Database facade of the row-store substrate.

A :class:`Database` owns a catalog and, per table, a heap file plus an
optional B+-tree key index.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from repro.errors import CatalogError
from repro.storage.btree import BPlusTree
from repro.storage.catalog import Catalog, ColumnDef, TableSchema
from repro.storage.heap import HeapFile
from repro.storage.tuples import Record, TuplePointer

Predicate = Callable[[Record], bool]


class Table:
    """A stored table: schema + heap file + optional key index."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self.heap = HeapFile()
        self.key_index: BPlusTree[Any, TuplePointer] | None = (
            BPlusTree() if schema.key_column is not None else None
        )
        self._key_position = (
            schema.column_index(schema.key_column) if schema.key_column is not None else None
        )

    # ------------------------------------------------------------------ #
    @property
    def row_count(self) -> int:
        """Number of live rows."""
        return self.heap.record_count

    def insert(self, record: Record) -> TuplePointer:
        """Validate and insert a record; maintains the key index.

        Records with a NULL key are stored but not indexed (they remain
        reachable through scans), mirroring how a partial index behaves.
        """
        self.schema.validate_record(record)
        pointer = self.heap.insert(record)
        if self.key_index is not None and self._key_position is not None \
                and record[self._key_position] is not None:
            self.key_index.insert(record[self._key_position], pointer)
        return pointer

    def read(self, pointer: TuplePointer) -> Record:
        """Fetch the record at ``pointer``."""
        return self.heap.read(pointer)

    def update(self, pointer: TuplePointer, record: Record) -> TuplePointer:
        """Replace the record at ``pointer``; maintains the key index."""
        self.schema.validate_record(record)
        old = self.heap.read(pointer)
        new_pointer = self.heap.update(pointer, record)
        if self.key_index is not None and self._key_position is not None:
            if old[self._key_position] is not None:
                self.key_index.delete(old[self._key_position])
            if record[self._key_position] is not None:
                self.key_index.insert(record[self._key_position], new_pointer)
        return new_pointer

    def delete(self, pointer: TuplePointer) -> None:
        """Delete the record at ``pointer``; maintains the key index."""
        record = self.heap.read(pointer)
        self.heap.delete(pointer)
        if self.key_index is not None and self._key_position is not None \
                and record[self._key_position] is not None:
            self.key_index.delete(record[self._key_position])

    def scan(self, predicate: Predicate | None = None) -> Iterator[tuple[TuplePointer, Record]]:
        """Iterate live records, optionally filtered."""
        for pointer, record in self.heap.scan():
            if predicate is None or predicate(record):
                yield pointer, record

    def rows(self) -> list[Record]:
        """Materialise all live records (in physical order)."""
        return [record for _, record in self.heap.scan()]


class Database:
    """A collection of tables."""

    def __init__(self) -> None:
        self.catalog = Catalog()
        self._tables: dict[str, Table] = {}

    # ------------------------------------------------------------------ #
    # DDL
    # ------------------------------------------------------------------ #
    def create_table(
        self,
        name: str,
        columns: Iterable[str | ColumnDef],
        *,
        key_column: str | None = None,
    ) -> Table:
        """Create a table and return its handle."""
        schema = TableSchema.build(name, columns, key_column=key_column)
        self.catalog.register(schema)
        table = Table(schema)
        self._tables[name] = table
        return table

    def table(self, name: str) -> Table:
        """Fetch a table handle; raises :class:`CatalogError` when absent."""
        try:
            return self._tables[name]
        except KeyError as exc:
            raise CatalogError(f"table {name!r} does not exist") from exc

    def has_table(self, name: str) -> bool:
        """Whether a table with ``name`` exists."""
        return name in self._tables

    # ------------------------------------------------------------------ #
    # DML conveniences
    # ------------------------------------------------------------------ #
    def insert_many(self, name: str, records: Iterable[Record]) -> list[TuplePointer]:
        """Insert many records, returning their pointers."""
        table = self.table(name)
        return [table.insert(record) for record in records]
