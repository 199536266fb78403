"""Tests for the row-store substrate: costs, pages, heaps, B+-tree, catalog, database."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CatalogError, SchemaError, StorageError
from repro.storage.btree import BPlusTree
from repro.storage.catalog import Catalog, ColumnDef, TableSchema
from repro.storage.costs import IDEAL_COSTS, POSTGRES_COSTS, CostParameters, hardness_reduction_costs
from repro.storage.database import Database
from repro.storage.heap import HeapFile
from repro.storage.page import Page
from repro.storage.tuples import TuplePointer, record_payload_size, value_size
from tests.support.seeds import seed_set


class TestCostParameters:
    def test_postgres_constants(self):
        assert POSTGRES_COSTS.table_cost == 8192
        assert POSTGRES_COSTS.cell_cost == pytest.approx(0.125)
        assert POSTGRES_COSTS.rcv_tuple_cost == 52

    def test_rom_cost_formula(self):
        cost = POSTGRES_COSTS.rom_cost(10, 4)
        assert cost == pytest.approx(8192 + 0.125 * 40 + 40 * 4 + 50 * 10)

    def test_com_is_transpose_of_rom(self):
        assert POSTGRES_COSTS.com_cost(10, 4) == POSTGRES_COSTS.rom_cost(4, 10)

    def test_rcv_cost(self):
        assert POSTGRES_COSTS.rcv_cost(100) == 8192 + 52 * 100
        assert POSTGRES_COSTS.rcv_cost(100, include_table=False) == 5200
        assert POSTGRES_COSTS.rcv_cost(0) == 0

    def test_zero_dimension_costs_nothing(self):
        assert IDEAL_COSTS.rom_cost(0, 5) == 0.0

    def test_with_overrides(self):
        modified = POSTGRES_COSTS.with_overrides(table_cost=0.0)
        assert modified.table_cost == 0.0
        assert POSTGRES_COSTS.table_cost == 8192

    def test_hardness_reduction_costs(self):
        costs = hardness_reduction_costs(10)
        assert costs.cell_cost == 21
        assert costs.table_cost == 0


class TestPageAndHeap:
    def test_page_insert_read_update_delete(self):
        page = Page(page_id=0)
        slot = page.insert((1, "a"), record_payload_size((1, "a")))
        assert page.read(slot) == (1, "a")
        page.update(slot, (2, "b"), record_payload_size((2, "b")))
        assert page.read(slot) == (2, "b")
        page.delete(slot)
        assert page.is_deleted(slot)
        with pytest.raises(StorageError):
            page.read(slot)

    def test_page_capacity(self):
        page = Page(page_id=0, capacity_bytes=200)
        with pytest.raises(StorageError):
            for _ in range(100):
                page.insert(("x" * 20,), record_payload_size(("x" * 20,)))

    def test_heap_pointers_stable_across_deletes(self):
        heap = HeapFile()
        pointers = [heap.insert((i,)) for i in range(100)]
        heap.delete(pointers[10])
        assert heap.read(pointers[50]) == (50,)
        assert heap.record_count == 99

    def test_heap_update_relocates_large_records(self):
        heap = HeapFile(page_capacity_bytes=256)
        pointer = heap.insert(("small",))
        new_pointer = heap.update(pointer, ("x" * 150,))
        assert heap.read(new_pointer) == ("x" * 150,)

    def test_heap_scan_order_and_stats(self):
        heap = HeapFile()
        for i in range(10):
            heap.insert((i,))
        assert [record[0] for _, record in heap.scan()] == list(range(10))
        assert heap.stats["inserts"] == 10

    def test_value_and_record_sizes(self):
        assert value_size(None) == 1
        assert value_size(1.5) == 8
        assert value_size("abc") == 4
        assert record_payload_size((1, "abc")) > 8


class TestHeapOverflowChains:
    """Records wider than one page span linked continuation records."""

    def test_round_trip_and_logical_scan(self):
        heap = HeapFile(page_capacity_bytes=256)
        wide = tuple(f"field-{i:03d}" for i in range(100))
        pointer = heap.insert(wide)
        assert heap.read(pointer) == wide
        assert heap.record_count == 1  # one *logical* record
        assert heap.page_count > 1     # ...across several pages
        assert [record for _, record in heap.scan()] == [wide]

    def test_chains_coexist_with_plain_records(self):
        heap = HeapFile(page_capacity_bytes=256)
        small_before = heap.insert(("a",))
        wide = tuple(range(200))
        chain = heap.insert(wide)
        small_after = heap.insert(("b",))
        assert heap.read(small_before) == ("a",)
        assert heap.read(chain) == wide
        assert heap.read(small_after) == ("b",)
        assert heap.record_count == 3
        assert sorted(len(r) for _, r in heap.scan()) == [1, 1, 200]

    def test_update_grows_and_shrinks_across_the_page_boundary(self):
        heap = HeapFile(page_capacity_bytes=256)
        pointer = heap.insert(("start",))
        wide = tuple(f"w{i}" for i in range(150))
        pointer = heap.update(pointer, wide)
        assert heap.read(pointer) == wide
        assert heap.record_count == 1
        pointer = heap.update(pointer, ("tiny",))
        assert heap.read(pointer) == ("tiny",)
        assert heap.record_count == 1

    def test_delete_releases_every_link(self):
        heap = HeapFile(page_capacity_bytes=256)
        pointer = heap.insert(tuple(range(300)))
        heap.delete(pointer)
        assert heap.record_count == 0
        assert not list(heap.scan())
        # every link was tombstoned: a vacuum can reclaim the whole heap
        heap.vacuum()
        assert heap.page_count == 0

    def test_single_oversized_field_still_rejected(self):
        heap = HeapFile(page_capacity_bytes=256)
        with pytest.raises(StorageError):
            heap.insert(("x" * 1_000,))


class TestChainPointUpdates:
    """An update of a chained record patches only the links it changes."""

    @staticmethod
    def _cell(rng: random.Random) -> tuple:
        # A stored cell as a line-oriented grid store keeps it; every one
        # has the same size.
        return (rng.randint(1_000, 9_999), "=SUM(A1:A9)")

    def _column(self, rng: random.Random) -> list:
        return [self._cell(rng) for _ in range(1_000)]

    def test_single_field_updates_never_cascade(self):
        rng = random.Random(7)
        model = self._column(rng)
        heap = HeapFile()
        pointer = heap.insert(tuple(model))
        assert heap.page_count >= 3  # chained over several 8 KB pages
        pages, dead = heap.page_count, heap.dead_bytes()
        for step in range(1_000):
            index = rng.randrange(len(model))
            # Clears and same-size cells: no link outgrows its first size.
            model[index] = None if rng.random() < 0.2 else self._cell(rng)
            assert heap.update(pointer, tuple(model)) == pointer
            assert heap.read(pointer) == tuple(model)
            assert (heap.page_count, heap.dead_bytes()) == (pages, dead)
            if step % 100 == 0:
                heap.check_invariants()
        heap.check_invariants()

    def test_a_grown_field_count_re_stores_the_record(self):
        model = self._column(random.Random(8))
        heap = HeapFile()
        pointer = heap.insert(tuple(model))
        model.append((1, "=A1"))
        pointer = heap.update(pointer, tuple(model))
        assert heap.read(pointer) == tuple(model)
        assert heap.record_count == 1
        heap.check_invariants()

    def test_a_field_outgrowing_its_link_re_stores_the_record(self):
        model = self._column(random.Random(9))
        heap = HeapFile()
        first = pointer = heap.insert(tuple(model))
        for width in range(50, 4_000, 50):
            model[0] = ("x" * width, None)
            pointer = heap.update(pointer, tuple(model))
            assert heap.read(pointer) == tuple(model)
            heap.check_invariants()
            if pointer != first:
                break
        assert pointer != first  # the head link overflowed its page
        assert heap.record_count == 1

    def test_a_write_that_changes_only_a_value_type_lands(self):
        # 1 == True == 1.0, so the chain must not skip these as unchanged.
        model = [(1, None)] * 2_000
        heap = HeapFile()
        pointer = heap.insert(tuple(model))
        assert heap.page_count >= 3
        for index, value in ((0, True), (500, 1.0), (1_999, True)):
            model[index] = (value, None)
            assert heap.update(pointer, tuple(model)) == pointer
            assert heap.read(pointer)[index][0] is value
        model[500] = (1, None)
        heap.update(pointer, tuple(model))
        assert type(heap.read(pointer)[500][0]) is int
        heap.check_invariants()

    def test_check_invariants_catches_a_stale_cached_size(self):
        heap = HeapFile(page_capacity_bytes=256)
        heap.insert(tuple(range(100)))
        heap._pages[0]._sizes[0] += 1
        with pytest.raises(AssertionError):
            heap.check_invariants()


@pytest.mark.parametrize("seed", seed_set("REPRO_FUZZ_SEEDS", range(1, 6)))
def test_heap_invariants_under_random_operations(seed):
    """Inserts, in-chain and relocating updates, deletes and vacuums keep
    every cached size, byte counter and chain consistent with the model."""
    rng = random.Random(seed)
    heap = HeapFile(page_capacity_bytes=512)
    model: dict = {}

    def record() -> tuple:
        return tuple(rng.choice([None, rng.randint(0, 99), "v" * rng.randint(1, 30)])
                     for _ in range(rng.choice([1, 5, 40, 120])))

    for _ in range(300):
        op = rng.random()
        if op < 0.25 or not model:
            new = record()
            model[heap.insert(new)] = new
        elif op < 0.65:
            pointer = rng.choice(list(model))
            fields = list(model.pop(pointer))
            if rng.random() < 0.7:
                fields[rng.randrange(len(fields))] = rng.choice([None, 7, "w" * rng.randint(1, 60)])
            else:
                fields = list(record())
            model[heap.update(pointer, tuple(fields))] = tuple(fields)
        elif op < 0.9:
            pointer = rng.choice(list(model))
            heap.delete(pointer)
            del model[pointer]
        else:
            heap.vacuum()
        heap.check_invariants()
        assert heap.record_count == len(model)
        assert all(heap.read(pointer) == fields for pointer, fields in model.items())


class TestBPlusTree:
    def test_insert_get(self):
        tree = BPlusTree(order=4)
        for key in range(100):
            tree.insert(key, key * 2)
        assert tree.get(42) == 84
        assert tree.get(1000) is None
        assert len(tree) == 100

    def test_replace_existing_key(self):
        tree = BPlusTree(order=4)
        tree.insert(1, "a")
        tree.insert(1, "b")
        assert tree.get(1) == "b"
        assert len(tree) == 1

    def test_items_sorted(self):
        tree = BPlusTree(order=4)
        for key in [5, 1, 9, 3, 7]:
            tree.insert(key, key)
        assert [key for key, _ in tree.items()] == [1, 3, 5, 7, 9]

    def test_range_scan(self):
        tree = BPlusTree(order=8)
        for key in range(1, 201):
            tree.insert(key, key)
        assert [key for key, _ in tree.range_scan(50, 60)] == list(range(50, 61))

    def test_delete(self):
        tree = BPlusTree(order=4)
        for key in range(50):
            tree.insert(key, key)
        assert tree.delete(25)
        assert not tree.delete(25)
        assert tree.get(25) is None
        assert len(tree) == 49

    def test_min_max_keys(self):
        tree = BPlusTree()
        with pytest.raises(StorageError):
            tree.min_key()
        tree.insert(5, "x")
        tree.insert(2, "y")
        assert tree.min_key() == 2
        assert tree.max_key() == 5

    def test_contains(self):
        tree = BPlusTree()
        tree.insert("a", 1)
        assert "a" in tree
        assert "b" not in tree

    def test_tuple_keys(self):
        tree = BPlusTree(order=4)
        for row in range(1, 11):
            for column in range(1, 4):
                tree.insert((row, column), row * column)
        assert [key for key, _ in tree.range_scan((3, 1), (3, 3))] == [(3, 1), (3, 2), (3, 3)]

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            BPlusTree(order=2)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 500), min_size=1, max_size=300),
           st.lists(st.integers(0, 500), max_size=150))
    def test_matches_dict_model(self, inserts, deletes):
        tree = BPlusTree(order=5)
        model = {}
        for key in inserts:
            tree.insert(key, key + 1)
            model[key] = key + 1
        for key in deletes:
            assert tree.delete(key) == (key in model)
            model.pop(key, None)
        assert sorted(model.items()) == list(tree.items())
        assert len(tree) == len(model)
        tree.check_invariants()


class TestCatalogAndSchema:
    def test_schema_validation(self):
        schema = TableSchema.build("t", [ColumnDef("id", "integer"), ColumnDef("name", "text")])
        schema.validate_record((1, "x"))
        with pytest.raises(SchemaError):
            schema.validate_record((1,))
        with pytest.raises(SchemaError):
            schema.validate_record(("x", "y"))

    def test_boolean_not_integer(self):
        schema = TableSchema.build("t", [ColumnDef("id", "integer")])
        with pytest.raises(SchemaError):
            schema.validate_record((True,))

    def test_nullable_flag(self):
        schema = TableSchema.build("t", [ColumnDef("id", "integer", nullable=False)])
        with pytest.raises(SchemaError):
            schema.validate_record((None,))

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema.build("t", ["a", "a"])

    def test_unknown_key_column_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema.build("t", ["a"], key_column="missing")

    def test_column_index(self):
        schema = TableSchema.build("t", ["a", "b", "c"])
        assert schema.column_index("c") == 2
        with pytest.raises(CatalogError):
            schema.column_index("z")

    def test_catalog_register_duplicate(self):
        catalog = Catalog()
        catalog.register(TableSchema.build("t", ["a"]))
        with pytest.raises(CatalogError):
            catalog.register(TableSchema.build("t", ["b"]))
        assert "t" in catalog
        catalog.unregister("t")
        assert "t" not in catalog


class TestDatabase:
    def test_create_insert_scan(self):
        database = Database()
        database.create_table("t", ["id", "name"], key_column="id")
        database.insert_many("t", [(1, "a"), (2, "b")])
        assert list(database.scan("t")) == [(1, "a"), (2, "b")]
        assert database.table("t").row_count == 2

    def test_key_lookup_and_update(self):
        database = Database()
        table = database.create_table("t", ["id", "name"], key_column="id")
        pointer = table.insert((1, "a"))
        table.update(pointer, (1, "z"))
        found = table.lookup(1)
        assert found is not None and found[1] == (1, "z")
        assert table.lookup(9) is None

    def test_delete_maintains_index(self):
        database = Database()
        table = database.create_table("t", ["id"], key_column="id")
        pointer = table.insert((7,))
        table.delete(pointer)
        assert table.lookup(7) is None
        assert table.row_count == 0

    def test_drop_table(self):
        database = Database()
        database.create_table("t", ["a"])
        database.drop_table("t")
        assert not database.has_table("t")
        with pytest.raises(CatalogError):
            database.table("t")

    def test_predicate_scan(self):
        database = Database()
        database.create_table("t", ["id", "amount"])
        database.insert_many("t", [(1, 10), (2, 200), (3, 30)])
        rows = list(database.scan("t", predicate=lambda record: record[1] > 20))
        assert [record[0] for record in rows] == [2, 3]

    def test_storage_cost_accounting(self):
        database = Database(costs=POSTGRES_COSTS)
        database.create_table("t", ["a", "b", "c"])
        database.insert_many("t", [(1, 2, 3)] * 10)
        expected = POSTGRES_COSTS.rom_cost(10, 3)
        assert database.table_storage_cost("t") == pytest.approx(expected)
        assert database.total_storage_cost() == pytest.approx(expected)

    def test_schema_enforced_on_insert(self):
        database = Database()
        database.create_table("t", [ColumnDef("id", "integer")])
        with pytest.raises(SchemaError):
            database.insert("t", ("not-an-int",))


# ---------------------------------------------------------------------- #
# live-bytes accounting and vacuum (dead-space compaction)
# ---------------------------------------------------------------------- #
class TestVacuum:
    def test_live_vs_used_accounting(self):
        page = Page(page_id=0)
        baseline = page.used_bytes
        assert page.live_bytes == baseline and page.dead_bytes == 0
        payload = record_payload_size(("x" * 10,))
        slots = [page.insert(("x" * 10,), payload) for _ in range(4)]
        assert page.live_bytes == page.used_bytes
        page.delete(slots[1])
        # Historical semantics: the tombstone keeps its 4-byte line pointer
        # in used_bytes; live_bytes drops by payload + pointer.
        assert page.used_bytes == baseline + 4 * (payload + 4) - payload
        assert page.live_bytes == baseline + 3 * (payload + 4)
        assert page.dead_bytes == 4

    def test_update_keeps_live_in_step(self):
        page = Page(page_id=0)
        slot = page.insert(("ab",), record_payload_size(("ab",)))
        page.update(slot, ("abcdef",), record_payload_size(("abcdef",)))
        assert page.live_bytes == page.used_bytes

    def test_compact_reclaims_only_trailing_tombstones(self):
        page = Page(page_id=0)
        slots = [page.insert((i,), record_payload_size((i,))) for i in range(5)]
        page.delete(slots[1])  # interior: must keep its pointer
        page.delete(slots[3])
        page.delete(slots[4])  # trailing run of two
        assert page.compact() == 8
        assert page.dead_bytes == 4  # the interior tombstone remains
        assert page.read(slots[2]) == (2,)  # surviving slot ids unchanged

    def test_vacuum_pointer_stability(self):
        heap = HeapFile(page_capacity_bytes=256)
        pointers = [heap.insert((i, "payload")) for i in range(40)]
        for index in range(0, 40, 3):
            heap.delete(pointers[index])
        survivors = [p for i, p in enumerate(pointers) if i % 3 != 0]
        before = [heap.read(p) for p in survivors]
        result = heap.vacuum()
        assert result["bytes_reclaimed"] >= 0
        assert [heap.read(p) for p in survivors] == before
        assert heap.dead_bytes() < 40 * 4  # some pointers reclaimed

    def test_vacuum_drops_trailing_dead_pages(self):
        heap = HeapFile(page_capacity_bytes=128)
        pointers = [heap.insert(("x" * 40,)) for i in range(8)]
        pages_before = heap.page_count
        assert pages_before > 2
        # Kill everything on the trailing pages, keep the first record live.
        for pointer in pointers[1:]:
            heap.delete(pointer)
        result = heap.vacuum()
        assert result["pages_dropped"] == pages_before - 1
        assert heap.page_count == 1
        assert heap.read(pointers[0]) == ("x" * 40,)
        assert heap.used_bytes() == heap.page_count * 128

    def test_vacuum_keeps_interior_pages(self):
        heap = HeapFile(page_capacity_bytes=128)
        pointers = [heap.insert(("x" * 40,)) for i in range(8)]
        last = pointers[-1]
        for pointer in pointers[:-1]:
            heap.delete(pointer)  # interior pages fully dead, last page live
        pages_before = heap.page_count
        result = heap.vacuum()
        assert result["pages_dropped"] == 0  # page ids are list indices
        assert heap.page_count == pages_before
        assert heap.read(last) == ("x" * 40,)
        assert heap.live_bytes() < heap.used_bytes()


# ---------------------------------------------------------------------- #
# storage error taxonomy across the Database/Table/BPlusTree/HeapFile
# boundary (CatalogError and SchemaError are StorageErrors too)
# ---------------------------------------------------------------------- #
class TestErrorTaxonomy:
    def test_hierarchy(self):
        assert issubclass(CatalogError, StorageError)
        assert issubclass(SchemaError, StorageError)

    def test_duplicate_table_is_catalog_error(self):
        database = Database()
        database.create_table("t", ["a"])
        with pytest.raises(CatalogError):
            database.create_table("t", ["a"])

    def test_unknown_table_is_catalog_error(self):
        database = Database()
        with pytest.raises(CatalogError) as excinfo:
            database.table("missing")
        assert isinstance(excinfo.value, StorageError)
        with pytest.raises(CatalogError):
            database.drop_table("missing")

    def test_unknown_column_errors(self):
        # A bad key column is rejected at schema build time (SchemaError);
        # resolving an unknown column on a valid schema is a CatalogError.
        with pytest.raises(SchemaError):
            TableSchema.build("t", ["a"], key_column="nope")
        schema = TableSchema.build("t", ["a"])
        with pytest.raises(CatalogError):
            schema.column_index("nope")

    def test_bad_pointer_reads_are_storage_errors(self):
        heap = HeapFile()
        pointer = heap.insert((1,))
        with pytest.raises(StorageError):
            heap.read(TuplePointer(page_id=99, slot_id=0))
        with pytest.raises(StorageError):
            heap.read(TuplePointer(page_id=0, slot_id=99))
        heap.delete(pointer)
        with pytest.raises(StorageError):
            heap.read(pointer)  # tombstone

    def test_oversized_record_is_storage_error(self):
        heap = HeapFile(page_capacity_bytes=128)
        with pytest.raises(StorageError):
            heap.insert(("x" * 1000,))

    def test_null_key_rows_stored_but_unindexed(self):
        database = Database()
        table = database.create_table(
            "t", [ColumnDef("id", "integer"), ColumnDef("name", "text")],
            key_column="id",
        )
        table.insert((None, "unindexed"))
        table.insert((1, "indexed"))
        assert table.row_count == 2
        assert len(table.key_index) == 1
        found = table.lookup(1)
        assert found is not None and found[1] == (1, "indexed")
        assert table.lookup(None) is None  # NULL never matches the index

    def test_empty_tree_min_max_are_storage_errors(self):
        tree = BPlusTree()
        with pytest.raises(StorageError):
            tree.min_key()
        with pytest.raises(StorageError):
            tree.max_key()

    def test_schema_violations_are_schema_errors(self):
        database = Database()
        database.create_table(
            "t", [ColumnDef("id", "integer", nullable=False), ColumnDef("v", "text")]
        )
        with pytest.raises(SchemaError):
            database.insert("t", (None, "x"))  # non-nullable NULL
        with pytest.raises(SchemaError):
            database.insert("t", (1,))  # arity mismatch
        with pytest.raises(SchemaError):
            database.insert("t", (True, "x"))  # boolean is not an integer
