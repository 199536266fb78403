"""Tests for the execution engine: cache, relational operators, SQL, DataSpread facade."""

import pytest

from repro.engine.cache import LRUCellCache
from repro.engine.dataspread import DataSpread
from repro.engine.relational import (
    TableValue,
    crossproduct,
    difference,
    intersection,
    join,
    project,
    rename,
    select,
    sort,
    union,
)
from repro.engine.sql import execute_sql
from repro.errors import LinkTableError, RelationalOperationError
from repro.grid.cell import Cell
from repro.grid.range import RangeRef
from repro.grid.sheet import Sheet
from repro.workloads.retail import generate_retail_dataset


def _no_bulk_write(items):
    raise AssertionError("these tests never open deferred mode")


class TestLRUCellCache:
    def test_read_through_and_hit_tracking(self):
        backing = {(1, 1): Cell(value=7)}
        cache = LRUCellCache(
            loader=lambda r, c: backing.get((r, c), Cell()),
            writer=lambda r, c, cell: backing.__setitem__((r, c), cell),
            capacity=10,
            bulk_writer=_no_bulk_write,
        )
        assert cache.get(1, 1).value == 7
        assert cache.get(1, 1).value == 7
        assert cache.hits == 1 and cache.misses == 1

    def test_write_through(self):
        backing = {}
        cache = LRUCellCache(
            loader=lambda r, c: backing.get((r, c), Cell()),
            writer=lambda r, c, cell: backing.__setitem__((r, c), cell),
            bulk_writer=_no_bulk_write,
        )
        cache.put(2, 2, Cell(value="x"))
        assert backing[(2, 2)].value == "x"

    def test_eviction_respects_capacity(self):
        cache = LRUCellCache(loader=lambda r, c: Cell(value=r), writer=lambda r, c, cell: None,
                             capacity=3, bulk_writer=_no_bulk_write)
        for row in range(1, 6):
            cache.get(row, 1)
        assert len(cache) == 3

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            LRUCellCache(loader=lambda r, c: Cell(), writer=lambda r, c, cell: None,
                         capacity=0, bulk_writer=_no_bulk_write)


SUPPLIERS = TableValue.from_rows(("id", "name"), [(1, "acme"), (2, "globex")])
INVOICES = TableValue.from_rows(
    ("inv", "id", "amount"), [(10, 1, 100.0), (11, 2, 250.0), (12, 1, 40.0)]
)


class TestRelationalOperators:
    def test_union_difference_intersection(self):
        a = TableValue.from_rows(("x",), [(1,), (2,)])
        b = TableValue.from_rows(("x",), [(2,), (3,)])
        assert union(a, b).row_count == 3
        assert difference(a, b).rows == ((1,),)
        assert intersection(a, b).rows == ((2,),)

    def test_union_incompatible(self):
        with pytest.raises(RelationalOperationError):
            union(SUPPLIERS, INVOICES)

    def test_crossproduct_renames_clashes(self):
        product = crossproduct(SUPPLIERS, SUPPLIERS)
        assert product.row_count == 4
        assert "id_2" in product.columns

    def test_select_project_rename_sort(self):
        filtered = select(INVOICES, lambda row: row["amount"] > 50)
        assert filtered.row_count == 2
        projected = project(filtered, "inv")
        assert projected.columns == ("inv",)
        renamed = rename(projected, "inv", "invoice_id")
        assert renamed.columns == ("invoice_id",)
        ordered = sort(INVOICES, "amount", descending=True)
        assert ordered.rows[0][2] == 250.0

    def test_project_unknown_column(self):
        with pytest.raises(RelationalOperationError):
            project(SUPPLIERS, "missing")

    def test_join_on_shared_column(self):
        joined = join(INVOICES, SUPPLIERS, on="id")
        assert joined.row_count == 3
        names = {row[joined.column_index("name")] for row in joined.rows}
        assert names == {"acme", "globex"}

    def test_join_with_explicit_pair_and_predicate(self):
        joined = join(INVOICES, SUPPLIERS, on=("id", "id"), predicate=lambda row: row["amount"] > 50)
        assert joined.row_count == 2

    def test_index_function(self):
        assert INVOICES.cell(2, 3) == 250.0
        assert INVOICES.cell(1, "amount") == 100.0
        with pytest.raises(RelationalOperationError):
            INVOICES.cell(99, 1)

    def test_from_grid_with_header(self):
        table = TableValue.from_grid([["a", "b"], [1, 2], [3, None]])
        assert table.columns == ("a", "b")
        assert table.rows == ((1, 2), (3, None))

    def test_join_on_duplicate_column_names(self):
        left = TableValue.from_rows(("id", "name"), [(1, "a"), (2, "b")])
        right = TableValue.from_rows(("id", "name"), [(1, "x"), (3, "y")])
        joined = join(left, right, on="id")
        # Clashing right-side columns carry the _2 suffix, and indexing by
        # the bare name still resolves the left-side column.
        assert joined.columns == ("id", "name", "id_2", "name_2")
        assert joined.rows == ((1, "a", 1, "x"),)
        assert joined.cell(1, "name") == "a"
        assert joined.cell(1, "name_2") == "x"

    def test_union_and_difference_with_empty_tables(self):
        table = TableValue.from_rows(("x", "y"), [(1, 2), (3, 4)])
        empty = TableValue.from_rows(("x", "y"), [])
        assert union(table, empty).rows == table.rows
        assert union(empty, table).rows == table.rows
        assert union(empty, empty).rows == ()
        assert difference(table, empty).rows == table.rows
        assert difference(empty, table).rows == ()
        # A zero-column table is not union-compatible with a 2-column one.
        with pytest.raises(RelationalOperationError):
            union(table, TableValue.from_grid([]))

    def test_sort_is_stable_and_orders_none_first(self):
        table = TableValue.from_rows(
            ("k", "tag"),
            [(2, "first-2"), (None, "null"), (1, "one"),
             (2, "second-2"), (2, "third-2")],
        )
        ordered = sort(table, "k")
        assert [row[1] for row in ordered.rows] == [
            "null", "one", "first-2", "second-2", "third-2"]
        # Descending flips the comparator but stays stable: equal keys
        # keep their input order, and None moves to the end.
        descending = sort(table, "k", descending=True)
        assert [row[1] for row in descending.rows] == [
            "first-2", "second-2", "third-2", "one", "null"]

    def test_from_grid_pads_and_clips_ragged_rows(self):
        table = TableValue.from_grid([
            ["a", "b", "c"],
            [1],                 # short: padded with None
            [2, 3, 4, 5],        # long: clipped to the header width
            [],                  # empty: all None
        ])
        assert table.columns == ("a", "b", "c")
        assert table.rows == ((1, None, None), (2, 3, 4), (None, None, None))


class TestSQL:
    def _resolver(self):
        tables = {"supp": SUPPLIERS, "invoice": INVOICES}
        return lambda name: tables[name]

    def test_select_star_where(self):
        result = execute_sql("SELECT * FROM invoice WHERE amount >= 100", self._resolver())
        assert result.row_count == 2

    def test_projection_and_alias(self):
        result = execute_sql("SELECT inv AS invoice_id FROM invoice", self._resolver())
        assert result.columns == ("invoice_id",)

    def test_join_group_by_order_by(self):
        result = execute_sql(
            "SELECT supp.name AS supplier, SUM(invoice.amount) AS total "
            "FROM invoice JOIN supp ON invoice.id = supp.id "
            "GROUP BY supp.name ORDER BY total DESC",
            self._resolver(),
        )
        assert result.rows[0] == ("globex", 250.0)
        assert result.rows[1] == ("acme", 140.0)

    def test_aggregates_without_group_by(self):
        result = execute_sql(
            "SELECT COUNT(*) AS n, MIN(amount) AS lo, MAX(amount) AS hi, AVG(amount) AS mean FROM invoice",
            self._resolver(),
        )
        assert result.rows[0][0] == 3
        assert result.rows[0][1] == 40.0
        assert result.rows[0][2] == 250.0

    def test_parameters(self):
        result = execute_sql("SELECT * FROM invoice WHERE amount > ? LIMIT 1", self._resolver(), (90,))
        assert result.row_count == 1

    def test_parameter_count_mismatch(self):
        with pytest.raises(RelationalOperationError):
            execute_sql("SELECT * FROM invoice WHERE amount > ?", self._resolver(), ())

    def test_string_literal_and_inequality(self):
        result = execute_sql("SELECT * FROM supp WHERE name <> 'acme'", self._resolver())
        assert result.rows == ((2, "globex"),)

    def test_unsupported_statement(self):
        with pytest.raises(RelationalOperationError):
            execute_sql("DELETE FROM supp", self._resolver())

    def test_unknown_column(self):
        with pytest.raises(RelationalOperationError):
            execute_sql("SELECT wrong FROM supp", self._resolver())


class TestDataSpread:
    def test_values_and_formulas(self):
        spread = DataSpread()
        spread.set_value(2, 2, 10)
        spread.set_value(2, 3, 9)
        spread.set_value(2, 4, 30)
        spread.set_value(2, 5, 45.5)
        value = spread.set_formula(2, 6, "=AVERAGE(B2:C2)+D2+E2")
        assert value == 85

    def test_dependents_recomputed_on_update(self):
        spread = DataSpread()
        spread.set_value(1, 1, 2)
        spread.set_formula(1, 2, "A1*10")
        spread.set_formula(1, 3, "B1+5")
        spread.set_value(1, 1, 3)
        assert spread.get_value(1, 2) == 30
        assert spread.get_value(1, 3) == 35

    def test_formula_error_becomes_code(self):
        spread = DataSpread()
        spread.set_value(1, 1, 0)
        assert spread.set_formula(1, 2, "1/A1") == "#DIV/0!"

    def test_set_input_a1(self):
        spread = DataSpread()
        spread.set_input("A1", 4)
        assert spread.set_input("B1", "=A1^2") == 16

    def test_get_cells_and_scroll(self):
        spread = DataSpread()
        spread.import_rows([[1, 2], [3, 4]])
        cells = spread.get_cells("A1:B2")
        assert len(cells) == 4
        window = spread.scroll(1, height=2, width=2)
        assert window == [[1, 2], [3, 4]]

    def test_structural_operations(self):
        spread = DataSpread()
        spread.import_rows([[1], [2], [3]])
        spread.insert_row_after(1)
        assert spread.get_value(3, 1) == 2
        spread.delete_row(3)
        assert spread.get_value(3, 1) == 3
        spread.insert_column_after(0)
        assert spread.get_value(1, 2) == 1

    def test_optimize_storage_preserves_content_and_reduces_cost(self):
        spread = DataSpread()
        spread.import_rows([[row * 10 + column for column in range(8)] for row in range(30)])
        spread.import_rows([[1, 2, 3]], top=200, left=40)
        before_cells = spread.cell_count()
        before_cost = spread.storage_cost()
        plan = spread.optimize_storage("aggressive")
        assert spread.cell_count() == before_cells
        assert plan.cost <= before_cost + 1e-6
        assert spread.get_value(1, 1) == 0
        assert spread.get_value(200, 40) == 1

    def test_optimize_storage_unknown_algorithm(self):
        with pytest.raises(ValueError):
            DataSpread().optimize_storage("bogus")

    def test_link_table_and_writeback(self):
        spread = DataSpread()
        spread.link_table(
            "inv", at="A1", columns=["inv_id", "who", "amount"],
            rows=[(1, "acme", 10.0), (2, "globex", 20.0)],
        )
        assert spread.get_value(1, 1) == "inv_id"
        assert spread.get_value(2, 2) == "acme"
        spread.set_value(2, 3, 99.0)
        assert spread.database.table("inv").rows()[0][2] == 99.0

    def test_link_table_requires_columns_for_new_table(self):
        with pytest.raises(LinkTableError):
            DataSpread().link_table("missing", at="A1")

    def test_sql_and_place_table(self):
        dataset = generate_retail_dataset(invoices=20)
        spread = DataSpread()
        dataset.load_into(spread.database)
        summary = spread.sql(
            "SELECT status, COUNT(*) AS n FROM invoice GROUP BY status ORDER BY n DESC"
        )
        region = spread.place_table(summary, at="H1")
        assert spread.get_value(1, 8) == "status"
        assert spread.composite_at("H1") is summary
        assert region.top == 1 and region.left == 8

    def test_table_from_range(self):
        spread = DataSpread()
        spread.import_rows([["name", "score"], ["a", 1], ["b", 2]])
        table = spread.table_from_range("A1:B3")
        assert table.columns == ("name", "score")
        assert table.row_count == 2

    def test_import_csv(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("id,amount\n1,10.5\n2,20\n", encoding="utf-8")
        spread = DataSpread()
        assert spread.import_csv(path) == 3
        assert spread.get_value(2, 2) == 10.5

    def test_from_sheet_constructor(self):
        sheet = Sheet.from_rows([[1, "=A1*3"]])
        spread = DataSpread.from_sheet(sheet)
        assert spread.get_value(1, 2) == 3

    def test_clear_cell_updates_dependents(self):
        spread = DataSpread()
        spread.set_value(1, 1, 5)
        spread.set_formula(1, 2, "SUM(A1:A1)")
        spread.clear_cell(1, 1)
        assert spread.get_value(1, 2) == 0

    def test_used_range(self):
        spread = DataSpread()
        spread.set_value(3, 2, 1)
        spread.set_value(10, 7, 1)
        assert spread.used_range().contains_range(RangeRef(3, 2, 10, 7))
