"""Tests for the generative query subsystem: builder, planner pushdown,
streaming execution, the SQL front-end, and live views."""

import pytest

from repro.engine.dataspread import DataSpread
from repro.errors import (
    QueryError,
    QueryExecutionError,
    QueryPlanError,
    RelationalOperationError,
    ReproError,
)
from repro.grid.range import RangeRef
from repro.query import avg, col, count, max_, min_, select, sum_
from repro.query import views as views_module
from repro.query.builder import region
from repro.query.planner import CHUNK_ROWS
from repro.service.workspace import Workspace
from repro.storage.database import Table


def _sales_spread():
    """A small sheet: header + 6 data rows of (name, amount, status)."""
    spread = DataSpread()
    spread.import_rows([
        ["name", "amount", "status"],
        ["alpha", 120, "open"],
        ["bravo", 80, "closed"],
        ["carol", 75, "open"],
        ["delta", 200, "open"],
        ["echo", 80, "open"],
        ["fox", None, "closed"],
    ])
    return spread


SALES = "A1:C7"

ORDER_ROWS = 2_000
ORDERS = RangeRef(1, 1, ORDER_ROWS + 1, 4)
_STATUSES = ("open", "overdue", "closed", "draft")


def _orders_spread(**options):
    """Header + 2 000 rows of (id, amount, status, qty): the benchmark's
    ``query_analytics`` sheet."""
    spread = DataSpread(**options)
    spread.import_rows([["id", "amount", "status", "qty"]] + [
        [row, (row * 7919) % 10_000, _STATUSES[row % 4], 1 + row % 97]
        for row in range(1, ORDER_ROWS + 1)
    ])
    return spread


def _top_orders():
    """The benchmark's pinned view: reads ``id`` and ``amount`` only."""
    return (select(region(ORDERS)).where(col("amount") > 9_900)
            .project(col("id"), col("amount")))


def _from_scratch(spread, view):
    return spread.execute(view.query).to_table()


class _Reads:
    """What one step cost: the hybrid model's bulk-read counters and the
    number of plans a live view compiled."""

    def __init__(self, spread, monkeypatch):
        self.spread = spread
        self.compiles = 0

        def counting(query, catalog, _compile=views_module.compile_select):
            self.compiles += 1
            return _compile(query, catalog)

        monkeypatch.setattr(views_module, "compile_select", counting)
        self.reset()

    def reset(self):
        self.compiles = 0
        self.spread.model.reset_read_counters()

    @property
    def cells(self):
        return self.spread.model.cells_read

    @property
    def bulk(self):
        return self.spread.model.bulk_reads


class TestBuilder:
    def test_refinement_is_generative(self):
        base = select(SALES)
        filtered = base.where(col("amount") > 100)
        limited = filtered.limit(1)
        assert base.predicate is None
        assert filtered.predicate is not None and filtered.limit_count is None
        assert limited.limit_count == 1
        # The shared prefix diverges without interference.
        other = filtered.order_by(col("amount").desc())
        assert limited.order == () and other.limit_count is None

    def test_predicates_compose_with_operators(self):
        spread = _sales_spread()
        query = select(SALES).where(
            (col("amount") > 70) & ~(col("status") == "closed") | (col("name") == "fox")
        )
        names = [record[0] for record in spread.execute(query)]
        assert names == ["alpha", "carol", "delta", "echo", "fox"]

    def test_predicate_refuses_python_truth_testing(self):
        with pytest.raises(QueryPlanError):
            bool(col("amount") > 1)
        with pytest.raises(QueryPlanError):
            (col("a") == 1) and (col("b") == 2)

    def test_multiple_where_calls_conjoin(self):
        spread = _sales_spread()
        query = (select(SALES)
                 .where(col("amount") > 70)
                 .where(col("status") == "open"))
        names = [record[0] for record in spread.execute(query)]
        assert names == ["alpha", "carol", "delta", "echo"]

    def test_source_coercion(self):
        assert select("A1:B2").source.region == RangeRef(1, 1, 2, 2)
        assert select(RangeRef(1, 1, 2, 2)).source.region == RangeRef(1, 1, 2, 2)
        assert select("invoices").source.table == "invoices"
        with pytest.raises(QueryPlanError):
            select(42)


class TestPlanner:
    def test_pushdown_appears_in_explain(self):
        spread = _sales_spread()
        plan = spread.explain(
            select(SALES).where(col("amount") > 100).project(col("name"))
        )
        assert "pushdown=[amount > 100]" in plan
        assert "columns=[name, amount]" in plan

    def test_unknown_column_is_a_plan_error(self):
        spread = _sales_spread()
        with pytest.raises(QueryPlanError, match="unknown column"):
            spread.execute(select(SALES).where(col("missing") == 1))

    def test_case_insensitive_resolution_and_ambiguity(self):
        spread = DataSpread()
        spread.import_rows([["Amount", "amount"], [1, 2]])
        with pytest.raises(QueryPlanError, match="ambiguous"):
            spread.execute(select("A1:B2").where(col("AMOUNT") > 0))
        # Unambiguous case-insensitive matches resolve.
        sales = _sales_spread()
        rows = list(sales.execute(select(SALES).where(col("AMOUNT") > 150)))
        assert [record[0] for record in rows] == ["delta"]

    def test_group_by_requires_explicit_items(self):
        spread = _sales_spread()
        with pytest.raises(QueryPlanError):
            spread.execute(select(SALES).group_by(col("status")))

    def test_order_by_output_alias(self):
        spread = _sales_spread()
        query = (select(SALES)
                 .project(col("status"), count(alias="n"))
                 .group_by(col("status"))
                 .order_by(col("n").desc()))
        assert [tuple(r) for r in spread.execute(query)] == [
            ("open", 4), ("closed", 2)]


class TestExecutor:
    def test_aggregates_match_sql_semantics(self):
        spread = _sales_spread()
        result = spread.execute(
            select(SALES).project(
                count(), count(col("amount")), sum_(col("amount")),
                avg(col("amount")), min_(col("amount")), max_(col("amount")),
            )
        )
        assert [tuple(r) for r in result] == [(6, 5, 555, 111.0, 75, 200)]

    def test_empty_input_aggregates_are_null(self):
        spread = _sales_spread()
        result = spread.execute(
            select(SALES).where(col("amount") > 10_000)
                         .project(count(), sum_(col("amount")))
        )
        assert [tuple(r) for r in result] == [(0, None)]

    def test_offset_and_limit(self):
        spread = _sales_spread()
        query = select(SALES).project(col("name")).offset(2).limit(2)
        assert [r[0] for r in spread.execute(query)] == ["carol", "delta"]

    def test_order_none_first_and_multi_key(self):
        spread = _sales_spread()
        query = (select(SALES).project(col("amount"), col("name"))
                 .order_by(col("amount"), col("name").desc()))
        assert [tuple(r) for r in spread.execute(query)] == [
            (None, "fox"), (75, "carol"), (80, "echo"), (80, "bravo"),
            (120, "alpha"), (200, "delta")]

    def test_order_by_is_stable_and_orders_none_first(self):
        spread = DataSpread()
        spread.import_rows([["k", "tag"], [2, "first-2"], [None, "null"],
                            [1, "one"], [2, "second-2"], [2, "third-2"]])
        ascending = spread.execute(select("A1:B6").order_by(col("k")))
        assert [row[1] for row in ascending] == [
            "null", "one", "first-2", "second-2", "third-2"]
        # Descending flips the comparator but stays stable: equal keys
        # keep their input order, and None moves to the end.
        descending = spread.execute(select("A1:B6").order_by(col("k").desc()))
        assert [row[1] for row in descending] == [
            "first-2", "second-2", "third-2", "one", "null"]

    def test_mixed_type_order_is_an_execution_error(self):
        spread = DataSpread()
        spread.import_rows([["v"], [1], ["two"]])
        with pytest.raises(QueryExecutionError, match="mixed-type"):
            list(spread.execute(select("A1:A3").order_by(col("v"))))

    def test_grid_join(self):
        spread = DataSpread()
        spread.import_rows([["id", "total"], [1, 10], [2, 20], [3, 30]])
        spread.import_rows([["key", "label"], [2, "two"], [3, "three"]],
                           top=1, left=4)
        query = (select(region("A1:B4", name="l"))
                 .join(region("D1:E3", name="r"), on=("id", "key"))
                 .project(col("label"), col("total")))
        assert sorted(tuple(r) for r in spread.execute(query)) == [
            ("three", 30), ("two", 20)]

    def test_result_drains_once(self):
        spread = _sales_spread()
        result = spread.execute(select(SALES))
        assert result.first() is not None
        remainder = result.to_table()  # drains whatever first() left
        assert remainder.row_count == 5
        with pytest.raises(QueryExecutionError, match="drained"):
            result.to_table()


class TestStreaming:
    """The acceptance criterion: LIMIT over a huge region reads O(matched
    rows + n) cells, not O(region), proven by the model's read counters."""

    def test_limit_over_million_row_region_short_circuits(self):
        spread = DataSpread()
        spread.import_rows([["id", "amount", "status"]])
        # Matches early: the scan should stop inside the first chunks.
        spread.import_rows([[row, 1000 + row, "open"] for row in range(1, 201)],
                           top=2)
        huge = RangeRef(1, 1, 1_000_001, 3)
        query = (select(region(huge))
                 .where(col("amount") > 1000)
                 .project(col("id"), col("amount"))
                 .limit(5))

        spread.model.reset_read_counters()
        rows = [tuple(r) for r in spread.execute(query)]
        assert rows == [(1, 1001), (2, 1002), (3, 1003), (4, 1004), (5, 1005)]
        # O(chunks until 5 matches) — a couple of chunk-slabs of the two
        # projected/filtered columns, nowhere near the 3M-cell region.
        assert spread.model.cells_read <= 3 * CHUNK_ROWS * 2
        assert spread.model.bulk_reads <= 8

    def test_full_scan_reads_only_projected_columns(self):
        spread = _sales_spread()
        spread.model.reset_read_counters()
        list(spread.execute(select(SALES).project(col("name"))))
        # One contiguous run: the name column only (plus its header read).
        assert spread.model.cells_read <= 2 * 7

    def test_count_star_reads_no_cells(self):
        spread = _sales_spread()
        spread.model.reset_read_counters()
        result = spread.execute(select(SALES).project(count()))
        assert [tuple(r) for r in result] == [(6,)]
        assert spread.model.cells_read <= 3  # header row only


class TestSQLFrontEnd:
    def test_or_and_parenthesized_groups(self):
        spread = _sales_spread()
        table = spread.sql(
            "SELECT name FROM A1:C7 "
            "WHERE (status = 'open' AND amount > 100) OR name = 'bravo' "
            "ORDER BY name"
        )
        assert [r[0] for r in table.rows] == ["alpha", "bravo", "delta"]

    def test_not_and_comparison_aliases(self):
        spread = _sales_spread()
        table = spread.sql(
            "SELECT name FROM A1:C7 WHERE NOT status != 'open' ORDER BY name")
        assert [r[0] for r in table.rows] == ["alpha", "carol", "delta", "echo"]

    def test_multi_column_order_by(self):
        spread = _sales_spread()
        table = spread.sql(
            "SELECT amount, name FROM A1:C7 "
            "WHERE amount > 10 ORDER BY amount ASC, name DESC")
        assert [tuple(r) for r in table.rows] == [
            (75, "carol"), (80, "echo"), (80, "bravo"),
            (120, "alpha"), (200, "delta")]

    def test_escaped_quotes_in_string_literals(self):
        spread = DataSpread()
        spread.import_rows([["phrase"], ["it's fine"], ["plain"]])
        table = spread.sql("SELECT phrase FROM A1:A3 WHERE phrase = 'it''s fine'")
        assert [r[0] for r in table.rows] == ["it's fine"]

    def test_placeholder_inside_string_literal_is_not_bound(self):
        spread = DataSpread()
        spread.import_rows([["q"], ["?"], ["x"]])
        table = spread.sql("SELECT q FROM A1:A3 WHERE q = '?'")
        assert [r[0] for r in table.rows] == ["?"]

    def test_placeholder_count_mismatch_message(self):
        spread = _sales_spread()
        with pytest.raises(
            QueryPlanError,
            match=r"query has 2 placeholder\(s\) but 1 parameter\(s\) given",
        ):
            spread.sql("SELECT name FROM A1:C7 WHERE amount > ? AND amount < ?", 1)

    def test_ambiguous_column_is_explicit(self):
        spread = DataSpread()
        spread.import_rows([["Amount", "amount"], [1, 2]])
        with pytest.raises(QueryPlanError, match="ambiguous"):
            spread.sql("SELECT amount FROM A1:B2")

    def test_non_select_statement_message(self):
        spread = _sales_spread()
        with pytest.raises(QueryPlanError, match="unsupported SQL statement"):
            spread.sql("DELETE FROM A1:C7")

    def test_sql_matches_generative_query(self):
        spread = _sales_spread()
        via_sql = spread.sql(
            "SELECT name, amount FROM A1:C7 WHERE amount >= ? "
            "ORDER BY amount DESC LIMIT 2", 80)
        via_builder = spread.execute(
            select(SALES).where(col("amount") >= 80)
            .project(col("name"), col("amount"))
            .order_by(col("amount").desc()).limit(2)
        ).to_table()
        assert via_sql.rows == via_builder.rows
        assert via_sql.columns == via_builder.columns

    @pytest.mark.parametrize("name", ["count", "SUM", "Avg", "min", "MAX"])
    def test_column_named_like_an_aggregate(self, name):
        spread = DataSpread()
        spread.import_rows([["label", name], ["a", 3], ["b", 5]])
        via_sql = spread.sql(f"SELECT label, {name} FROM A1:B3 ORDER BY {name} DESC")
        via_builder = spread.execute(
            select("A1:B3").project(col("label"), col(name))
            .order_by(col(name).desc())).to_table()
        assert via_sql == via_builder
        assert via_sql.rows == (("b", 5), ("a", 3))
        alone = spread.sql(f"SELECT {name} FROM A1:B3")
        assert alone.columns == (name,) and alone.rows == ((3,), (5,))

    def test_aggregate_calls_still_aggregate(self):
        spread = _sales_spread()
        table = spread.sql("SELECT COUNT(*), SUM(amount) AS t, max(amount) FROM A1:C7")
        assert table.columns == ("count_all", "t", "max_amount")
        assert table.rows == ((6, 555, 200),)

    def test_table_relation_is_read_once_per_query(self, monkeypatch):
        spread = DataSpread()
        spread.database.create_table("inv", ["id", "supp"])
        spread.database.insert_many("inv", [(1, 10), (2, 20), (3, 10)])
        spread.database.create_table("supp", ["supp", "name"])
        spread.database.insert_many("supp", [(10, "acme"), (20, "globex")])
        reads = []
        original = Table.rows

        def counting_rows(table):
            reads.append(table.schema.name)
            return original(table)

        monkeypatch.setattr(Table, "rows", counting_rows)
        assert spread.sql("SELECT COUNT(*) AS n FROM inv").rows == ((3,),)
        assert reads == ["inv"]
        reads.clear()
        joined = spread.sql("SELECT inv.id, supp.name FROM inv "
                            "JOIN supp ON inv.supp = supp.supp ORDER BY inv.id")
        assert joined.rows == ((1, "acme"), (2, "globex"), (3, "acme"))
        assert sorted(reads) == ["inv", "supp"]


class TestLiveViews:
    def _top_query(self):
        return (select(SALES)
                .where(col("amount") > 100)
                .project(col("name"), col("amount"))
                .order_by(col("amount").desc()))

    def test_source_edit_refreshes_reactively(self):
        spread = _sales_spread()
        view = spread.create_live_view(self._top_query(), name="top")
        assert [tuple(r) for r in view.value().rows] == [
            ("delta", 200), ("alpha", 120)]
        before = view.refresh_count
        spread.set_value(3, 2, 500)  # bravo: 80 -> 500
        assert view.refresh_count == before + 1
        assert [tuple(r) for r in view.value().rows] == [
            ("bravo", 500), ("delta", 200), ("alpha", 120)]

    def test_unrelated_edit_does_not_refresh(self):
        spread = _sales_spread()
        view = spread.create_live_view(self._top_query(), name="top")
        before = view.refresh_count
        spread.set_value(50, 9, "elsewhere")
        assert view.refresh_count == before

    def test_spill_writes_diffs_and_shrinks(self):
        spread = _sales_spread()
        spread.create_live_view(self._top_query(), name="top", at="E1")
        assert spread.get_value(1, 5) == "name"
        assert spread.get_value(2, 5) == "delta" and spread.get_value(2, 6) == 200
        assert spread.get_value(3, 5) == "alpha"
        spread.set_value(2, 2, 90)  # alpha drops out of the result
        assert spread.get_value(2, 5) == "delta"
        assert spread.get_value(3, 5) is None and spread.get_value(3, 6) is None

    def test_formulas_read_spilled_cells(self):
        spread = _sales_spread()
        spread.create_live_view(
            select(SALES).where(col("amount") > 100).project(col("amount")),
            name="big", at="E1", include_header=False)
        spread.set_formula(1, 7, "=SUM(E1:E10)")
        assert spread.get_value(1, 7) == 320
        spread.set_value(3, 2, 130)  # bravo joins the result
        assert spread.get_value(1, 7) == 450

    def test_async_view_refreshes_on_drain(self):
        spread = DataSpread(async_recompute=True)
        spread.import_rows([
            ["name", "amount", "status"],
            ["alpha", 120, "open"],
            ["bravo", 80, "closed"],
        ])
        spread.flush_compute()
        view = spread.create_live_view(self._top_query(), name="top")
        spread.set_value(3, 2, 500)
        # value() drains exactly the view's subtree, then refreshes.
        assert [tuple(r) for r in view.value().rows] == [
            ("bravo", 500), ("alpha", 120)]

    def test_batch_refreshes_once_and_abort_rolls_back(self):
        spread = _sales_spread()
        view = spread.create_live_view(self._top_query(), name="top")
        with spread.batch():
            spread.set_value(3, 2, 300)
            spread.set_value(6, 2, 400)
        assert [tuple(r) for r in view.value().rows] == [
            ("echo", 400), ("bravo", 300), ("delta", 200), ("alpha", 120)]

        class Boom(Exception):
            pass

        try:
            with spread.batch():
                spread.set_value(2, 2, 9_999)
                raise Boom()
        except Boom:
            pass
        assert [tuple(r) for r in view.value().rows] == [
            ("echo", 400), ("bravo", 300), ("delta", 200), ("alpha", 120)]

    def test_structural_insert_remaps_source(self):
        spread = _sales_spread()
        view = spread.create_live_view(self._top_query(), name="top")
        spread.insert_row_after(1)
        spread.import_rows([["golf", 150, "open"]], top=2)
        assert view.query.source.region == RangeRef(1, 1, 8, 3)
        assert [tuple(r) for r in view.value().rows] == [
            ("delta", 200), ("golf", 150), ("alpha", 120)]

    def test_deleting_the_source_detaches(self):
        spread = _sales_spread()
        view = spread.create_live_view(self._top_query(), name="top")
        spread.delete_row(1, 7)
        assert view.detached
        with pytest.raises(QueryExecutionError):
            view.value()

    def test_header_views_survive_column_shifts(self):
        spread = _sales_spread()
        view = spread.create_live_view(self._top_query(), name="top")
        spread.insert_column_after(1)
        assert not view.detached
        assert [tuple(r) for r in view.value().rows] == [
            ("delta", 200), ("alpha", 120)]

    def test_headerless_views_detach_on_column_shifts(self):
        spread = _sales_spread()
        view = spread.create_live_view(
            select(region("A2:C7", header=False)).where(col("B") > 100),
            name="raw")
        spread.delete_row(3)          # row-axis shifts are absorbed
        assert not view.detached
        spread.insert_column_after(1)  # re-letters the columns: detach
        assert view.detached

    def test_reactive_schema_break_detaches_instead_of_raising(self):
        spread = _sales_spread()
        view = spread.create_live_view(self._top_query(), name="top")
        spread.delete_column(1)      # the 'name' column the query projects
        spread.set_value(2, 1, 777)  # the reactive refresh hits the broken
        assert view.detached         # query and detaches, not raises
        with pytest.raises(QueryExecutionError, match="detached"):
            view.value()

    def test_lazy_read_after_schema_break_raises_not_stale_data(self):
        spread = _sales_spread()
        view = spread.create_live_view(self._top_query(), name="top")
        spread.delete_column(1)
        # No intervening edit: the first read triggers the refresh, which
        # detaches — stale pre-break rows must not be served.
        with pytest.raises(QueryExecutionError, match="detached"):
            view.value()
        assert view.detached

    def test_drop_live_view(self):
        spread = _sales_spread()
        view = spread.create_live_view(self._top_query(), name="top")
        spread.drop_live_view("top")
        assert spread.live_views == []
        before = view.refresh_count
        spread.set_value(2, 2, 1)
        assert view.refresh_count == before
        with pytest.raises(KeyError):
            spread.drop_live_view("top")

    def test_bad_query_leaves_no_view_behind(self):
        spread = _sales_spread()
        with pytest.raises(QueryPlanError):
            spread.create_live_view(select(SALES).where(col("nope") == 1))
        assert spread.live_views == []

    def test_rollback_invalidates_pinned_results(self):
        spread = _sales_spread()
        view = spread.create_live_view(self._top_query(), name="top")

        class Boom(Exception):
            pass

        try:
            with spread.batch():
                spread.set_value(3, 2, 5_000)
                # Batch semantics: recompute (views included) is deferred
                # to batch exit, so mid-batch reads serve pre-batch rows.
                assert view.value().rows[0][0] == "delta"
                raise Boom()
        except Boom:
            pass
        assert [tuple(r) for r in view.value().rows] == [
            ("delta", 200), ("alpha", 120)]

    # -- incremental refresh: counts, not clocks ------------------------- #
    def test_point_edit_rereads_one_row(self, monkeypatch):
        spread = _orders_spread()
        view = spread.create_live_view(_top_orders(), name="top")
        reads = _Reads(spread, monkeypatch)
        before = view.refresh_count
        spread.set_value(778, 2, 9_950)  # amount: the row joins the result
        # One row x the two read columns, in one bulk read; no recompile.
        assert (reads.cells, reads.bulk, reads.compiles) == (2, 1, 0)
        assert view.refresh_count == before + 1
        assert (777, 9_950) in view.value().rows
        assert view.value() == _from_scratch(spread, view)

    def test_edits_the_query_does_not_read_cost_nothing(self, monkeypatch):
        spread = _orders_spread()
        view = spread.create_live_view(_top_orders(), name="top")
        reads = _Reads(spread, monkeypatch)
        before = view.refresh_count
        spread.set_value(778, 4, 5)             # qty: not a read column
        spread.set_value(778, 3, "closed")      # status: neither
        spread.set_value(ORDER_ROWS + 50, 2, 9_999)  # below the region
        spread.set_value(778, 9, 9_999)         # right of it
        assert (reads.cells, reads.bulk, reads.compiles) == (0, 0, 0)
        assert view.refresh_count == before
        assert view.value() == _from_scratch(spread, view)

    @pytest.mark.parametrize("invalidate", [
        "header", "insert_row", "delete_row", "aborted_batch",
        "savepoint_rollback", "optimize_storage", "link_table",
    ])
    def test_invalidation_rescans_then_patches_again(self, monkeypatch, invalidate):
        spread = _orders_spread()
        view = spread.create_live_view(_top_orders(), name="top")
        reads = _Reads(spread, monkeypatch)
        if invalidate == "header":
            spread.set_value(1, 4, "quantity")
        elif invalidate == "insert_row":
            spread.insert_row_after(500)
            spread.set_value(501, 2, 9_990)
        elif invalidate == "delete_row":
            spread.delete_row(500)
        elif invalidate == "aborted_batch":
            with pytest.raises(ZeroDivisionError), spread.batch():
                spread.set_value(778, 2, 9_950)
                1 / 0
        elif invalidate == "savepoint_rollback":
            with spread.batch():
                savepoint = spread.savepoint()
                spread.set_value(778, 2, 9_950)
                savepoint.rollback()
        elif invalidate == "optimize_storage":
            spread.optimize_storage("aggressive")
        else:
            spread.link_table("rates", at="H1", columns=["code", "rate"],
                              rows=[("eur", 1.1)])
        # The cache is gone: the next read compiles and rescans ...
        assert view.value() == _from_scratch(spread, view)
        assert reads.compiles == 1
        # ... and the edit after it patches one row again.
        reads.reset()
        spread.set_value(900, 2, 9_960)
        assert (reads.cells, reads.bulk, reads.compiles) == (2, 1, 0)
        assert view.value() == _from_scratch(spread, view)

    def test_header_rename_that_breaks_the_query_detaches(self):
        spread = _orders_spread()
        view = spread.create_live_view(_top_orders(), name="top")
        spread.set_value(1, 2, "total")  # the query filters on "amount"
        assert view.detached

    def test_many_dirty_rows_rescan_once_adjacent_rows_share_a_read(self, monkeypatch):
        spread = _orders_spread()
        view = spread.create_live_view(_top_orders(), name="top")
        reads = _Reads(spread, monkeypatch)
        before = view.refresh_count
        crowd = ORDER_ROWS // views_module.RESCAN_DIVISOR + 1
        spread.set_values((2 * index, 2, 9_901) for index in range(1, crowd + 1))
        # Past the cutoff: one chunked read of the two read columns, not
        # `crowd` single-row reads (and still no recompile).
        assert (reads.cells, reads.bulk, reads.compiles) == (2 * ORDER_ROWS, 2, 0)
        assert view.refresh_count == before + 1
        assert view.value() == _from_scratch(spread, view)

        reads.reset()
        spread.set_values((row, 2, 9_902) for row in (1201, 1202, 1203))
        assert (reads.cells, reads.bulk, reads.compiles) == (6, 1, 0)
        assert view.refresh_count == before + 2
        assert view.value() == _from_scratch(spread, view)

    @pytest.mark.parametrize("shape", ["group", "top3"])
    def test_group_and_sort_views_patch_too(self, monkeypatch, shape):
        spread = _orders_spread()
        source = select(region(ORDERS))
        if shape == "group":
            query = (source.project(col("status"), count(alias="n"),
                                    sum_("amount", alias="total"))
                     .group_by(col("status")))
        else:
            query = (source.project(col("id"), col("amount"))
                     .order_by(col("amount").desc()).limit(3))
        view = spread.create_live_view(query, name=shape)
        reads = _Reads(spread, monkeypatch)
        spread.set_value(778, 2, 123_456.5)   # a float into the sums / the top
        assert (reads.cells, reads.bulk, reads.compiles) == (2, 1, 0)
        assert view.value() == _from_scratch(spread, view)
        spread.set_value(3, 2, 123_456.5)     # a tie, earlier on the sheet
        spread.clear_cell(778, 2)
        spread.set_value(2, 3, "parked")      # a new group, first on the sheet
        assert reads.compiles == 0
        assert view.value() == _from_scratch(spread, view)

    def test_join_view_patches_either_side(self, monkeypatch):
        spread = _orders_spread()
        spread.import_rows([["code", "weight"], ["open", 1], ["overdue", 3],
                            ["closed", 0]], top=1, left=7)
        query = (select(region(ORDERS, name="o"))
                 .join(region("G1:H4", name="s"), on=("status", "code"))
                 .where(col("amount") > 9_900)
                 .project(col("id"), col("amount"), col("weight")))
        view = spread.create_live_view(query, name="weighted")
        reads = _Reads(spread, monkeypatch)
        spread.set_value(778, 2, 9_950)       # probe side reads id..status
        assert (reads.cells, reads.bulk, reads.compiles) == (3, 1, 0)
        assert view.value() == _from_scratch(spread, view)
        reads.reset()
        spread.set_value(3, 8, 7)             # build side: overdue's weight
        # (one of three rows is past the cutoff: that scan is read whole)
        assert (reads.cells, reads.bulk, reads.compiles) == (6, 1, 0)
        assert view.value() == _from_scratch(spread, view)
        spread.set_value(4, 7, "draft")       # a join key changes
        assert reads.compiles == 0
        assert view.value() == _from_scratch(spread, view)

    def test_formula_valued_source_cell_patches_through_its_precedent(self, monkeypatch):
        spread = _orders_spread()
        spread.set_value(1, 9, 10)
        spread.set_formula(778, 2, "=I1*999")
        view = spread.create_live_view(_top_orders(), name="top")
        assert (777, 9_990) in view.value().rows
        reads = _Reads(spread, monkeypatch)
        before = view.refresh_count
        spread.set_value(1, 9, 5)  # outside the region; B778 recomputes
        assert reads.compiles == 0 and view.refresh_count == before + 1
        assert (777, 9_990) not in view.value().rows
        assert view.value() == _from_scratch(spread, view)

    def test_async_view_patches_on_drain(self, monkeypatch):
        spread = _orders_spread(async_recompute=True)
        spread.flush_compute()
        view = spread.create_live_view(_top_orders(), name="top")
        reads = _Reads(spread, monkeypatch)
        before = view.refresh_count
        spread.set_value(778, 2, 9_950)   # acknowledged, not yet refreshed
        spread.set_value(900, 4, 1)       # qty: wakes the view for nothing
        assert view.refresh_count == before
        spread.flush_compute()
        assert (reads.cells, reads.bulk, reads.compiles) == (2, 1, 0)
        assert view.refresh_count == before + 1
        spread.clear_cell(778, 2)
        assert view.value() == _from_scratch(spread, view)
        assert (reads.compiles, view.refresh_count) == (0, before + 2)

    def test_refresh_inside_a_transaction_keeps_no_cache(self, monkeypatch):
        spread = _orders_spread()
        view = spread.create_live_view(_top_orders(), name="top")
        reads = _Reads(spread, monkeypatch)
        with spread.batch():
            spread.insert_row_after(ORDER_ROWS + 10)  # marks the view stale
            spread.set_value(778, 2, 9_950)
            assert (777, 9_950) in view.value().rows   # sees the buffered write
            spread.set_value(900, 2, 9_960)
        # The commit's refresh must not trust rows read inside the batch.
        assert reads.compiles == 2
        assert view.value() == _from_scratch(spread, view)

    def test_spill_lands_as_one_batch(self, monkeypatch):
        spread = _sales_spread()
        spread.create_live_view(
            select(SALES).where(col("amount") > 100)
            .project(col("name"), col("amount")), name="big", at="E1")
        downstream = spread.create_live_view(
            select(region("E1:F7")).where(col("amount") > 150), name="bigger")
        spread.set_formula(1, 8, "=SUM(F1:F10)")
        assert spread.get_value(1, 8) == 320
        evaluations = []
        evaluate_node = spread.evaluator.evaluate_node
        monkeypatch.setattr(
            spread.evaluator, "evaluate_node",
            lambda node: evaluations.append(node) or evaluate_node(node))
        before = downstream.refresh_count
        spread.set_value(3, 2, 500)  # bravo joins: the spill changes 4 cells
        assert downstream.refresh_count == before + 1
        assert len(evaluations) == 1
        assert spread.get_value(1, 8) == 820
        assert [tuple(r) for r in downstream.value().rows] == [
            ("bravo", 500), ("delta", 200)]


class TestServiceSessions:
    def test_session_query_and_live_view(self):
        ws = Workspace()
        writer = ws.open_session("writer")
        reader = ws.open_session("reader")
        writer.set_value(1, 1, "amount")
        for row, amount in enumerate([50, 150, 250], start=2):
            writer.set_value(row, 1, amount)
        ws.flush()
        table = reader.query(select("A1:A5").where(col("amount") > 100))
        assert [r[0] for r in table.rows] == [150, 250]
        reader.create_live_view(
            select("A1:A5").where(col("amount") > 100), name="big")
        writer.set_value(2, 1, 400)
        ws.flush()
        assert [r[0] for r in reader.live_view_value("big").rows] == [400, 150, 250]
        ws.close()

    def test_view_patched_by_another_session_still_sees_the_commit(self):
        """A transaction's buffered rows are invisible to the refresh another
        session's autonomous edit triggers; the commit must report them
        again or the patched view never learns their committed values."""
        ws = Workspace(async_recompute=False)  # the refresh runs in the edit
        owner = ws.open_session("owner")
        other = ws.open_session("other")
        owner.set_value(1, 1, "amount")
        for row, amount in enumerate([50, 150, 250], start=2):
            owner.set_value(row, 1, amount)
        view = other.create_live_view(
            select("A1:A5").where(col("amount") > 100), name="big")
        with owner.batch():
            owner.set_value(2, 1, 400)       # buffered, owner-scoped
            other.set_value(5, 1, 300)       # autonomous: refreshes the view
            assert [r[0] for r in other.live_view_value("big").rows] == [150, 250, 300]
        ws.flush()
        assert [r[0] for r in other.live_view_value("big").rows] == [400, 150, 250, 300]
        assert view.value() == ws._spread.execute(view.query).to_table()
        ws.close()


class TestErrorHierarchy:
    """Satellite: pin the QueryError hierarchy so callers can keep
    catching RelationalOperationError across the sql()/select() split."""

    def test_plan_and_execution_errors_are_query_errors(self):
        assert issubclass(QueryPlanError, QueryError)
        assert issubclass(QueryExecutionError, QueryError)
        assert issubclass(QueryError, RelationalOperationError)
        assert issubclass(RelationalOperationError, ReproError)

    def test_legacy_handlers_still_catch(self):
        spread = _sales_spread()
        with pytest.raises(RelationalOperationError):
            spread.sql("SELECT nope FROM A1:C7")
        with pytest.raises(RelationalOperationError):
            list(spread.execute(select(SALES).where(col("nope") == 1)))
