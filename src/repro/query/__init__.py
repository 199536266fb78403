"""The generative relational query subsystem.

Compose immutable queries over sheet regions and linked tables in the
SQLAlchemy generative style, compile them with a pushdown planner, and
stream the results — or pin them as live views that recompute reactively
when source cells change:

>>> from repro.query import select, col
>>> q = (select("A1:C100")
...      .where((col("amount") > 100) | (col("status") == "overdue"))
...      .order_by(col("amount").desc())
...      .limit(10))
>>> spread.execute(q).to_table()          # doctest: +SKIP
>>> view = spread.create_live_view(q)     # doctest: +SKIP

The SQL front-end (:func:`repro.query.sql.parse_sql`, behind the
spreadsheet's ``sql()`` function, ``DataSpread.sql``) parses into the same
AST and runs through the same planner/executor.  A drained result is a
:class:`TableValue`.
"""

from repro.query.ast import (
    AggregateItem,
    ColumnItem,
    ColumnRef,
    GridRelation,
    Literal,
    OrderItem,
    TableRelation,
)
from repro.query.builder import (
    Select,
    avg,
    col,
    count,
    literal,
    max_,
    min_,
    region,
    select,
    sum_,
    table,
)
from repro.query.executor import QueryResult, TableValue, run_plan
from repro.query.planner import Catalog, Plan, compile_select
from repro.query.views import LiveView

__all__ = [
    "AggregateItem",
    "Catalog",
    "ColumnItem",
    "ColumnRef",
    "GridRelation",
    "Literal",
    "LiveView",
    "OrderItem",
    "Plan",
    "QueryResult",
    "Select",
    "TableRelation",
    "TableValue",
    "avg",
    "col",
    "compile_select",
    "count",
    "literal",
    "max_",
    "min_",
    "region",
    "run_plan",
    "select",
    "sum_",
    "table",
]
