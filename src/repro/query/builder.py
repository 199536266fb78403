"""The generative ``select()`` construct.

A :class:`Select` is an immutable description of a query; every
refinement method (``where``, ``join``, ``project``, ``group_by``,
``order_by``, ``limit``, ``offset``) returns a *new* ``Select`` with one
more clause, leaving the receiver untouched — the SQLAlchemy generative
style.  A query object carries no engine reference: it is compiled and
executed later, by ``DataSpread.execute`` (or ``create_live_view``),
against whatever catalog it is handed.

>>> q = (select("A1:C100")
...      .where(col("amount") > 100)
...      .order_by(col("amount").desc())
...      .limit(5))

``col("t.amount") > 100`` builds a predicate tree; combine predicates
with ``&`` / ``|`` / ``~`` (Python's ``and``/``or`` cannot be
overloaded).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.errors import QueryPlanError
from repro.grid.range import RangeRef
from repro.query.ast import (
    AggregateItem,
    And,
    ColumnItem,
    ColumnRef,
    Comparison,
    GridRelation,
    JoinSpec,
    Literal,
    Not,
    Or,
    OrderItem,
    Predicate,
    Relation,
    SelectItem,
    TableRelation,
)


# ---------------------------------------------------------------------- #
# column / predicate expression builders
# ---------------------------------------------------------------------- #
def _as_operand(value: Any) -> ColumnRef | Literal:
    if isinstance(value, ColumnExpr):
        return value.ref
    if isinstance(value, (ColumnRef, Literal)):
        return value
    return Literal(value)


@dataclass(frozen=True, slots=True)
class ColumnExpr:
    """A column reference with comparison/ordering sugar.

    ``col("amount") > 100`` returns a :class:`PredicateExpr`;
    ``col("amount").desc()`` an :class:`OrderItem`; ``.as_("alias")`` a
    projected :class:`ColumnItem`.
    """

    ref: ColumnRef

    def _compare(self, op: str, other: Any) -> "PredicateExpr":
        return PredicateExpr(Comparison(op, self.ref, _as_operand(other)))

    def __eq__(self, other: Any) -> "PredicateExpr":  # type: ignore[override]
        return self._compare("=", other)

    def __ne__(self, other: Any) -> "PredicateExpr":  # type: ignore[override]
        return self._compare("<>", other)

    def __lt__(self, other: Any) -> "PredicateExpr":
        return self._compare("<", other)

    def __le__(self, other: Any) -> "PredicateExpr":
        return self._compare("<=", other)

    def __gt__(self, other: Any) -> "PredicateExpr":
        return self._compare(">", other)

    def __ge__(self, other: Any) -> "PredicateExpr":
        return self._compare(">=", other)

    __hash__ = None  # type: ignore[assignment]  # == builds predicates

    def asc(self) -> OrderItem:
        return OrderItem(self.ref, descending=False)

    def desc(self) -> OrderItem:
        return OrderItem(self.ref, descending=True)

    def as_(self, alias: str) -> ColumnItem:
        return ColumnItem(self.ref, alias=alias)


@dataclass(frozen=True, slots=True)
class PredicateExpr:
    """A predicate tree with ``&`` / ``|`` / ``~`` composition."""

    node: Predicate

    def __and__(self, other: "PredicateExpr") -> "PredicateExpr":
        return PredicateExpr(And((self.node, _predicate(other))))

    def __or__(self, other: "PredicateExpr") -> "PredicateExpr":
        return PredicateExpr(Or((self.node, _predicate(other))))

    def __invert__(self) -> "PredicateExpr":
        return PredicateExpr(Not(self.node))

    def __bool__(self) -> bool:
        raise QueryPlanError(
            "predicates combine with & / | / ~, not the boolean operators"
        )


def _predicate(value: "PredicateExpr | Predicate") -> Predicate:
    if isinstance(value, PredicateExpr):
        return value.node
    if isinstance(value, (Comparison, And, Or, Not)):
        return value
    raise QueryPlanError(f"expected a predicate, got {value!r}")


def col(name: str) -> ColumnExpr:
    """Reference a column, optionally qualified: ``col("invoice.amount")``."""
    if not isinstance(name, str) or not name:
        raise QueryPlanError(f"invalid column name {name!r}")
    if "." in name:
        qualifier, _, bare = name.partition(".")
        if not qualifier or not bare:
            raise QueryPlanError(f"invalid qualified column name {name!r}")
        return ColumnExpr(ColumnRef(bare, qualifier))
    return ColumnExpr(ColumnRef(name))


def literal(value: Any) -> Literal:
    """Wrap a constant so it can sit on the left of a comparison."""
    return Literal(value)


# ---------------------------------------------------------------------- #
# aggregate item builders
# ---------------------------------------------------------------------- #
def _aggregate(func: str, column: str | ColumnExpr | None,
               alias: str | None) -> AggregateItem:
    ref = None
    if column is not None:
        ref = column.ref if isinstance(column, ColumnExpr) else col(column).ref
    return AggregateItem(func, ref, alias=alias)


def count(column: str | ColumnExpr | None = None, *, alias: str | None = None) -> AggregateItem:
    """``COUNT(column)``, or ``COUNT(*)`` when no column is given."""
    return _aggregate("COUNT", column, alias)


def sum_(column: str | ColumnExpr, *, alias: str | None = None) -> AggregateItem:
    return _aggregate("SUM", column, alias)


def avg(column: str | ColumnExpr, *, alias: str | None = None) -> AggregateItem:
    return _aggregate("AVG", column, alias)


def min_(column: str | ColumnExpr, *, alias: str | None = None) -> AggregateItem:
    return _aggregate("MIN", column, alias)


def max_(column: str | ColumnExpr, *, alias: str | None = None) -> AggregateItem:
    return _aggregate("MAX", column, alias)


# ---------------------------------------------------------------------- #
# relation helpers
# ---------------------------------------------------------------------- #
def region(ref: RangeRef | str, *, header: bool = True,
           name: str | None = None) -> GridRelation:
    """A sheet region as a relation (A1 string or :class:`RangeRef`)."""
    if isinstance(ref, str):
        ref = RangeRef.from_a1(ref)
    return GridRelation(ref, header=header, name=name)


def table(name: str, *, alias: str | None = None) -> TableRelation:
    """A linked or database table as a relation."""
    return TableRelation(name, name=alias)


def _coerce_relation(source: Any) -> Relation:
    if isinstance(source, (GridRelation, TableRelation)):
        return source
    if isinstance(source, RangeRef):
        return GridRelation(source)
    if isinstance(source, str):
        try:
            return GridRelation(RangeRef.from_a1(source))
        except Exception:
            return TableRelation(source)
    raise QueryPlanError(
        f"cannot query {source!r}: expected a region, a table name, or a relation"
    )


def _coerce_column(value: str | ColumnExpr | ColumnRef) -> ColumnRef:
    if isinstance(value, ColumnRef):
        return value
    if isinstance(value, ColumnExpr):
        return value.ref
    if isinstance(value, str):
        return col(value).ref
    raise QueryPlanError(f"expected a column, got {value!r}")


def _coerce_item(value: Any) -> SelectItem:
    if isinstance(value, (ColumnItem, AggregateItem)):
        return value
    return ColumnItem(_coerce_column(value))


def _coerce_order(value: Any) -> OrderItem:
    if isinstance(value, OrderItem):
        return value
    return OrderItem(_coerce_column(value))


# ---------------------------------------------------------------------- #
# the generative query object
# ---------------------------------------------------------------------- #
@dataclass(frozen=True, slots=True)
class Select:
    """An immutable query description.

    Build one with :func:`select`; refine it with the generative methods,
    each of which returns a new ``Select``.  Execute with
    ``DataSpread.execute(query)`` or register it as a live view with
    ``DataSpread.create_live_view(query)``.
    """

    source: Relation
    predicate: Predicate | None = None
    joins: tuple[JoinSpec, ...] = ()
    items: tuple[SelectItem, ...] | None = None
    group: tuple[ColumnRef, ...] = ()
    order: tuple[OrderItem, ...] = ()
    limit_count: int | None = None
    offset_count: int = 0

    def where(self, *predicates: PredicateExpr) -> "Select":
        """AND one or more predicates onto the query."""
        node = self.predicate
        for item in predicates:
            parsed = _predicate(item)
            node = parsed if node is None else And((node, parsed))
        return replace(self, predicate=node)

    def join(self, other: Any, *, on: Any) -> "Select":
        """Inner equi-join against another relation.

        ``on`` is either a single column name shared by both sides, or a
        ``(left, right)`` pair naming the join key on each side.
        """
        relation = _coerce_relation(other)
        if isinstance(on, tuple):
            if len(on) != 2:
                raise QueryPlanError("join on= pair must be (left_column, right_column)")
            left_on, right_on = (_coerce_column(on[0]), _coerce_column(on[1]))
        else:
            left_on = right_on = _coerce_column(on)
        return replace(self, joins=self.joins + (JoinSpec(relation, left_on, right_on),))

    def project(self, *items: Any) -> "Select":
        """Choose the output columns (columns, aliases, or aggregates)."""
        if not items:
            raise QueryPlanError("project() needs at least one item")
        return replace(self, items=tuple(_coerce_item(item) for item in items))

    def group_by(self, *columns: Any) -> "Select":
        """Group rows for aggregate items."""
        if not columns:
            raise QueryPlanError("group_by() needs at least one column")
        return replace(self, group=tuple(_coerce_column(c) for c in columns))

    def order_by(self, *keys: Any) -> "Select":
        """Order output rows; accepts columns or ``col(...).desc()`` items."""
        if not keys:
            raise QueryPlanError("order_by() needs at least one key")
        return replace(self, order=tuple(_coerce_order(key) for key in keys))

    def limit(self, count: int) -> "Select":
        """Cap the number of output rows."""
        if not isinstance(count, int) or count < 0:
            raise QueryPlanError(f"limit must be a non-negative integer, got {count!r}")
        return replace(self, limit_count=count)

    def offset(self, count: int) -> "Select":
        """Skip the first ``count`` output rows."""
        if not isinstance(count, int) or count < 0:
            raise QueryPlanError(f"offset must be a non-negative integer, got {count!r}")
        return replace(self, offset_count=count)

    def relations(self) -> tuple[Relation, ...]:
        """The base relation followed by every joined relation."""
        return (self.source,) + tuple(spec.relation for spec in self.joins)


def select(source: Any) -> Select:
    """Start a generative query over a region or table.

    ``source`` may be a :class:`RangeRef`, an A1 region string
    (``"A1:C100"``), a table name, or an explicit :func:`region` /
    :func:`table` relation.
    """
    return Select(_coerce_relation(source))
