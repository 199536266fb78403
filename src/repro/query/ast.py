"""The query AST: relations, scalar expressions, and select items.

Everything here is an immutable value object.  The generative builder
(:mod:`repro.query.builder`) assembles these nodes, the planner
(:mod:`repro.query.planner`) resolves and rearranges them, and the
executor (:mod:`repro.query.executor`) evaluates them against streamed
rows.  Nothing in this module touches the engine.

Expressions follow the SQLAlchemy convention: ``col("amount") > 100``
returns a :class:`Comparison` node rather than a bool, and the bitwise
operators ``&``, ``|`` and ``~`` combine predicates (Python's ``and`` /
``or`` cannot be overloaded).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import QueryPlanError
from repro.grid.range import RangeRef

#: Comparison operators understood by predicates, in SQL spelling.
COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=")

#: Aggregate functions understood by select items, in SQL spelling.
AGGREGATE_FUNCS = ("COUNT", "SUM", "AVG", "MIN", "MAX")


# ---------------------------------------------------------------------- #
# relations
# ---------------------------------------------------------------------- #
@dataclass(frozen=True, slots=True)
class GridRelation:
    """A rectangular sheet region read as a relation.

    With ``header=True`` the region's first row supplies the column
    names; otherwise the columns are named after their sheet letters
    (``"A"``, ``"B"``, ...).  ``name`` is the optional alias used for
    qualified column references (``col("t.amount")``).
    """

    region: RangeRef
    header: bool = True
    name: str | None = None


@dataclass(frozen=True, slots=True)
class TableRelation:
    """A named table — linked on the grid or resolved from the database."""

    table: str
    name: str | None = None

    @property
    def alias(self) -> str:
        return self.name or self.table


Relation = GridRelation | TableRelation


# ---------------------------------------------------------------------- #
# scalar expressions
# ---------------------------------------------------------------------- #
@dataclass(frozen=True, slots=True)
class ColumnRef:
    """A (possibly qualified) column name, unresolved until plan time."""

    name: str
    qualifier: str | None = None

    @property
    def display(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True, slots=True)
class Literal:
    """A constant value (number, string, bool, or ``None``)."""

    value: Any


@dataclass(frozen=True, slots=True)
class Comparison:
    """``left <op> right`` where either side is a column or a literal."""

    op: str
    left: "ColumnRef | Literal"
    right: "ColumnRef | Literal"

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise QueryPlanError(f"unknown comparison operator {self.op!r}")


@dataclass(frozen=True, slots=True)
class And:
    """Conjunction of predicate nodes."""

    items: tuple["Predicate", ...]


@dataclass(frozen=True, slots=True)
class Or:
    """Disjunction of predicate nodes."""

    items: tuple["Predicate", ...]


@dataclass(frozen=True, slots=True)
class Not:
    """Negation of one predicate node."""

    item: "Predicate"


Predicate = Comparison | And | Or | Not


def conjuncts(predicate: Predicate | None) -> tuple[Predicate, ...]:
    """Flatten a predicate into its top-level AND conjuncts."""
    if predicate is None:
        return ()
    if isinstance(predicate, And):
        result: list[Predicate] = []
        for item in predicate.items:
            result.extend(conjuncts(item))
        return tuple(result)
    return (predicate,)


def predicate_columns(predicate: Predicate) -> tuple[ColumnRef, ...]:
    """Every column reference mentioned anywhere in a predicate."""
    if isinstance(predicate, Comparison):
        return tuple(
            side for side in (predicate.left, predicate.right)
            if isinstance(side, ColumnRef)
        )
    if isinstance(predicate, (And, Or)):
        columns: list[ColumnRef] = []
        for item in predicate.items:
            columns.extend(predicate_columns(item))
        return tuple(columns)
    return predicate_columns(predicate.item)


# ---------------------------------------------------------------------- #
# select items / ordering
# ---------------------------------------------------------------------- #
@dataclass(frozen=True, slots=True)
class ColumnItem:
    """A projected column, optionally renamed in the output."""

    column: ColumnRef
    alias: str | None = None

    @property
    def output_name(self) -> str:
        return self.alias or self.column.name


@dataclass(frozen=True, slots=True)
class AggregateItem:
    """An aggregate over a column (or ``COUNT(*)`` when ``column is None``)."""

    func: str
    column: ColumnRef | None
    alias: str | None = None

    def __post_init__(self) -> None:
        if self.func not in AGGREGATE_FUNCS:
            raise QueryPlanError(f"unknown aggregate function {self.func!r}")
        if self.column is None and self.func != "COUNT":
            raise QueryPlanError(f"{self.func}(*) is not supported; name a column")

    @property
    def output_name(self) -> str:
        if self.alias:
            return self.alias
        if self.column is None:
            return "count_all"
        return f"{self.func.lower()}_{self.column.name}"


SelectItem = ColumnItem | AggregateItem


@dataclass(frozen=True, slots=True)
class OrderItem:
    """One ORDER BY key."""

    column: ColumnRef
    descending: bool = False


@dataclass(frozen=True, slots=True)
class JoinSpec:
    """An inner equi-join against another relation.

    ``left_on`` names a column of the accumulated left side (the base
    relation plus earlier joins); ``right_on`` a column of ``relation``.
    """

    relation: Relation
    left_on: ColumnRef
    right_on: ColumnRef
    residual: tuple[Predicate, ...] = field(default=())
