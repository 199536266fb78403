"""The SQL front-end for the ``sql()`` spreadsheet function.

The paper delegates ``sql(query, param, ...)`` to the backing PostgreSQL
instance.  This substrate implements the SELECT subset the paper's use
cases exercise (Appendix B, Figure 19) — but instead of executing it
directly, :func:`parse_sql` turns the statement into the generative
:class:`~repro.query.builder.Select` that ``DataSpread.sql`` compiles and
runs with the same planner and streaming executor as every ``select()``
query, so the two surfaces share one execution path:

* ``SELECT`` of columns, ``*``, and the aggregates COUNT/SUM/AVG/MIN/MAX
  (with optional ``AS`` aliases); a name is an aggregate only when ``(``
  follows it, so a column called ``count`` or ``max`` selects as a column;
* a single ``FROM`` relation — a linked table by name or a grid region
  in A1 form (``FROM A1:C500``, first row as header) — plus any number
  of ``JOIN ... ON a = b`` (same relation forms);
* ``WHERE`` with ``AND``/``OR``/``NOT`` and parenthesized groups over
  comparisons (=, <>, !=, <, <=, >, >=) — operands may be columns or
  literals on either side;
* ``GROUP BY``, multi-column ``ORDER BY ... [ASC|DESC]`` and ``LIMIT``;
* ``?`` placeholders bound positionally (prepared-statement style) at
  the *token* level, so a ``?`` inside a string literal is never bound;
* string literals quote embedded quotes by doubling (``'it''s'``).

Keywords are case-insensitive; column names resolve case-insensitively
against the available tables, and an ambiguous resolution (several
columns matching, including names differing only in case) is an error
rather than a silent first match.  Malformed statements raise
:class:`~repro.errors.QueryPlanError` (a
:class:`~repro.errors.RelationalOperationError`).
"""

from __future__ import annotations

import re
from typing import Any, Sequence

from repro.errors import QueryPlanError
from repro.grid.cell import CellValue
from repro.grid.range import RangeRef
from repro.query.ast import (
    AGGREGATE_FUNCS,
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
    SelectItem,
    TableRelation,
)
from repro.query.builder import Select


# ---------------------------------------------------------------------- #
# tokenizer
# ---------------------------------------------------------------------- #
_TOKEN_RE = re.compile(
    r"""
    (?P<space>\s+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)?)
  | (?P<symbol><>|!=|<=|>=|[(),*=<>?;.:\-])
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "SELECT", "FROM", "JOIN", "ON", "WHERE", "AND", "OR", "NOT",
    "GROUP", "ORDER", "BY", "ASC", "DESC", "LIMIT", "AS",
    "NULL", "TRUE", "FALSE",
}


def _tokenize(query: str) -> list[tuple[str, Any]]:
    tokens: list[tuple[str, Any]] = []
    position = 0
    while position < len(query):
        match = _TOKEN_RE.match(query, position)
        if match is None:
            raise QueryPlanError(
                f"unsupported character {query[position]!r} in SQL statement"
            )
        position = match.end()
        if match.lastgroup == "space":
            continue
        text = match.group()
        if match.lastgroup == "string":
            tokens.append(("str", text[1:-1].replace("''", "'")))
        elif match.lastgroup == "number":
            tokens.append(("num", float(text) if "." in text or "e" in text.lower()
                           else int(text)))
        elif match.lastgroup == "ident":
            tokens.append(("ident", text))
        else:
            tokens.append(("sym", text))
    return tokens


class _Tokens:
    """A token cursor with keyword-aware helpers."""

    def __init__(self, tokens: list[tuple[str, Any]], query: str) -> None:
        self._tokens = tokens
        self._index = 0
        self.query = query

    def peek(self, ahead: int = 0) -> tuple[str, Any] | None:
        index = self._index + ahead
        return self._tokens[index] if index < len(self._tokens) else None

    def next(self) -> tuple[str, Any]:
        token = self.peek()
        if token is None:
            raise QueryPlanError(f"unexpected end of SQL statement: {self.query!r}")
        self._index += 1
        return token

    def at_keyword(self, *keywords: str) -> bool:
        token = self.peek()
        return (token is not None and token[0] == "ident"
                and token[1].upper() in keywords)

    def take_keyword(self, *keywords: str) -> str | None:
        if self.at_keyword(*keywords):
            return self.next()[1].upper()
        return None

    def expect_keyword(self, keyword: str) -> None:
        if self.take_keyword(keyword) is None:
            raise QueryPlanError(
                f"expected {keyword} in SQL statement near {self.peek()!r}"
            )

    def at_symbol(self, *symbols: str) -> bool:
        token = self.peek()
        return token is not None and token[0] == "sym" and token[1] in symbols

    def take_symbol(self, *symbols: str) -> str | None:
        if self.at_symbol(*symbols):
            return self.next()[1]
        return None

    def expect_symbol(self, symbol: str) -> None:
        if self.take_symbol(symbol) is None:
            raise QueryPlanError(
                f"expected {symbol!r} in SQL statement near {self.peek()!r}"
            )

    def expect_name(self) -> str:
        token = self.next()
        if token[0] != "ident" or token[1].upper() in _KEYWORDS:
            raise QueryPlanError(f"expected a name, got {token[1]!r}")
        return token[1]

    @property
    def exhausted(self) -> bool:
        return self._index >= len(self._tokens)


def _column(name: str) -> ColumnRef:
    if "." in name:
        qualifier, _, bare = name.partition(".")
        return ColumnRef(bare, qualifier)
    return ColumnRef(name)


def _parse_relation(cursor: _Tokens, clause: str) -> GridRelation | TableRelation:
    """A relation in FROM/JOIN: a table name or a grid region (``A1:C500``)."""
    name = cursor.expect_name()
    if cursor.take_symbol(":") is not None:
        text = f"{name}:{cursor.expect_name()}"
        try:
            ref = RangeRef.from_a1(text)
        except Exception as exc:
            raise QueryPlanError(f"unsupported {clause} clause: {text!r}") from exc
        return GridRelation(ref)
    if "." in name:
        raise QueryPlanError(f"unsupported {clause} clause: {name!r}")
    return TableRelation(name)


# ---------------------------------------------------------------------- #
# parsing
# ---------------------------------------------------------------------- #
def parse_sql(query: str, parameters: Sequence[CellValue] = ()) -> Select:
    """Parse a SELECT statement into a generative :class:`Select`.

    ``?`` placeholders are bound to ``parameters`` positionally during
    parsing, so a bound value is always a literal operand — never
    re-parsed text.
    """
    tokens = _tokenize(query)
    placeholder_count = sum(1 for kind, text in tokens if kind == "sym" and text == "?")
    if placeholder_count != len(parameters):
        raise QueryPlanError(
            f"query has {placeholder_count} placeholder(s) "
            f"but {len(parameters)} parameter(s) given"
        )
    cursor = _Tokens(tokens, query)
    bound = list(parameters)

    if cursor.take_keyword("SELECT") is None:
        raise QueryPlanError(f"unsupported SQL statement: {query!r}")

    items = _parse_select_items(cursor)

    cursor.expect_keyword("FROM")
    statement = Select(_parse_relation(cursor, "FROM"))

    joins: list[JoinSpec] = []
    while cursor.take_keyword("JOIN") is not None:
        relation = _parse_relation(cursor, "JOIN")
        cursor.expect_keyword("ON")
        left = _column(cursor.expect_name())
        cursor.expect_symbol("=")
        right = _column(cursor.expect_name())
        joins.append(JoinSpec(relation, left, right))
    if joins:
        statement = Select(statement.source, joins=tuple(joins))

    predicate: Predicate | None = None
    if cursor.take_keyword("WHERE") is not None:
        predicate = _parse_or(cursor, bound)

    group: tuple[ColumnRef, ...] = ()
    if cursor.take_keyword("GROUP") is not None:
        cursor.expect_keyword("BY")
        group = tuple(_parse_name_list(cursor))

    order: tuple[OrderItem, ...] = ()
    if cursor.take_keyword("ORDER") is not None:
        cursor.expect_keyword("BY")
        order = tuple(_parse_order_keys(cursor))

    limit: int | None = None
    if cursor.take_keyword("LIMIT") is not None:
        token = cursor.next()
        if token[0] != "num" or not isinstance(token[1], int):
            raise QueryPlanError(f"LIMIT expects an integer, got {token[1]!r}")
        limit = token[1]

    cursor.take_symbol(";")
    if not cursor.exhausted:
        raise QueryPlanError(
            f"unsupported trailing SQL near {cursor.peek()[1]!r} in {query!r}"
        )

    return Select(
        source=statement.source,
        joins=statement.joins,
        predicate=predicate,
        items=items,
        group=group,
        order=order,
        limit_count=limit,
    )


def _parse_select_items(cursor: _Tokens) -> tuple[SelectItem, ...] | None:
    if cursor.take_symbol("*") is not None:
        if not cursor.at_keyword("FROM"):
            raise QueryPlanError("'*' must be the only select item")
        return None
    items: list[SelectItem] = []
    while True:
        items.append(_parse_select_item(cursor))
        if cursor.take_symbol(",") is None:
            break
    return tuple(items)


def _parse_select_item(cursor: _Tokens) -> SelectItem:
    token = cursor.peek()
    if token is None:
        raise QueryPlanError("unexpected end of select list")
    if (token[0] == "ident" and token[1].upper() in AGGREGATE_FUNCS
            and cursor.peek(1) == ("sym", "(")):
        func = cursor.next()[1].upper()
        cursor.expect_symbol("(")
        if cursor.take_symbol("*") is not None:
            argument: ColumnRef | None = None
            argument_text = "*"
        else:
            argument_text = cursor.expect_name()
            argument = _column(argument_text)
        cursor.expect_symbol(")")
        alias = _parse_alias(cursor)
        if alias is None:
            # Default names: count_all, sum_invoice_amount, ...
            alias = f"{func.lower()}_{argument_text.replace('.', '_').replace('*', 'all')}"
        return AggregateItem(func, argument, alias=alias)
    name = cursor.expect_name()
    alias = _parse_alias(cursor)
    return ColumnItem(_column(name), alias=alias)


def _parse_alias(cursor: _Tokens) -> str | None:
    if cursor.take_keyword("AS") is not None:
        return cursor.expect_name()
    return None


def _parse_name_list(cursor: _Tokens) -> list[ColumnRef]:
    names = [_column(cursor.expect_name())]
    while cursor.take_symbol(",") is not None:
        names.append(_column(cursor.expect_name()))
    return names


def _parse_order_keys(cursor: _Tokens) -> list[OrderItem]:
    keys: list[OrderItem] = []
    while True:
        column = _column(cursor.expect_name())
        descending = False
        direction = cursor.take_keyword("ASC", "DESC")
        if direction == "DESC":
            descending = True
        keys.append(OrderItem(column, descending=descending))
        if cursor.take_symbol(",") is None:
            break
    return keys


# WHERE grammar: or_expr := and_expr (OR and_expr)*
#                and_expr := not_expr (AND not_expr)*
#                not_expr := [NOT] primary
#                primary := '(' or_expr ')' | operand op operand
def _parse_or(cursor: _Tokens, bound: list[CellValue]) -> Predicate:
    node = _parse_and(cursor, bound)
    items = [node]
    while cursor.take_keyword("OR") is not None:
        items.append(_parse_and(cursor, bound))
    return items[0] if len(items) == 1 else Or(tuple(items))


def _parse_and(cursor: _Tokens, bound: list[CellValue]) -> Predicate:
    items = [_parse_not(cursor, bound)]
    while cursor.take_keyword("AND") is not None:
        items.append(_parse_not(cursor, bound))
    return items[0] if len(items) == 1 else And(tuple(items))


def _parse_not(cursor: _Tokens, bound: list[CellValue]) -> Predicate:
    if cursor.take_keyword("NOT") is not None:
        return Not(_parse_not(cursor, bound))
    return _parse_primary(cursor, bound)


def _parse_primary(cursor: _Tokens, bound: list[CellValue]) -> Predicate:
    if cursor.take_symbol("(") is not None:
        node = _parse_or(cursor, bound)
        cursor.expect_symbol(")")
        return node
    left = _parse_operand(cursor, bound)
    operator = cursor.take_symbol("=", "<>", "!=", "<=", ">=", "<", ">")
    if operator is None:
        raise QueryPlanError(
            f"unsupported WHERE condition near {cursor.peek()!r}"
        )
    if operator == "!=":
        operator = "<>"
    right = _parse_operand(cursor, bound)
    return Comparison(operator, left, right)


def _parse_operand(cursor: _Tokens, bound: list[CellValue]) -> ColumnRef | Literal:
    token = cursor.next()
    if token[0] == "str":
        return Literal(token[1])
    if token[0] == "num":
        return Literal(token[1])
    if token[0] == "sym" and token[1] == "?":
        return Literal(bound.pop(0))
    if token[0] == "sym" and token[1] == "-":
        number = cursor.next()
        if number[0] != "num":
            raise QueryPlanError(f"unsupported literal: -{number[1]!r}")
        return Literal(-number[1])
    if token[0] == "ident":
        upper = token[1].upper()
        if upper == "NULL":
            return Literal(None)
        if upper == "TRUE":
            return Literal(True)
        if upper == "FALSE":
            return Literal(False)
        if upper in _KEYWORDS:
            raise QueryPlanError(f"unsupported operand {token[1]!r}")
        return _column(token[1])
    raise QueryPlanError(f"unsupported literal: {token[1]!r}")
