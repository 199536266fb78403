"""Compile a :class:`~repro.query.builder.Select` into an executable plan.

The planner does all the name resolution and all the pushdown, so the
executor (:mod:`repro.query.executor`) is a dumb iterator pipeline:

* **Schema resolution.**  Every relation gets a schema: a grid region's
  columns come from its header row (one single-row bulk read at plan
  time; a blank header cell is named by its column letter) or its sheet
  column letters; a table's from its stored schema — the planner reads no
  table row.  Column references resolve case-insensitively; a reference
  matching more than one column is an error (never a silent first-match),
  and qualifiers must name a relation alias.
* **Predicate pushdown.**  The WHERE tree is split into top-level AND
  conjuncts; a conjunct whose columns all belong to one relation is
  pushed into that relation's scan (evaluated per streamed row, before
  any join), the rest run as a residual filter after the joins.
* **Projection pushdown.**  Only the columns a query actually touches
  (outputs, predicates, join keys, grouping) are read: a grid scan
  narrows its bulk ``grid_values`` reads to those sheet columns, so a
  six-column region queried on two columns reads two column strips.

Plan-time failures raise :class:`~repro.errors.QueryPlanError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Protocol

from repro.errors import QueryPlanError
from repro.grid.address import column_index_to_letter
from repro.grid.range import RangeRef
from repro.query.ast import (
    AggregateItem,
    And,
    ColumnItem,
    ColumnRef,
    Comparison,
    GridRelation,
    Literal,
    Not,
    Or,
    Predicate,
    Relation,
    TableRelation,
    conjuncts,
    predicate_columns,
)
from repro.query.builder import Select
from repro.storage.database import Table


class Catalog(Protocol):
    """What the planner/executor need from an engine (duck-typed)."""

    def grid_values(self, region: RangeRef) -> list[Any]:
        """A region's values as one dense row-major block, ``region.area``
        long with ``None`` for a blank cell (the engine's one range read)."""

    def resolve_table(self, name: str) -> Table:
        """The stored table of that name (read, never copied)."""

    def table_region(self, name: str) -> RangeRef | None:
        """The grid footprint of a linked table (``None`` if off-grid)."""


# ---------------------------------------------------------------------- #
# resolved schemas
# ---------------------------------------------------------------------- #
@dataclass(frozen=True, slots=True)
class RelationSchema:
    """One relation's resolved shape."""

    alias: str | None
    names: tuple[str, ...]       # bare output column names
    kind: str                    # "grid" | "table"
    region: RangeRef | None      # grid footprint (grid relations / linked tables)
    table_name: str | None
    header: bool


def _grid_schema(rel: GridRelation, catalog: Catalog) -> RelationSchema:
    region = rel.region
    letters = tuple(
        column_index_to_letter(column)
        for column in range(region.left, region.right + 1)
    )
    if not rel.header:
        names = letters
    else:
        if region.rows < 1:
            raise QueryPlanError(
                f"region {region.to_a1()} has no header row"
            )
        header_row = RangeRef(region.top, region.left, region.top, region.right)
        names = tuple(
            str(value) if value not in (None, "") else letter
            for value, letter in zip(catalog.grid_values(header_row), letters)
        )
    return RelationSchema(
        alias=rel.name, names=names, kind="grid", region=region,
        table_name=None, header=rel.header,
    )


def _table_schema(rel: TableRelation, catalog: Catalog) -> RelationSchema:
    names = catalog.resolve_table(rel.table).schema.column_names
    return RelationSchema(
        alias=rel.alias, names=names, kind="table",
        region=catalog.table_region(rel.table), table_name=rel.table,
        header=True,
    )


def _schema_of(rel: Relation, catalog: Catalog) -> RelationSchema:
    if isinstance(rel, GridRelation):
        return _grid_schema(rel, catalog)
    return _table_schema(rel, catalog)


def _available(schemas: Iterable[tuple[int, RelationSchema]]) -> list[str]:
    names: list[str] = []
    for _, schema in schemas:
        for name in schema.names:
            names.append(f"{schema.alias}.{name}" if schema.alias else name)
    return names


def _resolve(ref: ColumnRef,
             schemas: list[tuple[int, RelationSchema]]) -> tuple[int, int]:
    """Resolve a column reference to ``(relation index, column index)``.

    Matching is case-insensitive on both the name and the qualifier.  A
    reference matching several columns — including columns differing only
    in case — is ambiguous and raises instead of silently picking the
    first match.
    """
    target = ref.name.lower()
    qualifier = ref.qualifier.lower() if ref.qualifier else None
    candidates: list[tuple[int, int]] = []
    for index, schema in schemas:
        if qualifier is not None and (schema.alias or "").lower() != qualifier:
            continue
        for position, name in enumerate(schema.names):
            if name.lower() == target:
                candidates.append((index, position))
    if len(candidates) == 1:
        return candidates[0]
    if not candidates:
        raise QueryPlanError(
            f"unknown column {ref.display!r}; available: {_available(schemas)}"
        )
    raise QueryPlanError(
        f"ambiguous column {ref.display!r}: matches "
        f"{[_name_at(schemas, candidate) for candidate in candidates]}"
    )


def _name_at(schemas: list[tuple[int, RelationSchema]], slot: tuple[int, int]) -> str:
    for index, schema in schemas:
        if index == slot[0]:
            name = schema.names[slot[1]]
            return f"{schema.alias}.{name}" if schema.alias else name
    raise AssertionError("unreachable")  # pragma: no cover


# ---------------------------------------------------------------------- #
# compiled plan pieces
# ---------------------------------------------------------------------- #
RowPredicate = Callable[[tuple], bool]

#: Rows per chunked grid read.  Small enough that ``LIMIT n`` touches a
#: sliver of a million-row region, large enough to amortise the bulk-read
#: call overhead.
CHUNK_ROWS = 1024


@dataclass(slots=True)
class GridScanOp:
    """Chunked, pushdown-filtered streaming read of a sheet region."""

    region: RangeRef                 # full relation footprint
    data_top: int                    # first data row (skips the header row)
    columns: tuple[int, ...]         # absolute sheet columns read, ascending
    runs: tuple[tuple[int, int], ...]  # contiguous column runs covering them
    predicate: RowPredicate | None   # pushed predicate over the local tuple
    chunk_rows: int = CHUNK_ROWS


@dataclass(slots=True)
class TableScanOp:
    """Filtered projection over a stored table's rows."""

    table_name: str
    indices: tuple[int, ...]         # column positions kept
    predicate: RowPredicate | None


ScanOp = GridScanOp | TableScanOp


@dataclass(slots=True)
class JoinOp:
    """Inner hash equi-join: probe the streamed left side."""

    scan: ScanOp
    left_slot: int        # key position in the accumulated left tuple
    right_position: int   # key position in the scan's local tuple


@dataclass(slots=True)
class AggregateSpec:
    """One aggregate output: ``func`` over a slot (``None`` = COUNT(*))."""

    func: str
    slot: int | None


@dataclass(slots=True)
class GroupOp:
    """Hash grouping; output items are group slots or aggregates."""

    group_slots: tuple[int, ...]
    items: tuple[tuple[str, int | AggregateSpec], ...]  # ("col", slot) | ("agg", spec)


@dataclass(slots=True)
class Plan:
    """A compiled query, ready for :func:`repro.query.executor.run_plan`."""

    base: ScanOp
    joins: tuple[JoinOp, ...]
    residual: RowPredicate | None
    group: GroupOp | None
    projection: tuple[int, ...] | None   # slots to keep (None = pass through)
    order: tuple[tuple[int, bool], ...]  # (output column index, descending)
    offset: int
    limit: int | None
    output_columns: tuple[str, ...]
    explain_lines: tuple[str, ...] = field(default=())

    @property
    def streams(self) -> bool:
        """Whether rows flow straight through (no sort/group barrier)."""
        return self.group is None and not self.order

    def explain(self) -> str:
        return "\n".join(self.explain_lines)


# ---------------------------------------------------------------------- #
# predicate compilation
# ---------------------------------------------------------------------- #
def compare_values(op: str, left: Any, right: Any) -> bool:
    """SQL-flavoured comparison: NULL never orders, type clashes are False."""
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if left is None or right is None:
        return False
    try:
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        return left >= right
    except TypeError:
        return False


def _compile_predicate(node: Predicate,
                       slot_of: Callable[[ColumnRef], int]) -> RowPredicate:
    if isinstance(node, Comparison):
        op = node.op
        left, right = node.left, node.right
        if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
            li, ri = slot_of(left), slot_of(right)
            return lambda row: compare_values(op, row[li], row[ri])
        if isinstance(left, ColumnRef):
            index, value = slot_of(left), right.value
            return lambda row: compare_values(op, row[index], value)
        if isinstance(right, ColumnRef):
            index, value = slot_of(right), left.value
            return lambda row: compare_values(op, value, row[index])
        constant = compare_values(op, left.value, right.value)
        return lambda row: constant
    if isinstance(node, And):
        parts = [_compile_predicate(item, slot_of) for item in node.items]
        return lambda row: all(part(row) for part in parts)
    if isinstance(node, Or):
        parts = [_compile_predicate(item, slot_of) for item in node.items]
        return lambda row: any(part(row) for part in parts)
    if isinstance(node, Not):
        inner = _compile_predicate(node.item, slot_of)
        return lambda row: not inner(row)
    raise QueryPlanError(f"unsupported predicate node {node!r}")  # pragma: no cover


def _conjoin(parts: list[RowPredicate]) -> RowPredicate | None:
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    return lambda row: all(part(row) for part in parts)


# ---------------------------------------------------------------------- #
# the planner
# ---------------------------------------------------------------------- #
def contiguous_runs(lines: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """The maximal ``(first, last)`` runs of consecutive integers in an
    ascending sequence (sheet columns of a scan, dirty rows of a patch)."""
    runs: list[tuple[int, int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], line)
        else:
            runs.append((line, line))
    return tuple(runs)


def compile_select(query: Select, catalog: Catalog) -> Plan:
    """Resolve, push down, and compile one query."""
    relations = query.relations()
    schemas = [_schema_of(rel, catalog) for rel in relations]
    indexed = list(enumerate(schemas))

    def resolve(ref: ColumnRef, scope: list[tuple[int, RelationSchema]] | None = None):
        return _resolve(ref, scope if scope is not None else indexed)

    # ------------------------------------------------------------------ #
    # resolve join keys (left key sees only earlier relations)
    # ------------------------------------------------------------------ #
    join_keys: list[tuple[tuple[int, int], tuple[int, int]]] = []
    for position, spec in enumerate(query.joins, start=1):
        left = resolve(spec.left_on, indexed[:position])
        right = resolve(spec.right_on, [indexed[position]])
        join_keys.append((left, right))

    # ------------------------------------------------------------------ #
    # split WHERE into pushable conjuncts and a residual
    # ------------------------------------------------------------------ #
    pushed: dict[int, list[Predicate]] = {}
    residual_nodes: list[Predicate] = []
    for conjunct in conjuncts(query.predicate):
        touched = {resolve(ref)[0] for ref in predicate_columns(conjunct)}
        if len(touched) == 1:
            pushed.setdefault(touched.pop(), []).append(conjunct)
        else:
            residual_nodes.append(conjunct)

    # ------------------------------------------------------------------ #
    # projection + needed-column analysis
    # ------------------------------------------------------------------ #
    star = query.items is None
    if star and query.group:
        raise QueryPlanError("SELECT * cannot be combined with GROUP BY")
    has_aggregate = not star and any(
        isinstance(item, AggregateItem) for item in query.items
    )
    if query.group and not has_aggregate:
        raise QueryPlanError("GROUP BY requires at least one aggregate item")

    needed: dict[int, set[int]] = {index: set() for index, _ in indexed}
    if star:
        for index, schema in indexed:
            needed[index] = set(range(len(schema.names)))

    def need(slot: tuple[int, int]) -> tuple[int, int]:
        needed[slot[0]].add(slot[1])
        return slot

    item_slots: list[tuple[str, Any, str]] = []  # ("col"|"agg", payload, name)
    if not star:
        for item in query.items:
            if isinstance(item, ColumnItem):
                item_slots.append(("col", need(resolve(item.column)), item.output_name))
            else:
                slot = need(resolve(item.column)) if item.column is not None else None
                item_slots.append(("agg", (item.func, slot), item.output_name))
    group_slots = [need(resolve(ref)) for ref in query.group]
    for node in residual_nodes:
        for ref in predicate_columns(node):
            need(resolve(ref))
    for conjunct_list in pushed.values():
        for node in conjunct_list:
            for ref in predicate_columns(node):
                need(resolve(ref))
    for left, right in join_keys:
        need(left)
        need(right)

    # ------------------------------------------------------------------ #
    # slot layout: concatenated needed columns, relation by relation
    # ------------------------------------------------------------------ #
    local_order: dict[int, list[int]] = {
        index: sorted(needed[index]) for index, _ in indexed
    }
    slot_index: dict[tuple[int, int], int] = {}
    slot_names: list[str] = []
    for index, schema in indexed:
        for position in local_order[index]:
            slot_index[(index, position)] = len(slot_names)
            slot_names.append(schema.names[position])

    def global_slot(ref: ColumnRef,
                    scope: list[tuple[int, RelationSchema]] | None = None) -> int:
        return slot_index[resolve(ref, scope)]

    # ------------------------------------------------------------------ #
    # compile scans
    # ------------------------------------------------------------------ #
    explain: list[str] = []

    def build_scan(index: int) -> ScanOp:
        schema = schemas[index]
        local = local_order[index]

        def local_slot(ref: ColumnRef) -> int:
            rel_index, position = resolve(ref, [indexed[index]])
            return local.index(position)

        predicate = _conjoin([
            _compile_predicate(node, local_slot) for node in pushed.get(index, [])
        ])
        pushdown = [_describe_predicate(node) for node in pushed.get(index, [])]
        if schema.kind == "grid":
            region = schema.region
            columns = tuple(region.left + position for position in local)
            scan = GridScanOp(
                region=region,
                data_top=region.top + (1 if schema.header else 0),
                columns=columns,
                runs=contiguous_runs(columns),
                predicate=predicate,
            )
            explain.append(
                f"scan grid {region.to_a1()} "
                f"columns=[{', '.join(schema.names[p] for p in local)}]"
                + (f" pushdown=[{' AND '.join(pushdown)}]" if pushdown else "")
            )
            return scan
        explain.append(
            f"scan table {schema.table_name!r} "
            f"columns=[{', '.join(schema.names[p] for p in local)}]"
            + (f" pushdown=[{' AND '.join(pushdown)}]" if pushdown else "")
        )
        return TableScanOp(
            table_name=schema.table_name, indices=tuple(local), predicate=predicate,
        )

    base = build_scan(0)
    joins: list[JoinOp] = []
    for position, (left, right) in enumerate(join_keys, start=1):
        scan = build_scan(position)
        joins.append(JoinOp(
            scan=scan,
            left_slot=slot_index[left],
            right_position=local_order[position].index(right[1]),
        ))
        explain.append(
            f"hash-join {_name_at(indexed, right)} = {_name_at(indexed, left)}"
        )

    residual = _conjoin([
        _compile_predicate(node, lambda ref: global_slot(ref))
        for node in residual_nodes
    ])
    if residual_nodes:
        explain.append(
            f"filter [{' AND '.join(_describe_predicate(n) for n in residual_nodes)}]"
        )

    # ------------------------------------------------------------------ #
    # grouping / projection
    # ------------------------------------------------------------------ #
    group_op: GroupOp | None = None
    projection: tuple[int, ...] | None = None
    if star:
        output_columns = tuple(slot_names)
    elif has_aggregate or query.group:
        group_positions = tuple(slot_index[slot] for slot in group_slots)
        items: list[tuple[str, int | AggregateSpec]] = []
        for kind, payload, _name in item_slots:
            if kind == "col":
                slot = slot_index[payload]
                if group_positions and slot not in group_positions:
                    raise QueryPlanError(
                        f"column {_name_at(indexed, payload)!r} must appear in GROUP BY"
                    )
                items.append(("col", slot))
            else:
                func, agg_slot = payload
                items.append(("agg", AggregateSpec(
                    func, slot_index[agg_slot] if agg_slot is not None else None
                )))
        group_op = GroupOp(group_slots=group_positions, items=tuple(items))
        output_columns = tuple(name for _, _, name in item_slots)
        explain.append(
            "group by [" + ", ".join(slot_names[s] for s in group_positions) + "]"
            if group_positions else "aggregate all rows"
        )
    else:
        projection = tuple(slot_index[payload] for _, payload, _name in item_slots)
        output_columns = tuple(name for _, _, name in item_slots)

    # ------------------------------------------------------------------ #
    # ordering (resolves against the *output* columns, like SQL aliases)
    # ------------------------------------------------------------------ #
    order: list[tuple[int, bool]] = []
    for item in query.order:
        matches = [
            position for position, name in enumerate(output_columns)
            if name.lower() == item.column.name.lower()
        ]
        if not matches:
            raise QueryPlanError(
                f"unknown column {item.column.display!r}; "
                f"available: {list(output_columns)}"
            )
        if len(matches) > 1:
            raise QueryPlanError(
                f"ambiguous column {item.column.display!r}: matches "
                f"{[output_columns[m] for m in matches]}"
            )
        order.append((matches[0], item.descending))
    if order:
        explain.append("sort [" + ", ".join(
            f"{output_columns[position]}{' desc' if descending else ''}"
            for position, descending in order
        ) + "]")
    if query.limit_count is not None or query.offset_count:
        explain.append(
            f"limit {query.limit_count}"
            + (f" offset {query.offset_count}" if query.offset_count else "")
        )

    return Plan(
        base=base,
        joins=tuple(joins),
        residual=residual,
        group=group_op,
        projection=projection,
        order=tuple(order),
        offset=query.offset_count,
        limit=query.limit_count,
        output_columns=output_columns,
        explain_lines=tuple(explain),
    )


def _describe_operand(side: ColumnRef | Literal) -> str:
    if isinstance(side, ColumnRef):
        return side.display
    return repr(side.value)


def _describe_predicate(node: Predicate) -> str:
    if isinstance(node, Comparison):
        return f"{_describe_operand(node.left)} {node.op} {_describe_operand(node.right)}"
    if isinstance(node, And):
        return "(" + " AND ".join(_describe_predicate(item) for item in node.items) + ")"
    if isinstance(node, Or):
        return "(" + " OR ".join(_describe_predicate(item) for item in node.items) + ")"
    return f"NOT ({_describe_predicate(node.item)})"
