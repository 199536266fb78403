"""Streaming executor for compiled query plans.

Every stage is a generator over plain row tuples: scan → hash-join →
residual filter → (group | project) → sort → offset/limit.  Nothing
materialises an intermediate :class:`~repro.engine.relational.TableValue`
— the only barriers are the ones the semantics force (a hash join's
build side, grouping, and sorting).  When a plan ``streams`` (no group,
no sort), ``LIMIT n`` short-circuits the pipeline: a grid scan reads its
region in row chunks and simply stops issuing bulk reads once ``n`` rows
have flowed out the end, which is what makes ``select().where().limit()``
over a million-row region cheap.

Execution-time failures (a sort over incomparable values, a scan against
a catalog with no grid) raise
:class:`~repro.errors.QueryExecutionError`.
"""

from __future__ import annotations

from functools import partial
from itertools import islice
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from repro.errors import QueryExecutionError
from repro.grid.range import RangeRef

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.relational import TableValue
from repro.query.planner import (
    AggregateSpec,
    Catalog,
    GridScanOp,
    GroupOp,
    JoinOp,
    Plan,
    ScanOp,
    TableScanOp,
)

#: Where a scan's rows come from (its local tuples, in relation order).
RowSource = Callable[[ScanOp], Iterable[tuple]]


# ---------------------------------------------------------------------- #
# scans
# ---------------------------------------------------------------------- #
def grid_rows(scan: GridScanOp, catalog: Catalog, top: int | None = None,
              bottom: int | None = None) -> Iterator[tuple[int, tuple]]:
    """Chunked streaming read of a grid region's data rows ``top..bottom``
    (by default all of them).

    Yields ``(sheet row, local tuple)`` for every row that passes the
    pushed predicate (empty cells read as ``None``), in row order.  Reads
    happen one row-chunk at a time, one dense ``grid_values`` block per
    contiguous column run — none at all for a scan that projects no column
    (a bare ``COUNT(*)``) — so a downstream ``LIMIT`` stops the reads
    early, and a row is the runs' slices of it side by side.  This is the
    one body that turns cells into rows: a query's scan, a live view's
    first fill and its dirty-row patch all read through it, so a patched
    row and a scanned row cannot differ.
    """
    top = scan.data_top if top is None else top
    bottom = scan.region.bottom if bottom is None else bottom
    predicate = scan.predicate
    for chunk_top in range(top, bottom + 1, scan.chunk_rows):
        chunk_bottom = min(chunk_top + scan.chunk_rows - 1, bottom)
        strips = [
            (catalog.grid_values(RangeRef(chunk_top, left, chunk_bottom, right)),
             right - left + 1)
            for left, right in scan.runs
        ]
        for offset in range(chunk_bottom - chunk_top + 1):
            row: tuple = ()
            for block, width in strips:
                row += tuple(block[offset * width:(offset + 1) * width])
            if predicate is None or predicate(row):
                yield chunk_top + offset, row


def _table_rows(scan: TableScanOp, catalog: Catalog) -> Iterator[tuple]:
    table = catalog.resolve_table(scan.table_name)
    indices = scan.indices
    predicate = scan.predicate
    for record in table.rows:
        row = tuple(record[index] for index in indices)
        if predicate is None or predicate(row):
            yield row


def _scan_rows(scan: ScanOp, catalog: Catalog) -> Iterator[tuple]:
    if isinstance(scan, GridScanOp):
        return (row for _, row in grid_rows(scan, catalog))
    return _table_rows(scan, catalog)


# ---------------------------------------------------------------------- #
# joins / grouping / ordering
# ---------------------------------------------------------------------- #
def _join(rows: Iterator[tuple], join: JoinOp,
          right_rows: Iterable[tuple]) -> Iterator[tuple]:
    by_key: dict[Any, list[tuple]] = {}
    for right_row in right_rows:
        by_key.setdefault(right_row[join.right_position], []).append(right_row)
    left_slot = join.left_slot
    for left_row in rows:
        for right_row in by_key.get(left_row[left_slot], ()):
            yield left_row + right_row


def _aggregate(spec: AggregateSpec, members: list[tuple]) -> Any:
    if spec.slot is None:  # COUNT(*)
        return len(members)
    values = [row[spec.slot] for row in members if row[spec.slot] is not None]
    if spec.func == "COUNT":
        return len(values)
    numbers = [
        value for value in values
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    ]
    if not numbers:
        return None
    if spec.func == "SUM":
        return sum(numbers)
    if spec.func == "AVG":
        return sum(numbers) / len(numbers)
    if spec.func == "MIN":
        return min(numbers)
    return max(numbers)


def _group(rows: Iterator[tuple], op: GroupOp) -> Iterator[tuple]:
    groups: dict[tuple, list[tuple]] = {}
    for row in rows:
        key = tuple(row[slot] for slot in op.group_slots)
        groups.setdefault(key, []).append(row)
    if not groups and not op.group_slots:
        # Aggregates over an empty input still produce one output row
        # (``COUNT(*) = 0``, ``SUM = NULL``).
        groups[()] = []
    for members in groups.values():
        output: list[Any] = []
        for kind, payload in op.items:
            if kind == "col":
                output.append(members[0][payload] if members else None)
            else:
                output.append(_aggregate(payload, members))
        yield tuple(output)


def _sorted_rows(rows: Iterator[tuple],
                 order: tuple[tuple[int, bool], ...]) -> list[tuple]:
    materialised = list(rows)
    try:
        # Successive stable sorts from the minor key to the major key give
        # multi-column ordering; ``(is not None, value)`` keeps NULLs first
        # ascending / last descending, matching the legacy sql() sort.
        for position, descending in reversed(order):
            materialised.sort(
                key=lambda row: (row[position] is not None, row[position]),
                reverse=descending,
            )
    except TypeError as error:
        raise QueryExecutionError(
            f"cannot order mixed-type values: {error}"
        ) from error
    return materialised


# ---------------------------------------------------------------------- #
# the pipeline
# ---------------------------------------------------------------------- #
def _pipeline(plan: Plan, rows_of: RowSource) -> Iterator[tuple]:
    rows = iter(rows_of(plan.base))
    for join in plan.joins:
        rows = _join(rows, join, rows_of(join.scan))
    if plan.residual is not None:
        residual = plan.residual
        rows = (row for row in rows if residual(row))
    if plan.group is not None:
        rows = _group(rows, plan.group)
    elif plan.projection is not None:
        projection = plan.projection
        rows = (tuple(row[slot] for slot in projection) for row in rows)
    if plan.order:
        rows = iter(_sorted_rows(rows, plan.order))
    if plan.offset or plan.limit is not None:
        stop = None if plan.limit is None else plan.offset + plan.limit
        rows = islice(rows, plan.offset, stop)
    return rows


class QueryResult:
    """A streamed query result.

    Iterating yields row tuples straight off the executor pipeline —
    single pass, pulling only as much data as consumed.  ``to_table()``
    drains the remainder into an immutable
    :class:`~repro.engine.relational.TableValue`.
    """

    __slots__ = ("columns", "_rows", "_consumed")

    def __init__(self, columns: tuple[str, ...], rows: Iterator[tuple]) -> None:
        self.columns = columns
        self._rows = rows
        self._consumed = False

    def __iter__(self) -> Iterator[tuple]:
        return self._rows

    def first(self) -> tuple | None:
        """The next row, or ``None`` when the stream is exhausted."""
        return next(self._rows, None)

    def to_table(self) -> "TableValue":
        """Drain the (remaining) stream into a ``TableValue``."""
        # Imported here, not at module scope: engine.sql imports this
        # module, so a top-level engine import would cycle.
        from repro.engine.relational import TableValue

        if self._consumed:
            raise QueryExecutionError("query result was already drained")
        self._consumed = True
        return TableValue(columns=self.columns, rows=tuple(self._rows))


def run_plan(plan: Plan, catalog: Catalog,
             rows_of: RowSource | None = None) -> QueryResult:
    """Execute a compiled plan as a streamed result.

    ``rows_of`` answers "where do a scan's rows come from": by default a
    read through ``catalog``; a live view passes the rows it kept from its
    last scan, and everything after the scans runs unchanged over them.
    """
    if rows_of is None:
        rows_of = partial(_scan_rows, catalog=catalog)
    return QueryResult(plan.output_columns, _pipeline(plan, rows_of))
