"""Live views: query results kept fresh by patching, not by rescanning.

A :class:`LiveView` pins a compiled query's result and keeps it fresh as
the sheet changes.  The engine registers the view's *source regions*
(its grid relations plus the grid footprints of its linked tables) in
the main dependency graph under a sentinel anchor address, so an edit to
any source cell finds the view through the same interval-indexed
``direct_dependents`` stab every formula uses — synchronously the view
refreshes inside the topological recompute pass, asynchronously its
anchor rides the compute scheduler's queue like any stale formula.

**What is kept.**  The first refresh compiles the query once and keeps,
for every grid scan of the plan (the base relation and each join's build
side), a *scan cache*: ``{sheet row: the scan's local tuple}`` for exactly
the rows that pass the scan's pushed predicate, read columns only.  A
view whose scan has no pushed predicate therefore holds one tuple per
source row.

**Who reports deltas.**  The engine calls :meth:`LiveView.note_delta`
for every value that lands on the sheet: from its one write body, from
the one body that lands a computed value, and — for the writes a
transaction buffered — from the commit that makes them everyone's.  A
view records the *row*, and only when the cell lies in a cached scan's
region and in a column that scan reads.

**A refresh** re-reads just the dirty rows (contiguous ones share a bulk
read; past one :data:`RESCAN_DIVISOR`-th of a scan's rows that scan is
read whole, which is cheaper) through the executor's one row body,
:func:`~repro.query.executor.grid_rows` — the pushed predicate included —
inserts, replaces or drops them in the cache, and runs the *unchanged*
executor tail (join, residual filter, group or projection, sort,
offset/limit) in memory over the cached rows in sheet-row order.  Same
code over the same rows in the same order as a rescan, so the results
are identical by construction: float sums, group order and stable-sort
ties included.  A wake-up with no dirty row (an edit to a column the
query never reads) re-runs nothing and is not counted as a refresh.

**What drops the cache**, so that the next refresh compiles and rescans
(the one from-scratch path, which is also the first materialisation):

* :meth:`LiveView.mark_stale` — whatever can move rows or retract values:
  structural edits (through :meth:`LiveView.remap`), ``optimize_storage``,
  ``link_table`` and every rollback;
* an edit to a scan's header row (the schema may have changed);
* a refresh inside an open transaction: its reads overlay buffered writes
  that only their owner sees and that may yet roll back, so it rescans and
  keeps nothing;
* a refresh that raised: a half-applied patch is not trusted.

**What is never cached**, chosen by the plan's shape: a plan that
``streams`` under a ``LIMIT`` (its rescan stops after a few chunks; a
cache would force the full-region read), and a plan scanning a table
relation (linked and database tables re-resolve on every refresh — their
rows can change without passing through the sheet).

Optionally a view spills its rows onto the sheet (``at=...``): each
refresh rewrites exactly the cells that changed, clears rows that fell
out of the result, and propagates to formulas reading the spilled
region.

Views are engine-resident runtime objects: they do not survive a crash
recovery (a spilled view's last cells recover as plain values), and a
structural edit that deletes a source region *detaches* the view —
``value()`` then raises :class:`~repro.errors.QueryExecutionError` until
the view is dropped.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable

from repro.errors import QueryExecutionError
from repro.formula.rewrite import StructuralEdit
from repro.grid.address import CellAddress
from repro.grid.range import RangeRef
from repro.query.ast import GridRelation
from repro.query.builder import Select
from repro.query.executor import TableValue, grid_rows, run_plan
from repro.query.planner import (
    Catalog,
    GridScanOp,
    Plan,
    ScanOp,
    compile_select,
    contiguous_runs,
)

#: A patch stops paying once more than one in this many of a scan's rows
#: is dirty; the refresh reads that scan whole instead.  Measured on the
#: benchmark's 2 000-row sheet, two read columns: one single-row read costs
#: 12 us on the default RCV layout and 61 us after a relayout to COM (it
#: decodes the whole column record), against 3.4 / 3.1 us per row inside
#: the bulk read — scattered dirty rows break even at 1/3.6 and 1/20 of the
#: rows.  One eighth sits between the two; adjacent dirty rows share a read
#: and are cheaper still.
RESCAN_DIVISOR = 8


def remap_select(query: Select, edit: StructuralEdit) -> Select | None:
    """Rewrite a query's grid relations through a structural edit.

    Returns ``None`` when any grid relation was deleted outright (the
    view can no longer be evaluated and must detach).  Table relations
    pass through untouched — linked tables are remapped by the engine
    and re-resolved at the next compile.
    """

    def remap_relation(relation):
        if not isinstance(relation, GridRelation):
            return relation
        moved = edit.map_range(relation.region)
        if moved is None:
            return None
        if not relation.header and (
            moved.left != relation.region.left
            or moved.right - moved.left != relation.region.right - relation.region.left
        ):
            # Header-less relations name their columns by sheet letter, so
            # a column-axis change re-letters them out from under the
            # query's references; detach instead of silently re-binding.
            # (Header relations are immune: their names travel with the
            # header row.)
            return None
        return replace(relation, region=moved)

    source = remap_relation(query.source)
    if source is None:
        return None
    joins = []
    for spec in query.joins:
        relation = remap_relation(spec.relation)
        if relation is None:
            return None
        joins.append(replace(spec, relation=relation))
    return replace(query, source=source, joins=tuple(joins))


class _ScanCache:
    """One grid scan's passing rows, kept between refreshes."""

    __slots__ = ("scan", "rows", "dirty")

    def __init__(self, scan: GridScanOp, catalog: Catalog) -> None:
        self.scan = scan
        #: Sheet row -> local tuple, in sheet-row order (a scan's order).
        self.rows: dict[int, tuple] = dict(grid_rows(scan, catalog))
        #: Data rows with a change in a read column since the last refresh.
        self.dirty: set[int] = set()

    def patch(self, catalog: Catalog) -> None:
        """Re-read the dirty rows: each now passes (insert / replace) or
        does not (drop).  Too many of them, and the whole scan is read
        again instead."""
        dirty, self.dirty = self.dirty, set()
        scan = self.scan
        if len(dirty) * RESCAN_DIVISOR > scan.region.bottom - scan.data_top + 1:
            self.rows = dict(grid_rows(scan, catalog))
            return
        rows = self.rows
        grew = False
        for top, bottom in contiguous_runs(sorted(dirty)):
            passing = dict(grid_rows(scan, catalog, top, bottom))
            for row in range(top, bottom + 1):
                if row in passing:
                    grew = grew or row not in rows
                    rows[row] = passing[row]
                else:
                    rows.pop(row, None)
        if grew:
            # A newly passing row landed at the dict's end; a rescan would
            # have met it in sheet-row order.
            self.rows = dict(sorted(rows.items()))


def _plan_scans(plan: Plan) -> Iterable[ScanOp]:
    yield plan.base
    for join in plan.joins:
        yield join.scan


def _keeps_scans(plan: Plan) -> bool:
    """By plan shape: a ``LIMIT`` that streams keeps its short-circuit
    rescan, and table relations re-resolve on every refresh."""
    if plan.streams and plan.limit is not None:
        return False
    return all(isinstance(scan, GridScanOp) for scan in _plan_scans(plan))


class LiveView:
    """One registered live query result (create via
    ``DataSpread.create_live_view``).

    ``value()`` returns the current :class:`TableValue`, forcing the
    refresh of anything stale first (in async mode it drains exactly the
    view's own scheduler subtree).  ``refresh_count`` counts re-executions
    — the reactivity observable used by tests and the ``query`` bench;
    a wake-up that finds no change in a column the query reads is not one.
    """

    __slots__ = (
        "name", "anchor", "query", "spill_at", "include_header",
        "refresh_count", "_engine", "_table", "_stale", "_refreshing",
        "_detached", "_spilled", "_plan", "_scans",
    )

    def __init__(self, engine, name: str, anchor: CellAddress, query: Select,
                 *, spill_at: CellAddress | None = None,
                 include_header: bool = True) -> None:
        self._engine = engine
        self.name = name
        self.anchor = anchor
        self.query = query
        self.spill_at = spill_at
        self.include_header = include_header
        self.refresh_count = 0
        self._table: TableValue | None = None
        self._stale = True
        self._refreshing = False
        self._detached: str | None = None
        #: Keys the last spill wrote, so a shrinking result clears its rows.
        self._spilled: set[tuple[int, int]] = set()
        #: The compiled plan and one cache per scan of it, kept together
        #: from a rescan until something drops them (see module docstring).
        self._plan: Plan | None = None
        self._scans: tuple[_ScanCache, ...] = ()

    # ------------------------------------------------------------------ #
    # public surface
    # ------------------------------------------------------------------ #
    @property
    def detached(self) -> str | None:
        """Why the view can no longer refresh (``None`` while healthy)."""
        return self._detached

    @property
    def stale(self) -> bool:
        """Whether the pinned table may lag the sheet (pre-drain)."""
        return self._stale

    def value(self) -> TableValue:
        """The view's current result, refreshed if anything is stale."""
        if self._detached is not None:
            raise QueryExecutionError(
                f"live view {self.name!r} is detached: {self._detached}"
            )
        self._engine._ensure_view_fresh(self)
        if self._detached is not None:
            # The refresh itself detached the view (a structural edit
            # broke its schema and this is the first read since).
            raise QueryExecutionError(
                f"live view {self.name!r} is detached: {self._detached}"
            )
        assert self._table is not None
        return self._table

    # ------------------------------------------------------------------ #
    # engine-side hooks
    # ------------------------------------------------------------------ #
    def mark_stale(self) -> None:
        """Rows may have moved or values been retracted: refresh from scratch."""
        self._stale = True
        self._drop_cache()

    def _drop_cache(self) -> None:
        self._plan = None
        self._scans = ()

    def detach(self, reason: str) -> None:
        self._detached = reason
        self._table = None
        self._drop_cache()

    def watched_regions(self) -> list[RangeRef]:
        """The sheet regions whose edits must wake the view: its grid
        relations plus the grid footprints of its linked tables."""
        regions: list[RangeRef] = []
        for relation in self.query.relations():
            if isinstance(relation, GridRelation):
                regions.append(relation.region)
            else:
                footprint = self._engine.table_region(relation.table)
                if footprint is not None:
                    regions.append(footprint)
        return regions

    def note_delta(self, row: int, column: int) -> None:
        """A value landed at ``(row, column)``; remember the row if a
        cached scan reads that cell."""
        for cache in self._scans:
            scan = cache.scan
            if not scan.region.contains_coordinates(row, column):
                continue
            if row < scan.data_top:
                self._drop_cache()  # a header cell: the names may have changed
                return
            if column in scan.columns:
                cache.dirty.add(row)

    def remap(self, edit: StructuralEdit) -> bool:
        """Shift the view through a structural edit; False detaches it."""
        remapped = remap_select(self.query, edit)
        if remapped is None:
            self.detach("a source region was deleted by a structural edit")
            return False
        self.query = remapped
        if self.spill_at is not None:
            moved_anchor = edit.map_address(self.spill_at)
            if moved_anchor is None:
                self.detach("the spill anchor was deleted by a structural edit")
                return False
            self.spill_at = moved_anchor
        self._spilled = {
            (moved.row, moved.column)
            for key in self._spilled
            if (moved := edit.map_address(CellAddress(*key))) is not None
        }
        self.mark_stale()
        return True

    def refresh(self, write_spill) -> None:
        """Bring the result up to date (and the spill, if there is one).

        Patches the cached scans when there are any to trust, rescans from
        scratch otherwise (see the module docstring for which).
        ``write_spill`` lands a ``{(row, column): value}`` diff on the
        sheet (``None`` values clear).  Re-entrant refreshes (a spilled
        view whose output feeds its own sources would recurse) are
        skipped.
        """
        if self._refreshing or self._detached is not None:
            return
        self._refreshing = True
        try:
            if self._plan is None or self._engine.in_batch:
                table = self._rescan()
            elif not any(cache.dirty for cache in self._scans):
                return  # woken by a column the query does not read
            else:
                for cache in self._scans:
                    if cache.dirty:
                        cache.patch(self._engine)
                table = self._run_cached()
            self._table = table
            self._stale = False
            self.refresh_count += 1
            if self.spill_at is not None:
                self._spill(table, write_spill)
        except BaseException:
            self.mark_stale()  # a half-applied patch must not be trusted
            raise
        finally:
            self._refreshing = False

    def _rescan(self) -> TableValue:
        """The one from-scratch path: compile the query, read every scan,
        and keep plan and scans when the plan's shape and the moment allow."""
        engine = self._engine
        self._drop_cache()
        plan = compile_select(self.query, engine)
        if engine.in_batch or not _keeps_scans(plan):
            return run_plan(plan, engine).to_table()
        self._scans = tuple(_ScanCache(scan, engine) for scan in _plan_scans(plan))
        self._plan = plan
        return self._run_cached()

    def _run_cached(self) -> TableValue:
        """The executor's tail over the cached scans."""
        return run_plan(self._plan, self._engine, self._cached_rows).to_table()

    def _cached_rows(self, scan: ScanOp) -> Iterable[tuple]:
        return next(cache for cache in self._scans if cache.scan is scan).rows.values()

    # ------------------------------------------------------------------ #
    # spilling
    # ------------------------------------------------------------------ #
    def _spill(self, table: TableValue, write_spill) -> None:
        anchor = self.spill_at
        changes: dict[tuple[int, int], object] = {}
        fresh: set[tuple[int, int]] = set()
        row_index = anchor.row
        if self.include_header:
            for offset, column_name in enumerate(table.columns):
                fresh.add((row_index, anchor.column + offset))
                changes[(row_index, anchor.column + offset)] = column_name
            row_index += 1
        for record in table.rows:
            for offset, value in enumerate(record):
                key = (row_index, anchor.column + offset)
                fresh.add(key)
                changes[key] = value
            row_index += 1
        for key in self._spilled - fresh:
            changes[key] = None  # row fell out of the result: clear it
        self._spilled = fresh
        write_spill(changes)
