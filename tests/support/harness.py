"""Randomized sync/async/oracle equivalence harness.

One shared implementation of the machinery the equivalence suites need:

* op generators — random constants, formulas, clears, and **unbounded**
  structural edits.  Structural lines are sampled with *no* extent clamp:
  inside the data block, far beyond any stored extent, above an RCV
  catch-all anchor, and hard against the ``MAX_ROWS``/``MAX_COLUMNS`` sheet
  boundary.  Extent-free structural edits are the contract under test, so
  the generators must never consult ``model.region()``.
* apply helpers routing one op to a ``DataSpread`` engine or the ``Sheet``
  oracle.
* the drain-and-compare loop: after a scripted interleaving of edits,
  batches, aborts, structural edits and scheduling churn, the async engine
  (post-``flush_compute``) must show the same grid — values *and* formula
  text — as the synchronous engine and as a ``DataSpread`` rebuilt from the
  naively-maintained ``Sheet``.
* query equivalence: the runs issue generative queries mid-edit-stream
  and compare the planned/streamed results against a naive
  full-materialise oracle over the ``Sheet`` baseline.  Three live views
  are pinned per engine at the start (a filter, a ``GROUP BY``, an
  ``ORDER BY ... LIMIT``); each must equal its own query run from scratch
  on its own engine — mid-stream and at the end, across structural remaps
  of its source region — and the filter views the naive oracle too.

``run_equivalence`` / ``run_mid_batch_equivalence`` are the entry points;
``tests/test_async_compute.py`` runs a fast seed set in tier-1 and
``tests/test_equivalence_fuzz.py`` scales the seed count via
``REPRO_FUZZ_SEEDS`` (``make fuzz``).
"""

from __future__ import annotations

import random
import shutil
import sys
import tempfile

from repro.engine.dataspread import DataSpread
from repro.errors import SavepointError
from repro.formula.dependencies import DependencyGraph
from repro.grid.address import MAX_COLUMNS, MAX_ROWS, CellAddress, column_index_to_letter
from repro.grid.range import RangeRef
from repro.grid.sheet import Sheet
from repro.query import col, count, select, sum_
from repro.query.builder import region as query_region
from repro.query.planner import compare_values
from repro.storage.recovery import recover

from tests.support.faults import FaultPlan, SimulatedCrash

#: Rows/columns of the constant data block the formulas read.
DATA_ROWS = 24
DATA_COLUMNS = 2
#: Columns formulas land in (strictly right of every column they read).
FORMULA_COLUMNS = (3, 4, 5)
#: The window compared cell-by-cell after the drain.
COMPARE_WINDOW = RangeRef(1, 1, 60, 12)

#: Anchor of the first seeded cell: > 1 on both axes so the catch-all RCV
#: table starts anchored *below/right* of the sheet origin — structural
#: edits at rows/columns 1..anchor-1 then exercise the above/left-of-anchor
#: paths every run, not only when the random interleaving happens to.
SEED_ANCHOR = (10, 2)


class Boom(Exception):
    """The exception scripted batch aborts raise."""


# ---------------------------------------------------------------------- #
# op generators
# ---------------------------------------------------------------------- #
def random_formula(rng: random.Random, column: int) -> str:
    """A formula referencing only columns strictly left of ``column``.

    Strict left-reference keeps every randomized graph acyclic by column
    order, no matter how rows and columns are later shifted (structural
    edits map coordinates monotonically, preserving the invariant).

    Half the mix is *aggregate-heavy* (PR 5): wide, often multi-column
    SUM/AVERAGE/MIN/MAX/COUNT/COUNTA ranges spanning the whole edit zone —
    constants, clears, and other formulas' cells alike — so the engines'
    delta-maintained aggregate state is fuzzed against the ``Sheet``
    oracle across every sync/async/batch/abort/structural interleaving,
    including the MIN/MAX support-loss and ``#DIV/0!`` fallbacks.
    """
    def cell_ref() -> str:
        target = rng.randint(1, column - 1)
        return f"{column_index_to_letter(target)}{rng.randint(1, DATA_ROWS)}"

    def range_ref() -> str:
        target = column_index_to_letter(rng.randint(1, column - 1))
        top = rng.randint(1, DATA_ROWS - 4)
        return f"{target}{top}:{target}{top + rng.randint(1, 4)}"

    def wide_range_ref() -> str:
        """A tall range overlapping the edit zones, possibly multi-column."""
        left = rng.randint(1, column - 1)
        right = rng.randint(left, column - 1)
        top = rng.randint(1, 4)
        bottom = rng.randint(DATA_ROWS - 4, DATA_ROWS + 6)
        return (f"{column_index_to_letter(left)}{top}:"
                f"{column_index_to_letter(right)}{bottom}")

    choice = rng.randrange(8)
    if choice == 0:
        return f"{cell_ref()}+{cell_ref()}*2"
    if choice == 1:
        return f"SUM({range_ref()})"
    if choice == 2:
        return f"SUM({range_ref()})+{cell_ref()}"
    if choice == 3:
        return f"MAX({range_ref()},{cell_ref()})"
    if choice == 4:
        return f"SUM({wide_range_ref()})"
    if choice == 5:
        # AVERAGE raises #DIV/0! over no numbers — the error path must
        # agree across engines and oracle too.
        return f"AVERAGE({wide_range_ref()})"
    if choice == 6:
        return f"MIN({wide_range_ref()})+MAX({wide_range_ref()})"
    return f"COUNT({wide_range_ref()})+COUNTA({wide_range_ref()})"


def random_edit(rng: random.Random) -> tuple:
    """One random cell edit: a constant, a formula, or a clear."""
    choice = rng.randrange(10)
    if choice < 4:
        return ("value", rng.randint(1, DATA_ROWS), rng.randint(1, DATA_COLUMNS),
                rng.randint(0, 99))
    if choice < 8:
        column = rng.choice(FORMULA_COLUMNS)
        return ("formula", rng.randint(1, DATA_ROWS), column,
                random_formula(rng, column))
    return ("clear", rng.randint(1, DATA_ROWS), rng.randint(1, 5))


def random_structural(rng: random.Random) -> tuple:
    """An *unbounded* structural edit: no extent clamp of any kind.

    Lines are drawn from three zones — the data block (including lines
    above the seeded RCV anchor), well beyond any stored extent, and the
    ``MAX_ROWS``/``MAX_COLUMNS`` sheet boundary — so out-of-extent deletes
    and lazy inserts are exercised on every run.
    """
    def row_line(*, lowest: int) -> int:
        zone = rng.randrange(8)
        if zone < 5:
            return rng.randint(lowest, 30)            # around the data block
        if zone < 7:
            return rng.randint(31, 500)               # beyond the stored extent
        return MAX_ROWS - rng.randint(0, 3)           # the sheet boundary

    def column_line(*, lowest: int) -> int:
        zone = rng.randrange(8)
        if zone < 5:
            return rng.randint(lowest, 8)
        if zone < 7:
            return rng.randint(9, 200)
        return MAX_COLUMNS - rng.randint(0, 3)

    kind = rng.randrange(4)
    if kind == 0:
        return ("insert_row_after", row_line(lowest=0), rng.randint(1, 2))
    if kind == 1:
        return ("delete_row", row_line(lowest=1), rng.randint(1, 2))
    if kind == 2:
        return ("insert_column_after", column_line(lowest=0), 1)
    return ("delete_column", column_line(lowest=1), rng.randint(1, 2))


# ---------------------------------------------------------------------- #
# apply helpers
# ---------------------------------------------------------------------- #
def apply_edit(target, edit: tuple) -> None:
    """Route one cell edit to a ``DataSpread`` or the ``Sheet`` oracle."""
    kind = edit[0]
    if kind == "value":
        target.set_value(edit[1], edit[2], edit[3])
    elif kind == "formula":
        target.set_formula(edit[1], edit[2], edit[3])
    else:
        target.clear_cell(edit[1], edit[2])


def apply_structural(target, op: tuple) -> None:
    """Route one structural edit to a ``DataSpread`` or the ``Sheet`` oracle."""
    kind, line, count = op
    getattr(target, kind)(line, count)


# ---------------------------------------------------------------------- #
# drain-and-compare
# ---------------------------------------------------------------------- #
def assert_engines_agree(async_spread: DataSpread, sync_spread: DataSpread,
                         context=(), window: RangeRef = COMPARE_WINDOW) -> None:
    """Post-drain, the async grid must equal the sync grid cell-for-cell."""
    async_spread.flush_compute()
    for row in range(window.top, window.bottom + 1):
        for column in range(window.left, window.right + 1):
            expected = sync_spread.get_cell(row, column)
            actual = async_spread.get_cell(row, column)
            assert actual.value == expected.value, (*context, row, column)
            assert actual.formula == expected.formula, (*context, row, column)


def assert_oracle_agrees(spread: DataSpread, sheet: Sheet, context=(),
                         window: RangeRef = COMPARE_WINDOW) -> None:
    """The engine grid must match a ``DataSpread`` rebuilt from the oracle."""
    oracle = DataSpread.from_sheet(sheet.copy())
    for row in range(window.top, window.bottom + 1):
        for column in range(window.left, window.right + 1):
            expected = oracle.get_cell(row, column)
            actual = spread.get_cell(row, column)
            assert actual.value == expected.value, (*context, row, column, "oracle")
            assert actual.formula == expected.formula, (*context, row, column, "oracle")


def _abort_batch(spread: DataSpread, edits: list[tuple]) -> None:
    try:
        with spread.batch():
            for edit in edits:
                apply_edit(spread, edit)
            raise Boom()
    except Boom:
        pass


# ---------------------------------------------------------------------- #
# query / live-view equivalence
# ---------------------------------------------------------------------- #
#: Region the mid-stream fuzz queries scan: the data block, the formula
#: columns, and margin rows, so edits and structural shifts move values
#: across the window's edges.  Header-less — columns go by sheet letter.
QUERY_REGION = RangeRef(1, 1, DATA_ROWS + 6, 4)
#: Predicate threshold; random constants (0..99) straddle it.
QUERY_THRESHOLD = 40


def fuzz_query(target_region: RangeRef = QUERY_REGION, limit: int | None = None):
    """The fixed query shape the equivalence runs issue mid-stream."""
    query = (select(query_region(target_region, header=False))
             .where(col("A") > QUERY_THRESHOLD))
    return query if limit is None else query.limit(limit)


def pin_fuzz_views(spread: DataSpread) -> list:
    """Pin the harness's three view shapes on one engine (no spill region,
    so they cannot collide with the compared window).  The first is
    :func:`fuzz_query`; the other two put a grouping and a sort barrier
    between the scan and the result.  Columns A and B only ever hold
    integers or nothing while a header-less view stays attached, so the
    sort never meets mixed types."""
    source = select(query_region(QUERY_REGION, header=False))
    queries = {
        "fuzz-view": fuzz_query(),
        "fuzz-group": (source.project(col("B"), count(alias="n"), sum_("A", alias="total"))
                       .group_by(col("B"))),
        "fuzz-top": (source.project(col("A"), col("B"))
                     .order_by(col("A").desc()).limit(3)),
    }
    return [spread.create_live_view(query, name=name) for name, query in queries.items()]


def assert_views_match_rescan(spread: DataSpread, views, context=()) -> None:
    """Every pinned view must equal its own query executed from scratch on
    its own engine (reading a view drains what it needs first)."""
    for view in views:
        if view.detached:
            continue
        actual = view.value()
        assert actual == spread.execute(view.query).to_table(), (
            *context, "view-vs-rescan", view.name)


def naive_query_rows(spread: DataSpread, target_region: RangeRef,
                     limit: int | None = None) -> list[tuple]:
    """Full-materialise oracle for :func:`fuzz_query`: read every cell of
    the region, filter and slice in Python."""
    matched = []
    for row in range(target_region.top, target_region.bottom + 1):
        record = tuple(
            spread.get_value(row, column)
            for column in range(target_region.left, target_region.right + 1)
        )
        if compare_values(">", record[0], QUERY_THRESHOLD):
            matched.append(record)
    return matched if limit is None else matched[:limit]


def assert_query_agrees(spread: DataSpread, sheet: Sheet, context=()) -> None:
    """The planned/streamed query must match the naive oracle on a
    ``DataSpread`` rebuilt from the ``Sheet`` baseline."""
    oracle = DataSpread.from_sheet(sheet.copy())
    expected = naive_query_rows(oracle, QUERY_REGION)
    actual = [tuple(record) for record in spread.execute(fuzz_query())]
    assert actual == expected, (*context, "query")
    limited = [tuple(record) for record in spread.execute(fuzz_query(limit=5))]
    assert limited == expected[:5], (*context, "query-limit")


def assert_live_views_agree(views, sheet: Sheet, context=()) -> None:
    """Pinned live views (one per engine) must agree with each other —
    including on detachment and on remapped source regions — and with the
    naive oracle over the view's *current* region."""
    first, second = views
    assert bool(first.detached) == bool(second.detached), (*context, "view-detach")
    if first.detached:
        return
    current = first.query.source.region
    assert current == second.query.source.region, (*context, "view-remap")
    oracle = DataSpread.from_sheet(sheet.copy())
    expected = naive_query_rows(oracle, current)
    for view in views:
        actual = [tuple(record) for record in view.value().rows]
        assert actual == expected, (*context, "view", view.name)


def run_equivalence(seed: int, *, steps: int = 70) -> None:
    """One full randomized interleaving: async == sync == Sheet oracle.

    Covers single edits, clean batches, aborted batches, unbounded
    structural edits (applied to all three targets), and async-only
    scheduling churn (partial drains, viewport moves).
    """
    rng = random.Random(seed)
    async_spread = DataSpread(async_recompute=True)
    sync_spread = DataSpread()
    sheet = Sheet()
    spreads = (async_spread, sync_spread)
    for spread in spreads:
        # The data block is tiny; force the aggregate delta machinery on
        # anyway so the fuzz exercises running state against the oracle
        # (which rebuilds from scratch with default settings).
        spread.aggregate_store.min_state_area = 1
    anchor_row, anchor_column = SEED_ANCHOR
    for target in (*spreads, sheet):
        target.set_value(anchor_row, anchor_column, seed)

    # Three pinned live views per engine; all must track the edit stream
    # through remaps, and the filter views stay equal to the naive oracle.
    async_views, sync_views = (pin_fuzz_views(spread) for spread in spreads)

    for _step in range(steps):
        # Every few steps, issue ad-hoc queries mid-stream and hold the
        # pinned views against a rescan.  Only the sync engine is probed
        # here: the async engine may legitimately serve stale values until
        # the drain (and reading its views would drain it).  Checked
        # outside the rng stream so seeded interleavings are unchanged by
        # the probes.
        if _step % 10 == 9:
            assert_query_agrees(sync_spread, sheet, context=(seed, _step))
            assert_views_match_rescan(sync_spread, sync_views, context=(seed, _step))

        action = rng.randrange(12)
        if action < 6:  # single edit
            edit = random_edit(rng)
            for target in (*spreads, sheet):
                apply_edit(target, edit)
        elif action < 8:  # clean batch
            edits = [random_edit(rng) for _ in range(rng.randint(2, 6))]
            for spread in spreads:
                with spread.batch():
                    for edit in edits:
                        apply_edit(spread, edit)
            for edit in edits:  # batch exits cleanly: same net effect
                apply_edit(sheet, edit)
        elif action < 9:  # aborted batch: no effect anywhere
            edits = [random_edit(rng) for _ in range(rng.randint(2, 5))]
            for spread in spreads:
                _abort_batch(spread, edits)
        elif action < 11:  # unbounded structural edit
            op = random_structural(rng)
            for target in (*spreads, sheet):
                apply_structural(target, op)
        else:  # async-only scheduling churn
            if rng.random() < 0.5:
                async_spread.flush_compute(limit=rng.randint(1, 4))
            else:
                top = rng.randint(1, 30)
                async_spread.set_viewport(
                    RangeRef(top, 1, top + 10, 8) if rng.random() < 0.8 else None
                )

    assert_engines_agree(async_spread, sync_spread, context=(seed,))
    assert_oracle_agrees(async_spread, sheet, context=(seed,))
    assert_query_agrees(async_spread, sheet, context=(seed, "final"))
    assert_live_views_agree((async_views[0], sync_views[0]), sheet, context=(seed,))
    assert_views_match_rescan(async_spread, async_views, context=(seed, "final"))
    assert_views_match_rescan(sync_spread, sync_views, context=(seed, "final"))


def run_mid_batch_equivalence(seed: int, *, steps: int = 40) -> None:
    """Interleavings whose structural edits happen *inside* batches.

    Structural edits inside batches are commit points; the async and sync
    engines must still agree after the drain.  The ``Sheet`` oracle has no
    batch semantics, so this variant compares the engines only.
    """
    rng = random.Random(seed)
    async_spread = DataSpread(async_recompute=True)
    sync_spread = DataSpread()
    spreads = (async_spread, sync_spread)
    for spread in spreads:
        spread.aggregate_store.min_state_area = 1
    anchor_row, anchor_column = SEED_ANCHOR
    for spread in spreads:
        spread.set_value(anchor_row, anchor_column, seed)
    async_views, sync_views = (pin_fuzz_views(spread) for spread in spreads)

    for _step in range(steps):
        if _step % 10 == 9:  # outside the rng stream, sync engine only
            assert_views_match_rescan(sync_spread, sync_views, context=(seed, _step))
        action = rng.randrange(8)
        if action < 4:
            edit = random_edit(rng)
            for spread in spreads:
                apply_edit(spread, edit)
        elif action < 6:
            edits = [random_edit(rng) for _ in range(rng.randint(2, 4))]
            op = random_structural(rng)
            abort = rng.random() < 0.3
            for spread in spreads:
                try:
                    with spread.batch():
                        for edit in edits[:1]:
                            apply_edit(spread, edit)
                        apply_structural(spread, op)
                        for edit in edits[1:]:
                            apply_edit(spread, edit)
                        if abort:
                            raise Boom()
                except Boom:
                    pass
        else:
            async_spread.flush_compute(limit=rng.randint(1, 3))

    assert_engines_agree(async_spread, sync_spread, context=(seed,))
    assert_views_match_rescan(async_spread, async_views, context=(seed, "final"))
    assert_views_match_rescan(sync_spread, sync_views, context=(seed, "final"))


def scan_dependents(graph: DependencyGraph, cell: CellAddress) -> set[CellAddress]:
    """Brute-force reference for ``DependencyGraph.direct_dependents``: every
    registered formula with ``cell`` among its precedent cells or inside one
    of its precedent ranges, found without the interval index."""
    dependents = set()
    for formula_cell in graph.formula_cells():
        cells, ranges = graph.precedents_of(formula_cell)
        if cell in cells or any(region.contains(cell) for region in ranges):
            dependents.add(formula_cell)
    return dependents


def full_read_engine(**options) -> DataSpread:
    """A reference engine that folds every aggregate from a full range read.

    Both promotion floors are out of reach, so ``AggregateStore.tracks`` is
    False for every range: no running state is built, no delta is applied.
    """
    spread = DataSpread(**options)
    spread.aggregate_store.min_state_area = sys.maxsize
    spread.aggregate_store.min_state_subscribers = sys.maxsize
    return spread


def _assert_store_consistent(store, context=()) -> None:
    """The refcount bookkeeping invariants a churn step must never break.

    Every state carries at least one subscriber (no orphans survive an
    unregistration), every subscriber holds a back-reference, and every
    recorded subscription points at a live state.
    """
    for region, entry in store._states.items():
        assert entry.subscribers, ("orphan state", region, context)
        for address in entry.subscribers:
            assert region in store._subscriptions.get(address, ()), (
                "missing back-reference", region, address, context)
    for address, regions in store._subscriptions.items():
        for region in regions:
            entry = store._states.get(region)
            assert entry is not None and address in entry.subscribers, (
                "dangling subscription", address, region, context)


def run_refcount_churn(seed: int, *, steps: int = 120) -> None:
    """Refcount-lifecycle fuzz: share states hard, churn subscribers harder.

    Many formulas subscribe to a *small pool* of identical and overlapping
    ranges — maximal sharing — while the interleaving registers formulas,
    overwrites them with constants, clears them, streams point edits into
    the data column, aborts batches, and splices rows through the lot.
    The store's subscription bookkeeping must stay internally consistent
    throughout, and the grid must end cell-for-cell equal to an engine
    that keeps no running state (:func:`full_read_engine`).
    """
    rng = random.Random(seed)
    spread = DataSpread()
    spread.aggregate_store.min_state_area = 1
    oracle = full_read_engine()
    targets = (spread, oracle)
    data_rows = 40
    block = [[rng.randint(-9, 9)] for _ in range(data_rows)]
    for target in targets:
        target.import_rows(block)

    # Four distinct ranges, thirty formula slots: heavy subscriber overlap.
    pool = ("A1:A40", "A1:A20", "A10:A30", "A5:A40")
    functions = ("SUM", "COUNT", "COUNTA", "AVERAGE", "MIN", "MAX")
    slots = [(row, column) for row in range(1, 16) for column in (3, 4)]

    for _step in range(steps):
        action = rng.randrange(10)
        if action < 4:  # register (or re-register) a subscriber
            row, column = rng.choice(slots)
            text = f"{rng.choice(functions)}({rng.choice(pool)})"
            for target in targets:
                target.set_formula(row, column, text)
        elif action < 6:  # overwrite a slot: unregisters through the hook
            row, column = rng.choice(slots)
            constant = rng.randint(-5, 5)
            for target in targets:
                target.set_value(row, column, constant)
        elif action < 7:  # clear a slot outright
            row, column = rng.choice(slots)
            for target in targets:
                target.clear_cell(row, column)
        elif action < 9:  # point edit in the shared data column
            row = rng.randint(1, data_rows)
            value = rng.choice([rng.randint(-9, 9), None, "x", 2.5])
            for target in targets:
                if value is None:
                    target.clear_cell(row, 1)
                else:
                    target.set_value(row, 1, value)
        else:  # structural splice, or an aborted batch (no net effect)
            if rng.random() < 0.5:
                line, count = rng.randint(1, 45), rng.randint(1, 2)
                insert = rng.random() < 0.6
                for target in targets:
                    if insert:
                        target.insert_row_after(line, count)
                    else:
                        target.delete_row(line, count)
            else:
                edits = [random_edit(rng) for _ in range(rng.randint(2, 4))]
                for target in targets:
                    _abort_batch(target, edits)
        _assert_store_consistent(spread.aggregate_store, (seed, _step))

    window = spread.get_range_values("A1:E60")
    assert window == oracle.get_range_values("A1:E60"), (seed,)
    _assert_store_consistent(spread.aggregate_store, (seed, "final"))


# ---------------------------------------------------------------------- #
# crash-recovery fuzz
# ---------------------------------------------------------------------- #
#: Structural op tags, to route mixed op streams through ``apply_op``.
STRUCTURAL_KINDS = frozenset(
    {"insert_row_after", "delete_row", "insert_column_after", "delete_column"}
)


def apply_op(target, op: tuple) -> None:
    """Route a mixed cell-or-structural op to an engine or oracle."""
    if op[0] in STRUCTURAL_KINDS:
        apply_structural(target, op)
    else:
        apply_edit(target, op)


def _select_committed(ledger: list, durable: int) -> list[tuple]:
    """The op sequence implied by ``durable`` commit points.

    Each ledger entry is a list of ``(threshold, ops)`` alternatives in
    increasing threshold order; an alternative is in effect when its
    commit point was reached (``threshold <= durable``), and the *last*
    reachable alternative per entry wins (a batch's later commit points
    subsume its earlier mid-batch prefixes).
    """
    committed: list[tuple] = []
    for alternatives in ledger:
        chosen: list[tuple] | None = None
        for threshold, ops in alternatives:
            if threshold <= durable:
                chosen = ops
        if chosen:
            committed.extend(chosen)
    return committed


def assert_matches_replay(recovered: DataSpread, committed_ops: list[tuple],
                           context: tuple) -> None:
    """The recovered grid must equal a sync replay of the committed ops."""
    oracle = DataSpread()
    oracle.aggregate_store.min_state_area = 1
    for op in committed_ops:
        apply_op(oracle, op)
    window = COMPARE_WINDOW
    for row in range(window.top, window.bottom + 1):
        for column in range(window.left, window.right + 1):
            expected = oracle.get_cell(row, column)
            actual = recovered.get_cell(row, column)
            assert actual.value == expected.value, (*context, row, column, "recovered")
            assert actual.formula == expected.formula, (*context, row, column, "recovered")


def run_crash_recovery(seed: int, *, steps: int = 50) -> bool:
    """One randomized sync crash-recovery run; returns whether it crashed.

    A synchronous durable engine takes a random interleaving of single
    edits, clean and aborted batches (with mid-batch structural edits),
    standalone structural edits, and checkpoints, under a random fault
    plan (crash-at-append-N, torn final frame, transient IO errors).  A
    ledger pairs every op with the ``durable_commits`` watermark of its
    commit point; after the (possible) crash, recovery must reproduce
    exactly the state implied by the watermark actually reached — never
    a half-applied batch, never an op the log did not durably commit.
    """
    rng = random.Random(seed)
    workdir = tempfile.mkdtemp(prefix=f"repro-crash-{seed}-")
    plan = FaultPlan.random(rng)
    spread = DataSpread(durability="wal", storage_dir=workdir,
                        wal_options=plan.wal_options())
    spread.aggregate_store.min_state_area = 1
    backend = spread.storage_backend
    ledger: list[list[tuple[int, list[tuple]]]] = []
    try:
        try:
            anchor_row, anchor_column = SEED_ANCHOR
            seed_op = ("value", anchor_row, anchor_column, seed)
            ledger.append([(backend.durable_commits + 1, [seed_op])])
            apply_edit(spread, seed_op)

            for _step in range(steps):
                action = rng.randrange(12)
                if action < 6:  # single edit: one fsynced singleton record
                    op = random_edit(rng)
                    ledger.append([(backend.durable_commits + 1, [op])])
                    apply_edit(spread, op)
                elif action < 9:  # batch: edits, structurals, savepoints
                    abort = rng.random() < 0.25
                    entry: list[tuple[int, list[tuple]]] = []
                    ledger.append(entry)
                    applied: list[tuple] = []
                    # Open savepoints as [handle, applied-watermark, barriered].
                    sp_stack: list[list] = []
                    try:
                        with spread.batch():
                            for _ in range(rng.randint(2, 7)):
                                roll = rng.random()
                                if roll < 0.15:
                                    sp_stack.append(
                                        [spread.savepoint(), len(applied), False])
                                elif roll < 0.27 and sp_stack:
                                    index = rng.randrange(len(sp_stack))
                                    handle, mark, barriered = sp_stack[index]
                                    if barriered:
                                        # A mid-batch commit point already
                                        # flushed past this boundary; rolling
                                        # back must refuse, changing nothing.
                                        try:
                                            handle.rollback()
                                        except SavepointError:
                                            pass
                                        else:
                                            raise AssertionError(
                                                "barriered rollback succeeded")
                                    else:
                                        handle.rollback()
                                        del applied[mark:]
                                        del sp_stack[index + 1:]
                                elif roll < 0.35 and sp_stack:
                                    index = rng.randrange(len(sp_stack))
                                    sp_stack[index][0].release()
                                    del sp_stack[index:]
                                elif roll < 0.60:
                                    op = random_structural(rng)
                                    # A mid-batch structural edit is a commit
                                    # point covering the batch prefix so far.
                                    # Register the alternative *before* the
                                    # call: the group commits inside it, and
                                    # a crash in the post-commit recompute
                                    # must still find the prefix durable.  It
                                    # also barriers every open savepoint.
                                    pre = backend.durable_commits
                                    applied.append(op)
                                    entry.append((pre + 1, list(applied)))
                                    apply_structural(spread, op)
                                    for item in sp_stack:
                                        item[2] = True
                                else:
                                    op = random_edit(rng)
                                    apply_edit(spread, op)
                                    applied.append(op)
                            if abort:
                                raise Boom()
                            # The closing flush commits the savepoint-surviving
                            # batch suffix along with everything before it.
                            entry.append((backend.durable_commits + 1, list(applied)))
                    except Boom:
                        pass
                elif action < 11:  # standalone structural edit
                    op = random_structural(rng)
                    ledger.append([(backend.durable_commits + 1, [op])])
                    apply_structural(spread, op)
                else:  # checkpoint: fold the log into a snapshot generation
                    spread.checkpoint()
        except SimulatedCrash:
            pass
        else:
            spread.close()
        durable = backend.durable_commits
        committed = _select_committed(ledger, durable)
        recovered = recover(workdir)
        try:
            assert_matches_replay(recovered, committed, (seed, durable))
        finally:
            recovered.close()
        return plan.crashed
    finally:
        try:
            spread.close()
        except BaseException:
            pass
        shutil.rmtree(workdir, ignore_errors=True)


def run_async_crash_recovery(seed: int, *, steps: int = 50) -> bool:
    """One randomized async crash-recovery run; returns whether it crashed.

    The async engine acknowledges formula edits with an unlogged
    provisional placeholder; a formula becomes durable only when the
    scheduler's committing evaluate writes it (here: a full
    ``flush_compute``, during which the crash arm is parked so every
    pending formula shares the flush's watermark).  Constants, clears,
    and structural edits commit immediately, exactly as in sync mode.
    """
    rng = random.Random(seed)
    workdir = tempfile.mkdtemp(prefix=f"repro-acrash-{seed}-")
    # Fewer appends happen outside flushes (where the crash arm is parked),
    # so aim the crash countdown lower than the sync runner's.
    plan = FaultPlan.random(rng, max_appends=60)
    spread = DataSpread(async_recompute=True,
                        durability="wal", storage_dir=workdir,
                        wal_options=plan.wal_options())
    spread.aggregate_store.min_state_area = 1
    backend = spread.storage_backend
    ledger: list[list[tuple[int, list[tuple]]]] = []
    pending_formulas: list[tuple[list, tuple]] = []

    def flush_all() -> None:
        # Park the crash arm: a full flush either completes (every pending
        # formula durable at the post-flush watermark) or not at all.
        plan.crash_enabled = False
        try:
            spread.flush_compute()
        finally:
            plan.crash_enabled = True
        watermark = backend.durable_commits
        for entry, op in pending_formulas:
            entry.append((watermark, [op]))
        pending_formulas.clear()

    try:
        try:
            anchor_row, anchor_column = SEED_ANCHOR
            seed_op = ("value", anchor_row, anchor_column, seed)
            ledger.append([(backend.durable_commits + 1, [seed_op])])
            apply_edit(spread, seed_op)

            for _step in range(steps):
                action = rng.randrange(12)
                if action < 7:  # single edit
                    op = random_edit(rng)
                    entry = []
                    ledger.append(entry)
                    if op[0] == "formula":
                        # Acknowledged provisionally: durable only once a
                        # flush commits the evaluated cell.
                        pending_formulas.append((entry, op))
                        apply_edit(spread, op)
                    else:
                        entry.append((backend.durable_commits + 1, [op]))
                        apply_edit(spread, op)
                elif action < 9:  # structural edit (atomic group, immediate)
                    op = random_structural(rng)
                    ledger.append([(backend.durable_commits + 1, [op])])
                    apply_structural(spread, op)
                elif action < 11:  # full drain commits every pending formula
                    flush_all()
                else:  # checkpoint
                    spread.checkpoint()
        except SimulatedCrash:
            pass
        else:
            flush_all()
            spread.close()
        durable = backend.durable_commits
        committed = _select_committed(ledger, durable)
        recovered = recover(workdir)
        try:
            assert_matches_replay(recovered, committed, (seed, durable, "async"))
        finally:
            recovered.close()
        return plan.crashed
    finally:
        try:
            spread.close()
        except BaseException:
            pass
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------- #
# multi-session interleaving fuzz
# ---------------------------------------------------------------------- #
def run_session_interleaving(seed: int, *, writers: int = 3, readers: int = 2,
                             steps: int = 90) -> None:
    """One randomized multi-session interleaving over a shared workspace.

    ``writers`` writer sessions and ``readers`` reader sessions share one
    async :class:`~repro.service.Workspace`.  Writers issue single edits,
    transactions with nested savepoints (pushed, rolled back — possibly
    repeatedly — and released), mid-transaction structural edits (commit
    points that barrier earlier savepoints), aborts, and autonomous edits
    (single and batched) while another session's transaction is open;
    foreign transactions and
    structural edits must refuse with
    :class:`~repro.errors.TransactionBusyError`.  Readers move their
    viewports (exercising the scheduler's round-robin priority), read
    mid-drain, run partial drains, and probe snapshot isolation against
    concurrent commits.

    Convergence oracle: every op that *committed* is appended to a ledger
    in commit order — rollbacks truncate a transaction's survivors, aborts
    drop them, mid-batch structural edits flush them early — and after a
    full drain the shared grid must equal a synchronous ``Sheet`` replay
    of exactly that ledger.  Every commit group's ``txn-commit`` annotation
    is compared too: it must carry its owner's savepoint count, whatever
    ran autonomously in between.
    """
    from repro.errors import (
        SavepointError,
        SnapshotInvalidatedError,
        TransactionBusyError,
    )
    from repro.service import Workspace

    rng = random.Random(seed)
    ws = Workspace()
    ws.engine.aggregate_store.min_state_area = 1
    # The in-memory backend drops commit-group annotations; keep what a WAL
    # would have been handed.
    marks: list[dict] = []
    ws.engine.storage_backend.annotate = marks.append
    writer_sessions = [ws.open_session(f"writer-{n}") for n in range(writers)]
    reader_sessions = [ws.open_session(f"reader-{n}") for n in range(readers)]
    committed: list[tuple] = []
    sheet = Sheet()

    def commit_op(op: tuple) -> None:
        committed.append(op)

    anchor_row, anchor_column = SEED_ANCHOR
    seed_op = ("value", anchor_row, anchor_column, seed)
    apply_edit(writer_sessions[0], seed_op)
    commit_op(seed_op)

    def other_writer(owner) -> "object | None":
        candidates = [w for w in writer_sessions if w is not owner]
        return rng.choice(candidates) if candidates else None

    def run_transaction(owner) -> None:
        survivors: list[tuple] = []
        # Stack of (handle, survivor-watermark, barriered) for open savepoints.
        stack: list[list] = []
        pushes = 0
        first_mark = len(marks)

        def own_marks() -> list[dict]:
            new = marks[first_mark:]
            assert all(mark["savepoints"] == 0 for mark in new
                       if mark["scope"] != owner.name), (seed, new)
            return [mark for mark in new if mark["scope"] == owner.name]

        def script() -> None:
            nonlocal pushes
            for _op in range(rng.randint(2, 8)):
                pick = rng.randrange(12)
                if pick < 5:  # owner edit, buffered in the transaction
                    op = random_edit(rng)
                    apply_edit(owner, op)
                    survivors.append(op)
                elif pick < 7:  # push a savepoint
                    stack.append([owner.savepoint(), len(survivors), False])
                    pushes += 1
                elif pick < 9 and stack:  # roll back to a random savepoint
                    index = rng.randrange(len(stack))
                    handle, watermark, barriered = stack[index]
                    if barriered:
                        # A mid-batch commit point made the work durable;
                        # the rollback must refuse rather than desync.
                        try:
                            handle.rollback()
                        except SavepointError:
                            pass
                        else:
                            raise AssertionError(
                                (seed, "barriered rollback succeeded"))
                    else:
                        handle.rollback()
                        del survivors[watermark:]
                        del stack[index + 1:]
                elif pick == 9 and stack and rng.random() < 0.5:
                    # Release a savepoint: keep its work, collapse the ones
                    # nested inside it.
                    index = rng.randrange(len(stack))
                    stack[index][0].release()
                    del stack[index:]
                elif pick == 9:  # mid-transaction structural edit: a commit
                    op = random_structural(rng)  # point; flushes survivors
                    commit_op_list = list(survivors)
                    survivors.clear()
                    committed.extend(commit_op_list)
                    commit_op(op)
                    apply_structural(owner, op)
                    for entry in stack:
                        entry[2] = True
                elif pick == 10:  # foreign activity while the txn is open
                    foreign = other_writer(owner)
                    if foreign is None:
                        continue
                    roll = rng.random()
                    if roll < 0.4:  # single edit commits autonomously —
                        # unless it lands on a cell the open transaction
                        # write-locked (uncommitted owner work on it).
                        op = random_edit(rng)
                        try:
                            apply_edit(foreign, op)
                        except TransactionBusyError:
                            assert ws.engine.transaction_touches(op[1], op[2]), (
                                seed, op, "spurious write-lock refusal")
                        else:
                            commit_op(op)
                    elif roll < 0.6:  # so does a batch of them: the whole
                        # transaction parks, its savepoint count included
                        ops = [random_edit(rng) for _ in range(rng.randint(2, 3))]
                        if any(ws.engine.transaction_touches(op[1], op[2])
                               for op in ops):
                            continue  # write-locked by the owner's work
                        scope = ws.engine.activate_scope(foreign, foreign.name)
                        try:
                            with ws.engine.autonomous(), ws.engine.batch():
                                for op in ops:
                                    apply_edit(ws.engine, op)
                        finally:
                            ws.engine.activate_scope(*scope)
                        committed.extend(ops)
                    elif roll < 0.8:  # foreign transaction: busy
                        try:
                            with foreign.batch():
                                raise AssertionError(
                                    (seed, "foreign batch not refused"))
                        except TransactionBusyError:
                            pass
                    else:  # foreign structural edit: busy
                        try:
                            apply_structural(foreign, random_structural(rng))
                        except TransactionBusyError:
                            pass
                        else:
                            raise AssertionError(
                                (seed, "foreign structural not refused"))
                else:  # scheduler drains mid-transaction (committed inputs)
                    ws.drain(rng.randint(1, 4))
            if rng.random() < 0.25:
                raise Boom()

        try:
            with owner.batch():
                script()
        except Boom:
            assert not own_marks(), (seed, "aborted transaction annotated")
            return  # aborted: survivors (and open savepoints) are gone
        committed.extend(survivors)
        # At most the closing group is annotated (a mid-transaction commit
        # point flushes inside the structural edit's own group).
        assert [mark["savepoints"] for mark in own_marks()] in ([], [pushes]), (
            seed, own_marks(), pushes)

    def snapshot_probe(reader) -> None:
        sample = [(rng.randint(1, DATA_ROWS), rng.randint(1, 5))
                  for _ in range(4)]
        with reader.read_snapshot() as snap:
            pinned = {key: snap.get_value(*key) for key in sample}
            for _edit in range(rng.randint(1, 3)):
                op = random_edit(rng)
                apply_edit(rng.choice(writer_sessions), op)
                commit_op(op)
            ws.drain(rng.randint(1, 6))
            for key, value in pinned.items():
                assert snap.get_value(*key) == value, (seed, key, "snapshot")
            if rng.random() < 0.3:  # structural edits invalidate snapshots
                op = random_structural(rng)
                apply_structural(rng.choice(writer_sessions), op)
                commit_op(op)
                try:
                    snap.get_value(*sample[0])
                except SnapshotInvalidatedError:
                    pass
                else:
                    raise AssertionError((seed, "snapshot not invalidated"))

    for _step in range(steps):
        action = rng.randrange(12)
        if action < 4:  # single committed edit by a random writer
            op = random_edit(rng)
            apply_edit(rng.choice(writer_sessions), op)
            commit_op(op)
        elif action < 8:  # a full transaction script
            run_transaction(rng.choice(writer_sessions))
        elif action < 9:  # standalone structural edit
            op = random_structural(rng)
            apply_structural(rng.choice(writer_sessions), op)
            commit_op(op)
        elif action < 11:  # reader churn: viewports, reads, partial drains
            reader = rng.choice(reader_sessions)
            roll = rng.random()
            if roll < 0.4:
                top = rng.randint(1, 30)
                reader.set_viewport(
                    RangeRef(top, 1, top + 10, 8) if rng.random() < 0.8 else None
                )
            elif roll < 0.7:
                reader.get_value(rng.randint(1, DATA_ROWS), rng.randint(1, 5))
                reader.get_range_values(RangeRef(1, 1, DATA_ROWS, 5))
            else:
                ws.drain(rng.randint(1, 5))
        else:  # snapshot isolation probe
            snapshot_probe(rng.choice(reader_sessions))

    ws.flush()
    for op in committed:
        apply_op(sheet, op)
    assert_oracle_agrees(ws.engine, sheet, context=(seed, "sessions"))
    ws.close()


# ---------------------------------------------------------------------- #
# overload / latency-chaos fuzz
# ---------------------------------------------------------------------- #
#: Queue-depth quota the overload runs arm admission control with.  Low
#: enough that edit bursts under injected latency actually hit it.
OVERLOAD_MAX_PENDING = 12
#: Allowed overshoot past the quota: admission is a high-water check, so
#: one admitted edit's full dirty fan-out (and one batch commit's dirty
#: set, which is never refused) may land past the mark — but never more.
OVERLOAD_FANOUT_SLACK = 120
#: Virtual session lease the reaper enforces (milliseconds).
OVERLOAD_LEASE_MS = 250.0


def run_overload(seed: int, *, writers: int = 3, readers: int = 2,
                 steps: int = 80) -> dict:
    """One randomized overload interleaving under injected latency.

    ``writers`` writer sessions and ``readers`` reader sessions share one
    admission-controlled async workspace whose every time source — engine
    clock, session lease, retry backoff — is a single
    :class:`~tests.support.faults.VirtualClock`; a randomized
    :class:`~tests.support.faults.LatencyPlan` makes evaluations slow or
    stuck through the scheduler's ``before_evaluate`` seam.  Writers issue
    retried single edits (admission refusals back off and drain), batched
    transactions with savepoints and mid-batch structural commit points,
    and — on stall-armed plans — park an open transaction past its lease
    for the reaper.  Readers issue deadline-bounded reads that must return
    within the deadline plus at most one evaluation's delay (the drain's
    progress guarantee), degrading to tagged stale values rather than
    blocking.

    Invariants checked throughout and at the end:

    * queue depth stays bounded: the high-water mark never exceeds the
      quota plus one edit's fan-out slack;
    * no reader starves: every deadline read returns within its bound,
      fresh or degraded (and degraded reads are tagged as such);
    * reaping releases write-locks (a cell locked by the stalled
      transaction becomes writable) and expires the zombie session;
    * zero committed-edit loss: after chaos is lifted and the queue
      drains, the grid equals a synchronous ``Sheet`` replay of exactly
      the committed ledger — ops shed by admission control or rolled back
      by the reaper are absent, everything acknowledged is present.

    Returns a metrics dict (sheds, degraded serves, reaps, high water).
    """
    from repro.errors import (
        EngineOverloadedError,
        SessionExpiredError,
        TransactionBusyError,
    )
    from repro.service import Workspace
    from repro.service.retry import RetryPolicy

    from tests.support.faults import LatencyPlan, VirtualClock

    rng = random.Random(seed)
    clock = VirtualClock()
    plan = LatencyPlan.random(rng, clock)
    policy = RetryPolicy(max_attempts=4, base_delay_ms=1.0,
                         max_delay_ms=64.0, clock=clock, sleep=clock.sleep)
    ws = Workspace(
        max_pending_compute=OVERLOAD_MAX_PENDING,
        max_pending_per_owner=OVERLOAD_MAX_PENDING // 2,
        session_lease_ms=OVERLOAD_LEASE_MS,
        clock=clock,
        retry_policy=policy,
    )
    ws.engine.aggregate_store.min_state_area = 1
    scheduler = ws.engine.compute_scheduler
    plan.install(scheduler)

    writer_sessions = [ws.open_session(f"writer-{n}") for n in range(writers)]
    reader_sessions = [ws.open_session(f"reader-{n}") for n in range(readers)]
    committed: list[tuple] = []
    sheet = Sheet()
    session_serial = [writers]
    metrics = {"attempted": 0, "refused": 0, "fresh_reads": 0,
               "degraded_reads": 0, "reaps": 0}

    anchor_row, anchor_column = SEED_ANCHOR
    seed_op = ("value", anchor_row, anchor_column, seed)
    apply_edit(writer_sessions[0], seed_op)
    committed.append(seed_op)

    def assert_depth_bounded(context: str) -> None:
        depth = scheduler.pending_count
        assert depth <= OVERLOAD_MAX_PENDING + OVERLOAD_FANOUT_SLACK, (
            seed, context, depth, "queue depth exceeded quota + fan-out")

    def retried_edit(writer) -> None:
        op = random_edit(rng)
        metrics["attempted"] += 1
        try:
            # On each backoff, drain a little: the retry loop *is* the
            # backpressure story — shed work re-offered after the queue
            # made progress should eventually land.
            policy.call(lambda: apply_edit(writer, op),
                        on_retry=lambda _e, _a: ws.drain(rng.randint(2, 6)))
        except (EngineOverloadedError, TransactionBusyError):
            metrics["refused"] += 1  # shed for good: never in the ledger
            ws.drain(rng.randint(4, 12))
        else:
            committed.append(op)

    def run_transaction(owner) -> None:
        survivors: list[tuple] = []
        try:
            with owner.batch():
                for _ in range(rng.randint(2, 6)):
                    roll = rng.random()
                    if roll < 0.6:
                        op = random_edit(rng)
                        apply_edit(owner, op)
                        survivors.append(op)
                    elif roll < 0.75:
                        handle = owner.savepoint()
                        mark = len(survivors)
                        doomed = random_edit(rng)
                        apply_edit(owner, doomed)
                        survivors.append(doomed)
                        if rng.random() < 0.6:
                            handle.rollback()
                            del survivors[mark:]
                        else:
                            handle.release()
                    else:
                        # Mid-transaction structural edit: a commit point
                        # flushing the survivors gathered so far.
                        op = random_structural(rng)
                        committed.extend(survivors)
                        survivors.clear()
                        committed.append(op)
                        apply_structural(owner, op)
                if rng.random() < 0.2:
                    raise Boom()
        except Boom:
            return
        except TransactionBusyError:
            return  # a stalled (not yet reaped) transaction holds the slot
        committed.extend(survivors)

    def stall_and_reap(index: int) -> None:
        """Park an open transaction past its lease; the reaper must free it."""
        owner = writer_sessions[index]
        try:
            handle = owner.savepoint()
        except TransactionBusyError:
            return
        survivors: list[tuple] = []
        locked: tuple | None = None
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.3:
                op = random_structural(rng)
                committed.extend(survivors)
                survivors.clear()
                committed.append(op)
                apply_structural(owner, op)
                locked = None  # the commit point flushed the write-locks
            else:
                op = random_edit(rng)
                apply_edit(owner, op)
                survivors.append(op)
                if op[0] != "clear":
                    locked = op
        other = writer_sessions[(index + 1) % len(writer_sessions)]
        if locked is not None:
            # The uncommitted cell is write-locked against foreign edits.
            try:
                other.set_value(locked[1], locked[2], -1)
            except TransactionBusyError:
                pass
            else:
                raise AssertionError((seed, locked, "write-lock not held"))
        # The session goes silent past its lease; everyone else keeps
        # heartbeating implicitly through their own ops.
        clock.advance(plan.stall_hold_seconds + OVERLOAD_LEASE_MS / 1000.0)
        reaped = ws.reap()
        assert owner.name in reaped, (seed, "stalled session not reaped")
        metrics["reaps"] += 1
        # Buffered survivors died with the transaction; pre-barrier work
        # (flushed by mid-transaction structural edits) stays committed.
        if locked is not None:
            # Drain first so admission control cannot confound the probe:
            # the only thing that may now refuse this write is the lock —
            # and the reap must have released it.
            ws.drain()
            probe = ("value", locked[1], locked[2], seed % 97)
            apply_edit(other, probe)
            committed.append(probe)
        try:
            handle.release()
        except SessionExpiredError:
            pass
        else:
            raise AssertionError((seed, "reaped savepoint release succeeded"))
        try:
            owner.get_value(1, 1)
        except SessionExpiredError:
            pass
        else:
            raise AssertionError((seed, "expired session still readable"))
        session_serial[0] += 1
        writer_sessions[index] = ws.open_session(
            f"writer-{session_serial[0]}")

    def deadline_read(reader) -> None:
        row = rng.randint(1, DATA_ROWS)
        column = rng.randint(1, 5)
        deadline_ms = rng.choice([0.0, 1.0, 5.0, 20.0])
        before = clock()
        read = reader.value(row, column, deadline_ms=deadline_ms,
                            allow_stale=True)
        elapsed = clock() - before
        # Progress guarantee: at most one evaluation runs past the
        # deadline, so the read returns within deadline + one delay.
        assert elapsed <= deadline_ms / 1000.0 + plan.max_single_delay + 1e-9, (
            seed, (row, column), elapsed, "reader starved past its deadline")
        if read.fresh:
            metrics["fresh_reads"] += 1
            assert not read.degraded, (seed, "fresh read tagged degraded")
        else:
            metrics["degraded_reads"] += 1
            assert read.degraded, (seed, "stale read not tagged degraded")
            assert read.retry_after_ms > 0, (seed, "degraded read lacks hint")

    for _step in range(steps):
        action = rng.randrange(12)
        if action < 3:
            retried_edit(rng.choice(writer_sessions))
        elif action < 4:
            # A burst: every writer fires without anyone draining — the
            # arm that actually drives the queue into its quota.
            for writer in writer_sessions:
                for _ in range(rng.randint(1, 3)):
                    retried_edit(writer)
        elif action < 6:
            run_transaction(rng.choice(writer_sessions))
        elif action < 7:
            if plan.stall_sessions:
                stall_and_reap(rng.randrange(len(writer_sessions)))
            else:
                ws.reap()  # sweeps on a healthy workspace are no-ops
        elif action < 10:
            reader = rng.choice(reader_sessions)
            if rng.random() < 0.3:
                top = rng.randint(1, 30)
                reader.set_viewport(
                    RangeRef(top, 1, top + 10, 8) if rng.random() < 0.8 else None
                )
            else:
                deadline_read(reader)
        else:
            ws.drain(rng.randint(1, 8))
        assert_depth_bounded(f"step {_step}")

    # Lift the chaos, drain fully, and replay the ledger synchronously:
    # everything committed must be present, everything shed or reaped absent.
    plan.uninstall(scheduler)
    ws.flush()
    for op in committed:
        apply_op(sheet, op)
    assert_oracle_agrees(ws.engine, sheet, context=(seed, "overload"))
    high_water = scheduler.stats.high_water
    assert high_water <= OVERLOAD_MAX_PENDING + OVERLOAD_FANOUT_SLACK, (
        seed, high_water, "high-water mark exceeded quota + fan-out")
    metrics.update(shed=ws.shed_count, stale_serves=ws.stale_serve_count,
                   reaped=ws.reaped_count, high_water=high_water)
    ws.close()
    return metrics
