"""One seeded fuzz harness whose axes compose: ``run(seed, axes)``.

One op alphabet (:data:`OPS`), one transaction script, one commit
:class:`Ledger` and one replay oracle serve every point of :class:`Axes`:
recompute (sync or async), durability (none, or a WAL under a random
:class:`~tests.support.faults.FaultPlan`), sessions (writers and readers
over a :class:`~repro.service.Workspace`), overload (quotas, a virtual
clock and a latency plan) and live views (none, pinned or spilled).
Running aggregate states are forced on, so the full-read replay is their
reference.

* **Generators.**  Cell edits (constants, strictly-left-reading formulas,
  clears) and *unbounded* structural edits — inside the data block, far
  beyond any stored extent, above the RCV anchor and at the sheet
  boundary; they never consult ``model.region()``.  The ``shared`` cell
  mix points many formulas at a few identical ranges instead.
* **After every step** (and between a transaction's inner ops)
  :func:`~tests.support.invariants.check_engine` holds the engine-wide
  invariants; only a simulated crash, which kills the engine, skips it.
* **Oracle.**  The committed ledger replays synchronously into a
  :func:`full_read_engine`, fed as the run goes: each probe holds the
  planned query against a naive read of the replay so far.  After the
  final full drain values and formula text must agree with it over
  :data:`COMPARE_WINDOW`, and with ``sheet_oracle`` a ``Sheet`` fed the
  same ledger must agree too.  With a WAL the workspace is then recovered
  — after a crash, to the last durable watermark — and must equal the
  replay of exactly what was durable.

The presets (:data:`EQUIVALENCE` ... :data:`COMPOSED`) are the suites'
entry points; ``REPRO_FUZZ_SEEDS`` widens every sweep (``make fuzz``).
"""

from __future__ import annotations

import random
import shutil
import sys
import tempfile
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import ClassVar

from repro.engine.dataspread import DataSpread
from repro.errors import (
    EngineOverloadedError,
    FormulaSyntaxError,
    SavepointError,
    SessionExpiredError,
    SnapshotInvalidatedError,
    TransactionBusyError,
)
from repro.grid.address import MAX_COLUMNS, MAX_ROWS, CellAddress, column_index_to_letter
from repro.grid.range import RangeRef
from repro.grid.sheet import Sheet
from repro.grid.structural import StructuralEdit
from repro.query import col, count, select, sum_
from repro.query.builder import region as query_region
from repro.query.planner import compare_values
from repro.service import Workspace
from repro.service.retry import RetryPolicy
from repro.storage.recovery import recover

from tests.support.faults import FaultPlan, LatencyPlan, SimulatedCrash, VirtualClock
from tests.support.invariants import check_engine

#: Rows/columns of the constant data block the formulas read.
DATA_ROWS = 24
DATA_COLUMNS = 2
#: Columns formulas land in (strictly right of every column they read).
FORMULA_COLUMNS = (3, 4, 5)
#: The window compared cell-by-cell against the oracles.
COMPARE_WINDOW = RangeRef(1, 1, 60, 12)
#: Spilled views land right of the compared window: formulas read only
#: columns left of their own, so nothing the window holds reads a spill.
SPILL_COLUMNS = (21, 27, 32)

#: Anchor of the first seeded cell: > 1 on both axes so the catch-all RCV
#: table starts anchored *below/right* of the sheet origin — structural
#: edits at rows/columns 1..anchor-1 exercise the above/left-of-anchor
#: paths every run.
SEED_ANCHOR = (10, 2)

#: Region the fuzz queries and views scan: the data block, the formula
#: columns and margin rows.  Header-less — columns go by sheet letter.
QUERY_REGION = RangeRef(1, 1, DATA_ROWS + 6, 4)
#: Predicate threshold; random constants (0..99) straddle it.
QUERY_THRESHOLD = 40

#: The ``shared`` cell mix: thirty formula slots over four distinct ranges.
SHARED_POOL = ("A1:A40", "A1:A20", "A10:A30", "A5:A40")
SHARED_FUNCTIONS = ("SUM", "COUNT", "COUNTA", "AVERAGE", "MIN", "MAX")
SHARED_ROWS = 40

#: Queue-depth quota the overload axis arms admission control with.
OVERLOAD_MAX_PENDING = 12
#: Allowed overshoot past the quota: admission is a high-water check, so
#: one admitted edit's full dirty fan-out (and one batch commit's dirty
#: set, which is never refused) may land past the mark — but never more.
OVERLOAD_FANOUT_SLACK = 120
#: Virtual session lease the reaper enforces (milliseconds).
OVERLOAD_LEASE_MS = 250.0

#: Structural op tags and the edit each one is (the ledger re-keys by it).
STRUCTURAL_EDITS = {
    "insert_row_after": StructuralEdit.insert_rows,
    "delete_row": StructuralEdit.delete_rows,
    "insert_column_after": StructuralEdit.insert_columns,
    "delete_column": StructuralEdit.delete_columns,
}
#: The op alphabet: every step of every run is one of these.
OPS = ("edit", "deep", "structural", "txn", "drain", "viewport", "checkpoint",
       "probe", "burst", "stall", "deadline")
#: The transaction script's inner ops.
TXN_OPS = ("edit", "push", "rollback", "release", "structural", "foreign", "drain")


class Boom(Exception):
    """The exception scripted transaction aborts raise."""


# -- generators ---------------------------------------------------------- #
#: Share of reference corners the fuzz formulas ``$``-anchor (``$A$1``,
#: ``A$1`` or ``$A1``, each corner of a range on its own): relative and
#: anchored components take different paths through structural edits.
ANCHOR_RATE = 0.25


def random_formula(rng: random.Random, column: int) -> str:
    """A formula referencing only columns strictly left of ``column``.

    Strict left-reference keeps every random graph acyclic however lines
    shift.  Half the mix is aggregate-heavy — wide, often multi-column
    ranges over constants, clears and formulas — to fuzz the running
    aggregate states (MIN/MAX support loss and ``#DIV/0!`` included).
    A quarter of the corners carry ``$`` anchors (:data:`ANCHOR_RATE`).
    """
    def corner(target: int, row: int) -> str:
        letters = column_index_to_letter(target)
        if rng.random() >= ANCHOR_RATE:
            return f"{letters}{row}"
        return rng.choice((f"${letters}${row}", f"{letters}${row}", f"${letters}{row}"))

    def cell_ref() -> str:
        return corner(rng.randint(1, column - 1), rng.randint(1, DATA_ROWS))

    def range_ref() -> str:
        target = rng.randint(1, column - 1)
        top = rng.randint(1, DATA_ROWS - 4)
        return f"{corner(target, top)}:{corner(target, top + rng.randint(1, 4))}"

    def wide_range_ref() -> str:
        left = rng.randint(1, column - 1)
        right = rng.randint(left, column - 1)
        top, bottom = rng.randint(1, 4), rng.randint(DATA_ROWS - 4, DATA_ROWS + 6)
        return f"{corner(left, top)}:{corner(right, bottom)}"

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
        return ("formula", rng.randint(1, DATA_ROWS), column, random_formula(rng, column))
    return ("clear", rng.randint(1, DATA_ROWS), rng.randint(1, 5))


def shared_edit(rng: random.Random) -> tuple:
    """One edit of the ``shared`` mix: (re)subscribe a slot to a pooled
    range, overwrite or clear a slot, or edit the shared data column with
    any value type."""
    action = rng.randrange(9)
    row, column = rng.randint(1, 15), rng.choice((3, 4))
    if action < 4:
        text = f"{rng.choice(SHARED_FUNCTIONS)}({rng.choice(SHARED_POOL)})"
        return ("formula", row, column, text)
    if action < 6:
        return ("value", row, column, rng.randint(-5, 5))
    if action < 7:
        return ("clear", row, column)
    value = rng.choice([rng.randint(-9, 9), None, "x", 2.5])
    row = rng.randint(1, SHARED_ROWS)
    return ("clear", row, 1) if value is None else ("value", row, 1, value)


def deep_formula(rng: random.Random) -> str:
    """A formula nesting past ``MAX_FORMULA_DEPTH``: a long ``+`` chain,
    deep parentheses or a unary chain."""
    shape, depth = rng.randrange(3), rng.randint(402, 600)
    if shape == 0:
        return "=" + "+".join(["B1"] * depth)
    if shape == 1:
        return "=" + "(" * depth + "B1" + ")" * depth
    return "=" + "-" * depth + "B1"


def random_structural(rng: random.Random) -> tuple:
    """An *unbounded* structural edit: no extent clamp of any kind."""
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


# -- apply helpers (engine, session and Sheet share the methods) ---------- #
def apply_edit(target, edit: tuple) -> None:
    """Route one cell edit to an engine, a session or the ``Sheet``."""
    kind = edit[0]
    if kind == "value":
        target.set_value(edit[1], edit[2], edit[3])
    elif kind == "formula":
        target.set_formula(edit[1], edit[2], edit[3])
    else:
        target.clear_cell(edit[1], edit[2])


def apply_structural(target, op: tuple) -> None:
    """Route one structural edit to an engine, a session or the ``Sheet``."""
    kind, line, count = op
    getattr(target, kind)(line, count)


def apply_op(target, op: tuple) -> None:
    """Route a mixed cell-or-structural op."""
    if op[0] in STRUCTURAL_EDITS:
        apply_structural(target, op)
    else:
        apply_edit(target, op)


# -- oracles ------------------------------------------------------------- #
def full_read_engine(**options) -> DataSpread:
    """A reference engine that folds every aggregate from a full range read
    (both promotion floors out of reach: no running state ever)."""
    spread = DataSpread(**options)
    spread.aggregate_store.min_state_area = sys.maxsize
    spread.aggregate_store.min_state_subscribers = sys.maxsize
    return spread


def assert_grids_agree(actual: DataSpread, expected: DataSpread, context=(),
                       window: RangeRef = COMPARE_WINDOW) -> None:
    """Values and formula text must agree cell-for-cell over ``window``."""
    for row in range(window.top, window.bottom + 1):
        for column in range(window.left, window.right + 1):
            want, got = expected.get_cell(row, column), actual.get_cell(row, column)
            assert got.value == want.value, (*context, row, column)
            assert got.formula == want.formula, (*context, row, column)


def assert_oracle_agrees(spread: DataSpread, sheet: Sheet, context=(),
                         window: RangeRef = COMPARE_WINDOW) -> None:
    """The engine grid must match a ``DataSpread`` rebuilt from the ``Sheet``."""
    assert_grids_agree(spread, DataSpread.from_sheet(sheet.copy()), (*context, "oracle"), window)


def replay_ops(spread: DataSpread, ops: list[tuple]) -> DataSpread:
    """Apply ``ops`` in order: the cell edits between two structural edits
    land as one batch (one recompute pass), each structural edit on its
    own, outside any batch."""
    cell_ops: list[tuple] = []
    for op in (*ops, None):
        if op is not None and op[0] not in STRUCTURAL_EDITS:
            cell_ops.append(op)
            continue
        with spread.batch():
            for cell_op in cell_ops:
                apply_edit(spread, cell_op)
        cell_ops.clear()
        if op is not None:
            apply_structural(spread, op)
    return spread


def assert_matches_replay(recovered: DataSpread, committed_ops: list[tuple],
                          context: tuple) -> None:
    """The grid must equal a synchronous replay of ``committed_ops``."""
    assert_grids_agree(recovered, replay_ops(DataSpread(), committed_ops),
                       (*context, "replay"))


def fuzz_query(target_region: RangeRef = QUERY_REGION, limit: int | None = None):
    """The filter query the probes issue (and the first pinned view)."""
    query = (select(query_region(target_region, header=False))
             .where(col("A") > QUERY_THRESHOLD))
    return query if limit is None else query.limit(limit)


def pin_fuzz_views(spread: DataSpread, *, spill: bool = False) -> list:
    """Pin three view shapes: the filter, a ``GROUP BY`` and an ``ORDER BY
    ... LIMIT`` — spilled right of the compared window when ``spill``.
    Columns A and B only ever hold integers or nothing while a header-less
    view stays attached, so the sort never meets mixed types."""
    source = select(query_region(QUERY_REGION, header=False))
    queries = {
        "fuzz-view": fuzz_query(),
        "fuzz-group": (source.project(col("B"), count(alias="n"), sum_("A", alias="total"))
                       .group_by(col("B"))),
        "fuzz-top": source.project(col("A"), col("B")).order_by(col("A").desc()).limit(3),
    }
    return [spread.create_live_view(query, name=name,
                                    at=CellAddress(1, column) if spill else None)
            for (name, query), column in zip(queries.items(), SPILL_COLUMNS)]


def naive_query_rows(spread: DataSpread, target_region: RangeRef) -> list[tuple]:
    """Full-materialise oracle for :func:`fuzz_query`: read every cell of the
    region one by one and filter in Python."""
    records = (tuple(spread.get_value(row, column)
                     for column in range(target_region.left, target_region.right + 1))
               for row in range(target_region.top, target_region.bottom + 1))
    return [record for record in records if compare_values(">", record[0], QUERY_THRESHOLD)]


def assert_query_agrees(spread: DataSpread, oracle: DataSpread, context=()) -> None:
    """The planned, streamed query must match the naive read of ``oracle``."""
    expected = naive_query_rows(oracle, QUERY_REGION)
    assert [tuple(r) for r in spread.execute(fuzz_query())] == expected, (*context, "query")
    limited = [tuple(r) for r in spread.execute(fuzz_query(limit=5))]
    assert limited == expected[:5], (*context, "query-limit")


# -- axes and presets ---------------------------------------------------- #
@dataclass(frozen=True)
class Axes:
    """One point of the fuzz space.  Every axis is a value the one harness
    reads; none selects a different code path."""

    recompute: str = "sync"            #: "sync" or "async"
    durability: bool = False           #: a WAL under a random FaultPlan
    writers: int = 0                   #: writer sessions (0: ops drive the engine)
    readers: int = 0                   #: reader sessions
    overload: bool = False             #: quotas, virtual clock, latency plan, reaper
    views: str = "none"                #: "none", "pinned" or "spilled"
    cells: str = "grid"                #: cell-edit mix: "grid" or "shared"
    #: Top-level op weights (names from :data:`OPS`).
    mix: tuple[tuple[str, int], ...] = (("edit", 1),)
    #: Transaction-script inner op weights (names from :data:`TXN_OPS`).
    txn_mix: tuple[tuple[str, int], ...] = (
        ("edit", 6), ("push", 2), ("rollback", 2), ("release", 1), ("structural", 1))
    abort: float = 0.25                #: chance a transaction script aborts
    drain_limit: int = 4               #: partial drains run 1..n cells (0: full)
    steps: int = 50
    sheet_oracle: bool = False         #: also hold the grid against a ``Sheet``
    max_appends: int = 120             #: ceiling of the FaultPlan crash countdown

    #: What each axis or op needs; :meth:`__post_init__` refuses the rest.
    REQUIRES: ClassVar[dict[str, str]] = {
        "overload": "async recompute (admission gates only the async queue) and "
                    "writer and reader sessions (the reaper and deadline reads)",
        "stall": "the overload axis: the virtual clock and the lease reaper",
        "deadline": "the overload axis: its latency plan bounds a late read",
        "foreign": "two writer sessions",
    }
    # Combinations the engine refuses; the op named performs each one and
    # asserts the refusal, none is skipped:
    # * a structural edit or a batch during another session's transaction,
    #   and an autonomous edit of a cell it wrote: TransactionBusyError
    #   (``txn_foreign``, ``op_stall``);
    # * a savepoint rollback across a mid-batch commit point: SavepointError
    #   (``txn_rollback``);
    # * a formula nesting deeper than MAX_FORMULA_DEPTH: FormulaSyntaxError
    #   (``op_deep``);
    # * an async edit past the admission quota, retried then shed:
    #   EngineOverloadedError (``edit``, ``commit``);
    # * any op through a session the reaper expired: SessionExpiredError
    #   (``op_stall``);
    # * a snapshot read across a structural edit: SnapshotInvalidatedError
    #   (``snapshot_probe``).

    def __post_init__(self) -> None:
        ops, inner = dict(self.mix), dict(self.txn_mix)
        unknown = (set(ops) - set(OPS)) | (set(inner) - set(TXN_OPS))
        if unknown:
            raise ValueError(f"unknown ops {sorted(unknown)}")
        needs = {
            "overload": self.overload and not (
                self.recompute == "async" and self.writers and self.readers),
            "stall": ops.get("stall") and not self.overload,
            "deadline": ops.get("deadline") and not self.overload,
            "foreign": inner.get("foreign") and ops.get("txn") and self.writers < 2,
        }
        for name, unmet in needs.items():
            if unmet:
                raise ValueError(f"{name} needs {self.REQUIRES[name]}")


#: Async engine with three pinned views against the ``Sheet``: edits,
#: clean and aborted transactions, unbounded structural edits, partial
#: drains, viewport moves and query/view probes.  The suites run it in
#: both recompute modes.
EQUIVALENCE = Axes(
    recompute="async", views="pinned", sheet_oracle=True, steps=70, abort=1 / 3,
    mix=(("edit", 12), ("deep", 1), ("txn", 6), ("structural", 4), ("drain", 1),
         ("viewport", 1), ("probe", 2)))
#: Transactions whose structural edits land mid-batch, then abort or commit.
MID_BATCH = Axes(
    recompute="async", views="pinned", steps=40, abort=0.3, drain_limit=3,
    mix=(("edit", 8), ("txn", 4), ("drain", 4), ("probe", 1)),
    txn_mix=(("edit", 3), ("structural", 2), ("push", 1), ("rollback", 1)))
#: Many formulas sharing a small pool of ranges, churned hard; the grid
#: must end equal to the full-read reference.
REFCOUNT_CHURN = Axes(
    cells="shared", steps=120, abort=1.0,
    mix=(("edit", 18), ("structural", 1), ("txn", 1)))
#: Sync durable engine under a random fault plan; recovery must land on
#: exactly the last durable commit point.
CRASH = Axes(
    durability=True, steps=50,
    mix=(("edit", 6), ("txn", 3), ("structural", 2), ("checkpoint", 1)),
    txn_mix=(("edit", 10), ("push", 3), ("rollback", 2), ("release", 2),
             ("structural", 5)))
#: Async durable engine: a formula is durable once its evaluation commits.
ASYNC_CRASH = Axes(
    recompute="async", durability=True, steps=50, drain_limit=0, max_appends=60,
    mix=(("edit", 7), ("structural", 2), ("drain", 2), ("checkpoint", 1)))
_SESSION_TXN = (("edit", 5), ("push", 2), ("rollback", 2), ("release", 1),
                ("structural", 1), ("foreign", 1), ("drain", 1))
#: Three writers and two readers over one async workspace.
SESSIONS = Axes(
    recompute="async", writers=3, readers=2, sheet_oracle=True, steps=90,
    drain_limit=5, txn_mix=_SESSION_TXN,
    mix=(("edit", 8), ("txn", 8), ("structural", 2), ("viewport", 2), ("drain", 1),
         ("probe", 3)))
#: Admission-controlled workspace under injected latency and stalls.
OVERLOAD = Axes(
    recompute="async", writers=3, readers=2, overload=True, sheet_oracle=True,
    steps=80, abort=0.2, drain_limit=8,
    mix=(("edit", 3), ("burst", 1), ("txn", 2), ("stall", 1), ("viewport", 1),
         ("deadline", 2), ("drain", 2)),
    txn_mix=(("edit", 8), ("push", 2), ("rollback", 2), ("release", 1),
             ("structural", 3)))
#: Every axis at once.
COMPOSED = Axes(
    recompute="async", durability=True, writers=3, readers=2, overload=True,
    views="spilled", steps=60, drain_limit=8, txn_mix=_SESSION_TXN,
    mix=(("edit", 6), ("deep", 1), ("txn", 4), ("structural", 2), ("drain", 2),
         ("viewport", 1), ("checkpoint", 1), ("probe", 2), ("burst", 1),
         ("stall", 1), ("deadline", 2)))


# -- the commit ledger --------------------------------------------------- #
class Ledger:
    """Committed ops in commit order, each with the WAL watermark at which
    it became durable — the crash ledger of commit-point alternatives, one
    ``[watermark, op]`` entry per op: a mid-batch commit point gives the
    batch prefix its own watermark.  An async formula on a WAL is durable
    only once its evaluation commits, so it stays unresolved (``None``)
    until a drain settles it.  Without durability every watermark is 0 and
    counts as reached."""

    def __init__(self, backend=None, *, provisional_formulas: bool = False) -> None:
        self._backend = backend
        self._provisional = provisional_formulas
        self.entries: list[list] = []
        self._unresolved: list[tuple[list, CellAddress | None]] = []

    def mark(self) -> int:
        """The watermark the next commit point reaches."""
        return self._backend.durable_commits + 1 if self._backend else 0

    def record(self, ops, mark: int | None = None) -> None:
        """Append ``ops`` committing at ``mark`` (default: the next commit
        point).  Record *before* the call that commits: a crash after the
        commit landed must still find the ops."""
        mark = self.mark() if mark is None else mark
        for op in ops:
            entry = [mark, op]
            if op[0] in STRUCTURAL_EDITS:
                edit = STRUCTURAL_EDITS[op[0]](op[1], op[2])
                self._unresolved = [(e, address and edit.map_address(address))
                                    for e, address in self._unresolved]
            elif self._provisional and op[0] == "formula":
                entry[0] = None
                self._unresolved.append((entry, CellAddress(op[1], op[2])))
            self.entries.append(entry)

    def retract(self) -> None:
        """Drop the last op, a cell edit the engine refused."""
        gone = self.entries.pop()
        self._unresolved = [item for item in self._unresolved if item[0] is not gone]

    def settle(self, engine: DataSpread) -> None:
        """At a commit point with nothing buffered: an unresolved formula
        whose cell no longer holds a provisional placeholder was written (or
        overwritten by a later op, which then wins the replay anyway)."""
        if not self._unresolved:
            return
        reached, waiting = self._backend.durable_commits, []
        for entry, address in self._unresolved:
            if address is None or not engine.cache.is_provisional(address.row, address.column):
                entry[0] = reached
            else:
                waiting.append((entry, address))
        self._unresolved = waiting

    def committed(self, durable: float = float("inf")) -> list[tuple]:
        """The ops whose commit point ``durable`` reached, in commit order."""
        return [op for mark, op in self.entries if mark is not None and mark <= durable]


class _Txn:
    """One open transaction script: its owner, the ops that survive so far,
    and its savepoints as ``[handle, survivors watermark, barriered]``."""

    def __init__(self, owner) -> None:
        self.owner = owner
        self.survivors: list[tuple] = []
        self.stack: list[list] = []
        self.pushes = 0


def _expect(error: type[BaseException], action, *context) -> None:
    try:
        action()
    except error:
        return
    raise AssertionError((*context, f"{error.__name__} not raised"))


# -- run(seed, axes) ---------------------------------------------------- #
def run(seed: int, axes: Axes) -> dict:
    """One seeded run over ``axes``; returns its counters.  Every assertion
    message carries the seed, so a failure replays as a one-seed run."""
    fuzz = _Run(seed, axes)
    try:
        return fuzz.play()
    finally:
        fuzz.close()


class _Run:
    def __init__(self, seed: int, axes: Axes) -> None:
        self.seed, self.axes = seed, axes
        self.rng = rng = random.Random(seed)
        self.metrics: Counter = Counter()
        self.workdir = self.plan = self.clock = self.latency = self.policy = self.ws = None
        options: dict = {"async_recompute": axes.recompute == "async"}
        if axes.durability:
            self.workdir = tempfile.mkdtemp(prefix=f"repro-fuzz-{seed}-")
            self.plan = FaultPlan.random(rng, max_appends=axes.max_appends)
            options.update(durability="wal", storage_dir=self.workdir,
                           wal_options=self.plan.wal_options())
            # The crash arm counts the appends of the run's ops: the log's
            # header, written while the engine is built, is not one of them.
            self.plan.crash_enabled = False
        if axes.overload:
            self.clock = VirtualClock()
            self.latency = LatencyPlan.random(rng, self.clock)
            self.policy = RetryPolicy(max_attempts=4, base_delay_ms=1.0, max_delay_ms=64.0,
                                      clock=self.clock, sleep=self.clock.sleep)
            options.update(max_pending_compute=OVERLOAD_MAX_PENDING,
                           max_pending_per_owner=OVERLOAD_MAX_PENDING // 2)
        if axes.writers:
            self.ws = Workspace(session_lease_ms=OVERLOAD_LEASE_MS if axes.overload else None,
                                clock=self.clock, retry_policy=self.policy, **options)
            self.engine = self.ws.engine
            self.writers = [self.ws.open_session(f"writer-{n}") for n in range(axes.writers)]
            self.readers = [self.ws.open_session(f"reader-{n}") for n in range(axes.readers)]
        else:
            self.engine = DataSpread(**options)
            self.writers = self.readers = [self.engine]
        if self.plan is not None:
            self.plan.crash_enabled = True
        self.sessions_opened = axes.writers
        self.engine.aggregate_store.min_state_area = 1  # tiny grid: force running states
        if self.latency is not None:
            self.latency.install(self.engine.compute_scheduler)
        # Commit-group annotations, as a WAL would be handed them.
        self.marks: list[dict] = []
        backend = self.engine.storage_backend
        logged = backend.annotate
        backend.annotate = lambda payload: (self.marks.append(payload), logged(payload))
        self.ledger = Ledger(backend if axes.durability else None,
                             provisional_formulas=axes.durability and axes.recompute == "async")
        self.views: list = []
        self.step: object = "setup"
        self.replayed: tuple = (None, None)  # the final replay, reused by recovery
        self.fed: tuple = ([], None)  # the kept replay: the ops it holds, and the engine

    def context(self, *extra) -> tuple:
        return (self.seed, self.step, *extra)

    def choose(self, weights) -> str:
        roll = self.rng.randrange(sum(weight for _name, weight in weights))
        for name, weight in weights:
            roll -= weight
            if roll < 0:
                return name
        raise AssertionError("unreachable")

    def close(self) -> None:
        try:
            (self.ws or self.engine).close()
        except SimulatedCrash:
            pass  # a crashed workspace may refuse even its close
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)

    # -- the run ---------------------------------------------------------- #
    def play(self) -> dict:
        try:
            self.setup()
            for step in range(self.axes.steps):
                self.step = step
                getattr(self, "op_" + self.choose(self.axes.mix))()
                self.check()
            self.step = "final"
            self.finish()
        except SimulatedCrash:
            self.metrics["crashed"] = 1
        if self.axes.durability:
            self.check_recovery()
        return dict(self.metrics)

    def setup(self) -> None:
        if self.axes.views != "none":
            self.views = pin_fuzz_views(self.engine, spill=self.axes.views == "spilled")
        self.commit(self.writers[0], ("value", *SEED_ANCHOR, self.seed))
        if self.axes.cells == "shared":
            block = [self.rng.randint(-9, 9) for _ in range(SHARED_ROWS)]
            self.ledger.record([("value", row, 1, value) for row, value in enumerate(block, 1)])
            self.engine.import_rows([[value] for value in block])
        self.check()

    def check(self) -> None:
        check_engine(self.engine, workspace=self.ws, context=self.context())
        if self.axes.overload:
            depth = self.engine.compute_scheduler.pending_count
            assert depth <= OVERLOAD_MAX_PENDING + OVERLOAD_FANOUT_SLACK, self.context(
                depth, "queue depth exceeded quota + fan-out")

    def finish(self) -> None:
        """Lift the chaos, drain fully, and hold the grid against the oracles."""
        if self.latency is not None:
            self.latency.uninstall(self.engine.compute_scheduler)
        with self.evaluating():
            self.engine.flush_compute()
            for view in self.views:
                if not view.detached:
                    view.value()
        self.check()
        committed = self.ledger.committed()
        replay = self.replay(committed, views=self.axes.views == "spilled")
        self.replayed = (committed, replay)
        assert_grids_agree(self.engine, replay, self.context("replay"))
        if self.axes.views == "spilled":
            self.assert_spills_agree(replay)
        oracle = replay
        if self.axes.sheet_oracle:
            sheet = Sheet()
            for op in committed:
                apply_op(sheet, op)
            oracle = DataSpread.from_sheet(sheet)
            assert_grids_agree(self.engine, oracle, self.context("oracle"))
        assert_query_agrees(self.engine, oracle, self.context())
        for view in self.views:
            if view.name == "fuzz-view" and not view.detached:
                expected = naive_query_rows(oracle, view.query.source.region)
                assert [tuple(r) for r in view.value().rows] == expected, self.context("view")
        if self.axes.overload:
            high_water = self.engine.compute_scheduler.stats.high_water
            assert high_water <= OVERLOAD_MAX_PENDING + OVERLOAD_FANOUT_SLACK, self.context(
                high_water, "high-water mark exceeded quota + fan-out")
            self.metrics.update(shed=self.ws.shed_count, high_water=high_water,
                                stale_serves=self.ws.stale_serve_count)

    def assert_spills_agree(self, replay: DataSpread) -> None:
        """Each attached view's spill equals the replay's.  A detached view
        leaves its last spill as plain cells, and when it last refreshed
        depends on the recompute mode, so only the detachment must agree."""
        for view, twin in zip(self.views, replay.live_views):
            assert bool(view.detached) == bool(twin.detached), self.context(view.name)
            if view.detached:
                continue
            for row, column in sorted(view._spilled | twin._spilled):
                assert (self.engine.get_cell(row, column) == replay.get_cell(row, column)
                        ), self.context("spill", view.name, row, column)

    def replay(self, ops: list[tuple], *, views: bool = False) -> DataSpread:
        """A synchronous engine holding ``ops`` that folds every aggregate
        from full reads, not running states.  With ``views`` it is fresh,
        its views spilled like ours (a spill depends on when it refreshed);
        otherwise it is kept between calls and fed only the ops past those
        it holds whenever ``ops`` extend them, else it starts over."""
        if views:
            spread = full_read_engine()
            pinned = pin_fuzz_views(spread, spill=True)
            replay_ops(spread, ops)
            for view in pinned:
                if not view.detached:
                    view.value()
            return spread
        fed, spread = self.fed
        if spread is None or ops[:len(fed)] != fed:
            fed, spread = [], full_read_engine()
        replay_ops(spread, ops[len(fed):])
        self.fed = (ops, spread)
        return spread

    def check_recovery(self) -> None:
        """Recover the workspace and compare it with the durable ledger."""
        crashed = self.metrics["crashed"]
        if not crashed:
            (self.ws or self.engine).close()
        durable = self.engine.storage_backend.durable_commits
        committed = self.ledger.committed(durable)
        replay = (self.replay(committed, views=self.axes.views == "spilled")
                  if committed != self.replayed[0] else self.replayed[1])
        recovered = recover(self.workdir)
        try:
            assert_grids_agree(recovered, replay, self.context(durable, "recovered"))
        finally:
            recovered.close()

    # -- shared mechanics ------------------------------------------------- #
    @contextmanager
    def evaluating(self):
        """Around anything that evaluates queued formulas: the crash arm is
        parked, so the evaluation commits completely or the run was dead
        already, and the ledger learns which async formulas it made durable."""
        if self.plan is not None:
            self.plan.crash_enabled = False
        try:
            yield
        finally:
            if self.plan is not None:
                self.plan.crash_enabled = True
        if not self.engine.in_batch:
            self.ledger.settle(self.engine)

    def drain(self, limit: int | None = None) -> None:
        with self.evaluating():
            self.engine.flush_compute(limit)

    def commit(self, actor, op: tuple) -> None:
        """One op that commits on its own (autocommit or autonomous).  Past
        the global quota, an edit outside any transaction that does not
        coalesce into queued work must be shed."""
        engine = self.engine
        shed = (self.axes.overload and op[0] not in STRUCTURAL_EDITS and not engine._txn.frames
                and engine.compute_pending >= OVERLOAD_MAX_PENDING and engine.is_fresh(*op[1:3]))
        self.ledger.record([op])
        try:
            apply_op(actor, op)
        except (EngineOverloadedError, TransactionBusyError):
            self.ledger.retract()
            raise
        assert not shed, self.context(op, "admitted past the global quota")

    def edit(self, writer, op: tuple) -> None:
        """A single committed edit; under overload, retried with backoff
        (each retry drains a little) and shed for good past the policy."""
        self.metrics["attempted"] += 1
        if not self.axes.overload:
            self.commit(writer, op)
            return
        try:
            self.policy.call(lambda: self.commit(writer, op),
                             on_retry=lambda _e, _a: self.drain(self.rng.randint(2, 6)))
        except (EngineOverloadedError, TransactionBusyError):
            self.metrics["refused"] += 1  # shed for good: never in the ledger
            self.drain(self.rng.randint(4, 12))

    def new_edit(self) -> tuple:
        return (shared_edit if self.axes.cells == "shared" else random_edit)(self.rng)

    # -- the op alphabet -------------------------------------------------- #
    def op_edit(self) -> None:
        self.edit(self.rng.choice(self.writers), self.new_edit())

    def op_burst(self) -> None:
        """Every writer fires without anyone draining in between."""
        for writer in self.writers:
            for _ in range(self.rng.randint(1, 3)):
                self.edit(writer, self.new_edit())

    def op_deep(self) -> None:
        """A too-deep formula is refused before anything changes."""
        writer = self.rng.choice(self.writers)
        row, column = self.rng.randint(1, DATA_ROWS), self.rng.choice(FORMULA_COLUMNS)
        before = self.engine.get_cell(row, column)
        text = deep_formula(self.rng)
        _expect(FormulaSyntaxError, lambda: writer.set_formula(row, column, text),
                *self.context("deep"))
        assert self.engine.get_cell(row, column) == before, self.context("deep", row, column)

    def op_structural(self) -> None:
        self.commit(self.rng.choice(self.writers), random_structural(self.rng))

    def op_drain(self) -> None:
        limit = self.axes.drain_limit
        self.drain(self.rng.randint(1, limit) if limit else None)

    def op_viewport(self) -> None:
        top = self.rng.randint(1, 30)
        self.rng.choice(self.readers).set_viewport(
            RangeRef(top, 1, top + 10, 8) if self.rng.random() < 0.8 else None)

    def op_checkpoint(self) -> None:
        self.engine.checkpoint()

    def op_probe(self) -> None:
        """Reader reads; the views brought up to date (the checker then holds
        them against rescans) and, after a drain, the planned query against
        a naive read of a replay of the ledger so far; with sessions, a
        snapshot probe."""
        reader = self.rng.choice(self.readers)
        reader.get_value(self.rng.randint(1, DATA_ROWS), self.rng.randint(1, 5))
        reader.get_range_values(RangeRef(1, 1, DATA_ROWS, 5))
        with self.evaluating():
            for view in self.views:
                if not view.detached:
                    view.value()
            self.engine.flush_compute()
        assert_query_agrees(self.engine, self.replay(self.ledger.committed()), self.context())
        if self.ws is not None and self.axes.readers:
            self.snapshot_probe(self.rng.choice(self.readers))

    def snapshot_probe(self, reader) -> None:
        sample = [(self.rng.randint(1, DATA_ROWS), self.rng.randint(1, 5)) for _ in range(4)]
        with reader.read_snapshot() as snap:
            pinned = {key: snap.get_value(*key) for key in sample}
            for _ in range(self.rng.randint(1, 3)):
                self.edit(self.rng.choice(self.writers), self.new_edit())
            self.drain(self.rng.randint(1, 6))
            for key, value in pinned.items():
                assert snap.get_value(*key) == value, self.context(key, "snapshot")
            if self.rng.random() < 0.3:  # structural edits invalidate snapshots
                self.commit(self.rng.choice(self.writers), random_structural(self.rng))
                _expect(SnapshotInvalidatedError, lambda: snap.get_value(*sample[0]),
                        *self.context("snapshot"))

    def op_deadline(self) -> None:
        """A deadline read returns within the deadline plus one evaluation's
        delay, fresh or tagged degraded."""
        reader = self.rng.choice(self.readers)
        row, column = self.rng.randint(1, DATA_ROWS), self.rng.randint(1, 5)
        deadline_ms = self.rng.choice([0.0, 1.0, 5.0, 20.0])
        before = self.clock()
        with self.evaluating():
            read = reader.value(row, column, deadline_ms=deadline_ms, allow_stale=True)
        elapsed = self.clock() - before
        assert elapsed <= deadline_ms / 1000.0 + self.latency.max_single_delay + 1e-9, (
            self.context((row, column), elapsed, "reader starved past its deadline"))
        if read.fresh:
            self.metrics["fresh_reads"] += 1
            assert not read.degraded, self.context("fresh read tagged degraded")
        else:
            self.metrics["degraded_reads"] += 1
            assert read.degraded and read.retry_after_ms > 0, self.context("stale read")

    def op_stall(self) -> None:
        """Park an open transaction past its lease; the reaper must roll it
        back, release its write-locks and expire the session."""
        if not self.latency.stall_sessions:
            self.ws.reap()  # a sweep of a healthy workspace is a no-op
            return
        index = self.rng.randrange(len(self.writers))
        txn = _Txn(owner := self.writers[index])
        handle = owner.savepoint()
        locked: tuple | None = None
        for _ in range(self.rng.randint(1, 3)):
            if self.rng.random() < 0.3:
                self.txn_structural(txn)
                locked = None  # the commit point flushed the write-locks
            else:
                self.txn_edit(txn)
                locked = txn.survivors[-1] if txn.survivors[-1][0] != "clear" else locked
        other = self.writers[(index + 1) % len(self.writers)]
        if locked is not None:
            _expect(TransactionBusyError, lambda: other.set_value(locked[1], locked[2], -1),
                    *self.context(locked, "write-lock"))
        self.clock.advance(self.latency.stall_hold_seconds + OVERLOAD_LEASE_MS / 1000.0)
        assert owner.name in self.ws.reap(), self.context("stalled session not reaped")
        self.metrics["reaps"] += 1
        if locked is not None:
            # Drained first so only the (released) lock could refuse it.
            self.drain()
            self.commit(other, ("value", locked[1], locked[2], self.seed % 97))
        _expect(SessionExpiredError, handle.release, *self.context("reaped release"))
        _expect(SessionExpiredError, lambda: owner.get_value(1, 1), *self.context("expired"))
        self.sessions_opened += 1
        self.writers[index] = self.ws.open_session(f"writer-{self.sessions_opened}")

    # -- the transaction script ------------------------------------------- #
    def op_txn(self) -> None:
        txn = _Txn(self.rng.choice(self.writers))
        first_mark, aborted = len(self.marks), False
        try:
            with txn.owner.batch():
                for _ in range(self.rng.randint(2, 8)):
                    getattr(self, "txn_" + self.choose(self.axes.txn_mix))(txn)
                    check_engine(self.engine, workspace=self.ws, in_transaction=True,
                                 context=self.context("txn"))
                if self.rng.random() < self.axes.abort:
                    raise Boom()
                # The closing flush commits the survivors with everything before.
                self.ledger.record(txn.survivors)
        except Boom:
            aborted = True
        self.check_marks(txn, first_mark, aborted=aborted)
        self.ledger.settle(self.engine)  # drains inside it committed with it

    def check_marks(self, txn: _Txn, first: int, *, aborted: bool) -> None:
        """A transaction's commit group carries its owner's savepoint count,
        whatever committed autonomously in between."""
        if self.ws is None:
            return
        new = self.marks[first:]
        name = txn.owner.name
        assert all(mark["savepoints"] == 0 for mark in new if mark["scope"] != name), (
            self.context(new))
        own = [mark["savepoints"] for mark in new if mark["scope"] == name]
        if aborted:
            assert not own, self.context("aborted transaction annotated")
        elif self.axes.views == "spilled":
            # A view spilled inside the transaction nests one more level.
            assert len(own) <= 1 and all(n >= txn.pushes for n in own), self.context(own)
        else:
            assert own in ([], [txn.pushes]), self.context(own, txn.pushes)

    def txn_edit(self, txn: _Txn) -> None:
        op = self.new_edit()
        apply_op(txn.owner, op)
        txn.survivors.append(op)

    def txn_push(self, txn: _Txn) -> None:
        txn.stack.append([txn.owner.savepoint(), len(txn.survivors), False])
        txn.pushes += 1

    def txn_rollback(self, txn: _Txn) -> None:
        if not txn.stack:
            return
        index = self.rng.randrange(len(txn.stack))
        handle, mark, barriered = txn.stack[index]
        if barriered:
            _expect(SavepointError, handle.rollback, *self.context("barriered rollback"))
            return
        handle.rollback()  # stays open, and may roll back again
        del txn.survivors[mark:]
        del txn.stack[index + 1:]

    def txn_release(self, txn: _Txn) -> None:
        if not txn.stack:
            return
        index = self.rng.randrange(len(txn.stack))
        txn.stack[index][0].release()  # keeps its work, collapses the inner ones
        del txn.stack[index:]

    def txn_structural(self, txn: _Txn) -> None:
        """A mid-transaction structural edit: a commit point for the prefix
        (recorded before the call: the group commits inside it) that
        barriers every open savepoint."""
        op = random_structural(self.rng)
        self.ledger.record([*txn.survivors, op])
        txn.survivors.clear()
        apply_op(txn.owner, op)
        self.ledger.settle(self.engine)  # the flush made mid-batch evaluations durable
        for item in txn.stack:
            item[2] = True

    def txn_drain(self, _txn: _Txn) -> None:
        self.drain(self.rng.randint(1, 4))

    def txn_foreign(self, txn: _Txn) -> None:
        """Another writer acts while the transaction is open."""
        foreign = self.rng.choice([w for w in self.writers if w is not txn.owner])
        engine, roll = self.engine, self.rng.random()
        if roll < 0.4:  # an autonomous edit — refused only on a write-locked cell
            op = self.new_edit()
            try:
                self.commit(foreign, op)
            except TransactionBusyError:
                assert engine.transaction_touches(op[1], op[2]), self.context(
                    op, "spurious write-lock refusal")
            except EngineOverloadedError:
                pass
        elif roll < 0.6:  # an autonomous batch: the transaction parks whole
            ops = [self.new_edit() for _ in range(self.rng.randint(2, 3))]
            if any(engine.transaction_touches(op[1], op[2]) for op in ops):
                return
            scope = engine.activate_scope(foreign, foreign.name)
            try:
                with engine.autonomous(), engine.batch():
                    for op in ops:
                        apply_op(engine, op)
                    self.ledger.record(ops)
            finally:
                engine.activate_scope(*scope)
        elif roll < 0.8:
            def foreign_batch() -> None:
                with foreign.batch():
                    raise AssertionError(self.context("foreign batch not refused"))
            _expect(TransactionBusyError, foreign_batch, *self.context("foreign batch"))
        else:
            op = random_structural(self.rng)
            _expect(TransactionBusyError, lambda: apply_op(foreign, op),
                    *self.context("foreign structural"))
