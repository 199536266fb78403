"""Incremental (delta-maintained) aggregate state for range formulas.

The classic incremental-view-maintenance move applied to spreadsheet
formulas: a decomposable aggregate over a range — ``SUM``, ``COUNT``,
``COUNTA``, ``AVERAGE``, and (with an invalidation fallback) ``MIN`` /
``MAX`` — keeps *running state* so that a point edit inside a 100k-cell
range recomputes its dependents in O(Δ) from the edit's old→new value
delta instead of re-reading the whole rectangle.

Architecture
------------
* :class:`RangeAggregateState` holds the running components for one
  registered range: exact integer sum, numeric count, filled count, and
  min/max with multiplicity.  ``add``/``remove`` apply one value's
  contribution; ``supports(name)`` reports whether a component can still
  serve a given function exactly.
* :class:`AggregateStore` owns every state, keyed by *distinct range*.
  Each state carries a refcounted set of subscribing formula cells: ten
  thousand ``SUM(A1:A100000)`` formulas share **one** state, so a point
  edit inside the column performs one state update, not ten thousand.
  Subscriptions are made lazily when the evaluator serves or builds a
  state, and released through the dependency graph's ``on_unregister``
  hook; the state is dropped when its last subscriber unregisters.  The
  engine routes every committed cell-value change through
  :meth:`AggregateStore.apply_edit` (or the two-phase ``targets_for`` /
  ``apply_delta`` pair), which stabs a column-stripe interval index over
  the *distinct ranges* — O(log states + hits), independent of subscriber
  count.

Exactness contract
------------------
The delta path must agree **bit-for-bit** with a full range read, because
the randomized equivalence harness compares engines cell-for-cell.  Sums
are therefore tracked as exact Python integers, and a contribution only
qualifies when it is an integral number with magnitude at most
:data:`EXACT_VALUE_LIMIT` (2**28): with ranges capped at
``MAX_RANGE_CELLS`` (10**7 < 2**24) cells, every partial sum the full-read
path computes stays below 2**52, where float addition is exact.  Any
other numeric (a non-integral float, a huge integer, a NaN) is an
*inexact contribution*, tracked by multiplicity: while the range holds at
least one, ``SUM``/``AVERAGE`` fall back to the full range read
(``COUNT``/``COUNTA`` keep working, and so do ``MIN``/``MAX`` unless the
value is *unordered* — NaN, or an integer beyond float range — which
poisons the ordering components too), and they recover the O(Δ) path the
moment the last inexact value is edited out.
``MIN``/``MAX`` track the extremum *with multiplicity* in
the float domain (exactly what the full path compares); removing the last
copy of the extremum is a *support loss* — the state cannot know the
runner-up — and invalidates that component until the next full read
rebuilds it.

Fallback matrix (who invalidates what)
--------------------------------------
* unknown old value (first write to an uncached cell mid-batch) — the
  affected states are dropped;
* structural edits — states are *spliced* through the same
  ``StructuralEdit`` arithmetic the dependency graph uses: an untouched
  or purely translated range keeps its state at the remapped key, an
  insert inside a range keeps it (the new lines are blank — a no-op
  contribution), and only ranges actually losing content (overlap with
  deleted lines, cells clamped off the sheet) are dropped;
* ``link_table`` — only states whose range overlaps the linked region are
  dropped (the rest of the sheet did not change);
* ``optimize_storage`` — nothing: a relayout moves cells between models
  without changing any coordinate→value binding, so every state survives;
* batch aborts past a commit point — the engine clears the whole store
  (the snapshot no longer matches reality);
* formula (re)registration — the formula unsubscribes; the state is
  dropped only when it was the last subscriber;
* ``#REF!`` / oversized ranges — evaluation raises before any state is
  consulted or built;
* MIN/MAX support loss, inexact sums — the single component degrades, the
  others keep serving;
* ranges smaller than :attr:`AggregateStore.min_state_area` normally get
  no state — a tiny materialisation costs what one delta costs — but the
  floor is *refcount-aware*: once
  :attr:`AggregateStore.min_state_subscribers` distinct formulas have
  evaluated an aggregate over the same small range, one shared state
  amortises across all of them and the range is promoted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import FormulaEvaluationError
from repro.formula.functions import RangeValue, _normalized_number
from repro.formula.rewrite import StructuralEdit
from repro.formula.stripes import (
    REBUILD_CHURN_FACTOR,
    REBUILD_CHURN_MIN,
    DependencyGraphStats,
    StripeIndex,
    index_add,
    index_stab,
)
from repro.grid.address import CellAddress
from repro.grid.range import RangeRef

#: The aggregate functions the delta path can serve.
DECOMPOSABLE_AGGREGATES = frozenset({"SUM", "COUNT", "COUNTA", "AVERAGE", "MIN", "MAX"})

#: Largest integral magnitude a contribution may have and keep the exact
#: integer sum guaranteed to match the full-read float sum (see module
#: docstring for the 2**28 * 2**24 < 2**53 argument).
EXACT_VALUE_LIMIT = 1 << 28

#: Ranges smaller than this many cells are not worth a running state: a
#: full read of a few dozen cells costs about as much as one delta, while
#: every state makes every edit inside its range pay an eager delta — on a
#: hot small range read by thousands of formulas that tax lands on the
#: edit-acknowledgment path the async scheduler exists to protect.  Tests
#: lower :attr:`AggregateStore.min_state_area` to exercise the machinery
#: on small grids.
DEFAULT_MIN_STATE_AREA = 256

#: Distinct formulas that must show interest in one small range before the
#: area floor is waived for it: at that point a single shared state
#: amortises across all of them, flipping the cost argument behind
#: :data:`DEFAULT_MIN_STATE_AREA`.
DEFAULT_MIN_STATE_SUBSCRIBERS = 8

#: Bound on the number of small ranges whose interest is tracked (the
#: interest map must not grow without limit under adversarial churn).
_INTEREST_CAPACITY = 4096


@dataclass
class AggregateStats:
    """Instrumentation counters (exposed for tests and benchmarks)."""

    hits: int = 0              # aggregate calls served entirely from state
    builds: int = 0            # states (re)built from a full range read
    columnar_builds: int = 0   # builds served by the vectorized columnar path
    deltas: int = 0            # point deltas applied to a state
    invalidations: int = 0     # states dropped (unknown old value, last unsubscribe, ...)
    support_losses: int = 0    # MIN/MAX extremum removals degrading a component
    fallbacks: int = 0         # calls that materialized despite a fresh state
    full_invalidations: int = 0  # store-wide clears (aborts past a commit point)
    splices: int = 0           # states carried live across a structural edit

    def reset(self) -> None:
        self.hits = 0
        self.builds = 0
        self.columnar_builds = 0
        self.deltas = 0
        self.invalidations = 0
        self.support_losses = 0
        self.fallbacks = 0
        self.full_invalidations = 0
        self.splices = 0


class RangeAggregateState:
    """Running decomposable components over one registered range."""

    __slots__ = (
        "total", "count", "filled", "inexact", "poisoned",
        "min_value", "min_count", "min_valid",
        "max_value", "max_count", "max_valid",
    )

    def __init__(self) -> None:
        self.total = 0          # exact integer sum of the exact contributions
        self.count = 0          # numeric (non-bool) values
        self.filled = 0         # non-blank values
        #: Number of contributions currently in the range that cannot be
        #: summed exactly (non-integral floats, huge magnitudes, NaN).
        #: Tracked by multiplicity — like the min/max support — so SUM and
        #: AVERAGE recover as soon as the last inexact value is edited out.
        self.inexact = 0
        #: Number of unordered contributions (NaN, or integers beyond
        #: float range) currently in the range.  While positive, the
        #: min/max components are content-poisoned: a rebuild cannot
        #: repair them, unlike an extremum support loss.
        self.poisoned = 0
        self.min_value = math.inf
        self.min_count = 0      # multiplicity of the minimum (float equality)
        self.min_valid = True
        self.max_value = -math.inf
        self.max_count = 0
        self.max_valid = True

    @property
    def sum_exact(self) -> bool:
        """Whether ``total`` faithfully mirrors the full-read float sum."""
        return self.inexact == 0

    @classmethod
    def from_range_value(cls, values: RangeValue) -> "RangeAggregateState":
        state = cls()
        for value in values.flatten():
            state.add(value)
        return state

    # ------------------------------------------------------------------ #
    def rebuild_restores(self, name: str) -> bool:
        """Whether a full-read rebuild could repair support for ``name``
        with the range content unchanged.

        An extremum support loss is repairable (the re-read finds the new
        extremum); content-driven degradation — NaN still in the range
        for MIN/MAX, any inexact contribution for SUM/AVERAGE — is not,
        and rebuilding for it would add a futile O(area) state pass to
        every evaluation's unavoidable full read.
        """
        if name in ("MIN", "MAX"):
            return self.poisoned == 0
        return False

    def supports(self, name: str) -> bool:
        """Whether this state can serve ``name`` exactly right now."""
        if name in ("SUM", "AVERAGE"):
            return self.sum_exact
        if name == "MIN":
            return self.min_valid
        if name == "MAX":
            return self.max_valid
        return True  # COUNT / COUNTA are always exact

    @staticmethod
    def _as_float(value) -> float:
        """``float(value)`` with overflow mapped to the NaN poison path.

        An integer beyond float range would raise ``OverflowError`` halfway
        through a delta, leaving the counters inconsistent; treating it as
        NaN keeps the state consistent and routes every order/sum component
        to the full-read fallback (which raises exactly like a from-scratch
        evaluation would).
        """
        try:
            return float(value)
        except OverflowError:
            return math.nan

    def add(self, value: object) -> None:
        """Fold one cell value's contribution in."""
        if value is None:
            return
        self.filled += 1
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return  # text and booleans carry no numeric contribution in ranges
        self.count += 1
        number = self._as_float(value)
        if number != number:  # NaN poisons ordering and summation alike
            self.inexact += 1
            self.poisoned += 1
            self.min_valid = False
            self.max_valid = False
            return
        if number.is_integer() and abs(number) <= EXACT_VALUE_LIMIT:
            self.total += int(number)
        else:
            self.inexact += 1
        if self.min_valid:
            if self.count == 1 or number < self.min_value:
                self.min_value = number
                self.min_count = 1
            elif number == self.min_value:
                self.min_count += 1
        if self.max_valid:
            if self.count == 1 or number > self.max_value:
                self.max_value = number
                self.max_count = 1
            elif number == self.max_value:
                self.max_count += 1

    def remove(self, value: object) -> None:
        """Retract one cell value's contribution."""
        if value is None:
            return
        self.filled -= 1
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return
        self.count -= 1
        number = self._as_float(value)
        if number != number:
            # Its inexactness and poison leave with it; the min/max flags
            # stay down until a rebuild (or the reset below when the
            # numeric support empties).
            self.inexact -= 1
            self.poisoned -= 1
            if self.count == 0:
                self.min_value = math.inf
                self.min_count = 0
                self.min_valid = True
                self.max_value = -math.inf
                self.max_count = 0
                self.max_valid = True
            return
        if number.is_integer() and abs(number) <= EXACT_VALUE_LIMIT:
            self.total -= int(number)
        else:
            self.inexact -= 1
        if self.count == 0:
            # Empty support is fully known again: MIN/MAX of no numbers is 0.
            self.min_value = math.inf
            self.min_count = 0
            self.min_valid = True
            self.max_value = -math.inf
            self.max_count = 0
            self.max_valid = True
            return
        if self.min_valid and number == self.min_value:
            self.min_count -= 1
            if self.min_count == 0:
                self.min_valid = False  # the runner-up is unknown
        if self.max_valid and number == self.max_value:
            self.max_count -= 1
            if self.max_count == 0:
                self.max_valid = False


def combine_aggregate(name: str, states: list[RangeAggregateState]) -> object:
    """The aggregate value over one or more (supported) states.

    Reproduces the full-read semantics exactly, including the ``#DIV/0!``
    of ``AVERAGE`` over no numbers and the Excel-style 0 for ``MIN`` /
    ``MAX`` of no numbers.
    """
    if name == "SUM":
        return sum(state.total for state in states)
    if name == "COUNT":
        return sum(state.count for state in states)
    if name == "COUNTA":
        return sum(state.filled for state in states)
    if name == "AVERAGE":
        count = sum(state.count for state in states)
        if not count:
            raise FormulaEvaluationError("#DIV/0!", "AVERAGE of no numbers")
        return _normalized_number(sum(state.total for state in states) / count)
    if name == "MIN":
        lows = [state.min_value for state in states if state.count]
        return _normalized_number(min(lows)) if lows else 0
    if name == "MAX":
        highs = [state.max_value for state in states if state.count]
        return _normalized_number(max(highs)) if highs else 0
    raise FormulaEvaluationError("#VALUE!", f"{name} is not decomposable")


#: A (range, state) pair the engine threads from ``targets_for``
#: (pre-edit) to ``apply_delta`` (post-edit).  One pair per *distinct
#: range* regardless of how many formulas subscribe to it.
DeltaTarget = tuple[RangeRef, RangeAggregateState]


class _SharedState:
    """One distinct range's running state plus its subscribing formulas.

    It is also the range's owner in the store's stripe index: a lookup
    collects entries, which hash by identity, rather than ranges.
    """

    __slots__ = ("region", "state", "subscribers")

    def __init__(self, region: RangeRef, state: RangeAggregateState,
                 subscribers: set[CellAddress]) -> None:
        self.region = region
        self.state = state
        self.subscribers = subscribers


class AggregateStore:
    """Every running aggregate state, keyed by distinct range.

    The store is deliberately passive: the engine tells it about every
    committed cell-value change (``apply_edit`` or the two-phase
    ``targets_for``/``apply_delta``), the dependency graph tells it about
    formulas leaving the graph (the ``on_unregister`` hook drives
    ``drop_formula``), and the engine reports the events that move or
    invalidate content (``apply_structural_edit``, ``invalidate_region``,
    ``invalidate_all``).  The evaluator asks it for states (``state_for``)
    and registers freshly built ones (``build``/``install``); both sides
    of that exchange record the asking formula as a *subscriber* of the
    range, so the state lives exactly as long as at least one registered
    formula still reads it.

    ``targets_for`` runs once per cell an edit's recompute lands on (13
    times per ``set_value`` on a sheet of sliding windows), so it stabs
    the dependency graph's column-stripe interval index
    (:mod:`repro.formula.stripes`) over the held ranges, each owned by
    its ``_SharedState``: O(log states + hits), not a scan of every state.
    ``install`` adds a new range; a dropped state stays in the index, dead,
    until ``install`` revives it (see :meth:`_drop_entry`); the index is
    rebuilt from ``_states`` after a splice, a savepoint restore, a clear,
    or once the dead entries pass the buckets' churn bound.
    """

    def __init__(self, graph) -> None:
        self._graph = graph
        self._states: dict[RangeRef, _SharedState] = {}
        self._subscriptions: dict[CellAddress, set[RangeRef]] = {}
        #: The held ranges, each owned by its entry, and every entry the
        #: index holds by range: the live ones plus the dropped ones kept
        #: for reuse (see :meth:`_drop_entry`).
        self._index: StripeIndex = {}
        self._indexed: dict[RangeRef, _SharedState] = {}
        self.index_stats = DependencyGraphStats()
        #: Small ranges (below the area floor) and the distinct formulas
        #: that evaluated an aggregate over them — the promotion ledger.
        self._interest: dict[RangeRef, set[CellAddress]] = {}
        #: Smallest range area the evaluator keeps running state for
        #: (waived per-range once ``min_state_subscribers`` distinct
        #: formulas share it — see :meth:`tracks`).
        self.min_state_area = DEFAULT_MIN_STATE_AREA
        self.min_state_subscribers = DEFAULT_MIN_STATE_SUBSCRIBERS
        self.stats = AggregateStats()
        if graph is not None and hasattr(graph, "on_unregister"):
            # Formula (un)registration drives the refcount lifecycle: the
            # graph is the single source of truth for "this formula no
            # longer reads that range".
            graph.on_unregister = self.drop_formula

    # ------------------------------------------------------------------ #
    @property
    def state_count(self) -> int:
        """Number of running states currently held (== distinct ranges)."""
        return len(self._states)

    def subscribers_of(self, region: RangeRef) -> frozenset[CellAddress]:
        """The formulas currently sharing ``region``'s state (for tests)."""
        entry = self._states.get(region)
        return frozenset(entry.subscribers) if entry is not None else frozenset()

    # ------------------------------------------------------------------ #
    # evaluator-side API
    # ------------------------------------------------------------------ #
    def tracks(self, address: CellAddress, region: RangeRef) -> bool:
        """Whether the evaluator should serve ``address``×``region`` from
        running state.

        A range containing the formula's own cell is never tracked (see
        :meth:`build`).  Otherwise the area floor applies — made
        *refcount-aware*: a small range is promoted once
        ``min_state_subscribers`` distinct formulas have shown interest,
        because one shared state amortised over many readers beats many
        tiny materialisations.  Calls below the floor record interest, so
        the promotion needs no separate registration step.
        """
        if region.contains_coordinates(address.row, address.column):
            return False
        if region.area >= self.min_state_area or region in self._states:
            return True
        interested = self._interest.get(region)
        if interested is None:
            if len(self._interest) >= _INTEREST_CAPACITY:
                return False
            interested = self._interest[region] = set()
        if len(interested) >= self.min_state_subscribers:
            return True
        interested.add(address)
        return len(interested) >= self.min_state_subscribers

    def state_for(self, address: CellAddress, region: RangeRef) -> RangeAggregateState | None:
        """The shared running state of ``region``, subscribing ``address``.

        Never serves a range containing the asking formula's own cell —
        the formula's own commit could not be folded back coherently.
        """
        entry = self._states.get(region)
        if entry is None or region.contains_coordinates(address.row, address.column):
            return None
        self._subscribe(address, region, entry)
        return entry.state

    def build(self, address: CellAddress, region: RangeRef,
              values: RangeValue) -> RangeAggregateState:
        """(Re)build a state from one materialized range read."""
        return self.install(address, region, RangeAggregateState.from_range_value(values))

    def install(self, address: CellAddress, region: RangeRef,
                state: RangeAggregateState, *, columnar: bool = False) -> RangeAggregateState:
        """Register an already-built state (shared per distinct range).

        A range containing the owning formula's *own* cell (a self-cycle
        the topological order tolerates rather than raising on) is never
        cached: the formula's own commit could not be folded back into its
        state coherently, so a cached state would drift from the full-read
        baseline.  The state is still returned for this one evaluation —
        the caller already paid for the read — but every future evaluation
        re-reads, exactly like the baseline engine.

        A rebuild (the range already has an entry) replaces the shared
        components in place and keeps the subscriber set: the other
        formulas reading the range see the repaired state immediately.
        """
        if region.contains_coordinates(address.row, address.column):
            return state
        entry = self._states.get(region)
        if entry is None:
            entry = self._indexed.get(region)
            if entry is None:
                entry = self._indexed[region] = _SharedState(region, state, set())
                index_add(self._index, entry, region, self.index_stats)
            entry.subscribers = set()
            self._states[region] = entry
        entry.state = state
        self._subscribe(address, region, entry)
        self._interest.pop(region, None)
        self.stats.builds += 1
        if columnar:
            self.stats.columnar_builds += 1
        return state

    def _subscribe(self, address: CellAddress, region: RangeRef,
                   entry: _SharedState) -> None:
        entry.subscribers.add(address)
        self._subscriptions.setdefault(address, set()).add(region)

    # ------------------------------------------------------------------ #
    # engine-side API
    # ------------------------------------------------------------------ #
    def targets_for(self, address: CellAddress) -> list[DeltaTarget]:
        """The states whose range contains ``address`` (pre-edit phase).

        One stab of the stripe index: O(log states + hits), independent
        of how many formulas subscribe to each range.  A state over a
        range containing its only reader's own cell is never cached (see
        :meth:`install`), so no self-exclusion filter is needed here.
        """
        if not self._states:
            return []
        hits: set[_SharedState] = set()
        index_stab(self._index, address.row, address.column, hits, self.index_stats)
        return [(entry.region, entry.state) for entry in hits if entry.state is not None]

    def apply_delta(self, targets: list[DeltaTarget], old: object, new: object) -> None:
        """Fold an old→new value change into the captured targets."""
        if old is new or (type(old) is type(new) and old == new):
            return
        for _region, state in targets:
            losses = state.min_valid + state.max_valid
            state.remove(old)
            state.add(new)
            self.stats.deltas += 1
            if state.min_valid + state.max_valid < losses:
                self.stats.support_losses += 1

    def invalidate_targets(self, targets: list[DeltaTarget]) -> None:
        """Drop the captured states (the old value could not be known)."""
        for region, state in targets:
            entry = self._states.get(region)
            if entry is not None and entry.state is state:
                self._drop_entry(region, entry)
                self.stats.invalidations += 1

    def apply_edit(self, address: CellAddress, old: object, new: object) -> None:
        """One-shot delta for a change whose old value is already known."""
        targets = self.targets_for(address)
        if targets:
            self.apply_delta(targets, old, new)

    def drop_formula(self, address: CellAddress) -> None:
        """Release ``address``'s subscriptions (its registration ended).

        Fired by the dependency graph's ``on_unregister`` hook, so states
        stay refcounted against exactly the formulas the graph still
        routes deltas for.  A shared state survives as long as any other
        subscriber remains; only the *last* unsubscribe drops it.
        """
        regions = self._subscriptions.pop(address, None)
        if not regions:
            return
        for region in regions:
            entry = self._states.get(region)
            if entry is None:
                continue
            entry.subscribers.discard(address)
            if not entry.subscribers:
                self._drop_entry(region, entry)
                self.stats.invalidations += 1

    def invalidate_region(self, region: RangeRef) -> None:
        """Drop only the states whose range overlaps ``region``.

        The scoped fallback for ``link_table``: the linked region's
        content changed wholesale, but aggregates over the rest of the
        sheet did not read it and keep their running state.
        """
        doomed = [held for held in self._states if held.overlaps(region)]
        for held in doomed:
            self._drop_entry(held, self._states[held])
            self.stats.invalidations += 1

    def apply_structural_edit(self, edit: StructuralEdit) -> None:
        """Splice the states across a row/column insert or delete.

        Uses the same ``StructuralEdit`` arithmetic the dependency graph
        re-keys registrations with, so states and registrations stay in
        lock-step.  A range the edit leaves untouched or purely translates
        keeps its state at the remapped key; an insert *inside* a range
        keeps it too (the inserted lines are blank — a ``None``
        contribution is a no-op).  Only ranges that actually lose content
        are dropped: overlap with deleted lines, or cells clamped off the
        sheet edge by an insert.  Subscribers are remapped through the
        same mapping; a state whose every subscriber was deleted goes with
        them.
        """
        if not self._states:
            self._interest.clear()
            return
        spliced: dict[RangeRef, _SharedState] = {}
        for region, entry in self._states.items():
            mapped = self._splice_region(edit, region)
            if mapped is None:
                self.stats.invalidations += 1
                continue
            subscribers = {
                moved for moved in (
                    edit.map_address(address) for address in entry.subscribers
                ) if moved is not None
            }
            if not subscribers:
                self.stats.invalidations += 1
                continue
            # Surviving spans map one-to-one (untouched ones end at or
            # before the line, translated ones start after it, expanded
            # ones straddle it), so no two land on one key.
            entry.region = mapped
            entry.subscribers = subscribers
            spliced[mapped] = entry
            self.stats.splices += 1
        self._states = spliced
        self._reindex()
        self._interest.clear()

    @staticmethod
    def _splice_region(edit: StructuralEdit, region: RangeRef) -> RangeRef | None:
        """The post-edit key for ``region``, or ``None`` when content is lost.

        The state survives when the mapped span holds every old line plus
        the blank lines an insert puts inside it: a delete overlapping the
        span, or a clamp at the sheet edge, makes it shorter than that.
        """
        mapped = edit.map_range(region)
        if mapped is None:
            return None
        start, end = edit.span_of(region)
        new_start, new_end = edit.span_of(mapped)
        inserted = edit.count if edit.kind == "insert" and start <= edit.line < end else 0
        return mapped if new_end - new_start == end - start + inserted else None

    def invalidate_all(self) -> None:
        """Clear the whole store (abort past a commit point, recovery, ...)."""
        if self._states:
            self._states.clear()
            self._reindex()
            self.stats.full_invalidations += 1
        self._interest.clear()

    def _drop_entry(self, region: RangeRef, entry: _SharedState) -> None:
        """Drop ``region``'s state.  Its entry stays in the index, dead
        (``state`` is ``None``), for ``install`` to revive: a state dropped
        over a cold cell is rebuilt by the next drain, over the same range.
        The index alone is rebuilt once the dead entries pass the buckets'
        churn bound (``REBUILD_CHURN_FACTOR`` times the live ones, at least
        ``REBUILD_CHURN_MIN``)."""
        del self._states[region]
        entry.state = None
        for address in entry.subscribers:
            regions = self._subscriptions.get(address)
            if regions is not None:
                regions.discard(region)
                if not regions:
                    del self._subscriptions[address]
        live = len(self._states)
        if len(self._indexed) - live > max(REBUILD_CHURN_MIN, REBUILD_CHURN_FACTOR * live):
            self._rebuild_index()

    # ------------------------------------------------------------------ #
    # savepoint snapshot / restore
    # ------------------------------------------------------------------ #
    @staticmethod
    def _copy_state(state: RangeAggregateState) -> RangeAggregateState:
        clone = RangeAggregateState()
        for slot in RangeAggregateState.__slots__:
            setattr(clone, slot, getattr(state, slot))
        return clone

    def snapshot_states(
        self,
    ) -> dict[RangeRef, tuple[RangeAggregateState, set[CellAddress]]]:
        """Deep-copy every running state (savepoint boundary capture).

        States are plain numeric components, so the copy is cheap relative
        to the range reads that built them.  The snapshot is independent of
        the live store: later deltas and subscriptions do not leak into
        it, and it can be restored more than once.
        """
        return {
            region: (self._copy_state(entry.state), set(entry.subscribers))
            for region, entry in self._states.items()
        }

    def restore_states(
        self,
        snapshot: dict[RangeRef, tuple[RangeAggregateState, set[CellAddress]]],
    ) -> None:
        """Replace the live states with copies of a captured snapshot.

        Only sound when no cell value was *committed* between capture and
        restore (the engine guards with its commit epoch and falls back to
        :meth:`invalidate_all` otherwise): buffered writes that the rollback
        also retracts are exactly what the snapshot predates.
        """
        self._states = {
            region: _SharedState(region, self._copy_state(state), set(subscribers))
            for region, (state, subscribers) in snapshot.items()
        }
        self._reindex()

    def _reindex(self) -> None:
        """Rebuild the subscriptions and the stripe index from ``_states``."""
        self._subscriptions = {}
        for region, entry in self._states.items():
            for address in entry.subscribers:
                self._subscriptions.setdefault(address, set()).add(region)
        self._rebuild_index()

    def _rebuild_index(self) -> None:
        """Rebuild the stripe index from the live states, dropping the dead
        entries.  It leaves the subscriptions alone: ``drop_formula`` runs
        it from inside its loop, after it has popped the formula's
        subscription but before it has released every range it held."""
        self._index = {}
        self._indexed = dict(self._states)
        for region, entry in self._states.items():
            index_add(self._index, entry, region, self.index_stats)
