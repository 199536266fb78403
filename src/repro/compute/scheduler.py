"""The priority-ordered, cancellable compute scheduler.

The scheduler owns the set of *stale* formula cells — cells whose stored
value no longer reflects their precedents — and evaluates them
incrementally, decoupled from the edits that dirtied them:

* **Topological work queue.**  ``mark_dirty(seeds)`` expands the seeds to
  their transitive dependents through the interval-indexed
  :class:`~repro.formula.dependencies.DependencyGraph`
  (``affected_set`` — a BFS slice, never a full-graph sort) and unions them
  into the stale set.  Evaluation order is rebuilt lazily from
  ``slice_edges`` over exactly the stale subset, so a cell always evaluates
  after every stale precedent it reads.
* **Coalescing and cancellation.**  Re-editing a cell whose subtree is
  already queued coalesces (the stale set is a set; ``stats.coalesced``
  counts the hits), and the lazily rebuilt ordering always reflects the
  *latest* graph — a superseding edit replaces the queued work for its
  subtree rather than appending to it.  A queued formula that stops being
  a formula (overwritten by a constant, cleared, or deleted by a
  structural edit) is dropped without evaluation (``stats.cancelled``).
* **Viewport priority.**  A registered region of interest
  (``set_viewport``) promotes the stale cells inside it — and every stale
  cell they transitively read, which must compute first anyway — ahead of
  off-screen work, so the visible part of the sheet converges first.
* **Admission control.**  Optional depth quotas (``max_pending`` global,
  ``max_pending_per_owner`` per session token) bound the queue: ``admit``
  — called before an edit mutates anything — refuses work past a quota
  with :class:`~repro.errors.EngineOverloadedError` carrying a
  ``retry_after_ms`` hint, unless the edit coalesces into already-queued
  cells.  ``stats.shed`` counts refusals, ``stats.high_water`` the
  deepest queue observed.
* **States and stale reads.**  Each cell is ``FRESH``, ``STALE`` or
  ``COMPUTING`` (:meth:`ComputeScheduler.state_of`).  The scheduler never
  touches storage itself; the engine keeps stale cells' last committed
  values readable as placeholders and commits fresh values through the
  ``evaluate`` callback, so reads never block on the queue.

``run`` / ``ensure`` raise
:class:`~repro.errors.CircularDependencyError` when the queued subset
contains a cycle — the stale set is preserved, so editing the cycle away
and draining again recovers, mirroring the synchronous engine's behaviour
at batch exit.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from repro.errors import CircularDependencyError, EngineOverloadedError
from repro.formula.dependencies import DependencyGraph
from repro.formula.rewrite import StructuralEdit
from repro.grid.address import CellAddress
from repro.grid.range import RangeRef


class CellState(Enum):
    """Freshness of one cell with respect to scheduled recomputation."""

    FRESH = "fresh"          # value reflects all precedents
    STALE = "stale"          # queued: reads see the last committed value
    COMPUTING = "computing"  # currently being evaluated


@dataclass
class ComputeStats:
    """Instrumentation counters (exposed for tests and experiments)."""

    scheduled: int = 0             # cells newly enqueued by mark_dirty
    evaluated: int = 0             # cells evaluated and committed
    coalesced: int = 0             # mark_dirty hits on already-queued cells
    cancelled: int = 0             # queued evaluations dropped unevaluated
    priority_evaluations: int = 0  # evaluations served from the viewport queue
    quarantine_retries: int = 0    # evaluation failures retried in-queue
    quarantined: int = 0           # cells quarantined after exhausting retries
    shed: int = 0                  # edits refused by admission control
    high_water: int = 0            # deepest queue depth observed

    def reset(self) -> None:
        self.scheduled = 0
        self.evaluated = 0
        self.coalesced = 0
        self.cancelled = 0
        self.priority_evaluations = 0
        self.quarantine_retries = 0
        self.quarantined = 0
        self.shed = 0
        self.high_water = 0


#: Engine callback evaluating one formula cell and committing its value.
EvaluateCell = Callable[[CellAddress], None]


class ComputeScheduler:
    """Incremental evaluator over the engine's dirty sets.

    The scheduler is deliberately passive: it never evaluates unless asked
    (``run``/``ensure``), so the engine controls when compute happens — on
    explicit ``flush_compute()``, between requests, or in an idle loop.
    """

    #: Evaluation attempts (1 + retries) before a failing cell is quarantined.
    max_evaluate_attempts = 3

    #: ``retry_after_ms`` hint per queued cell: the assumed drain cost of
    #: one queued evaluation, so the hint scales with the backlog.
    retry_cost_ms = 0.05

    def __init__(self, graph: DependencyGraph, evaluate: EvaluateCell) -> None:
        self._graph = graph
        self._evaluate = evaluate
        self._stale: set[CellAddress] = set()
        # Admission control: depth quotas (None = unbounded, the default).
        # ``admit`` refuses work past a quota with EngineOverloadedError;
        # quotas are high-water marks checked *before* an edit mutates
        # anything, so a refusal never loses committed state.
        self.max_pending: int | None = None
        self.max_pending_per_owner: int | None = None
        # Per-owner queue attribution: which owner's edit enqueued each
        # stale cell (first enqueuer wins; reconciled at every rebuild).
        self._owner_of: dict[CellAddress, object] = {}
        self._owner_pending: dict[object, int] = {}
        #: Fault-injection seam: when set, called with the address about to
        #: be evaluated (the latency-chaos harness advances a virtual clock
        #: here; an exception routes through the quarantine machinery).
        self.before_evaluate: Callable[[CellAddress], None] | None = None
        self._computing: CellAddress | None = None
        # Registered regions of interest, keyed by owner token.  ``None``
        # is the legacy single-viewport slot; the service layer registers
        # one viewport per session, drained round-robin for fairness.
        self._viewports: dict[object | None, RangeRef] = {}
        self.stats = ComputeStats()
        # Poisoned-formula containment: per-cell failure counts and the
        # quarantine set (address -> last error text).  A quarantined cell
        # is dropped from the queue with an error value committed through
        # ``on_quarantine`` so the rest of the queue keeps draining.
        self._failures: dict[CellAddress, int] = {}
        self._quarantined: dict[CellAddress, str] = {}
        #: Engine callback committing a quarantined cell as an error value.
        self.on_quarantine: Callable[[CellAddress, BaseException], None] | None = None
        # Ordering structures, rebuilt lazily whenever the stale set, the
        # graph, or the viewport changed since the last rebuild.
        self._order_stale = True
        self._indegree: dict[CellAddress, int] = {}
        self._successors: dict[CellAddress, list[CellAddress]] = {}
        self._predecessors: dict[CellAddress, list[CellAddress]] = {}
        self._priority: set[CellAddress] = set()
        self._priority_by_owner: dict[object | None, set[CellAddress]] = {}
        self._ready_by_owner: dict[object | None, deque[CellAddress]] = {}
        self._rr_order: list[object | None] = []
        self._rr_index = 0
        self._ready: deque[CellAddress] = deque()

    # ------------------------------------------------------------------ #
    # enqueueing
    # ------------------------------------------------------------------ #
    def admit(self, seeds, owner: object | None = None) -> None:
        """Admission control: refuse new async work past the depth quotas.

        Called *before* an edit mutates the engine, so a refusal leaves
        nothing half-applied.  Seeds already queued always pass — their
        work coalesces into the queue rather than deepening it.  Past the
        global (``max_pending``) or per-owner (``max_pending_per_owner``)
        quota, raises :class:`~repro.errors.EngineOverloadedError` with a
        ``retry_after_ms`` hint scaled to the backlog.  The quotas are
        high-water marks on the *seed* check: an admitted edit may still
        fan out past the quota, so the depth overshoot is bounded by one
        edit's affected slice.
        """
        if self.max_pending is None and self.max_pending_per_owner is None:
            return
        if all(seed in self._stale for seed in seeds):
            return  # coalesces into already-queued work
        pending = len(self._stale)
        if self.max_pending is not None and pending >= self.max_pending:
            self.stats.shed += 1
            raise EngineOverloadedError(
                f"compute queue at global depth quota "
                f"({pending} queued >= {self.max_pending}); edit refused",
                retry_after_ms=self.retry_after_hint(pending),
            )
        if self.max_pending_per_owner is not None and owner is not None:
            owned = self._owner_pending.get(owner, 0)
            if owned >= self.max_pending_per_owner:
                self.stats.shed += 1
                raise EngineOverloadedError(
                    f"compute queue at per-session depth quota "
                    f"({owned} queued >= {self.max_pending_per_owner}); "
                    f"edit refused",
                    retry_after_ms=self.retry_after_hint(owned),
                )

    def retry_after_hint(self, backlog: int | None = None) -> float:
        """Suggested client backoff (ms) to let a drain clear the backlog."""
        if backlog is None:
            backlog = len(self._stale)
        return max(1.0, backlog * self.retry_cost_ms)

    def mark_dirty(self, seeds, owner: object | None = None) -> int:
        """Queue the seeds' affected slice; returns newly queued cell count.

        Seeds that are no longer registered formulas cancel their own queued
        evaluation (the edit that produced them overwrote the formula), but
        their dependents still join the queue.  ``owner`` attributes the
        newly queued cells for per-owner admission accounting.
        """
        seeds = list(seeds)
        if not seeds:
            return 0
        for seed in seeds:
            if self._quarantined.pop(seed, None) is not None:
                self._failures.pop(seed, None)
            if seed not in self._graph and seed in self._stale:
                self._stale.discard(seed)
                self._forget_owner(seed)
                self.stats.cancelled += 1
        affected = self._graph.affected_set(seeds)
        for address in affected:
            # A re-edited (or upstream-refreshed) quarantined cell gets a
            # clean slate: it re-enters the queue and re-evaluates.
            if self._quarantined.pop(address, None) is not None:
                self._failures.pop(address, None)
        fresh = affected - self._stale
        new = len(fresh)
        self.stats.scheduled += new
        self.stats.coalesced += len(affected) - new
        self._stale |= affected
        if owner is not None and fresh:
            for address in fresh:
                self._owner_of[address] = owner
            self._owner_pending[owner] = self._owner_pending.get(owner, 0) + new
        if len(self._stale) > self.stats.high_water:
            self.stats.high_water = len(self._stale)
        self._order_stale = True
        return new

    def set_viewport(self, region: RangeRef | None, owner: object | None = None) -> None:
        """Register a region of interest scheduled ahead of other work.

        ``owner`` identifies whose viewport this is (the service layer
        passes a session token); the default ``None`` slot preserves the
        legacy single-viewport API.  ``region=None`` unregisters the
        owner's viewport.  When several owners hold viewports, their ready
        work is drained round-robin so no session's visible region starves
        another's.
        """
        if region is None:
            self._viewports.pop(owner, None)
        else:
            self._viewports[owner] = region
        self._order_stale = True

    @property
    def viewport(self) -> RangeRef | None:
        """The legacy (ownerless) region of interest."""
        return self._viewports.get(None)

    def viewports(self) -> dict[object | None, RangeRef]:
        """Every registered viewport, keyed by owner token (a copy)."""
        return dict(self._viewports)

    # ------------------------------------------------------------------ #
    # state
    # ------------------------------------------------------------------ #
    def state_of(self, address: CellAddress) -> CellState:
        """The freshness of one cell."""
        if address == self._computing:
            return CellState.COMPUTING
        if address in self._stale and address in self._graph:
            return CellState.STALE
        return CellState.FRESH

    def is_fresh(self, address: CellAddress) -> bool:
        """Whether the cell's stored value reflects all its precedents."""
        return self.state_of(address) is CellState.FRESH

    @property
    def pending_count(self) -> int:
        """Number of cells queued for evaluation."""
        return len(self._stale)

    def pending(self) -> set[CellAddress]:
        """A snapshot of the queued (stale) cells."""
        return set(self._stale)

    def pending_by_owner(self) -> dict[object, int]:
        """Queued-cell counts per attributing owner token (a copy)."""
        return dict(self._owner_pending)

    @property
    def quarantined(self) -> dict[CellAddress, str]:
        """Quarantined poisoned cells and their last error text (a copy)."""
        return dict(self._quarantined)

    def requeue_quarantined(self, addresses=None) -> int:
        """Give quarantined cells a fresh shot at evaluation.

        Clears the quarantine record (and failure count) of every listed
        address — all of them when ``addresses`` is ``None`` — and queues
        them stale again, so a formula that failed on a *transient* fault
        (a flaky data source, an injected latency spike) recomputes once
        the fault clears instead of serving ``#ERROR!`` forever.  Returns
        the number of cells requeued.
        """
        if addresses is None:
            targets = list(self._quarantined)
        else:
            targets = [a for a in addresses if a in self._quarantined]
        for address in targets:
            self._quarantined.pop(address, None)
            self._failures.pop(address, None)
        if targets:
            self.mark_dirty(targets)
        return len(targets)

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    def run(self, limit: int | None = None, *,
            deadline: float | None = None,
            clock: Callable[[], float] = time.monotonic) -> int:
        """Evaluate up to ``limit`` queued cells (all of them when ``None``).

        Cells are popped in topological order, viewport-priority first.
        Returns the number of cells evaluated.  Raises
        :class:`CircularDependencyError` when only cyclic work remains; the
        queue is kept so a later edit can break the cycle.  ``deadline``
        (a ``clock()`` timestamp) stops the drain cooperatively between
        evaluations; remaining work stays queued.
        """
        return self._drain(limit, None, deadline=deadline, clock=clock)

    def drain_for(self, budget_ms: float, *,
                  clock: Callable[[], float] = time.monotonic) -> int:
        """Time-budgeted best-effort drain: the idle-drain primitive.

        Evaluates queued cells in the same topological, viewport-first
        order as :meth:`run` until the queue empties or ``budget_ms``
        milliseconds elapse.  At least one queued cell is retired when any
        are ready (progress is guaranteed even under a tiny budget); the
        deadline is checked between evaluations, so the overshoot is
        bounded by one formula's cost — the inherent limit of cooperative
        scheduling.  Never raises on cyclic work: the cycle stays queued
        (still surfaced by an explicit ``run``) and the drain simply
        stops, because an opportunistic drain piggybacking on a read must
        not fail the read.  Returns the number of cells evaluated.
        """
        if budget_ms <= 0:
            return 0
        return self._drain(
            None, None, best_effort=True,
            deadline=clock() + budget_ms / 1000.0, clock=clock,
        )

    def ensure(self, address: CellAddress, *,
               deadline: float | None = None,
               clock: Callable[[], float] = time.monotonic) -> int:
        """Make one cell fresh, evaluating only the subtree it needs.

        Evaluates the stale cells the target transitively reads (its
        ancestor slice within the queue) plus the target itself, and nothing
        else.  Returns the number of cells evaluated.  ``deadline`` (a
        ``clock()`` timestamp) bounds the drain cooperatively: past it the
        remaining subtree stays queued and the caller decides whether to
        serve the stale value (``state_of`` still reports STALE).
        """
        if self._order_stale:
            self._rebuild()
        if address not in self._stale:
            return 0
        # The predecessor map is only rebuilt lazily, so it may still list
        # ancestors that were evaluated since the last rebuild — restrict
        # the slice to cells that are actually still stale, or the drain
        # would wait forever on work that is already done.
        needed = {address}
        frontier = [address]
        while frontier:
            current = frontier.pop()
            for predecessor in self._predecessors.get(current, ()):
                if predecessor in self._stale and predecessor not in needed:
                    needed.add(predecessor)
                    frontier.append(predecessor)
        return self._drain(None, needed, deadline=deadline, clock=clock)

    def apply_structural_edit(self, edit: StructuralEdit) -> None:
        """Rewrite queued work across a row/column insert or delete.

        Queued addresses are remapped through the same coordinate arithmetic
        the graph re-keying uses (the graph is re-keyed first); queued cells
        whose line was deleted, or that the re-keyed graph does not hold —
        a live view's sentinel anchor, which the engine re-queues at its own
        address — are cancelled.  The dependency edges are rediscovered from
        the re-keyed graph at the next rebuild, so ordering stays consistent
        with the rewritten formulas.
        """
        self._quarantined = {
            moved: message
            for address, message in self._quarantined.items()
            if (moved := edit.map_address(address)) is not None
        }
        self._failures = {
            moved: count
            for address, count in self._failures.items()
            if (moved := edit.map_address(address)) is not None
        }
        self._owner_of = {
            moved: owner
            for address, owner in self._owner_of.items()
            if (moved := edit.map_address(address)) is not None
        }
        if not self._stale:
            return
        remapped: set[CellAddress] = set()
        for address in self._stale:
            moved = edit.map_address(address)
            if moved is None or moved not in self._graph:
                self.stats.cancelled += 1
            else:
                remapped.add(moved)
        self._stale = remapped
        self._order_stale = True

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _drain(self, limit: int | None, only: set[CellAddress] | None,
               *, best_effort: bool = False,
               deadline: float | None = None,
               clock: Callable[[], float] | None = None) -> int:
        evaluated = 0
        while self._stale and (limit is None or evaluated < limit):
            if deadline is not None and evaluated and clock() >= deadline:
                break
            if self._order_stale:
                self._rebuild()
                if only is not None:
                    only &= self._stale
            if only is not None and not only:
                break
            if not self._stale:
                break
            address = self._pop_ready(only)
            if address is None:
                if only is not None and not (only & self._stale):
                    break  # everything the slice needed is already fresh
                if best_effort:
                    break  # only cyclic work remains; leave it queued
                raise CircularDependencyError(
                    f"circular dependency among {len(self._stale)} queued formula cell(s)"
                )
            self._computing = address
            quarantined_now = False
            try:
                if self.before_evaluate is not None:
                    self.before_evaluate(address)
                self._evaluate(address)
            except Exception as error:
                # A poisoned formula must not wedge the queue.  Retry it a
                # bounded number of times (at the back of its queue, so the
                # rest of the ready set keeps draining), then quarantine it:
                # commit an error value via ``on_quarantine`` and release
                # its dependents as if it had evaluated.
                self._computing = None
                failures = self._failures.get(address, 0) + 1
                if failures < self.max_evaluate_attempts:
                    self._failures[address] = failures
                    self.stats.quarantine_retries += 1
                    self._requeue(address)
                    continue
                self._failures.pop(address, None)
                self._quarantined[address] = f"{type(error).__name__}: {error}"
                self.stats.quarantined += 1
                quarantined_now = True
                if self.on_quarantine is not None:
                    self.on_quarantine(address, error)
            except BaseException:
                # Leave the cell queued and re-runnable: it was popped but
                # not evaluated, so put it back at the front of its queue.
                self._requeue(address, front=True)
                self._computing = None
                raise
            else:
                self._computing = None
                self._failures.pop(address, None)
            self._stale.discard(address)
            self._forget_owner(address)
            if only is not None:
                only.discard(address)
            if not quarantined_now:
                self.stats.evaluated += 1
            evaluated += 1
            for successor in self._successors.get(address, ()):
                self._indegree[successor] -= 1
                if self._indegree[successor] == 0:
                    self._requeue(successor)
        return evaluated

    def _forget_owner(self, address: CellAddress) -> None:
        """Drop one cell's owner attribution (it left the queue)."""
        owner = self._owner_of.pop(address, None)
        if owner is None:
            return
        count = self._owner_pending.get(owner, 0) - 1
        if count > 0:
            self._owner_pending[owner] = count
        else:
            self._owner_pending.pop(owner, None)

    def _requeue(self, address: CellAddress, *, front: bool = False) -> None:
        """Enqueue a ready cell on every queue it belongs to.

        A cell in several owners' priority closures enters each owner's
        queue; the duplicate pops are skipped via the stale-set check in
        :meth:`_pop_ready`.
        """
        if address in self._priority:
            for owner, members in self._priority_by_owner.items():
                if address in members:
                    queue = self._ready_by_owner[owner]
                    if front:
                        queue.appendleft(address)
                    else:
                        queue.append(address)
        elif front:
            self._ready.appendleft(address)
        else:
            self._ready.append(address)

    def _pop_priority_ready(self, only: set[CellAddress] | None) -> CellAddress | None:
        owners = self._rr_order
        count = len(owners)
        for offset in range(count):
            position = (self._rr_index + offset) % count
            queue = self._ready_by_owner[owners[position]]
            if only is None:
                while queue:
                    address = queue.popleft()
                    if address not in self._stale:
                        continue  # already evaluated via another owner's queue
                    self._rr_index = (position + 1) % count
                    self.stats.priority_evaluations += 1
                    return address
            else:
                for index, address in enumerate(queue):
                    if address in only and address in self._stale:
                        del queue[index]
                        self._rr_index = (position + 1) % count
                        self.stats.priority_evaluations += 1
                        return address
        return None

    def _pop_ready(self, only: set[CellAddress] | None) -> CellAddress | None:
        address = self._pop_priority_ready(only)
        if address is not None:
            return address
        queue = self._ready
        if only is None:
            while queue:
                address = queue.popleft()
                if address in self._stale:
                    return address
            return None
        for index, address in enumerate(queue):
            if address in only:
                del queue[index]
                return address
        return None

    def _rebuild(self) -> None:
        """Rebuild ordering structures from the current stale set and graph."""
        dead = [address for address in self._stale if address not in self._graph]
        for address in dead:
            self._stale.discard(address)
            self.stats.cancelled += 1
        # Reconcile owner attribution with the surviving stale set: any
        # decrement a cancellation path missed self-heals here, so the
        # per-owner counts admission control reads never drift for long.
        if self._owner_of:
            self._owner_of = {
                address: owner
                for address, owner in self._owner_of.items()
                if address in self._stale
            }
            counts: dict[object, int] = {}
            for owner in self._owner_of.values():
                counts[owner] = counts.get(owner, 0) + 1
            self._owner_pending = counts

        pairs = self._graph.slice_edges(self._stale)
        indegree = {address: 0 for address in self._stale}
        successors: dict[CellAddress, list[CellAddress]] = {
            address: [] for address in self._stale
        }
        predecessors: dict[CellAddress, list[CellAddress]] = {
            address: [] for address in self._stale
        }
        seen: set[tuple[CellAddress, CellAddress]] = set()
        for precedent, dependent in pairs:
            if (precedent, dependent) in seen:
                continue
            seen.add((precedent, dependent))
            successors[precedent].append(dependent)
            predecessors[dependent].append(precedent)
            indegree[dependent] += 1

        # Each owner's priority closure: its region of interest plus every
        # stale cell that region transitively reads — those precedents must
        # evaluate first regardless, so promoting them is what actually
        # makes the viewport fresh early.
        priority: set[CellAddress] = set()
        priority_by_owner: dict[object | None, set[CellAddress]] = {}
        for owner, viewport in self._viewports.items():
            frontier = [
                address for address in self._stale
                if viewport.contains_coordinates(address.row, address.column)
            ]
            members = set(frontier)
            while frontier:
                current = frontier.pop()
                for predecessor in predecessors.get(current, ()):
                    if predecessor not in members:
                        members.add(predecessor)
                        frontier.append(predecessor)
            if members:
                priority_by_owner[owner] = members
                priority |= members

        ready = sorted(
            (address for address in self._stale if indegree[address] == 0),
            key=lambda address: (address.row, address.column),
        )
        self._indegree = indegree
        self._successors = successors
        self._predecessors = predecessors
        self._priority = priority
        self._priority_by_owner = priority_by_owner
        self._ready_by_owner = {
            owner: deque(a for a in ready if a in members)
            for owner, members in priority_by_owner.items()
        }
        self._rr_order = list(priority_by_owner)
        self._rr_index = self._rr_index % len(self._rr_order) if self._rr_order else 0
        self._ready = deque(a for a in ready if a not in priority)
        self._order_stale = False
