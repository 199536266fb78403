"""Formula dependency graph (Section VI, Formula Evaluation).

The graph maps each formula cell to the cells it reads.  When a cell is
updated, the engine asks the graph for the transitive set of dependents in a
topological order and re-evaluates them.  Range dependencies are kept as
rectangles and matched by containment, so ``SUM(A1:A1000)`` costs one edge,
not a thousand.

Recompute architecture
----------------------
Finding the formulas that read a changed cell is the hot operation: it runs
once per BFS node on every edit.  Range precedents are therefore held in
the column-stripe interval index of :mod:`repro.formula.stripes`, keyed by
the formula cell that owns each range, instead of being scanned linearly:
``direct_dependents`` costs O(log n + matches) rather than a scan of every
registered formula, and single (un)registrations maintain the index
incrementally, so a steady stream of formula edits performs **zero** lazy
rebuilds.  :attr:`DependencyGraph.stats` counts interval entries probed,
which tests use to assert sub-linear behaviour.

``register`` accepts either A1 formula source text or an already-parsed
:class:`~repro.formula.ast_nodes.FormulaNode` — A1, or stored
(:mod:`repro.formula.relative`) and resolved at the registered cell — so
the engine can parse each formula exactly once and share the AST between
dependency extraction and evaluation.  ``recompute_order`` extends
``dependents_of`` for batched edits: it returns one topological order
covering the dirty formula cells themselves plus every transitive dependent
of the dirty set.

Interval-index contract
-----------------------
The index answers exactly one question — *which formula cells read
coordinate (row, column)?* — and its lookups are exact, not conservative:
``direct_dependents`` agrees with a brute-force scan of every
registration's precedents on every input (``tests/support``'s
``scan_dependents``).

Structural-edit rewrite hook
----------------------------
:meth:`DependencyGraph.apply_structural_edit` keeps the graph live across
row/column inserts and deletes.  Given a
:class:`~repro.formula.rewrite.StructuralEdit` it re-keys *in place* the
registrations the edit reaches: one whose own cell and every precedent lie
before the edit line keeps its entry object, its ``_cell_dependents``
memberships and its stripe entries untouched.  The rest are taken out and
put back mapped through the edit, with the same primitives every
(un)registration uses: formula-cell keys are shifted (registrations on
deleted lines are dropped) and precedent cells and range spans are shifted
with the same mapping functions the AST rewriter uses (fully deleted
precedents are removed — mirroring the reference collapsing to ``#REF!``).
Only the column stripes holding a range of a reached registration are
marked stale and rebuild once on their next stab; every other built
interval tree is carried across as it is, so an edit near the bottom of the
sheet does not discard index work for untouched columns.
The returned :class:`StructuralRewrite` reports which formulas' stored text
the edit changes, so the engine reads and rewrites only those cells, and
which formulas were *reshaped* — now read a different set of cells — so it
can seed its topological recompute with those alone.  A stored text is a
set of offsets from the formula's own cell, so a formula and precedents
that all move together keep their text: the re-key tells from the lines it
already maps which formulas straddle the edit, with no AST walk.  Only a
formula with a ``$``-anchored component — whose text changes when that
target moves, which the registration does not say — is handed over for
the engine's check on its AST.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Iterable

from repro.errors import CircularDependencyError
from repro.formula.ast_nodes import FormulaNode
from repro.formula.evaluator import references
from repro.formula.parser import parse_formula
from repro.formula.rewrite import StructuralEdit
from repro.formula.stripes import (
    DependencyGraphStats,
    StripeIndex,
    bucket_keys,
    index_add,
    index_remove,
    index_stab,
)
from repro.grid.address import CellAddress
from repro.grid.range import RangeRef

#: One registration: the (precedent cells, precedent ranges) of a formula cell.
_Registration = tuple[frozenset[CellAddress], tuple[RangeRef, ...]]

#: Per edited axis: a cell's coordinate and a range's near and far end
#: along it.
_AXIS_GETTERS = {
    "row": (attrgetter("row"), attrgetter("top"), attrgetter("bottom")),
    "column": (attrgetter("column"), attrgetter("left"), attrgetter("right")),
}


@dataclass
class StructuralRewrite:
    """What :meth:`DependencyGraph.apply_structural_edit` did to the graph.

    ``changed`` maps the *post-edit* address of every formula whose stored
    text needs rewriting to its pre-edit address: one with a relative
    reference whose target and cell land on different sides of the edited
    line, or with a lost, clamped or reshaped referent.  A formula with a
    ``$``-anchored component is in it whenever the edit reaches it: the
    engine checks its AST.  ``reshaped`` holds the post-edit addresses of
    the formulas that now read a *different set of cells*: a referent was
    lost (``#REF!``) or a range changed extent
    (:meth:`StructuralEdit.reshapes <repro.grid.structural.StructuralEdit.reshapes>`).
    Only those need re-evaluating (with their transitive dependents); a
    formula whose references merely translated reads the cells it read
    before and keeps its value.
    """

    changed: dict[CellAddress, CellAddress] = field(default_factory=dict)
    reshaped: set[CellAddress] = field(default_factory=set)


class DependencyGraph:
    """Tracks which formula cells depend on which precedent cells/ranges."""

    def __init__(self) -> None:
        # formula cell -> (precedent cells, precedent ranges)
        self._precedents: dict[CellAddress, _Registration] = {}
        # precedent cell -> set of formula cells reading it directly
        self._cell_dependents: dict[CellAddress, set[CellAddress]] = {}
        # column stripe (or WIDE_BUCKET) -> ranges whose spans cross it
        self._range_buckets: StripeIndex = {}
        # formula cells with a ``$``-anchored reference component
        self._anchored: set[CellAddress] = set()
        #: Fired with the address whenever a *registered* formula leaves the
        #: graph (re-registration, clearing, overwriting).  The aggregate
        #: store hangs its refcount lifecycle here: the graph is the single
        #: source of truth for which formulas still read which ranges, so
        #: unregistration is exactly when a shared state loses a subscriber.
        self.on_unregister: Callable[[CellAddress], None] | None = None
        self.stats = DependencyGraphStats()

    # ------------------------------------------------------------------ #
    def register(self, address: CellAddress, formula: str | FormulaNode) -> None:
        """Register (or replace) the formula at ``address``.

        ``formula`` may be A1 source text or a pre-parsed AST (A1 or stored,
        which resolves at ``address``); passing the AST lets the engine
        parse each formula exactly once.
        """
        if isinstance(formula, str):
            formula = parse_formula(formula)  # may raise: nothing changed yet
        cells, ranges, anchored = references(formula, address)
        self.unregister(address)
        self._install(address, frozenset(cells), tuple(ranges), anchored)

    def register_ranges(self, address: CellAddress,
                        ranges: Iterable[RangeRef]) -> None:
        """Register ``address`` as a pure range reader (no formula text).

        Used by live query views: the view's sentinel anchor depends on its
        source regions, so edits anywhere inside them reach the view through
        the same interval-indexed lookup as any formula, without a formula
        ever existing at the anchor.
        """
        self.unregister(address)
        self._install(address, frozenset(), tuple(ranges))

    def _install(
        self,
        address: CellAddress,
        cells: frozenset[CellAddress],
        ranges: tuple[RangeRef, ...],
        anchored: bool = False,
    ) -> None:
        self._precedents[address] = (cells, ranges)
        if anchored:
            self._anchored.add(address)
        for precedent in cells:
            self._cell_dependents.setdefault(precedent, set()).add(address)
        for region in ranges:
            index_add(self._range_buckets, address, region, self.stats)

    def snapshot_registration(
        self, address: CellAddress
    ) -> tuple[_Registration, bool] | None:
        """Snapshot of ``address``'s registration and whether it is
        anchored (``None`` when absent).

        Unlike :meth:`precedents_of`, distinguishes an unregistered cell
        from a registered formula with no references.  Pair with
        :meth:`restore_registration` to roll back the registrations of a
        failed batch.
        """
        entry = self._precedents.get(address)
        return None if entry is None else (entry, address in self._anchored)

    def restore_registration(
        self,
        address: CellAddress,
        snapshot: tuple[_Registration, bool] | None,
    ) -> None:
        """Reset ``address``'s registration to a captured snapshot."""
        self.unregister(address)
        if snapshot is not None:
            (cells, ranges), anchored = snapshot
            self._install(address, cells, ranges, anchored)

    def unregister(self, address: CellAddress) -> None:
        """Remove the formula at ``address`` from the graph (no-op if absent)."""
        if self._uninstall(address) and self.on_unregister is not None:
            self.on_unregister(address)

    def _uninstall(self, address: CellAddress) -> bool:
        """Undo :meth:`_install`; ``False`` when ``address`` is not registered."""
        entry = self._precedents.pop(address, None)
        if entry is None:
            return False
        self._anchored.discard(address)
        cells, ranges = entry
        for precedent in cells:
            dependents = self._cell_dependents[precedent]
            dependents.discard(address)
            if not dependents:
                del self._cell_dependents[precedent]
        index_remove(self._range_buckets, address, ranges, self.stats)
        return True

    # ------------------------------------------------------------------ #
    def apply_structural_edit(self, edit: StructuralEdit) -> StructuralRewrite:
        """Re-key the registrations a row/column insert or delete reaches.

        A registration whose own cell and every precedent lie before the
        edit line is not looked at further: its entry object, its
        ``_cell_dependents`` memberships and its stripe entries stay as they
        are.  Every other registration is mapped through ``edit`` with the
        same arithmetic the AST rewriter applies to formula text, so the
        graph stays consistent with the rewritten formulas without
        re-parsing a single one: registrations whose own cell was deleted
        are dropped; precedents that were fully deleted are removed from
        their formula's registration (the formula itself survives — its
        reference now reads ``#REF!``).

        The stripes holding an old range of a reached registration are
        marked stale, so taking the registrations out and putting them back
        is dict work and each such stripe rebuilds once on its next stab;
        every other built interval tree is carried across as it is.
        """
        line_of, start_of, end_of = _AXIS_GETTERS[edit.axis]
        # Coordinates up to ``fixed`` along the edited axis do not move;
        # from ``moving`` on they all shift by the same amount (a delete
        # drops the lines in between).
        fixed = edit.line if edit.kind == "insert" else edit.line - 1
        moving = fixed + 1 if edit.kind == "insert" else edit.line + edit.count
        rewrite = StructuralRewrite()
        # The reached registrations as they were, and as they come out
        # (those whose own cell survives), keyed by old and new address.
        removed: list[tuple[CellAddress, _Registration]] = []
        installed: list[tuple[CellAddress, _Registration, bool]] = []
        for address, entry in self._precedents.items():
            cells, ranges = entry
            line = line_of(address)
            if (line <= fixed
                    and max(map(line_of, cells), default=0) <= fixed
                    and max(map(end_of, ranges), default=0) <= fixed):
                continue
            removed.append((address, entry))
            new_address = edit.map_address(address)
            if new_address is None:
                continue  # the formula's own cell was deleted
            new_cells = frozenset(
                mapped for mapped in map(edit.map_address, cells) if mapped is not None
            )
            new_ranges = tuple(
                mapped for mapped in map(edit.map_range, ranges) if mapped is not None
            )
            # The mapping is one-to-one on surviving cells, so a smaller set
            # means a referent was lost.
            if len(new_cells) != len(cells) or any(map(edit.reshapes, ranges)):
                rewrite.reshaped.add(new_address)
            anchored = address in self._anchored
            # Offsets hold unless the formula stays put while a precedent
            # moves, or moves while a precedent stays put or is deleted (or
            # a referent is lost or clamped at the sheet edge).
            if (anchored or line <= fixed or new_address in rewrite.reshaped
                    or min(map(line_of, cells), default=moving) < moving
                    or min(map(start_of, ranges), default=moving) < moving):
                rewrite.changed[new_address] = address
            installed.append((new_address, (new_cells, new_ranges), anchored))

        # Mark stale every stripe a reached range sits in: the removes and
        # adds below are then dict work, and each such stripe rebuilds once
        # on its next stab.  Take every reached registration out before
        # putting any back: a shifted key may be the old key of a
        # registration further down.
        for address, (_cells, ranges) in removed:
            for region in ranges:
                for key in bucket_keys(region):
                    self._range_buckets[key].stale = True
            self._uninstall(address)
        for address, (cells, ranges), anchored in installed:
            self._install(address, cells, ranges, anchored)
        return rewrite

    def formula_cells(self) -> list[CellAddress]:
        """All registered formula cells."""
        return list(self._precedents)

    def precedents_of(self, address: CellAddress) -> tuple[frozenset[CellAddress], tuple[RangeRef, ...]]:
        """The direct precedents (cells, ranges) of a formula cell."""
        return self._precedents.get(address, (frozenset(), ()))

    # ------------------------------------------------------------------ #
    def direct_dependents(self, changed: CellAddress) -> set[CellAddress]:
        """Formula cells that directly read ``changed`` (via a cell or range ref)."""
        dependents = set(self._cell_dependents.get(changed, ()))
        index_stab(self._range_buckets, changed.row, changed.column, dependents, self.stats)
        return dependents

    def dependents_of(self, changed: CellAddress | Iterable[CellAddress]) -> list[CellAddress]:
        """Transitive dependents of the changed cell(s), in evaluation order.

        The returned order is a topological order of the affected subgraph:
        a formula appears after every affected formula it reads.  Raises
        :class:`CircularDependencyError` when the affected subgraph contains
        a cycle.
        """
        seeds = [changed] if isinstance(changed, CellAddress) else list(changed)
        return self._ordered_closure(seeds, include_seed_formulas=False)

    def recompute_order(self, dirty: Iterable[CellAddress]) -> list[CellAddress]:
        """Evaluation order for a batch of edits.

        Like :meth:`dependents_of`, but dirty cells that are themselves
        formulas are included in the order (they need evaluating too), so a
        batched edit runs exactly one topological pass.
        """
        return self._ordered_closure(list(dirty), include_seed_formulas=True)

    # ------------------------------------------------------------------ #
    # topological slicing (used by the async compute scheduler)
    # ------------------------------------------------------------------ #
    def affected_set(self, seeds: Iterable[CellAddress], *,
                     include_seeds: bool = True) -> set[CellAddress]:
        """The dirty slice of an edit: every formula needing re-evaluation.

        BFS over direct dependents from the seeds — no ordering, no
        full-graph sort.  With ``include_seeds`` (the default), seeds that
        are themselves registered formulas are part of the slice.  This is
        the subtree-extraction primitive behind
        :class:`~repro.compute.ComputeScheduler.mark_dirty`.
        """
        seeds = list(seeds)
        affected = {seed for seed in seeds if seed in self._precedents} \
            if include_seeds else set()
        # Whole-set steps instead of a per-cell loop: set algebra reuses the
        # hashes the sets already hold, and this runs inside every async
        # edit acknowledgment.  A cell is expanded once — a seed from the
        # start, a dependent when it first joins ``affected``.
        expanded = set(seeds)
        frontier = list(expanded)
        while frontier:
            fresh = self.direct_dependents(frontier.pop()) - affected
            affected |= fresh
            frontier.extend(fresh - expanded)
        return affected

    def slice_edges(
        self, cells: Iterable[CellAddress]
    ) -> list[tuple[CellAddress, CellAddress]]:
        """The dependency edges internal to a subset of formula cells.

        Returns ``(precedent, dependent)`` pairs where both endpoints are in
        ``cells`` — exactly the edges a scheduler needs to order the subset,
        discovered through the interval index (one ``direct_dependents``
        stab per member), never by sorting the whole graph.
        """
        subset = set(cells)
        pairs: list[tuple[CellAddress, CellAddress]] = []
        for cell in sorted(subset):
            for dependent in self.direct_dependents(cell):
                if dependent in subset and dependent != cell:
                    pairs.append((cell, dependent))
        return pairs

    def slice_order(self, cells: Iterable[CellAddress]) -> list[CellAddress]:
        """Topological order over exactly the given cells (no expansion).

        The one-shot convenience over :meth:`slice_edges`: unlike
        :meth:`recompute_order` the subset is *not* grown to its transitive
        dependents.  (The compute scheduler consumes :meth:`slice_edges`
        directly instead, because it needs to re-prioritise and pop
        incrementally rather than fix one order up front.)  Raises
        :class:`CircularDependencyError` when the subset contains a cycle.
        """
        subset = set(cells)
        return self._topological_order(subset, self.slice_edges(subset))

    def __contains__(self, address: CellAddress) -> bool:
        return address in self._precedents

    def _affected_slice(
        self, seeds: list[CellAddress], include_seed_formulas: bool
    ) -> tuple[set[CellAddress], list[tuple[CellAddress, CellAddress]]]:
        """BFS the dependents of ``seeds``: the affected set plus the
        (reader-of, read-by) pairs discovered along the way, so callers can
        order the slice without a pairwise containment scan afterwards."""
        affected: set[CellAddress] = set()
        if include_seed_formulas:
            affected.update(seed for seed in seeds if seed in self._precedents)
        pairs: list[tuple[CellAddress, CellAddress]] = []
        visited: set[CellAddress] = set()
        frontier: deque[CellAddress] = deque(seeds)
        while frontier:
            current = frontier.popleft()
            if current in visited:
                continue
            visited.add(current)
            for dependent in self.direct_dependents(current):
                pairs.append((current, dependent))
                if dependent not in affected:
                    affected.add(dependent)
                    frontier.append(dependent)
        return affected, pairs

    def _ordered_closure(self, seeds: list[CellAddress],
                         include_seed_formulas: bool) -> list[CellAddress]:
        affected, pairs = self._affected_slice(seeds, include_seed_formulas)
        return self._topological_order(affected, pairs)

    def _topological_order(self, affected: set[CellAddress],
                           pairs: list[tuple[CellAddress, CellAddress]]) -> list[CellAddress]:
        indegree: dict[CellAddress, int] = {address: 0 for address in affected}
        edges: dict[CellAddress, list[CellAddress]] = {address: [] for address in affected}
        seen: set[tuple[CellAddress, CellAddress]] = set()
        for precedent, dependent in pairs:
            if precedent not in affected or dependent not in affected:
                continue
            if precedent == dependent or (precedent, dependent) in seen:
                continue
            seen.add((precedent, dependent))
            edges[precedent].append(dependent)
            indegree[dependent] += 1
        ready = deque(sorted((a for a, degree in indegree.items() if degree == 0),
                             key=lambda a: (a.row, a.column)))
        ordered: list[CellAddress] = []
        while ready:
            current = ready.popleft()
            ordered.append(current)
            for successor in edges[current]:
                indegree[successor] -= 1
                if indegree[successor] == 0:
                    ready.append(successor)
        if len(ordered) != len(affected):
            raise CircularDependencyError(
                f"circular dependency among {len(affected) - len(ordered)} formula cell(s)"
            )
        return ordered

    def detect_cycle(self) -> bool:
        """Whether the full graph currently contains a cycle."""
        try:
            self._ordered_closure(list(self._precedents), include_seed_formulas=True)
        except CircularDependencyError:
            return True
        return False

    def __len__(self) -> int:
        return len(self._precedents)
