"""Formula dependency graph (Section VI, Formula Evaluation).

The graph maps each formula cell to the cells it reads.  When a cell is
updated, the engine asks the graph for the transitive set of dependents in a
topological order and re-evaluates them.  Range dependencies are kept as
rectangles and matched by containment, so ``SUM(A1:A1000)`` costs one edge,
not a thousand.

Recompute architecture
----------------------
Finding the formulas that read a changed cell is the hot operation: it runs
once per BFS node on every edit.  Range precedents are therefore held in a
*spatial interval index* instead of being scanned linearly:

* Ranges spanning at most :data:`WIDE_COLUMN_SPAN` columns are bucketed per
  spanned column (*column stripes*).  A lookup for a changed cell touches
  only the bucket of the cell's column.
* Wider ranges (whole-row style references) share a single *wide* bucket and
  are filtered by column span after row stabbing.

Each bucket keeps a centered interval tree over the row spans of its
ranges.  Maintenance is *incremental*: registering or unregistering a
single formula inserts into / removes from the already-built tree in
O(log n) (``stats.incremental_inserts`` / ``stats.incremental_removes``;
each mutation absorbed by a built tree counts one ``rebuilds_avoided``)
instead of invalidating the bucket, so a steady stream of formula edits
performs **zero** lazy rebuilds.  A full rebuild survives only as a
thresholded fallback: heavy churn on one bucket (more mutations than
:data:`REBUILD_CHURN_FACTOR` times its size), or an insert whose descent
runs ~3x deeper than a balanced tree (a monotone span sequence growing a
spine), re-marks it stale so the next stab rebuilds a balanced tree,
bounding the degradation incremental insertion can cause.  ``direct_dependents`` costs O(log n + matches)
rather than a scan of every registered formula.
:attr:`DependencyGraph.stats` counts interval entries probed, which tests
use to assert sub-linear behaviour.

``register`` accepts either formula source text or an already-parsed
:class:`~repro.formula.ast_nodes.FormulaNode`, so the engine can parse each
formula exactly once and share the AST between dependency extraction and
evaluation.  ``recompute_order`` extends ``dependents_of`` for batched
edits: it returns one topological order covering the dirty formula cells
themselves plus every transitive dependent of the dirty set.

Interval-index contract
-----------------------
The index answers exactly one question — *which formula cells read
coordinate (row, column)?* — and maintains these invariants:

* Every registered range appears in one bucket per spanned column (or the
  single wide bucket when it spans more than :data:`WIDE_COLUMN_SPAN`
  columns), keyed by the formula cell that owns it.
* A bucket's interval tree tracks its entries *incrementally*: a register
  inserts into the built tree, an unregister removes from it, both in
  O(log n), and the tree answers stabs correctly throughout.  A bucket is
  marked *stale* (rebuilt lazily on the next stab) only when no tree is
  built yet, when churn exceeds the rebuild threshold, or when a
  structural re-key re-assembled it and could not splice the old tree
  across.  Buckets never
  share trees.
* Lookup results are exact, not conservative: ``direct_dependents`` agrees
  with a brute-force scan of every registration's precedents on every input
  (``tests/support``'s ``scan_dependents``).

Structural-edit rewrite hook
----------------------------
:meth:`DependencyGraph.apply_structural_edit` keeps the graph live across
row/column inserts and deletes.  Given a
:class:`~repro.formula.rewrite.StructuralEdit` it re-keys *in place* the
registrations the edit reaches: one whose own cell and every precedent lie
before the edit line keeps its entry object, its ``_cell_dependents``
memberships and its stripe entries untouched.  For the rest, formula-cell
keys are shifted through the edit (registrations on deleted lines are
dropped) and precedent cells and range spans are shifted with the same
mapping functions the AST rewriter uses (fully deleted precedents are
removed — mirroring the reference collapsing to ``#REF!``).  Only the
column stripes holding a range of a reached registration are re-assembled:
every other built interval tree is carried across as it is, and so is a
re-assembled stripe whose entries came out unchanged (both counted by
``stats.stripes_reused``); a stripe the edit merely *translated* — a
column edit moving whole stripes sideways, or a row edit shifting every
span in a stripe by one uniform delta — gets its built tree spliced across
in O(n) with no re-sorting (``stats.stripes_shifted``) instead of being
rebuilt, so an edit near the bottom of the sheet does not discard index
work for untouched columns.
The returned :class:`StructuralRewrite` reports which formulas' precedents
changed, so the engine can rewrite exactly those cells' formula text, and
which of them were *reshaped* — now read a different set of cells — so it
can seed its topological recompute with those alone.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Iterable, Sequence

from repro.errors import CircularDependencyError
from repro.formula.ast_nodes import FormulaNode
from repro.formula.evaluator import extract_references
from repro.formula.rewrite import StructuralEdit
from repro.grid.address import CellAddress
from repro.grid.range import RangeRef

#: Ranges spanning more columns than this go to the shared wide bucket
#: instead of one entry per column stripe.
WIDE_COLUMN_SPAN = 64

#: Bucket key for ranges too wide for per-column stripes.
_WIDE_BUCKET = None

#: One registration: the (precedent cells, precedent ranges) of a formula cell.
_Registration = tuple[frozenset[CellAddress], tuple[RangeRef, ...]]

#: Per edited axis: a cell's coordinate and a range's far end along it.
_AXIS_GETTERS = {
    "row": (attrgetter("row"), attrgetter("bottom")),
    "column": (attrgetter("column"), attrgetter("right")),
}

#: A bucket whose built tree has absorbed more than this many incremental
#: mutations per current entry falls back to one full rebuild on its next
#: stab.  Incremental inserts extend the tree without rebalancing (and
#: removals leave empty tombstone nodes), so unbounded churn would slowly
#: degrade stab cost; the threshold keeps the tree within a constant factor
#: of balanced while still making steady-state maintenance rebuild-free.
REBUILD_CHURN_FACTOR = 2

#: Churn floor so tiny buckets are not rebuilt after a handful of edits.
REBUILD_CHURN_MIN = 64


@dataclass
class DependencyGraphStats:
    """Instrumentation counters for the range index (exposed for tests)."""

    lookups: int = 0             # direct_dependents calls
    range_probes: int = 0        # interval entries examined while stabbing
    index_rebuilds: int = 0      # lazy interval-tree rebuilds
    stripes_reused: int = 0      # built trees carried across a structural edit
    stripes_shifted: int = 0     # built trees spliced to a translated stripe
    incremental_inserts: int = 0  # spans inserted into a built tree (O(log n))
    incremental_removes: int = 0  # spans removed from a built tree (O(log n))
    rebuilds_avoided: int = 0    # bucket mutations absorbed without invalidating

    def reset(self) -> None:
        self.lookups = 0
        self.range_probes = 0
        self.index_rebuilds = 0
        self.stripes_reused = 0
        self.stripes_shifted = 0
        self.incremental_inserts = 0
        self.incremental_removes = 0
        self.rebuilds_avoided = 0


class _IntervalTree:
    """Centered interval tree over inclusive [top, bottom] row spans.

    Every interval stored at a node contains the node's center row, kept in
    two orders: ascending by top (for stabs left of center) and descending
    by bottom (for stabs right of center).  A stab visits O(log n) nodes and
    examines only entries that match plus one terminator per node.

    The bulk constructor builds a balanced tree; :meth:`insert` and
    :meth:`remove` then maintain it incrementally.  Node centers are
    immutable, so the descent an interval takes is deterministic — a
    removal always finds its entry at the node the insert (or the builder)
    placed it.  Removal may leave a node's entry lists empty; such
    tombstone nodes answer stabs correctly (nothing matches) and are
    compacted away by the bucket's thresholded full rebuild.
    """

    __slots__ = ("center", "left", "right", "by_top", "by_bottom")

    def __init__(self, entries: Sequence[tuple[int, int, object]]) -> None:
        # entries: (top, bottom, payload); callers guarantee non-empty.
        endpoints = sorted(top for top, _bottom, _payload in entries)
        self.center = endpoints[len(endpoints) // 2]
        here: list[tuple[int, int, object]] = []
        lower: list[tuple[int, int, object]] = []
        upper: list[tuple[int, int, object]] = []
        for entry in entries:
            top, bottom, _payload = entry
            if bottom < self.center:
                lower.append(entry)
            elif top > self.center:
                upper.append(entry)
            else:
                here.append(entry)
        self.by_top = sorted(here, key=lambda entry: entry[0])
        self.by_bottom = sorted(here, key=lambda entry: -entry[1])
        self.left = _IntervalTree(lower) if lower else None
        self.right = _IntervalTree(upper) if upper else None

    def stab(self, row: int, out: list, stats: DependencyGraphStats) -> None:
        """Append the payloads of all intervals containing ``row`` to ``out``."""
        node: _IntervalTree | None = self
        while node is not None:
            if row < node.center:
                for top, _bottom, payload in node.by_top:
                    stats.range_probes += 1
                    if top > row:
                        break
                    out.append(payload)
                node = node.left
            elif row > node.center:
                for _top, bottom, payload in node.by_bottom:
                    stats.range_probes += 1
                    if bottom < row:
                        break
                    out.append(payload)
                node = node.right
            else:
                stats.range_probes += len(node.by_top)
                out.extend(payload for _top, _bottom, payload in node.by_top)
                return

    def insert(self, top: int, bottom: int, payload: object) -> int:
        """Insert one interval without rebuilding; returns the descent depth.

        Descends by the centered-tree rule (entirely-below goes left,
        entirely-above goes right, containing-the-center stays here) and
        splices the entry into the node's two sorted orders; a descent off
        the edge of the tree grows a new leaf.  Node centers are fixed at
        creation, so adversarial (e.g. monotone) span sequences can grow a
        spine instead of a balanced tree — the returned depth lets the
        bucket detect that and schedule a compacting rebuild.
        """
        depth = 1
        node = self
        while True:
            if bottom < node.center:
                if node.left is None:
                    node.left = _IntervalTree(((top, bottom, payload),))
                    return depth + 1
                node = node.left
            elif top > node.center:
                if node.right is None:
                    node.right = _IntervalTree(((top, bottom, payload),))
                    return depth + 1
                node = node.right
            else:
                entry = (top, bottom, payload)
                insort(node.by_top, entry, key=lambda item: item[0])
                insort(node.by_bottom, entry, key=lambda item: -item[1])
                return depth
            depth += 1

    def remove(self, top: int, bottom: int, payload: object) -> bool:
        """Remove one matching interval in O(log n + entries at its node).

        The descent is deterministic (centers never change), so the entry
        is found at exactly the node that holds it.  Returns ``False`` when
        no such entry exists — the caller falls back to a full rebuild.
        """
        entry = (top, bottom, payload)
        node: _IntervalTree | None = self
        while node is not None:
            if bottom < node.center:
                node = node.left
            elif top > node.center:
                node = node.right
            else:
                try:
                    node.by_top.remove(entry)
                    node.by_bottom.remove(entry)
                except ValueError:
                    return False
                return True
        return False

    def translate(self, row_delta: int, mapper) -> "_IntervalTree":
        """A structurally identical tree, row spans shifted by ``row_delta``
        and every payload passed through ``mapper``.

        Valid only when the edit moved *every* span in the bucket by the
        same row delta (a column edit never touches row spans at all, so it
        translates with delta 0): the centers shift with the spans and the
        by-top/by-bottom orders carry over verbatim, so the copy costs O(n)
        with no sorting.
        """
        clone = _IntervalTree.__new__(_IntervalTree)
        clone.center = self.center + row_delta
        clone.by_top = [
            (top + row_delta, bottom + row_delta, mapper(payload))
            for top, bottom, payload in self.by_top
        ]
        clone.by_bottom = [
            (top + row_delta, bottom + row_delta, mapper(payload))
            for top, bottom, payload in self.by_bottom
        ]
        clone.left = self.left.translate(row_delta, mapper) if self.left is not None else None
        clone.right = self.right.translate(row_delta, mapper) if self.right is not None else None
        return clone


class _StripeBucket:
    """The ranges assigned to one column stripe (or the wide bucket).

    Entries are kept per formula cell so unregister is O(ranges of that
    formula).  A built interval tree is maintained *incrementally*: adds
    insert into it and removes delete from it in O(log n), so single
    (un)registrations never invalidate the bucket.  The tree is rebuilt
    lazily only when none is built yet, when accumulated churn exceeds
    ``REBUILD_CHURN_FACTOR`` times the bucket's current size, or when an
    insert descends past ``_depth_limit`` (incremental maintenance does
    not rebalance, so heavy churn — or an adversarial monotone span
    sequence growing a spine — eventually warrants one compacting
    rebuild).
    """

    __slots__ = ("entries", "tree", "stale", "size", "churn")

    def __init__(
        self, entries: dict[CellAddress, list[tuple[int, int, int, int]]] | None = None
    ) -> None:
        # formula cell -> list of (top, bottom, left, right) spans
        self.entries = entries if entries is not None else {}
        self.tree: _IntervalTree | None = None
        # Entries without a tree: the first stab builds it.
        self.stale = bool(self.entries)
        #: Total spans across all entries (the tree's live entry count).
        self.size = sum(map(len, self.entries.values()))
        #: Incremental mutations absorbed since the tree was last (re)built.
        self.churn = 0

    def add(self, address: CellAddress, region: RangeRef,
            stats: DependencyGraphStats) -> None:
        self.entries.setdefault(address, []).append(
            (region.top, region.bottom, region.left, region.right)
        )
        self.size += 1
        if self.tree is not None and not self.stale:
            depth = self.tree.insert(region.top, region.bottom,
                                     (region.left, region.right, address))
            stats.incremental_inserts += 1
            self._absorb_churn(1)
            if depth > self._depth_limit():
                # Monotone span sequences grow a spine the churn counter
                # never notices (churn and size grow in lockstep); the
                # depth of the insert descent catches it directly.  A
                # deep tree also keeps stabs O(depth) and would overflow
                # the recursive structural-edit splice.
                self.stale = True
            if not self.stale:
                stats.rebuilds_avoided += 1
        else:
            self.stale = True

    def remove(self, address: CellAddress, stats: DependencyGraphStats) -> bool:
        """Drop every span of ``address``; returns True when the bucket empties."""
        spans = self.entries.pop(address, None)
        if spans is not None:
            self.size -= len(spans)
            if self.tree is not None and not self.stale:
                for top, bottom, left, right in spans:
                    if not self.tree.remove(top, bottom, (left, right, address)):
                        # The tree and the entry map disagree; rebuild.
                        self.stale = True
                        break
                    stats.incremental_removes += 1
                else:
                    self._absorb_churn(len(spans))
                    if not self.stale:
                        stats.rebuilds_avoided += 1
            else:
                self.stale = True
        return not self.entries

    def _absorb_churn(self, mutations: int) -> None:
        """Count incremental mutations; fall back to a rebuild past the cap."""
        self.churn += mutations
        if self.churn > max(REBUILD_CHURN_MIN, REBUILD_CHURN_FACTOR * self.size):
            self.stale = True

    def _depth_limit(self) -> int:
        """Deepest acceptable insert descent: ~3x the balanced depth.

        A fresh build of ``size`` entries has depth about log2(size); past
        three times that (plus slack for tiny buckets) the incremental
        inserts have degenerated the shape and one compacting rebuild is
        cheaper than serving O(depth) stabs.
        """
        return 3 * max(self.size.bit_length(), 2) + 4

    def stab(self, row: int, column: int, out: set[CellAddress],
             stats: DependencyGraphStats) -> None:
        """Add the formula cells whose spans contain (row, column) to ``out``."""
        if self.tree is None or self.stale:
            flat = [
                (top, bottom, (left, right, address))
                for address, spans in self.entries.items()
                for top, bottom, left, right in spans
            ]
            self.tree = _IntervalTree(flat) if flat else None
            self.stale = False
            self.size = len(flat)
            self.churn = 0
            stats.index_rebuilds += 1
        if self.tree is None:
            return
        hits: list[tuple[int, int, CellAddress]] = []
        self.tree.stab(row, hits, stats)
        for left, right, address in hits:
            if left <= column <= right:
                out.add(address)


@dataclass
class StructuralRewrite:
    """What :meth:`DependencyGraph.apply_structural_edit` did to the graph.

    Both sets hold *post-edit* addresses.  ``changed`` is every formula
    whose precedent set shifted, expanded, contracted, or lost a referent —
    exactly the formulas whose source text needs rewriting.  ``reshaped`` is
    the part of it that now reads a *different set of cells*: a referent was
    lost (``#REF!``) or a range changed extent
    (:meth:`StructuralEdit.reshapes <repro.grid.structural.StructuralEdit.reshapes>`).
    Only those need re-evaluating (with their transitive dependents); a
    formula whose references merely translated reads the cells it read
    before and keeps its value.
    """

    changed: set[CellAddress] = field(default_factory=set)
    reshaped: set[CellAddress] = field(default_factory=set)


class DependencyGraph:
    """Tracks which formula cells depend on which precedent cells/ranges."""

    def __init__(self) -> None:
        # formula cell -> (precedent cells, precedent ranges)
        self._precedents: dict[CellAddress, _Registration] = {}
        # precedent cell -> set of formula cells reading it directly
        self._cell_dependents: dict[CellAddress, set[CellAddress]] = {}
        # column stripe (or _WIDE_BUCKET) -> ranges whose spans cross it
        self._range_buckets: dict[int | None, _StripeBucket] = {}
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

        ``formula`` may be source text or a pre-parsed AST; passing the AST
        lets the engine parse each formula exactly once.
        """
        self.unregister(address)
        cells, ranges = extract_references(formula)
        self._install(address, frozenset(cells), tuple(ranges))

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
    ) -> None:
        self._precedents[address] = (cells, ranges)
        for precedent in cells:
            self._cell_dependents.setdefault(precedent, set()).add(address)
        for region in ranges:
            for key in self._bucket_keys(region):
                bucket = self._range_buckets.get(key)
                if bucket is None:
                    bucket = self._range_buckets[key] = _StripeBucket()
                bucket.add(address, region, self.stats)

    def snapshot_registration(
        self, address: CellAddress
    ) -> tuple[frozenset[CellAddress], tuple[RangeRef, ...]] | None:
        """Snapshot of ``address``'s registration (``None`` when absent).

        Unlike :meth:`precedents_of`, distinguishes an unregistered cell
        from a registered formula with no references.  Pair with
        :meth:`restore_registration` to roll back the registrations of a
        failed batch.
        """
        return self._precedents.get(address)

    def restore_registration(
        self,
        address: CellAddress,
        snapshot: tuple[frozenset[CellAddress], tuple[RangeRef, ...]] | None,
    ) -> None:
        """Reset ``address``'s registration to a captured snapshot."""
        self.unregister(address)
        if snapshot is not None:
            cells, ranges = snapshot
            self._install(address, cells, ranges)

    def unregister(self, address: CellAddress) -> None:
        """Remove the formula at ``address`` from the graph (no-op if absent)."""
        entry = self._precedents.pop(address, None)
        if entry is None:
            return
        cells, ranges = entry
        for precedent in cells:
            dependents = self._cell_dependents.get(precedent)
            if dependents is not None:
                dependents.discard(address)
                if not dependents:
                    del self._cell_dependents[precedent]
        seen_keys: set[int | None] = set()
        for region in ranges:
            for key in self._bucket_keys(region):
                if key in seen_keys:
                    continue
                seen_keys.add(key)
                bucket = self._range_buckets.get(key)
                if bucket is not None and bucket.remove(address, self.stats):
                    del self._range_buckets[key]
        if self.on_unregister is not None:
            self.on_unregister(address)

    @staticmethod
    def _bucket_keys(region: RangeRef) -> Iterable[int | None]:
        if region.columns > WIDE_COLUMN_SPAN:
            return (_WIDE_BUCKET,)
        return range(region.left, region.right + 1)

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

        Only the stripes holding a range of a reached registration are
        re-assembled; every other built interval tree is carried across as
        it is (``stats.stripes_reused`` counts them, together with reached
        stripes whose entries came out unchanged).  A reached stripe the
        edit merely translated gets its tree spliced
        (``stats.stripes_shifted``); the rest rebuild on their next stab.
        """
        line_of, end_of = _AXIS_GETTERS[edit.axis]
        # Coordinates up to ``fixed`` along the edited axis do not move.
        fixed = edit.line if edit.kind == "insert" else edit.line - 1
        rewrite = StructuralRewrite()
        # The reached registrations as they were, and as they come out
        # (those whose own cell survives), keyed by old and new address.
        removed: list[tuple[CellAddress, _Registration]] = []
        installed: list[tuple[CellAddress, _Registration]] = []
        for address, entry in self._precedents.items():
            cells, ranges = entry
            if (line_of(address) <= fixed
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
            if new_cells != cells or new_ranges != ranges:
                rewrite.changed.add(new_address)
                # The mapping is one-to-one on surviving cells, so a smaller
                # set means a referent was lost.
                if len(new_cells) != len(cells) or any(map(edit.reshapes, ranges)):
                    rewrite.reshaped.add(new_address)
            installed.append((new_address, (new_cells, new_ranges)))

        # Take every reached registration out before putting any back: a
        # shifted key may be the old key of a registration further down.
        for address, (cells, _ranges) in removed:
            del self._precedents[address]
            for precedent in cells:
                dependents = self._cell_dependents[precedent]
                dependents.discard(address)
                if not dependents:
                    del self._cell_dependents[precedent]
        for address, entry in installed:
            self._precedents[address] = entry
            for precedent in entry[0]:
                self._cell_dependents.setdefault(precedent, set()).add(address)
        self._rekey_stripes(
            edit,
            {address: ranges for address, (_cells, ranges) in removed if ranges},
            [(address, ranges) for address, (_cells, ranges) in installed if ranges],
        )
        return rewrite

    def _rekey_stripes(
        self,
        edit: StructuralEdit,
        removed: dict[CellAddress, tuple[RangeRef, ...]],
        installed: list[tuple[CellAddress, tuple[RangeRef, ...]]],
    ) -> None:
        """Re-assemble the stripes holding a range of a reached registration.

        ``removed`` maps the old addresses of the reached range readers to
        their old ranges, ``installed`` pairs the new addresses with the
        mapped ranges.  The stripes the old ranges sit in are detached from
        the index and built anew from the entries the edit did not reach
        plus the mapped ranges; a new stripe then takes over a detached
        stripe's tree when its entries came out equal (reuse) or uniformly
        translated (splice).
        """
        detached = {
            key: self._range_buckets.pop(key)
            for key in {key for ranges in removed.values()
                        for region in ranges for key in self._bucket_keys(region)}
        }
        self.stats.stripes_reused += sum(
            1 for bucket in self._range_buckets.values()
            if bucket.tree is not None and not bucket.stale
        )
        fresh: dict[int | None, _StripeBucket] = {}
        for key, old in detached.items():
            kept = {address: spans for address, spans in old.entries.items()
                    if address not in removed}
            if kept:
                fresh[key] = _StripeBucket(kept)
        for address, ranges in installed:
            for region in ranges:
                for key in self._bucket_keys(region):
                    bucket = fresh.get(key)
                    if bucket is None:
                        # A stripe none of the old ranges sat in: a range
                        # crossing ``WIDE_COLUMN_SPAN`` changes between the
                        # wide bucket and the column stripes.
                        bucket = self._range_buckets.get(key)
                    if bucket is None:
                        bucket = fresh[key] = _StripeBucket()
                    bucket.add(address, region, self.stats)
        for key, bucket in fresh.items():
            old = detached.get(key)
            if old is not None and not old.stale and old.tree is not None \
                    and old.entries == bucket.entries:
                fresh[key] = old
                self.stats.stripes_reused += 1
            else:
                self._try_splice_reuse(edit, key, bucket, detached)
        self._range_buckets.update(fresh)

    def _try_splice_reuse(self, edit: StructuralEdit, key: int | None,
                          bucket: _StripeBucket,
                          detached: dict[int | None, _StripeBucket]) -> None:
        """Splice a built interval tree across a structural edit.

        Two translations are exact and cost O(n) with no re-sorting:

        * A **column** insert/delete never changes row spans, so the tree of
          a stripe strictly right of the edit is structurally valid at its
          shifted key — only the payloads (column spans and formula-cell
          addresses) need translating.
        * A **row** insert/delete that moved *every* span in a stripe by the
          same delta (the whole stripe sits below the edited lines — or
          above them, when only the formula cells moved) preserves the
          tree's shape exactly: centers and spans translate by the delta and
          payload addresses re-map.  A span that straddles the edit
          (expanding or contracting) breaks the uniformity and disqualifies
          the stripe.

        The reuse is exact, not heuristic: it applies only when the old
        bucket's entries, mapped through the edit, are identical to the
        freshly rebuilt bucket's entries (an entry lost to the edit, or a
        span that did not survive intact, disqualifies the stripe).
        """
        if edit.axis == "column":
            if key is _WIDE_BUCKET:
                return
            if edit.kind == "insert":
                # New stripes at or left of the insert kept their key
                # (handled by the identity check); inserted columns have no
                # old counterpart.
                if key <= edit.line + edit.count:
                    return
                old_key = key - edit.count
            else:
                if key < edit.line:
                    return
                old_key = key + edit.count
        else:
            # Row edits never move ranges across column stripes.
            old_key = key
        old = detached.get(old_key)
        if old is None or old.stale or old.tree is None:
            return
        delta = 0
        remapped: dict[CellAddress, list[tuple[int, int, int, int]]] = {}
        first_span = True
        for address, spans in old.entries.items():
            moved = edit.map_address(address)
            if moved is None:
                return  # a formula died in the edit; payloads would be stale
            moved_spans: list[tuple[int, int, int, int]] = []
            for top, bottom, left, right in spans:
                if edit.axis == "column":
                    span = edit.map_span(left, right)
                    if span is None:
                        return
                    moved_spans.append((top, bottom, span[0], span[1]))
                else:
                    span = edit.map_span(top, bottom)
                    if span is None or span[1] - span[0] != bottom - top:
                        return  # deleted or straddling: not a pure translate
                    if first_span:
                        delta = span[0] - top
                        first_span = False
                    elif span[0] - top != delta:
                        return  # mixed deltas: the tree cannot translate
                    moved_spans.append((span[0], span[1], left, right))
            remapped[moved] = moved_spans
        if remapped != bucket.entries:
            return

        if edit.axis == "column":
            def map_payload(payload: tuple[int, int, CellAddress]):
                left, right, address = payload
                span = edit.map_span(left, right)
                moved = edit.map_address(address)
                assert span is not None and moved is not None  # verified above
                return (span[0], span[1], moved)
        else:
            def map_payload(payload: tuple[int, int, CellAddress]):
                left, right, address = payload
                moved = edit.map_address(address)
                assert moved is not None  # verified above
                return (left, right, moved)

        bucket.tree = old.tree.translate(delta, map_payload)
        bucket.stale = False
        bucket.size = old.size
        bucket.churn = old.churn  # tombstones carry over with the tree
        self.stats.stripes_shifted += 1

    def formula_cells(self) -> list[CellAddress]:
        """All registered formula cells."""
        return list(self._precedents)

    def precedents_of(self, address: CellAddress) -> tuple[frozenset[CellAddress], tuple[RangeRef, ...]]:
        """The direct precedents (cells, ranges) of a formula cell."""
        return self._precedents.get(address, (frozenset(), ()))

    # ------------------------------------------------------------------ #
    def direct_dependents(self, changed: CellAddress) -> set[CellAddress]:
        """Formula cells that directly read ``changed`` (via a cell or range ref)."""
        self.stats.lookups += 1
        dependents = set(self._cell_dependents.get(changed, ()))
        bucket = self._range_buckets.get(changed.column)
        if bucket is not None:
            bucket.stab(changed.row, changed.column, dependents, self.stats)
        wide = self._range_buckets.get(_WIDE_BUCKET)
        if wide is not None:
            wide.stab(changed.row, changed.column, dependents, self.stats)
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
