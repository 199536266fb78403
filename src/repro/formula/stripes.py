"""The column-stripe interval index over rectangular ranges.

One index answers *which held ranges contain cell (row, column)?* for two
owners: the dependency graph (keyed by the formula cell reading a range)
and the aggregate store (keyed by the entry of the state over a range).  It
is a leaf module so both can import it: ``dependencies`` imports the
evaluator, which imports ``aggregates``.

* Ranges spanning at most :data:`WIDE_COLUMN_SPAN` columns are bucketed per
  spanned column (*column stripes*), so a lookup touches only the bucket of
  the cell's column, and a column no range covers costs two dict probes.
* Wider ranges share a single *wide* bucket and are filtered by column span
  after row stabbing.

Each bucket keeps a centered interval tree over its row spans, maintained
incrementally in O(log n) per added or removed span and rebuilt lazily
only past a churn or depth threshold (see :class:`StripeBucket`).  A stab
costs O(log n + matches) and is exact, not conservative;
``stats.range_probes`` counts the entries it examines, which tests use to
assert sub-linear behaviour.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from repro.grid.range import RangeRef

#: Ranges spanning more columns than this go to the shared wide bucket
#: instead of one entry per column stripe.
WIDE_COLUMN_SPAN = 64

#: Bucket key for ranges too wide for per-column stripes.
WIDE_BUCKET = None

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

    lookups: int = 0             # index stabs (one per looked-up cell)
    range_probes: int = 0        # interval entries examined while stabbing
    index_rebuilds: int = 0      # lazy interval-tree rebuilds
    incremental_inserts: int = 0  # spans inserted into a built tree (O(log n))
    incremental_removes: int = 0  # spans removed from a built tree (O(log n))
    rebuilds_avoided: int = 0    # bucket mutations absorbed without invalidating

    def reset(self) -> None:
        self.lookups = 0
        self.range_probes = 0
        self.index_rebuilds = 0
        self.incremental_inserts = 0
        self.incremental_removes = 0
        self.rebuilds_avoided = 0


class IntervalTree:
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
        self.left = IntervalTree(lower) if lower else None
        self.right = IntervalTree(upper) if upper else None

    def stab(self, row: int, out: list, stats: DependencyGraphStats) -> None:
        """Append the payloads of all intervals containing ``row`` to ``out``."""
        node: IntervalTree | None = self
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
                    node.left = IntervalTree(((top, bottom, payload),))
                    return depth + 1
                node = node.left
            elif top > node.center:
                if node.right is None:
                    node.right = IntervalTree(((top, bottom, payload),))
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
        node: IntervalTree | None = self
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


class StripeBucket:
    """The ranges assigned to one column stripe (or the wide bucket).

    Entries are kept per owner so removing one is O(spans of that
    owner).  A built interval tree is maintained *incrementally*: adds
    insert into it and removes delete from it in O(log n), so adding or
    removing one owner never invalidates the bucket.  The tree is rebuilt
    lazily only when none is built yet, when accumulated churn exceeds
    ``REBUILD_CHURN_FACTOR`` times the bucket's current size, when an
    insert descends past ``_depth_limit`` (incremental maintenance does
    not rebalance, so heavy churn — or an adversarial monotone span
    sequence growing a spine — eventually warrants one compacting
    rebuild), or when its owner marks it ``stale`` before re-keying many
    of its entries at once (a structural edit).
    """

    __slots__ = ("entries", "tree", "stale", "size", "churn")

    def __init__(self) -> None:
        # owner -> list of (top, bottom, left, right) spans
        self.entries: dict[Hashable, list[tuple[int, int, int, int]]] = {}
        self.tree: IntervalTree | None = None
        # Entries the tree does not hold yet: the next stab rebuilds it.
        self.stale = False
        #: Total spans across all entries (the tree's live entry count).
        self.size = 0
        #: Incremental mutations absorbed since the tree was last (re)built.
        self.churn = 0

    def add(self, owner: Hashable, region: RangeRef,
            stats: DependencyGraphStats) -> None:
        self.entries.setdefault(owner, []).append(
            (region.top, region.bottom, region.left, region.right)
        )
        self.size += 1
        if self.tree is not None and not self.stale:
            depth = self.tree.insert(region.top, region.bottom,
                                     (region.left, region.right, owner))
            stats.incremental_inserts += 1
            self._absorb_churn(1)
            if depth > self._depth_limit():
                # Monotone span sequences grow a spine the churn counter
                # never notices (churn and size grow in lockstep); the
                # depth of the insert descent catches it directly.  A
                # deep tree would also make stabs O(depth).
                self.stale = True
            if not self.stale:
                stats.rebuilds_avoided += 1
        else:
            self.stale = True

    def remove(self, owner: Hashable, stats: DependencyGraphStats) -> bool:
        """Drop every span of ``owner``; returns True when the bucket empties."""
        spans = self.entries.pop(owner, None)
        if spans is not None:
            self.size -= len(spans)
            if self.tree is not None and not self.stale:
                for top, bottom, left, right in spans:
                    if not self.tree.remove(top, bottom, (left, right, owner)):
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

    def stab(self, row: int, column: int, out: set[Hashable],
             stats: DependencyGraphStats) -> None:
        """Add the owners whose spans contain (row, column) to ``out``."""
        if self.tree is None or self.stale:
            flat = [
                (top, bottom, (left, right, owner))
                for owner, spans in self.entries.items()
                for top, bottom, left, right in spans
            ]
            self.tree = IntervalTree(flat) if flat else None
            self.stale = False
            self.size = len(flat)
            self.churn = 0
            stats.index_rebuilds += 1
        if self.tree is None:
            return
        hits: list[tuple[int, int, Hashable]] = []
        self.tree.stab(row, hits, stats)
        for left, right, owner in hits:
            if left <= column <= right:
                out.add(owner)


#: Column stripe (or :data:`WIDE_BUCKET`) -> the bucket of ranges crossing it.
StripeIndex = dict[int | None, StripeBucket]


def bucket_keys(region: RangeRef) -> Iterable[int | None]:
    """The buckets ``region`` is held in: one per spanned column, or the
    wide bucket alone."""
    if region.columns > WIDE_COLUMN_SPAN:
        return (WIDE_BUCKET,)
    return range(region.left, region.right + 1)


def index_add(index: StripeIndex, owner: Hashable, region: RangeRef,
              stats: DependencyGraphStats) -> None:
    """Hold ``region`` under ``owner`` in every bucket it crosses."""
    for key in bucket_keys(region):
        bucket = index.get(key)
        if bucket is None:
            bucket = index[key] = StripeBucket()
        bucket.add(owner, region, stats)


def index_remove(index: StripeIndex, owner: Hashable, regions: Iterable[RangeRef],
                 stats: DependencyGraphStats) -> None:
    """Drop every span ``owner`` holds in the buckets ``regions`` cross."""
    for key in dict.fromkeys(key for region in regions for key in bucket_keys(region)):
        bucket = index.get(key)
        if bucket is not None and bucket.remove(owner, stats):
            del index[key]


def index_stab(index: StripeIndex, row: int, column: int, out: set,
               stats: DependencyGraphStats) -> None:
    """Add the owners of every held range containing (row, column) to ``out``."""
    stats.lookups += 1
    bucket = index.get(column)
    if bucket is not None:
        bucket.stab(row, column, out, stats)
    wide = index.get(WIDE_BUCKET)
    if wide is not None:
        wide.stab(row, column, out, stats)
