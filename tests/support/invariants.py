"""One engine-wide invariant checker: ``check_engine(spread)``.

The fuzz harness calls it after every step and between a transaction's
inner ops.  A failure is an ``AssertionError`` whose message starts with
the name of the invariant that broke:

* ``graph`` — the dependency graph equals one rebuilt from the stored
  formulas (model and placeholders), each resolved at its own cell, and
  the view anchors; every formula whose text holds a ``$``-anchored
  component is marked anchored;
* ``registration`` — every stored formula is registered exactly once, in
  the reverse index and the range stripes, and nothing else is;
* ``index`` — ``direct_dependents`` equals :func:`scan_dependents` on a
  sample of the data and formula columns;
* ``aggregates`` — the refcount bookkeeping holds, ``targets_for`` equals
  :func:`scan_targets` on cells sampled inside and just outside the held
  regions, and outside a batch a sample of the running states equals
  states built from fresh reads;
* ``scheduler`` — nothing is queued on the sync engine; outside a
  transaction only registered cells are, every placeholder among them;
* ``buffer`` — each buffered write is what ``get`` returns to its owner;
  placeholders exist only on the async engine, on formula cells;
* ``transaction`` — an open frame, a deferred buffer and a held write slot
  come together or not at all;
* ``views`` — every fresh, attached view equals a rescan of its query;
* ``storage`` — every heap, B+-tree and positional mapping under the
  hybrid passes its own ``check_invariants()``;
* ``wal`` — with no open group, ``recovered_cells`` equals the model.

Mid-transaction only the aggregate bookkeeping, scheduler, buffer and
transaction checks run; the rest wait for the commit.  The checker reads
engine privates on purpose, so that the library grows no debugging
surface; it changes no engine state (the cell cache's LRU order aside).
"""

from __future__ import annotations

import random
from functools import lru_cache

from repro.errors import FormulaSyntaxError
from repro.formula.aggregates import RangeAggregateState
from repro.formula.evaluator import references
from repro.formula.functions import RangeValue
from repro.formula.parser import parse_stored
from repro.formula.stripes import bucket_keys
from repro.grid.address import MAX_COLUMNS, MAX_ROWS, CellAddress
from repro.grid.range import RangeRef
from repro.storage.recovery import recovered_cells

#: Probe cells for the ``index`` invariant: the data and formula columns.
_INDEX_CELLS = [CellAddress(row, column) for row in range(1, 33) for column in range(1, 7)]
#: Index probes and aggregate states checked per call, sampled with a seed
#: of the engine's own size (the harness's random stream is untouched); a
#: broken state or index entry persists, so samples over the steps find it.
INDEX_SAMPLE, STATE_SAMPLE = 4, 8


def scan_dependents(graph, cell: CellAddress) -> set[CellAddress]:
    """Brute-force reference for ``DependencyGraph.direct_dependents``: every
    registered formula with ``cell`` among its precedent cells or inside one
    of its precedent ranges, found without the interval index."""
    dependents = set()
    for formula_cell in graph.formula_cells():
        cells, ranges = graph.precedents_of(formula_cell)
        if cell in cells or any(region.contains(cell) for region in ranges):
            dependents.add(formula_cell)
    return dependents


def scan_targets(store, cell: CellAddress) -> set[RangeRef]:
    """Brute-force reference for ``AggregateStore.targets_for``: every held
    region containing ``cell``, found without the stripe index."""
    return {region for region in store._states if region.contains(cell)}


def _require(condition, invariant: str, *detail) -> None:
    if not condition:
        raise AssertionError(f"{invariant}: " + " ".join(map(repr, detail)))


def _spans(ranges) -> tuple[tuple[int, int, int, int], ...]:
    return tuple(sorted((r.top, r.bottom, r.left, r.right) for r in ranges))


@lru_cache(maxsize=4096)
def _parsed(text: str):
    """The AST of a stored formula text (``None``: it does not parse, so it
    is stored but never registered)."""
    try:
        return parse_stored(text)
    except FormulaSyntaxError:
        return None


def _references(text: str, address: CellAddress) -> tuple | None:
    """``(cells, spans, anchored)`` of the stored formula text at
    ``address``: what it registers, and whether it is marked anchored."""
    node = _parsed(text)
    if node is None:
        return None
    cells, ranges, anchored = references(node, address)
    return frozenset(cells), _spans(ranges), anchored


def stored_cells(spread) -> dict[CellAddress, object]:
    """Every cell the engine holds outside a transaction: the committed
    model cells, overlaid with the provisional placeholders."""
    cells = {address: cell
             for address, cell in spread.model.get_cells(spread.model.region()).items()
             if not cell.is_empty}
    for (row, column), cell in spread._cache._provisional.items():
        cells[CellAddress(row, column)] = cell
    return cells


def check_engine(spread, *, workspace=None, in_transaction: bool = False,
                 context=()) -> None:
    """Assert every engine-wide invariant on ``spread`` (see module doc).

    ``workspace`` is the :class:`~repro.service.Workspace` wrapping the
    engine, when there is one: it owns the write slot the ``transaction``
    invariant checks frames against.  Without one, frames may be open only
    when the caller says it is ``in_transaction``.
    """
    settled = not spread._txn.frames  # mid-transaction, the commit settles the rest
    try:
        if settled:
            _check_graph(spread)
        _check_aggregates(spread)
        _check_scheduler_and_buffer(spread)
        _check_transaction(spread, workspace, in_transaction)
        if settled:
            _check_views(spread)
            _check_storage(spread.model)
            _check_wal(spread)
    except AssertionError as error:
        raise AssertionError(f"{error} @ {context}") from None


def _check_graph(spread) -> None:
    graph = spread.dependency_graph
    expected: dict[CellAddress, tuple] = {}
    anchored = set()
    for address, cell in stored_cells(spread).items():
        if cell.formula is not None and (found := _references(cell.formula, address)):
            expected[address] = found[:2]
            if found[2]:
                anchored.add(address)
    for anchor, view in spread._views.items():
        expected[anchor] = (frozenset(), _spans(view.watched_regions()))
    registered = graph._precedents
    _require(registered.keys() == expected.keys(), "registration",
             "registered-not-stored", sorted(registered.keys() - expected.keys())[:5],
             "stored-not-registered", sorted(expected.keys() - registered.keys())[:5])
    actual = {address: (cells, _spans(ranges)) for address, (cells, ranges) in registered.items()}
    if actual != expected:
        wrong = next(address for address in actual if actual[address] != expected[address])
        _require(False, "graph", wrong, actual[wrong], expected[wrong])
    # An anchored mark outlives anchors a structural edit collapsed to
    # ``#REF!`` (it only buys an AST check), but never misses one.
    _require(anchored <= graph._anchored <= registered.keys(), "graph", "anchored",
             sorted(anchored - graph._anchored)[:5], sorted(graph._anchored - registered.keys())[:5])
    # Exactly once in each index: the reverse cell map and the stripes.
    reverse: dict[CellAddress, set] = {}
    stripes: dict[object, dict[CellAddress, list]] = {}
    for address, (cells, spans) in actual.items():
        for precedent in cells:
            reverse.setdefault(precedent, set()).add(address)
        for span in spans:
            for key in bucket_keys(RangeRef(span[0], span[2], span[1], span[3])):
                stripes.setdefault(key, {}).setdefault(address, []).append(span)
    _require(graph._cell_dependents == reverse, "registration", "reverse index")
    held = {key: {address: sorted(spans) for address, spans in bucket.entries.items()}
            for key, bucket in graph._range_buckets.items()}
    _require(held == stripes, "registration", "range stripes")
    for probe in random.Random(len(registered)).sample(_INDEX_CELLS, INDEX_SAMPLE):
        _require(graph.direct_dependents(probe) == scan_dependents(graph, probe),
                 "index", probe)


def _state_fields(state: RangeAggregateState, served: RangeAggregateState) -> tuple:
    """What ``state`` serves, with each extremum ``served`` lost support for
    (it rebuilds on its next read) left out."""
    return (state.total, state.count, state.filled, state.inexact, state.poisoned,
            served.min_valid and (state.min_value, state.min_count),
            served.max_valid and (state.max_value, state.max_count))


def _check_aggregates(spread) -> None:
    store = spread.aggregate_store
    registered = spread.dependency_graph._precedents
    for region, entry in store._states.items():
        _require(entry.subscribers, "aggregates", "orphan state", region)
        for address in entry.subscribers:
            _require(region in store._subscriptions.get(address, ()), "aggregates",
                     "missing back-reference", region, address)
            _require(address in registered, "aggregates",
                     "unregistered subscriber", region, address)
    for address, regions in store._subscriptions.items():
        for region in regions:
            entry = store._states.get(region)
            _require(entry is not None and address in entry.subscribers, "aggregates",
                     "dangling subscription", address, region)
    states = list(store._states.items())
    sampler = random.Random(len(states))
    probes = sampler.sample(_INDEX_CELLS, INDEX_SAMPLE)
    for region, _entry in sampler.sample(states, min(len(states), INDEX_SAMPLE)):
        probes += [CellAddress(sampler.randint(region.top, region.bottom),
                               sampler.randint(region.left, region.right)),
                   CellAddress(min(region.bottom + 1, MAX_ROWS), region.left),
                   CellAddress(region.top, min(region.right + 1, MAX_COLUMNS))]
    for probe in probes:
        found = {region: state for region, state in store.targets_for(probe)}
        expected = scan_targets(store, probe)
        _require(found.keys() == expected, "aggregates", "index differs from a scan", probe,
                 sorted(found.keys() ^ expected, key=str)[:4])
        _require(all(store._states[region].state is state for region, state in found.items()),
                 "aggregates", "index serves a stale state", probe)
    if spread._txn.frames:
        return  # an open batch folds writes only its owner can read
    for region, entry in random.Random(len(states)).sample(states, min(len(states), STATE_SAMPLE)):
        values = spread.grid_values(region)
        width = region.columns
        fresh = RangeAggregateState.from_range_value(RangeValue(tuple(
            tuple(values[start:start + width]) for start in range(0, len(values), width))))
        live = entry.state
        _require(_state_fields(live, live) == _state_fields(fresh, live), "aggregates",
                 "state drifted from a fresh read", region,
                 _state_fields(live, live), _state_fields(fresh, live))


def _check_scheduler_and_buffer(spread) -> None:
    scheduler = spread.compute_scheduler
    registered = spread.dependency_graph._precedents
    cache = spread._cache
    if not spread.async_recompute:
        _require(not scheduler._stale, "scheduler", "queue on the sync engine",
                 sorted(scheduler._stale)[:5])
        _require(not cache._provisional, "buffer", "provisional entry on the sync engine",
                 sorted(cache._provisional)[:5])
    # An open transaction defers its routing: a queued formula it overwrote
    # leaves the queue, and its own placeholders join it, at the commit.
    settled = not spread._txn.frames
    for address in scheduler._stale:
        _require(not settled or address in registered, "scheduler",
                 "queued cell is not registered", address)
    for (row, column), cell in cache._provisional.items():
        address = CellAddress(row, column)
        _require(cell.formula is not None and address in registered, "buffer",
                 "provisional entry on a non-formula cell", address, cell)
        _require(not settled or address in scheduler._stale, "scheduler",
                 "provisional placeholder is not queued", address)
    pending = cache._pending or {}
    previous = cache.set_active_reader(cache._pending_owner)
    try:
        for (row, column), cell in pending.items():
            expected = cache._provisional.get((row, column), cell)
            _require(cache.get(row, column) == expected, "buffer",
                     "buffered write unreadable by its owner", (row, column), cell)
    finally:
        cache.set_active_reader(previous)


def _check_transaction(spread, workspace, in_transaction: bool) -> None:
    frames = spread._txn.frames
    _require(bool(frames) == (spread._cache._pending is not None), "transaction",
             "deferred buffer without an open frame" if not frames
             else "open frame without a deferred buffer")
    owner = workspace.transaction_owner if workspace is not None else None
    if workspace is None:
        _require(in_transaction or not frames, "transaction",
                 "open frame outside a transaction", len(frames))
        return
    _require(bool(frames) == (owner is not None), "transaction",
             "open frame without a session holding the slot" if frames
             else "write slot held with no open transaction", owner and owner.name)
    _require(owner is None or not owner.expired, "transaction",
             "expired session holds the write slot", owner and owner.name)


def _check_views(spread) -> None:
    if spread.compute_scheduler._stale:
        return  # a view lags until the drain reaches it
    for view in spread._views.values():
        if view.detached or view.stale or any(cache.dirty for cache in view._scans):
            continue
        _require(view._table == spread.execute(view.query).to_table(), "views",
                 "view differs from a rescan", view.name)


def _structures(root):
    """Every object under ``root`` with its own ``check_invariants()``."""
    seen: set[int] = set()
    stack = [root]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, (dict, list, tuple, set, frozenset)):
            stack.extend(item.values() if isinstance(item, dict) else item)
            continue
        module = type(item).__module__
        if not module.startswith(("repro.models", "repro.positional", "repro.storage")):
            continue
        if item is not root and hasattr(item, "check_invariants"):
            yield item
            continue
        slots = [name for klass in type(item).__mro__
                 for name in getattr(klass, "__slots__", ())]
        stack.extend(getattr(item, name) for name in slots if hasattr(item, name))
        stack.extend(getattr(item, "__dict__", {}).values())


def _check_storage(model) -> None:
    for structure in _structures(model):
        try:
            structure.check_invariants()
        except AssertionError as error:
            raise AssertionError(f"storage: {type(structure).__name__}: {error}") from None


def _check_wal(spread) -> None:
    backend = spread.storage_backend
    if backend.durability != "wal" or backend._writer.in_group:
        return
    committed = {(row, column): (value, formula)
                 for row, column, value, formula in spread._committed_cells()}
    recovered = recovered_cells(backend.directory)
    _require(recovered == committed, "wal", "log replays to a different grid",
             sorted(set(recovered.items()) ^ set(committed.items()))[:4])
