"""Span tracing of the engine's layers, installed from outside ``src/``.

A traced benchmark run wraps the public functions of every ``src/repro``
package listed in :data:`TARGETS` and records one span per call:
``(layer, start_ns, end_ns, parent, op_id)``.  A layer's *self time* is its
span's duration minus the part its child spans cover, so the self times of
all layers inside one operation add up to that operation's wall time (what
is left over is reported as ``unattributed``).

Rules of the recording:

* Spans exist only inside an operation the runner opened with
  :meth:`Tracer.begin`; calls between operations pass straight through.
* A call into the layer that is already on top of the span stack is merged
  into the open span (``register`` calling ``unregister``, ``scroll``
  calling ``get_cells``), so ``calls`` counts entries into a layer.
* Callbacks a layer captured as bound methods when the engine was built
  (the cache's loader/writer, the evaluator's providers, the scheduler's
  evaluate hook) cannot be re-bound from outside; their few lines of glue
  are charged to the layer that calls them.
* Spans stay in memory (four ``array('q')`` columns) and are written out
  by :meth:`Tracer.write` when the benchmark ends.

End-to-end metrics never come from a traced run.
"""

from __future__ import annotations

import importlib
import json
from array import array
from time import perf_counter_ns
from typing import Any, Callable

#: Name of the root span the runner opens around each operation.
ROOT = "bench.op"

#: Spans written to the trace file (all of them are aggregated).
MAX_SPANS_WRITTEN = 100_000

_MODEL_METHODS = (
    "get_cells", "get_values", "get_values_dense", "get_cell", "update_cell",
    "update_cells", "insert_row_after", "delete_row", "insert_column_after",
    "delete_column", "region", "cell_count", "storage_cost", "shift",
)
_MAPPING_METHODS = (
    "fetch", "fetch_range", "insert_at", "delete_at", "replace_at",
    "delete_span", "extend_to", "append", "extend",
)
_BACKEND_METHODS = (
    "write_cell", "write_cells", "log_structural", "annotate", "checkpoint",
    "close", "@atomic",
)

#: ``(layer, module, class or None, names)``.  With a class the names are
#: methods (``@name`` marks one that returns a context manager); without,
#: they are module-level names as the *importing* module bound them, which
#: is where a ``from x import f`` call site looks them up.
TARGETS: tuple[tuple[str, str, str | None, tuple[str, ...]], ...] = (
    ("formula.parser", "repro.formula.evaluator", "Evaluator", ("parse",)),
    ("formula.evaluator", "repro.formula.evaluator", "Evaluator", ("evaluate_node",)),
    ("formula.dependencies", "repro.formula.dependencies", "DependencyGraph", (
        "register", "register_ranges", "unregister", "dependents_of",
        "recompute_order", "apply_structural_edit", "affected_set",
        "slice_edges", "slice_order", "snapshot_registration",
        "restore_registration",
    )),
    ("formula.aggregates", "repro.formula.aggregates", "AggregateStore", (
        "tracks", "state_for", "build", "install", "targets_for",
        "apply_delta", "invalidate_targets", "apply_edit", "drop_formula",
        "invalidate_region", "apply_structural_edit", "snapshot_states",
        "restore_states",
    )),
    ("formula.rewrite", "repro.engine.dataspread", None, ("rewrite_formula", "to_formula")),
    ("formula.rewrite", "repro.storage.recovery", None, ("rewrite_formula", "to_formula")),
    ("compute.scheduler", "repro.compute.scheduler", "ComputeScheduler", (
        "admit", "mark_dirty", "run", "drain_for", "ensure",
        "apply_structural_edit", "set_viewport",
    )),
    ("engine.cache", "repro.engine.cache", "LRUCellCache", (
        "get", "put", "put_provisional", "peek_value", "flush_pending",
        "begin_deferred", "end_deferred", "discard_deferred",
        "overlay_values", "overlay_items", "provisional_items", "clear",
    )),
    ("engine.dataspread", "repro.engine.dataspread", "DataSpread", (
        "set_value", "set_formula", "set_input", "clear_cell", "set_values",
        "import_rows", "get_cell", "get_value", "get_cells",
        "get_range_values", "scroll", "used_range", "cell_count",
        "insert_row_after", "delete_row", "insert_column_after",
        "delete_column", "optimize_storage", "storage_cost", "execute",
        "explain", "create_live_view", "drop_live_view", "grid_values",
        "resolve_table", "table_region", "flush_compute", "get_fresh_value",
        "set_viewport", "checkpoint", "close", "savepoint",
        "abort_transaction", "transaction_touches", "activate_scope",
        "@batch", "@autonomous",
    )),
    ("engine.dataspread", "repro.engine.dataspread", "Savepoint", ("rollback", "release")),
    ("engine.backend", "repro.engine.backend", "DirectBackend", _BACKEND_METHODS),
    ("engine.backend", "repro.engine.backend", "WALBackend", _BACKEND_METHODS),
    ("models.hybrid", "repro.models.hybrid", "HybridDataModel",
     _MODEL_METHODS + ("from_decomposition",)),
    ("models.rom", "repro.models.rom", "RowOrientedModel", _MODEL_METHODS + ("from_sheet",)),
    ("models.com", "repro.models.com", "ColumnOrientedModel", _MODEL_METHODS + ("from_sheet",)),
    ("models.rcv", "repro.models.rcv", "RowColumnValueModel", _MODEL_METHODS + ("from_sheet",)),
    ("positional", "repro.positional.hierarchical", "HierarchicalMapping", _MAPPING_METHODS),
    ("positional", "repro.positional.monotonic", "MonotonicMapping", _MAPPING_METHODS),
    ("positional", "repro.positional.as_is", "PositionAsIsMapping", _MAPPING_METHODS),
    ("storage.heap", "repro.storage.heap", "HeapFile",
     ("insert", "read", "update", "delete", "vacuum")),
    ("storage.btree", "repro.storage.btree", "BPlusTree",
     ("get", "insert", "delete", "bulk_load")),
    ("storage.wal", "repro.storage.wal", "WALWriter",
     ("append", "begin", "commit", "abort", "close")),
    ("storage.snapshot", "repro.storage.snapshot", None, ("write_snapshot", "load_snapshot")),
    ("storage.snapshot", "repro.engine.backend", None,
     ("write_snapshot", "load_snapshot", "truncate_stale_logs")),
    ("storage.snapshot", "repro.storage.recovery", None, ("load_snapshot",)),
    ("storage.recovery", "repro.storage.recovery", None,
     ("recover", "recovered_cells", "replay_records")),
    ("query.planner", "repro.engine.dataspread", None, ("compile_select",)),
    ("query.executor", "repro.engine.dataspread", None, ("run_plan",)),
    ("query.executor", "repro.query.executor", "QueryResult", ("to_table", "first")),
    ("query.views", "repro.query.views", "LiveView",
     ("refresh", "value", "remap", "mark_stale")),
    ("service.workspace", "repro.service.workspace", "Workspace",
     ("open_session", "drain", "flush", "reap", "close")),
    ("service.workspace", "repro.service.workspace", "Session", (
        "set_value", "set_formula", "set_input", "clear_cell",
        "insert_row_after", "delete_row", "insert_column_after",
        "delete_column", "get_value", "value", "get_cell",
        "get_range_values", "set_viewport", "query", "savepoint",
        "create_live_view", "live_view_value", "read_snapshot", "@batch",
    )),
    ("service.workspace", "repro.service.workspace", "SessionSavepoint",
     ("rollback", "release")),
)

#: Every layer a span can carry, in reporting order.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(target[0] for target in TARGETS)) + (
    "decomposition",
)


class _SpanContext:
    """A context manager whose enter and exit each run inside a span."""

    __slots__ = ("_enter", "_exit")

    def __init__(self, tracer: "Tracer", manager: Any, layer_id: int) -> None:
        self._enter = tracer._spanned(manager.__enter__, layer_id)
        self._exit = tracer._spanned(manager.__exit__, layer_id)

    def __enter__(self) -> Any:
        return self._enter()

    def __exit__(self, *exc_info: Any) -> Any:
        return self._exit(*exc_info)


class Tracer:
    """Records spans around the functions in :data:`TARGETS`."""

    def __init__(self) -> None:
        self.layer_names: list[str] = [ROOT, *LAYERS]
        self._layer_ids = {name: index for index, name in enumerate(self.layer_names)}
        self.op_classes: list[str] = []
        self._class_ids: dict[str, int] = {}
        # One entry per span, in order of entry.
        self._layers = array("q")
        self._parents = array("q")
        self._starts = array("q")
        self._ends = array("q")
        # Root spans only: span index -> (op class id, op id).
        self._roots: dict[int, tuple[int, int]] = {}
        self._current = -1
        #: One callable per patch, each putting the original back.
        self._restores: list[Callable[[], None]] = []
        #: Counts taken at the wrapped boundaries (see ``_install_probes``).
        self.counts: dict[str, int] = {
            "cache_evictions": 0,
            "cells_returned": 0,
            "snapshot_bytes": 0,
            "records_replayed": 0,
            "rows_returned": 0,
            "query_cells_read": 0,
        }

    # ------------------------------------------------------------------ #
    # operations
    # ------------------------------------------------------------------ #
    def class_id(self, name: str) -> int:
        """The id of an operation class, registering it on first use."""
        known = self._class_ids.get(name)
        if known is None:
            known = self._class_ids[name] = len(self.op_classes)
            self.op_classes.append(name)
        return known

    def begin(self, class_id: int, op_id: int) -> None:
        """Open the root span of one operation."""
        index = len(self._layers)
        self._layers.append(0)
        self._parents.append(-1)
        self._ends.append(0)
        self._roots[index] = (class_id, op_id)
        self._current = index
        self._starts.append(perf_counter_ns())

    def end(self) -> int:
        """Close the operation's root span; returns its wall time in ns."""
        now = perf_counter_ns()
        index = self._current
        self._ends[index] = now
        self._current = -1
        return now - self._starts[index]

    # ------------------------------------------------------------------ #
    # wrapping
    # ------------------------------------------------------------------ #
    def _spanned(self, function: Callable, layer_id: int,
                 after: Callable[[tuple, Any], None] | None = None) -> Callable:
        layers, parents = self._layers, self._parents
        starts, ends = self._starts, self._ends
        now = perf_counter_ns

        def spanned(*args: Any, **kwargs: Any) -> Any:
            parent = self._current
            if parent < 0:
                return function(*args, **kwargs)
            if layers[parent] == layer_id:
                result = function(*args, **kwargs)  # merged into the open span
                if after is not None:
                    after(args, result)
                return result
            index = len(layers)
            layers.append(layer_id)
            parents.append(parent)
            ends.append(0)
            self._current = index
            starts.append(now())
            try:
                result = function(*args, **kwargs)
            finally:
                ends[index] = now()
                self._current = parent
            if after is not None:
                after(args, result)
            return result

        spanned.__wrapped__ = function  # type: ignore[attr-defined]
        return spanned

    def _managed(self, function: Callable, layer_id: int) -> Callable:
        def managed(*args: Any, **kwargs: Any) -> Any:
            manager = function(*args, **kwargs)
            if self._current < 0:
                return manager
            return _SpanContext(self, manager, layer_id)

        managed.__wrapped__ = function  # type: ignore[attr-defined]
        return managed

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        if name in vars(owner):
            original = vars(owner)[name]
            self._restores.append(lambda: setattr(owner, name, original))
        else:  # inherited: removing the override restores it
            self._restores.append(lambda: delattr(owner, name))
        setattr(owner, name, replacement)

    def _wrap(self, owner: Any, name: str, layer: str, *, managed: bool = False,
              after: Callable[[tuple, Any], None] | None = None) -> None:
        layer_id = self._layer_ids[layer]
        raw = None
        for klass in getattr(owner, "__mro__", (owner,)):
            if name in vars(klass):
                raw = vars(klass)[name]
                break
        if raw is None:
            raise AttributeError(f"{owner!r} has no attribute {name!r} to trace")
        if managed:
            replacement: Any = self._managed(raw, layer_id)
        elif isinstance(raw, classmethod):
            replacement = classmethod(self._spanned(raw.__func__, layer_id, after))
        else:
            replacement = self._spanned(raw, layer_id, after)
        self._patch(owner, name, replacement)

    def install(self) -> None:
        """Wrap every target.  Undo with :meth:`uninstall`."""
        if self._restores:
            raise RuntimeError("tracer is already installed")
        counts = self.counts
        probes: dict[tuple[str | None, str], Callable[[tuple, Any], None]] = {}

        def count_cells(_args: tuple, result: Any) -> None:
            counts["cells_returned"] += len(result)

        def count_dense(_args: tuple, result: Any) -> None:
            counts["cells_returned"] += len(result) - result.count(None)

        def count_snapshot(_args: tuple, result: Any) -> None:
            counts["snapshot_bytes"] += result

        def count_replayed(args: tuple, _result: Any) -> None:
            counts["records_replayed"] += len(args[1])

        def count_rows(_args: tuple, result: Any) -> None:
            counts["rows_returned"] += len(result.rows)

        def count_scanned(args: tuple, _result: Any) -> None:
            region = args[1]
            counts["query_cells_read"] += (
                (region.bottom - region.top + 1) * (region.right - region.left + 1)
            )

        probes[("DataSpread", "grid_values")] = count_scanned
        probes[("HybridDataModel", "get_cells")] = count_cells
        probes[("HybridDataModel", "get_values")] = count_cells
        probes[("HybridDataModel", "get_values_dense")] = count_dense
        probes[(None, "write_snapshot")] = count_snapshot
        probes[(None, "replay_records")] = count_replayed
        probes[("QueryResult", "to_table")] = count_rows

        try:
            for layer, module_name, class_name, names in TARGETS:
                module = importlib.import_module(module_name)
                owner = getattr(module, class_name) if class_name else module
                for name in names:
                    managed = name.startswith("@")
                    name = name.lstrip("@")
                    self._wrap(owner, name, layer, managed=managed,
                               after=probes.get((class_name, name)))
            self._install_eviction_probe()
            self._install_optimizer()
        except BaseException:
            self.uninstall()
            raise

    def _install_eviction_probe(self) -> None:
        # Evictions happen only inside the cache's private ``_store``; it
        # gets a counter, not a span, because no public call reports them.
        from repro.engine.cache import LRUCellCache

        original = LRUCellCache._store
        counts = self.counts

        def counting_store(cache: Any, key: tuple[int, int], cell: Any) -> None:
            if (self._current >= 0 and len(cache) >= cache.capacity
                    and key not in cache._entries):
                counts["cache_evictions"] += 1  # a full cache makes room
            original(cache, key, cell)

        self._patch(LRUCellCache, "_store", counting_store)

    def _install_optimizer(self) -> None:
        import repro.engine.dataspread as engine_module

        optimizers = engine_module._OPTIMIZERS
        original = optimizers["aggressive"]
        self._restores.append(lambda: optimizers.__setitem__("aggressive", original))
        optimizers["aggressive"] = self._spanned(
            original, self._layer_ids["decomposition"]
        )

    def uninstall(self) -> None:
        """Restore every wrapped function."""
        while self._restores:
            self._restores.pop()()

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    @property
    def span_count(self) -> int:
        return len(self._layers)

    def aggregate(self) -> dict[str, dict[str, dict[str, float]]]:
        """``{op class: {layer: {"self_ms", "calls"}}}`` over every span.

        The root's own row (:data:`ROOT`) holds the operation's wall time
        as ``total_ms``, its count as ``calls`` and the time no layer
        claimed as ``self_ms``.
        """
        count = len(self._layers)
        layers, parents = self._layers, self._parents
        starts, ends = self._starts, self._ends
        child_ns = [0] * count
        op_class = [0] * count
        self_ns: dict[tuple[int, int], int] = {}
        calls: dict[tuple[int, int], int] = {}
        total_ns: dict[int, int] = {}
        for index in range(count):
            duration = ends[index] - starts[index]
            parent = parents[index]
            if parent < 0:
                op_class[index] = self._roots[index][0]
                total_ns[op_class[index]] = total_ns.get(op_class[index], 0) + duration
            else:
                op_class[index] = op_class[parent]
                child_ns[parent] += duration
        for index in range(count):
            key = (op_class[index], layers[index])
            own = ends[index] - starts[index] - child_ns[index]
            self_ns[key] = self_ns.get(key, 0) + own
            calls[key] = calls.get(key, 0) + 1
        result: dict[str, dict[str, dict[str, float]]] = {}
        for (class_id, layer_id), own in sorted(self_ns.items()):
            row = {"self_ms": own / 1e6, "calls": calls[(class_id, layer_id)]}
            if layer_id == 0:
                row["total_ms"] = total_ns[class_id] / 1e6
            result.setdefault(self.op_classes[class_id], {})[
                self.layer_names[layer_id]
            ] = row
        return result

    def write(self, path: str, header: dict[str, Any]) -> None:
        """Write ``header`` and the first spans to ``path`` as JSON."""
        count = len(self._layers)
        written = min(count, MAX_SPANS_WRITTEN)
        origin = self._starts[0] if count else 0
        op_of = [0] * written
        spans = []
        for index in range(written):
            parent = self._parents[index]
            op_of[index] = self._roots[index][1] if parent < 0 else op_of[parent]
            spans.append([
                self._layers[index], self._starts[index] - origin,
                self._ends[index] - origin, parent, op_of[index],
            ])
        document = dict(header)
        document.update({
            "layers": self.layer_names,
            "op_classes": self.op_classes,
            "counts": self.counts,
            "spans_recorded": count,
            "spans_written": written,
            "span_columns": ["layer", "start_ns", "end_ns", "parent", "op_id"],
            "spans": spans,
        })
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))
