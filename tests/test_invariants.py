"""The engine-wide invariant checker the fuzz harness runs after every step.

A clean engine of every shape passes; for each invariant, one hand-made
corruption makes ``check_engine`` fail and name it — a checker that never
fails proves nothing.
"""

import pytest

from repro.engine.dataspread import DataSpread
from repro.formula.stripes import IntervalTree, index_remove
from repro.grid.address import CellAddress
from repro.grid.cell import Cell
from repro.query import TableValue
from repro.service import Workspace
from repro.storage.wal import cell_record

from tests.support import check_engine
from tests.support.harness import pin_fuzz_views


def _engine(**options) -> DataSpread:
    spread = DataSpread(**options)
    spread.aggregate_store.min_state_area = 1
    for row in range(1, 11):
        spread.set_value(row, 1, row)
        spread.set_value(row, 2, row * 10)
    spread.set_formula(1, 3, "SUM(A1:B10)")
    spread.set_formula(2, 3, "A2+B2")
    spread.set_formula(3, 3, "MAX(A1:A10)")
    return spread


def _fails(spread, invariant: str, **options) -> None:
    with pytest.raises(AssertionError, match=rf"^{invariant}: "):
        check_engine(spread, **options)


class TestCleanEnginesPass:
    def test_sync_async_and_views(self):
        for options in ({}, {"async_recompute": True}):
            spread = _engine(**options)
            pin_fuzz_views(spread)
            spread.set_value(4, 1, 99)
            check_engine(spread)
            spread.flush_compute()
            check_engine(spread)

    def test_inside_a_transaction(self):
        spread = _engine(async_recompute=True)
        with spread.batch():
            spread.set_formula(5, 3, "A5*2")
            spread.set_value(6, 1, 7)
            check_engine(spread, in_transaction=True)

    def test_durable_workspace(self, tmp_path):
        ws = Workspace(durability="wal", storage_dir=str(tmp_path))
        alice = ws.open_session("alice")
        alice.set_value(1, 1, 5)
        with alice.batch():
            alice.set_formula(1, 2, "A1*3")
            check_engine(ws.engine, workspace=ws)
        ws.flush()
        check_engine(ws.engine, workspace=ws)
        ws.close()


class TestEachInvariantFails:
    def test_graph(self):
        spread = _engine()
        graph = spread.dependency_graph
        cells, ranges = graph._precedents[CellAddress(2, 3)]
        graph._precedents[CellAddress(2, 3)] = (frozenset({CellAddress(9, 9)}), ranges)
        _fails(spread, "graph")

    def test_registration_dropped(self):
        spread = _engine()
        spread.dependency_graph._precedents.pop(CellAddress(1, 3))
        _fails(spread, "registration")

    def test_registration_twice_in_the_reverse_index(self):
        spread = _engine()
        spread.dependency_graph._cell_dependents[CellAddress(7, 7)] = {CellAddress(2, 3)}
        _fails(spread, "registration")

    def test_index(self):
        spread = DataSpread()
        spread.set_formula(1, 8, "SUM(A1:F40)")
        graph = spread.dependency_graph
        for bucket in graph._range_buckets.values():
            bucket.tree, bucket.stale = IntervalTree([(1, 1, (1, 1, CellAddress(1, 8)))]), False
        _fails(spread, "index")

    def test_aggregates_skewed_total(self):
        spread = _engine()
        region = next(iter(spread.aggregate_store._states))
        spread.aggregate_store._states[region].state.total += 1
        _fails(spread, "aggregates")

    def test_aggregates_region_missing_from_the_index(self):
        spread = _engine()
        store = spread.aggregate_store
        region, entry = next(iter(store._states.items()))
        index_remove(store._index, entry, (region,), store.index_stats)
        _fails(spread, "aggregates")

    def test_aggregates_orphan_state(self):
        spread = _engine()
        for entry in spread.aggregate_store._states.values():
            entry.subscribers.clear()
        _fails(spread, "aggregates")

    def test_scheduler_queue_on_the_sync_engine(self):
        spread = _engine()
        spread.compute_scheduler._stale.add(CellAddress(1, 3))
        _fails(spread, "scheduler")

    def test_scheduler_unqueued_placeholder(self):
        spread = _engine(async_recompute=True)
        spread.set_formula(5, 3, "A5*2")
        spread.compute_scheduler._stale.discard(CellAddress(5, 3))
        _fails(spread, "scheduler")

    def test_buffer_provisional_on_the_sync_engine(self):
        spread = _engine()
        spread._cache._provisional[(20, 20)] = Cell(value=1)
        _fails(spread, "buffer")

    def test_buffer_write_unreadable_by_its_owner(self):
        spread = _engine()
        with spread.batch():
            spread.set_value(6, 1, 7)
            spread._cache._entries[(6, 1)] = Cell(value=-1)
            _fails(spread, "buffer", in_transaction=True)

    def test_transaction_frame_left_open(self):
        spread = _engine()
        spread._txn.push(None)
        _fails(spread, "transaction")

    def test_transaction_slot_held_with_no_transaction(self):
        ws = Workspace()
        alice = ws.open_session("alice")
        ws._txn_owner = alice
        _fails(ws.engine, "transaction", workspace=ws)

    def test_views(self):
        spread = _engine()
        view = pin_fuzz_views(spread)[1]  # the GROUP BY: ten groups
        assert view.value().rows
        view._table = TableValue(view._table.columns, ())
        _fails(spread, "views")

    def test_storage(self):
        spread = _engine()
        spread.model.catch_all._rows.ids._size += 1
        _fails(spread, "storage")

    def test_wal(self, tmp_path):
        spread = _engine(durability="wal", storage_dir=str(tmp_path))
        spread.storage_backend._writer.append(cell_record(40, 40, 5, None))
        _fails(spread, "wal")
        spread.close()
