"""The multi-session service layer: sessions, savepoints, isolation.

Deterministic pins for the service-layer contracts — real savepoint
rollback (exact boundary restore, outer work preserved), single-writer
transactions with autonomous foreign edits, read-committed visibility,
snapshot isolation and invalidation, per-session viewport fairness, WAL
transaction annotations — plus a deterministic slice of the randomized
multi-session preset of the fuzz harness (``make fuzz`` widens it via
``REPRO_FUZZ_SEEDS``).
"""

import re

import pytest

from repro.engine.dataspread import DataSpread
from repro.errors import (
    SavepointError,
    SessionError,
    SnapshotInvalidatedError,
    TransactionBusyError,
)
from repro.grid.address import CellAddress
from repro.service import Workspace
from repro.storage.recovery import recover
from repro.storage.snapshot import wal_path
from repro.storage.wal import read_records
from tests.support import SESSIONS, Boom, run
from tests.support.seeds import seed_set

#: Fast deterministic session-fuzz seeds for tier-1; ``make fuzz`` widens
#: via REPRO_FUZZ_SEEDS (disjoint from the other harness slices).
_FAST_SESSION_SEEDS = (*range(41, 47), 239)


# ---------------------------------------------------------------------- #
# savepoint rollback semantics (engine level)
# ---------------------------------------------------------------------- #
class TestEngineSavepoints:
    def test_rollback_restores_the_exact_boundary(self):
        spread = DataSpread()
        spread.set_value(1, 1, 1)
        with spread.batch():
            spread.set_value(1, 1, 2)          # outer work
            sp = spread.savepoint()
            spread.set_value(1, 1, 3)          # inner: rolled back
            spread.set_value(2, 1, "inner")
            sp.rollback()
            assert spread.get_value(1, 1) == 2  # outer survives
            assert spread.get_value(2, 1) is None
            spread.set_value(3, 1, "after")
        assert spread.get_value(1, 1) == 2
        assert spread.get_value(2, 1) is None
        assert spread.get_value(3, 1) == "after"

    def test_rollback_restores_dependency_registrations(self):
        spread = DataSpread()
        spread.set_value(1, 1, 5)
        with spread.batch():
            sp = spread.savepoint()
            spread.set_formula(2, 1, "A1*2")
            sp.rollback()
        # The rolled-back formula left no registration behind: editing A1
        # must not resurrect it.
        assert spread.get_cell(2, 1).formula is None
        spread.set_value(1, 1, 7)
        assert spread.get_value(2, 1) is None
        assert CellAddress(2, 1) not in spread.dependency_graph

    def test_rollback_restores_aggregate_delta_state(self):
        spread = DataSpread()
        spread.aggregate_store.min_state_area = 1
        spread.set_values((row, 1, row) for row in range(1, 21))
        spread.set_formula(1, 2, "SUM(A1:A20)")
        assert spread.get_value(1, 2) == 210
        with spread.batch():
            spread.set_value(5, 1, 1005)       # outer delta: +1000
            sp = spread.savepoint()
            spread.set_value(6, 1, 9999)       # inner delta: rolled back
            sp.rollback()
            spread.set_value(7, 1, 107)        # outer delta: +100
        assert spread.get_value(1, 2) == 1310
        # The state survived the rollback (snapshot restore, not rebuild).
        assert spread.aggregate_store.state_count >= 1

    def test_rollback_is_repeatable_and_then_releasable(self):
        spread = DataSpread()
        with spread.batch():
            sp = spread.savepoint()
            spread.set_value(1, 1, "first")
            sp.rollback()
            spread.set_value(1, 1, "second")
            sp.rollback()                      # same boundary, again
            spread.set_value(1, 1, "third")
            sp.release()
        assert spread.get_value(1, 1) == "third"

    def test_savepoint_context_manager_unwinds_on_exception(self):
        spread = DataSpread()
        with spread.batch():
            spread.set_value(1, 1, "outer")
            with pytest.raises(Boom):
                with spread.savepoint():
                    spread.set_value(2, 1, "inner")
                    raise Boom()
            spread.set_value(3, 1, "after")
        assert spread.get_value(1, 1) == "outer"
        assert spread.get_value(2, 1) is None
        assert spread.get_value(3, 1) == "after"

    def test_rollback_restores_provisional_placeholders(self):
        spread = DataSpread(async_recompute=True)
        spread.set_value(1, 1, 4)
        spread.set_formula(2, 1, "A1+1")
        spread.flush_compute()
        with spread.batch():
            sp = spread.savepoint()
            spread.set_formula(2, 1, "A1*100")  # placeholder keeps value 5
            assert spread.get_value(2, 1) == 5
            sp.rollback()
            assert spread.get_cell(2, 1).formula == "A1+1"
        spread.flush_compute()
        assert spread.get_value(2, 1) == 5
        assert spread.get_cell(2, 1).formula == "A1+1"

    def test_rollback_across_structural_commit_point_refuses(self):
        spread = DataSpread()
        with spread.batch():
            sp = spread.savepoint()
            spread.set_value(1, 1, "flushed")
            spread.insert_row_after(30)        # mid-batch commit point
            with pytest.raises(SavepointError):
                sp.rollback()
            # The savepoint handle is still releasable; the flushed work
            # stays, exactly as documented.
            sp.release()
        assert spread.get_value(1, 1) == "flushed"

    def test_savepoint_after_structural_commit_point_still_works(self):
        spread = DataSpread()
        with spread.batch():
            spread.set_value(1, 1, "pre")
            spread.insert_row_after(30)
            sp = spread.savepoint()            # opened after the barrier
            spread.set_value(2, 1, "post")
            sp.rollback()                      # clean: only post-barrier work
            spread.set_value(3, 1, "kept")
        assert spread.get_value(1, 1) == "pre"
        assert spread.get_value(2, 1) is None
        assert spread.get_value(3, 1) == "kept"

    def test_released_savepoint_refuses_further_use(self):
        spread = DataSpread()
        with spread.batch():
            sp = spread.savepoint()
            sp.release()
            with pytest.raises(SavepointError):
                sp.rollback()
            with pytest.raises(SavepointError):
                sp.release()

    def test_standalone_savepoint_commits_on_release(self):
        spread = DataSpread()
        sp = spread.savepoint()
        spread.set_value(1, 1, "standalone")
        assert spread.in_batch
        sp.release()
        assert not spread.in_batch
        assert spread.get_value(1, 1) == "standalone"


# ---------------------------------------------------------------------- #
# workspace / session semantics
# ---------------------------------------------------------------------- #
class TestWorkspaceSessions:
    def test_sessions_share_committed_state(self):
        ws = Workspace()
        a, b = ws.open_session("a"), ws.open_session("b")
        a.set_value(1, 1, 10)
        a.set_formula(1, 2, "A1*3")
        ws.flush()
        assert b.get_value(1, 2) == 30
        ws.close()

    def test_transaction_writes_are_read_committed(self):
        ws = Workspace()
        a, b = ws.open_session("a"), ws.open_session("b")
        a.set_value(1, 1, 1)
        with a.batch():
            a.set_value(1, 1, 2)
            assert a.get_value(1, 1) == 2      # own writes visible
            assert b.get_value(1, 1) == 1      # committed state for others
            assert b.get_range_values("A1:A1") == [[1]]
        ws.flush()
        assert b.get_value(1, 1) == 2
        ws.close()

    def test_single_writer_foreign_transaction_refused(self):
        ws = Workspace()
        a, b = ws.open_session("a"), ws.open_session("b")
        with a.batch():
            with pytest.raises(TransactionBusyError):
                with b.batch():
                    pass
            with pytest.raises(TransactionBusyError):
                b.savepoint()
            with pytest.raises(TransactionBusyError):
                b.insert_row_after(1)
        # Released on exit: b can transact now.
        with b.batch():
            b.set_value(9, 9, "b")
        ws.close()

    def test_foreign_single_edits_commit_autonomously(self):
        ws = Workspace()
        a, b = ws.open_session("a"), ws.open_session("b")
        with a.batch():
            a.set_value(1, 1, "buffered")
            b.set_value(2, 1, "autonomous")
            # b's edit committed immediately, past the open transaction.
            assert b.get_value(2, 1) == "autonomous"
            assert a.get_value(2, 1) == "autonomous"
        ws.flush()
        assert b.get_value(1, 1) == "buffered"
        ws.close()

    def test_transaction_touched_cells_are_write_locked(self):
        # An autonomous edit overlapping the transaction's uncommitted
        # work would race the owner's commit flush, so it is refused —
        # the database row-lock model.
        ws = Workspace()
        a, b = ws.open_session("a"), ws.open_session("b")
        with a.batch():
            a.set_value(1, 1, "owner")
            with pytest.raises(TransactionBusyError):
                b.set_value(1, 1, "foreign")
            b.set_value(2, 1, "elsewhere")     # untouched cell: autonomous
        ws.flush()
        assert b.get_value(1, 1) == "owner"
        assert b.get_value(2, 1) == "elsewhere"
        # Commit releases the locks.
        b.set_value(1, 1, "later")
        assert b.get_value(1, 1) == "later"
        ws.close()

    def test_buffered_formula_is_write_locked_too(self):
        # The regression the interleaving fuzzer caught: an async in-batch
        # formula lives as a provisional placeholder, and a foreign formula
        # on the same cell used to overwrite it — losing the owner's edit
        # at commit.  The placeholder cell must be locked like a buffered
        # value.
        ws = Workspace()
        a, b = ws.open_session("a"), ws.open_session("b")
        a.set_value(1, 1, 3)
        ws.flush()
        with a.batch():
            a.set_formula(2, 1, "A1*2")
            with pytest.raises(TransactionBusyError):
                b.set_formula(2, 1, "A1*100")
            with pytest.raises(TransactionBusyError):
                b.clear_cell(2, 1)
        ws.flush()
        assert b.get_value(2, 1) == 6
        assert b.get_cell(2, 1).formula == "A1*2"
        ws.close()

    def test_session_savepoint_rollback_preserves_outer_batch_work(self):
        ws = Workspace()
        a = ws.open_session("a")
        with a.batch():
            a.set_value(1, 1, "outer")
            sp = a.savepoint()
            a.set_value(2, 1, "inner")
            sp.rollback()
            a.set_value(3, 1, "after")
        ws.flush()
        assert a.get_value(1, 1) == "outer"
        assert a.get_value(2, 1) is None
        assert a.get_value(3, 1) == "after"
        ws.close()

    def test_standalone_session_savepoint_owns_and_releases_the_txn(self):
        ws = Workspace()
        a, b = ws.open_session("a"), ws.open_session("b")
        sp = a.savepoint()
        assert ws.transaction_owner is a
        with pytest.raises(TransactionBusyError):
            with b.batch():
                pass
        a.set_value(1, 1, "v")
        sp.release()
        assert ws.transaction_owner is None
        assert b.get_value(1, 1) == "v"
        ws.close()

    def test_aborted_transaction_discards_buffered_work(self):
        ws = Workspace()
        a = ws.open_session("a")
        a.set_value(1, 1, "committed")
        with pytest.raises(Boom):
            with a.batch():
                a.set_value(1, 1, "doomed")
                raise Boom()
        assert ws.transaction_owner is None
        assert a.get_value(1, 1) == "committed"
        ws.close()

    def test_closed_session_refuses_work(self):
        ws = Workspace()
        a = ws.open_session("a")
        a.close()
        with pytest.raises(SessionError):
            a.set_value(1, 1, 1)
        ws.close()

    def test_per_session_viewports_round_robin(self):
        ws = Workspace()
        a, b = ws.open_session("a"), ws.open_session("b")
        for row in range(1, 31):
            a.set_value(row, 1, row)
        ws.flush()
        a.set_viewport("A1:B10")
        b.set_viewport("A21:B30")
        with a.batch():
            for row in range(1, 31):
                a.set_formula(row, 2, f"A{row}*2")
        scheduler = ws.engine.compute_scheduler
        assert len(scheduler.viewports()) == 2
        # The first evaluations must split between the two viewports
        # instead of finishing one region before touching the other.
        ws.drain(4)
        fresh_a = sum(ws.engine.is_fresh(row, 2) for row in range(1, 11))
        fresh_b = sum(ws.engine.is_fresh(row, 2) for row in range(21, 31))
        assert fresh_a >= 1 and fresh_b >= 1, (fresh_a, fresh_b)
        ws.flush()
        assert ws.engine.get_value(25, 2) == 50
        ws.close()


# ---------------------------------------------------------------------- #
# snapshot isolation
# ---------------------------------------------------------------------- #
class TestQueueAcrossAborts:
    def test_abort_after_draining_an_overwritten_queued_formula_requeues_it(self):
        ws = Workspace()
        alice = ws.open_session("alice")
        alice.set_value(1, 1, 3)
        alice.set_formula(1, 2, "A1*2")  # queued
        with pytest.raises(Boom):
            with alice.batch():
                alice.set_value(1, 2, 99)  # overwrites the queued formula
                ws.drain()
                raise Boom()
        assert not ws.engine.is_fresh(1, 2)  # restored, and stale again
        ws.flush()
        assert ws.engine.get_cell(1, 2).formula == "A1*2"
        assert ws.engine.get_value(1, 2) == 6

    def test_aborted_formula_queued_by_an_autonomous_edit_leaves_the_queue(self):
        ws = Workspace()
        alice, bob = ws.open_session("alice"), ws.open_session("bob")
        with pytest.raises(Boom):
            with alice.batch():
                alice.set_formula(1, 3, "B1*2")
                bob.set_value(1, 2, 5)  # autonomous: queues alice's formula
                assert CellAddress(1, 3) in ws.engine.compute_scheduler.pending()
                raise Boom()
        assert ws.engine.compute_pending == 0
        assert ws.engine.get_cell(1, 3).formula is None


class TestReadSnapshots:
    def test_snapshot_pins_values_against_commits(self):
        ws = Workspace()
        a, b = ws.open_session("a"), ws.open_session("b")
        a.set_value(1, 1, "before")
        ws.flush()
        with b.read_snapshot() as snap:
            assert snap.get_value(1, 1) == "before"
            a.set_value(1, 1, "after")
            assert snap.get_value(1, 1) == "before"
            assert b.get_value(1, 1) == "after"
        ws.close()

    def test_snapshot_pins_values_against_async_drain_commits(self):
        ws = Workspace()
        a, b = ws.open_session("a"), ws.open_session("b")
        a.set_value(1, 1, 3)
        a.set_formula(1, 2, "A1*2")
        ws.flush()
        a.set_value(1, 1, 10)                  # queues B1 stale
        with b.read_snapshot() as snap:
            pinned = snap.get_value(1, 2)      # committed: still 6
            assert pinned == 6
            ws.flush()                         # the drain commits B1 = 20
            assert snap.get_value(1, 2) == 6   # ... but not under the snapshot
            assert b.get_value(1, 2) == 20
        ws.close()

    def test_snapshot_never_sees_uncommitted_transaction_writes(self):
        ws = Workspace()
        a, b = ws.open_session("a"), ws.open_session("b")
        a.set_value(1, 1, "committed")
        with a.batch():
            a.set_value(1, 1, "buffered")
            with b.read_snapshot() as snap:
                assert snap.get_value(1, 1) == "committed"
        ws.close()

    def test_structural_edit_invalidates_open_snapshots(self):
        ws = Workspace()
        a, b = ws.open_session("a"), ws.open_session("b")
        a.set_value(5, 1, "x")
        ws.flush()
        snap = b.read_snapshot()
        assert snap.get_value(5, 1) == "x"
        a.insert_row_after(1)
        assert not snap.valid
        with pytest.raises(SnapshotInvalidatedError):
            snap.get_value(5, 1)
        snap.close()
        ws.close()

    def test_closed_snapshot_refuses_reads_and_stops_capturing(self):
        ws = Workspace()
        a, b = ws.open_session("a"), ws.open_session("b")
        snap = b.read_snapshot()
        snap.close()
        with pytest.raises(SessionError):
            snap.get_value(1, 1)
        a.set_value(1, 1, "later")             # must not touch the snapshot
        ws.close()


# ---------------------------------------------------------------------- #
# WAL integration: annotated commit groups, recovery skips marks
# ---------------------------------------------------------------------- #
class TestDurableSessions:
    def test_transaction_commit_group_is_annotated(self, tmp_path):
        workdir = str(tmp_path / "ws")
        ws = Workspace(durability="wal", storage_dir=workdir)
        a = ws.open_session("alice")
        with a.batch():
            a.set_value(1, 1, 1)
            sp = a.savepoint()
            a.set_value(2, 1, 2)
            sp.rollback()
            sp.release()
            a.set_value(3, 1, 3)
        ws.flush()
        generation = ws.engine.storage_backend.generation
        records = read_records(wal_path(workdir, generation))
        marks = [r for r in records if r.get("t") == "mark"]
        assert marks, records
        assert marks[0]["kind"] == "txn-commit"
        assert marks[0]["scope"] == "alice"
        assert marks[0]["savepoints"] == 1
        ws.close()

    def test_autonomous_batch_parks_the_savepoint_count(self, tmp_path):
        # autonomous() parks the whole transaction, its savepoint counter
        # included: a foreign *batched* edit opening its own outermost
        # level must not zero the count the owner's commit mark carries.
        workdir = str(tmp_path / "ws")
        ws = Workspace(durability="wal", storage_dir=workdir)
        a = ws.open_session("alice")
        with a.batch():
            a.set_value(1, 1, 1)
            sp = a.savepoint()
            with ws.engine.autonomous():
                ws.engine.set_values([(5, 5, 1), (6, 6, 2)])
            sp.release()
        ws.flush()
        generation = ws.engine.storage_backend.generation
        records = read_records(wal_path(workdir, generation))
        marks = [r for r in records if r.get("t") == "mark"]
        # The autonomous batch's own group (no savepoints), then alice's.
        assert [m["savepoints"] for m in marks] == [0, 1]
        assert ws.engine.get_value(5, 5) == 1 and ws.engine.get_value(1, 1) == 1
        ws.close()

    def test_recovery_replays_past_mark_records(self, tmp_path):
        workdir = str(tmp_path / "ws")
        ws = Workspace(durability="wal", storage_dir=workdir)
        a = ws.open_session("alice")
        with a.batch():
            a.set_value(1, 1, "kept")
            sp = a.savepoint()
            a.set_value(2, 1, "rolled-back")
            sp.rollback()
        ws.flush()
        ws.close()
        recovered = recover(workdir)
        try:
            assert recovered.get_value(1, 1) == "kept"
            assert recovered.get_value(2, 1) is None
        finally:
            recovered.close()

    def test_uncommitted_transaction_recovers_to_nothing(self, tmp_path):
        workdir = str(tmp_path / "ws")
        ws = Workspace(durability="wal", storage_dir=workdir)
        a = ws.open_session("alice")
        a.set_value(1, 1, "durable")
        with pytest.raises(Boom):
            with a.batch():
                a.set_value(2, 1, "never-committed")
                raise Boom()
        ws.close()
        recovered = recover(workdir)
        try:
            assert recovered.get_value(1, 1) == "durable"
            assert recovered.get_value(2, 1) is None
        finally:
            recovered.close()


# ---------------------------------------------------------------------- #
# seed-scheme regression (the env knobs must reach the sweeps)
# ---------------------------------------------------------------------- #
class TestSeedScheme:
    def test_primary_env_selects_seed_range(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_SEEDS", "4")
        assert seed_set([9], env="REPRO_TEST_SEEDS") == [1, 2, 3, 4]

    def test_unset_falls_back_to_fast_slice(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_SEEDS", raising=False)
        assert seed_set(range(3, 5), env="REPRO_TEST_SEEDS") == [3, 4]

    def test_makefile_targets_use_the_unified_scheme(self):
        # The Makefile must propagate the one REPRO_* variable every sweep
        # reads — drift between the two is what motivated the scheme.
        import pathlib
        text = pathlib.Path(__file__).resolve().parent.parent.joinpath("Makefile").read_text()
        assert "REPRO_FUZZ_SEEDS=$(REPRO_FUZZ_SEEDS)" in text
        assert set(re.findall(r"REPRO_\w+_SEEDS", text)) == {"REPRO_FUZZ_SEEDS"}


# ---------------------------------------------------------------------- #
# randomized multi-session interleavings
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", seed_set(_FAST_SESSION_SEEDS))
def test_session_interleavings_converge(seed):
    run(seed, SESSIONS)
