"""Durability layer: WAL, snapshots, recovery, fault injection, quarantine.

Covers the write-ahead log's frame codec and group-commit folding, the
retry-with-rewind IO path under injected transient errors, snapshot
generations and checkpoint rotation, the engine's commit-point mapping
(synchronous singletons, batch groups, structural atomic groups, async
provisional placeholders), redo-replay recovery, the compute scheduler's
poisoned-formula quarantine, and the seeded crash-recovery fuzz
(``make fuzz`` widens the seed set via ``REPRO_FUZZ_SEEDS``).
"""

import gc
import os
import sys
import warnings

import pytest

from repro.engine.dataspread import DataSpread
from repro.errors import LinkTableError, RecoveryError, StorageError, WALError
from repro.grid.range import RangeRef
from repro.query import col, region as grid_region, select
from repro.storage import snapshot as snapshot_module
from repro.storage.recovery import recover, recovered_cells, replay_records
from repro.storage.snapshot import (
    SNAPSHOT_VERSION,
    list_wal_generations,
    load_snapshot,
    snapshot_path,
    wal_path,
    write_snapshot,
)
from repro.storage.wal import (
    FRAME_HEADER,
    WAL_VERSION,
    WALWriter,
    cell_record,
    committed_records,
    decode_frames,
    encode_frame,
    header_record,
    read_records,
)

from tests.support import (
    ASYNC_CRASH,
    CRASH,
    Boom,
    FaultPlan,
    SimulatedCrash,
    apply_op,
    assert_matches_replay,
    run,
)
from tests.support.seeds import seed_set

#: Fast deterministic crash-fuzz seeds for tier-1; ``make fuzz`` widens via
#: REPRO_FUZZ_SEEDS (disjoint async offset, as in the equivalence fuzz).
_FAST_CRASH_SEEDS = range(31, 37)


# ---------------------------------------------------------------------- #
# WAL frame codec and group folding
# ---------------------------------------------------------------------- #
class TestFrameCodec:
    def test_round_trip(self):
        records = [
            cell_record(1, 2, 42, None),
            cell_record(3, 4, "x", "A1+1"),
            {"t": "structural", "axis": "row", "kind": "insert", "line": 5, "count": 2},
        ]
        data = b"".join(encode_frame(r) for r in records)
        assert list(decode_frames(data)) == records

    @pytest.mark.parametrize("cut", [1, 3, 7, 9])
    def test_torn_tail_discarded(self, cut):
        intact = encode_frame(cell_record(1, 1, 1, None))
        torn = encode_frame(cell_record(2, 2, 2, None))
        data = intact + torn[:cut]
        assert list(decode_frames(data)) == [cell_record(1, 1, 1, None)]

    def test_corrupt_checksum_terminates(self):
        first = encode_frame(cell_record(1, 1, 1, None))
        second = bytearray(encode_frame(cell_record(2, 2, 2, None)))
        second[-1] ^= 0xFF  # flip one payload byte
        assert list(decode_frames(first + bytes(second))) == [cell_record(1, 1, 1, None)]

    def test_corrupt_frame_before_an_intact_one_raises(self):
        frames = [encode_frame(cell_record(row, 1, row, None)) for row in (1, 2, 3)]
        middle = bytearray(frames[1])
        middle[-2] ^= 0xFF
        with pytest.raises(RecoveryError, match=f"byte {len(frames[0])};"):
            list(decode_frames(frames[0] + bytes(middle) + frames[2]))

    def test_a_cut_length_prefix_before_an_intact_frame_raises(self):
        first, second = (encode_frame(cell_record(row, 1, row, None)) for row in (1, 2))
        with pytest.raises(RecoveryError):
            list(decode_frames(first + first[:5] + second))

    def test_group_folding(self):
        records = [
            {"t": "cell", "r": 1, "c": 1, "v": 1, "f": None},
            {"t": "begin"},
            {"t": "cell", "r": 2, "c": 1, "v": 2, "f": None},
            {"t": "cell", "r": 3, "c": 1, "v": 3, "f": None},
            {"t": "commit"},
            {"t": "begin"},
            {"t": "cell", "r": 4, "c": 1, "v": 4, "f": None},
            {"t": "abort"},
            {"t": "cell", "r": 5, "c": 1, "v": 5, "f": None},
        ]
        rows = [r["r"] for r in committed_records(records)]
        assert rows == [1, 2, 3, 5]  # aborted group's row 4 is dropped

    def test_dangling_group_dropped(self):
        records = [
            {"t": "cell", "r": 1, "c": 1, "v": 1, "f": None},
            {"t": "begin"},
            {"t": "cell", "r": 2, "c": 1, "v": 2, "f": None},
            # crash: no commit ever lands
        ]
        assert [r["r"] for r in committed_records(records)] == [1]


# ---------------------------------------------------------------------- #
# WAL writer: durability counters and transient-error retry
# ---------------------------------------------------------------------- #
def _headed_log(tmp_path) -> str:
    """A log that already holds its header, so a writer opened on it with a
    fault plan injects into record appends only."""
    path = str(tmp_path / "wal.log")
    WALWriter(path).close()
    return path


class TestWALWriter:
    def test_singleton_and_group_commit_counters(self, tmp_path):
        path = str(tmp_path / "wal.log")
        writer = WALWriter(path)
        writer.append(cell_record(1, 1, 1, None))
        assert writer.durable_commits == 1
        writer.begin()
        writer.append(cell_record(2, 1, 2, None))
        writer.append(cell_record(3, 1, 3, None))
        assert writer.durable_commits == 1  # grouped appends defer the fsync
        writer.commit()
        assert writer.durable_commits == 2
        writer.close()
        assert len(committed_records(read_records(path))) == 3

    def test_transient_append_errors_retried_without_loss(self, tmp_path):
        path = str(tmp_path / "wal.log")
        plan = FaultPlan(append_errors=2)
        writer = WALWriter(path, io_factory=plan.io_factory(), backoff_seconds=0.0)
        writer.append(cell_record(1, 1, "survives", None))
        writer.append(cell_record(2, 1, "also", None))
        writer.close()
        assert plan.transients_injected == 2
        assert writer.retries == 2
        values = [r["v"] for r in committed_records(read_records(path))]
        assert values == ["survives", "also"]

    def test_transient_fsync_errors_retried(self, tmp_path):
        path = str(tmp_path / "wal.log")
        plan = FaultPlan(sync_errors=2)
        writer = WALWriter(path, io_factory=plan.io_factory(), backoff_seconds=0.0)
        writer.append(cell_record(1, 1, 1, None))
        writer.close()
        assert writer.durable_commits == 1
        assert writer.retries == 2

    def test_retry_exhaustion_raises_walerror(self, tmp_path):
        path = _headed_log(tmp_path)
        plan = FaultPlan(append_errors=99)
        writer = WALWriter(path, io_factory=plan.io_factory(),
                           max_retries=2, backoff_seconds=0.0)
        with pytest.raises(WALError):
            writer.append(cell_record(1, 1, 1, None))
        writer.close()

    def test_crash_leaves_intact_prefix(self, tmp_path):
        path = _headed_log(tmp_path)
        plan = FaultPlan(crash_after_appends=3, torn_tail=True)
        writer = WALWriter(path, io_factory=plan.io_factory(), backoff_seconds=0.0)
        writer.append(cell_record(1, 1, 1, None))
        writer.append(cell_record(2, 1, 2, None))
        with pytest.raises(SimulatedCrash):
            writer.append(cell_record(3, 1, 3, None))
        # The torn third frame is on disk but unreadable; the prefix survives.
        assert os.path.getsize(path) > 3 * len(encode_frame(cell_record(1, 1, 1, None))) - 1
        assert [r["r"] for r in read_records(path)] == [1, 2]
        assert writer.durable_commits == 2


# ---------------------------------------------------------------------- #
# snapshots and generations
# ---------------------------------------------------------------------- #
class TestSnapshot:
    def test_round_trip(self, tmp_path):
        directory = str(tmp_path)
        cells = [(1, 1, 10, None), (2, 3, "x", "R[-1]C[-2]+1")]
        size = write_snapshot(directory, generation=4, cells=cells,
                              config={"mapping_scheme": "rcv"})
        assert size > 0
        snapshot = load_snapshot(directory)
        assert snapshot["generation"] == 4
        assert snapshot["version"] == SNAPSHOT_VERSION == 2
        assert [tuple(c) for c in snapshot["cells"]] == cells
        assert snapshot["config"]["mapping_scheme"] == "rcv"

    def test_a1_text_is_stored_at_its_own_cell(self, tmp_path):
        # A snapshot built from the engine's reads hands over A1 text; the
        # file holds stored text only, so recovery reads one format.
        directory = str(tmp_path)
        cells = [(2, 3, 1, "A1+1"), (5, 3, 4, "A4+1"), (6, 3, 0, "SUM($A$1:B6)"),
                 (7, 3, "?", "not a formula(")]
        write_snapshot(directory, generation=1, cells=cells)
        assert [c[3] for c in load_snapshot(directory)["cells"]] == [
            "R[-1]C[-2]+1", "R[-1]C[-2]+1", "SUM(R1C1:R[0]C[-1])", "not a formula("]

    def test_a_checkpoint_writes_its_stored_text_as_it_is(self, tmp_path, monkeypatch):
        # Only a snapshot built from rendered A1 needs the A1-or-stored
        # guess; the engine's checkpoint holds stored text already.
        def no_guess(formula, origin):
            raise AssertionError("checkpoint re-parsed its own stored text")

        monkeypatch.setattr(snapshot_module, "normalized_text", no_guess)
        spread = DataSpread(durability="wal", storage_dir=str(tmp_path))
        spread.set_value(1, 1, 3)
        spread.set_formula(2, 1, "A1+1")
        spread.checkpoint()
        spread.close()
        assert [c[3] for c in load_snapshot(str(tmp_path))["cells"]] == [None, "R[-1]C[0]+1"]

    def test_missing_snapshot_is_none(self, tmp_path):
        assert load_snapshot(str(tmp_path)) is None

    def test_corrupt_snapshot_raises(self, tmp_path):
        directory = str(tmp_path)
        with open(snapshot_path(directory), "wb") as handle:
            handle.write(b"\x01\x02\x03 not a snapshot")
        with pytest.raises(RecoveryError):
            load_snapshot(directory)

    def test_generation_listing(self, tmp_path):
        directory = str(tmp_path)
        for generation in (0, 2, 5):
            with open(wal_path(directory, generation), "wb"):
                pass
        assert list_wal_generations(directory) == [0, 2, 5]


# ---------------------------------------------------------------------- #
# engine integration: commit-point mapping
# ---------------------------------------------------------------------- #
class TestEngineWAL:
    def _spread(self, tmp_path, **kwargs):
        return DataSpread(durability="wal", storage_dir=str(tmp_path), **kwargs)

    def test_durability_validation(self, tmp_path):
        with pytest.raises(ValueError):
            DataSpread(durability="wal")  # storage_dir required
        with pytest.raises(ValueError):
            DataSpread(durability="bogus")
        assert DataSpread().durability == "none"

    def test_existing_state_guard(self, tmp_path):
        spread = self._spread(tmp_path)
        spread.set_value(1, 1, 1)
        spread.close()
        with pytest.raises(WALError):
            self._spread(tmp_path)  # must go through recover() instead

    def test_sync_edit_is_one_fsynced_singleton(self, tmp_path):
        spread = self._spread(tmp_path)
        backend = spread.storage_backend
        spread.set_value(1, 1, 7)
        assert backend.durable_commits == 1
        records = committed_records(read_records(backend.log_path))
        assert records == [cell_record(1, 1, 7, None)]
        spread.close()

    def test_batch_is_one_atomic_group(self, tmp_path):
        spread = self._spread(tmp_path)
        backend = spread.storage_backend
        with spread.batch():
            spread.set_value(1, 1, 1)
            spread.set_value(2, 1, 2)
            spread.set_value(3, 1, 3)
            assert backend.durable_commits == 0  # nothing durable mid-batch
        assert backend.durable_commits == 1
        raw = read_records(backend.log_path)
        assert raw[0]["t"] == "begin" and raw[4]["t"] == "commit"
        spread.close()

    def test_aborted_batch_logs_nothing(self, tmp_path):
        spread = self._spread(tmp_path)

        class Boom(Exception):
            pass

        spread.set_value(1, 1, 1)
        try:
            with spread.batch():
                spread.set_value(2, 1, 2)
                raise Boom()
        except Boom:
            pass
        records = committed_records(read_records(spread.storage_backend.log_path))
        assert records == [cell_record(1, 1, 1, None)]
        spread.close()

    def test_view_spill_inside_a_batch_commit_joins_its_bulk_write(self, tmp_path):
        """The batch's writes are one group and everything its commit
        recomputes — a view spill and the formula reading the spill — is
        one more: the spill's own ingest must not end deferred mode early
        and leave the formula to a write-through singleton."""
        spread = self._spread(tmp_path)
        backend = spread.storage_backend
        spread.import_rows([[i, i * 10] for i in range(1, 11)], top=2)
        source = grid_region(RangeRef(2, 1, 11, 2), header=False)
        spread.create_live_view(select(source).where(col("A") >= 5), at="E1")
        spread.set_formula(1, 10, "=SUM(F1:F20)")
        before = backend.durable_commits
        with spread.batch():
            spread.set_value(2, 1, 7)
            spread.set_value(3, 1, 8)
        assert backend.durable_commits - before == 2
        # Rows 2 and 3 now pass the filter beside rows 6..11 (A >= 5).
        assert spread.get_value(1, 10) == 10 + 20 + sum(10 * i for i in range(5, 11))
        spread.close()

    def test_structural_edit_is_atomic_with_flush(self, tmp_path):
        spread = self._spread(tmp_path)
        backend = spread.storage_backend
        spread.set_value(2, 1, 5)
        pre = backend.durable_commits
        spread.insert_row_after(1, 1)
        assert backend.durable_commits == pre + 1
        records = committed_records(read_records(backend.log_path))
        assert records[-1] == {"t": "structural", "axis": "row",
                               "kind": "insert", "line": 1, "count": 1}
        spread.close()

    @pytest.mark.parametrize("async_recompute", [False, True])
    def test_structural_edit_is_one_commit_however_many_texts_it_rewrites(
            self, tmp_path, async_recompute):
        deltas = []
        for formulas in (5, 80):
            spread = self._spread(tmp_path / str(formulas),
                                  async_recompute=async_recompute)
            backend = spread.storage_backend
            with spread.batch():
                for row in range(10, 10 + formulas):
                    spread.set_value(row, 1, row)
                    # Each reads A1 across the line: its text changes.
                    spread.set_formula(row, 2, f"A1+A{row}*2")
            spread.flush_compute()
            commits, frames = backend.durable_commits, backend.frames_appended
            spread.insert_row_after(3)
            spread.flush_compute()
            deltas.append(backend.durable_commits - commits)
            # begin, the structural record, one rewritten text per formula, commit.
            assert backend.frames_appended - frames == formulas + 3
            group = read_records(backend.log_path)[-(formulas + 3):]
            assert group[0]["t"] == "begin" and group[-1]["t"] == "commit"
            assert group[1]["t"] == "structural"
            assert [r["f"] for r in group[2:-1]] == [
                f"R[{1 - row}]C[-1]+R[0]C[-1]*2" for row in range(11, 11 + formulas)]
            assert spread.get_cell(11, 2).formula == "A1+A11*2"
            spread.close()
        assert deltas == [1, 1]

    def test_crash_inside_a_structural_edit_recovers_to_before_or_after(self, tmp_path):
        """Kill the process at every append of one structural edit — the
        group's begin, the structural record, each rewritten text, the
        commit: recovery yields exactly the pre-edit grid until the commit
        marker is down, and exactly the post-edit grid from then on."""
        setup = [("value", row, 1, row) for row in range(5, 9)]
        setup += [("formula", row, 2, f"A{row}+SUM(A5:A8)") for row in range(5, 9)]
        edit = ("delete_row", 6, 1)
        outcomes = []
        for crash_at in range(1, 9):
            directory = str(tmp_path / str(crash_at))
            plan = FaultPlan(crash_after_appends=10 ** 9, torn_tail=crash_at % 2 == 0)
            spread = self._spread(directory, wal_options=plan.wal_options())
            backend = spread.storage_backend
            for op in setup:
                apply_op(spread, op)
            before = backend.durable_commits
            plan.crash_after_appends = plan.appends_seen + crash_at
            try:
                apply_op(spread, edit)
                spread.close()
            except SimulatedCrash:
                pass
            landed = backend.durable_commits > before
            outcomes.append(landed)
            recovered = recover(directory)
            try:
                assert_matches_replay(
                    recovered, setup + [edit] if landed else setup, (crash_at,))
            finally:
                recovered.close()
        # begin + structural + 3 surviving texts + commit = 6 appends.
        assert outcomes == [False] * 6 + [True] * 2

    def test_refused_structural_edit_is_not_a_commit_point(self, tmp_path):
        # Validate precedes apply: a linked table refusing the edit must
        # leave the batch's writes buffered, its savepoints un-barriered and
        # the log untouched — so the live grid and a recovery still agree
        # once the batch aborts.
        spread = self._spread(tmp_path)
        backend = spread.storage_backend
        spread.link_table("t", at="A1", columns=["a", "b"], rows=[(1, 2), (3, 4)])
        spread.set_value(20, 20, "committed")
        frames_before = backend.frames_appended
        with pytest.raises(Boom):
            with spread.batch():
                spread.set_value(10, 10, "buffered")
                savepoint = spread.savepoint()
                spread.set_value(11, 11, "inner")
                with pytest.raises(LinkTableError):
                    spread.delete_column(1)
                assert backend.frames_appended == frames_before  # nothing logged
                assert spread.cache.pending_count == 2           # still buffered
                savepoint.rollback()                             # not barriered
                assert spread.get_value(11, 11) is None
                assert spread.get_value(10, 10) == "buffered"
                raise Boom()
        assert spread.get_value(10, 10) is None
        linked = spread.table_region("t")  # database rows, never logged
        live = {
            (address.row, address.column): (cell.value, cell.formula)
            for address, cell in spread.get_cells(spread.used_range()).items()
            if not linked.contains(address)
        }
        assert live == recovered_cells(str(tmp_path)) == {(20, 20): ("committed", None)}
        spread.close()

    def test_async_placeholders_not_logged(self, tmp_path):
        spread = self._spread(tmp_path, async_recompute=True)
        backend = spread.storage_backend
        spread.set_value(1, 1, 4)
        spread.set_formula(1, 2, "A1*10")
        records = committed_records(read_records(backend.log_path))
        # The provisional formula is acknowledged but not yet durable
        # (only its empty extent-growth record may appear).
        assert not any(r.get("f") for r in records)
        spread.flush_compute()
        records = committed_records(read_records(backend.log_path))
        assert {"t": "cell", "r": 1, "c": 2, "v": 40, "f": "R[0]C[-1]*10"} in records
        spread.close()

    def test_checkpoint_rotates_and_truncates(self, tmp_path):
        spread = self._spread(tmp_path)
        spread.set_value(1, 1, 1)
        info = spread.checkpoint()
        assert info["generation"] == 1
        assert list_wal_generations(str(tmp_path)) == [1]
        assert read_records(wal_path(str(tmp_path), 1)) == []
        assert load_snapshot(str(tmp_path))["generation"] == 1
        spread.close()

    def test_checkpoint_forbidden_inside_batch(self, tmp_path):
        spread = self._spread(tmp_path)
        with spread.batch():
            with pytest.raises(WALError):
                spread.checkpoint()
        spread.close()

    def test_io_retry_surfaces_in_backend_stats(self, tmp_path):
        plan = FaultPlan(append_errors=1)
        spread = self._spread(tmp_path, wal_options=plan.wal_options())
        spread.set_value(1, 1, 1)
        assert spread.storage_backend.io_retries == 1
        assert spread.get_value(1, 1) == 1  # retried, not lost
        spread.close()
        assert committed_records(read_records(wal_path(str(tmp_path), 0))) == [
            cell_record(1, 1, 1, None)
        ]


# ---------------------------------------------------------------------- #
# recovery
# ---------------------------------------------------------------------- #
class TestRecovery:
    def test_recovers_exact_state(self, tmp_path):
        directory = str(tmp_path)
        spread = DataSpread(durability="wal", storage_dir=directory)
        spread.set_value(1, 1, 3)
        spread.set_value(2, 1, 4)
        spread.set_formula(1, 2, "SUM(A1:A2)")
        spread.close()
        recovered = recover(directory)
        assert recovered.get_value(1, 2) == 7
        assert recovered.get_cell(1, 2).formula == "SUM(A1:A2)"
        assert recovered.durability == "wal"
        recovered.close()

    def test_recovery_is_a_checkpoint_barrier(self, tmp_path):
        directory = str(tmp_path)
        spread = DataSpread(durability="wal", storage_dir=directory)
        spread.set_value(1, 1, 3)
        spread.close()
        recovered = recover(directory)
        generation = recovered.storage_backend.generation
        assert generation >= 1  # the replayed log was folded into a snapshot
        assert list_wal_generations(directory) == [generation]
        recovered.close()

    def test_torn_tail_discarded(self, tmp_path):
        directory = str(tmp_path)
        spread = DataSpread(durability="wal", storage_dir=directory)
        spread.set_value(1, 1, "keep")
        log_path = spread.storage_backend.log_path
        spread.close()
        with open(log_path, "ab") as handle:
            handle.write(encode_frame(cell_record(9, 9, "torn", None))[:7])
        assert recovered_cells(directory) == {(1, 1): ("keep", None)}

    def test_corruption_mid_log_raises_and_leaves_the_workspace(self, tmp_path):
        directory = str(tmp_path)
        spread = DataSpread(durability="wal", storage_dir=directory)
        for row in range(1, 6):
            spread.set_value(row, 1, row * 10)  # five fsynced singleton frames
        log_path = spread.storage_backend.log_path
        spread.close()
        with open(log_path, "rb") as handle:
            data = bytearray(handle.read())
        length, _ = FRAME_HEADER.unpack_from(data, 0)
        second = FRAME_HEADER.size + length
        data[second + FRAME_HEADER.size + 3] ^= 0x01  # one payload byte of frame 2
        with open(log_path, "wb") as handle:
            handle.write(data)
        before = sorted(os.listdir(directory))
        with pytest.raises(RecoveryError, match=f"generation 0: corrupt frame at byte {second};"):
            recover(directory)
        assert sorted(os.listdir(directory)) == before == ["wal-0.log"]
        with open(log_path, "rb") as handle:
            assert handle.read() == data

    def test_aborted_group_discarded(self, tmp_path):
        directory = str(tmp_path)
        spread = DataSpread(durability="wal", storage_dir=directory)
        spread.set_value(1, 1, "keep")
        log_path = spread.storage_backend.log_path
        spread.close()
        # Simulate a crash mid-batch: a begin group with no commit.
        with open(log_path, "ab") as handle:
            handle.write(encode_frame({"t": "begin"}))
            handle.write(encode_frame(cell_record(5, 5, "lost", None)))
        assert recovered_cells(directory) == {(1, 1): ("keep", None)}

    def test_structural_replay_remaps_and_rewrites(self, tmp_path):
        # A structural record whose engine-side rewritten texts never made
        # it to the log: replay must re-key cells AND rewrite the formulas
        # whose stored text the edit changes.  B2 reads A1 (across the
        # line: its offset grows) and A2 (beside it: unchanged).
        base = {(1, 1): (1, None), (2, 1): (5, None),
                (2, 2): (6, "R[-1]C[-1]+R[0]C[-1]"), (2, 3): (5, "R[0]C[-2]")}
        records = [{"t": "structural", "axis": "row", "kind": "insert",
                    "line": 1, "count": 2}]
        replayed = replay_records(base, records)
        assert replayed == {(1, 1): (1, None), (4, 1): (5, None),
                            (4, 2): (6, "R[-3]C[-1]+R[0]C[-1]"), (4, 3): (5, "R[0]C[-2]")}

    def test_recompute_heals_stale_dependents(self, tmp_path):
        directory = str(tmp_path)
        spread = DataSpread(durability="wal", storage_dir=directory)
        spread.set_value(1, 1, 1)
        spread.set_formula(1, 2, "A1*2")
        log_path = spread.storage_backend.log_path
        spread.close()
        # Crash window: A1's new value committed, B1's refresh was not.
        with open(log_path, "ab") as handle:
            handle.write(encode_frame(cell_record(1, 1, 10, None)))
        # fake durability of the appended record (fsynced singleton)
        recovered = recover(directory)
        assert recovered.get_value(1, 1) == 10
        assert recovered.get_value(1, 2) == 20  # healed by the recompute pass
        recovered.close()

    def test_recover_empty_directory(self, tmp_path):
        recovered = recover(str(tmp_path))
        assert recovered.cell_count() == 0
        recovered.close()

    def test_recover_snapshot_with_a_config_entry(self, tmp_path):
        # Snapshots written before the positional mapping was fixed carry a
        # ``config`` entry naming it; recovery ignores it.
        directory = str(tmp_path)
        with open(snapshot_path(directory), "wb") as handle:
            handle.write(encode_frame({
                "t": "snapshot", "version": SNAPSHOT_VERSION, "generation": 1,
                "config": {"mapping_scheme": "monotonic"},
                "cells": [[1, 1, 5, None], [2, 1, 10, "R[-1]C[0]*2"]],
            }))
        with open(wal_path(directory, 1), "wb") as handle:
            handle.write(encode_frame(header_record()) + encode_frame(cell_record(3, 1, 7, None)))
        recovered = recover(directory)
        assert [recovered.get_value(row, 1) for row in (1, 2, 3)] == [5, 10, 7]
        recovered.set_value(1, 1, 6)
        assert recovered.get_value(2, 1) == 12
        recovered.close()


# ---------------------------------------------------------------------- #
# format versions: the log and the snapshot say which text they hold
# ---------------------------------------------------------------------- #
def _files(directory: str) -> dict[str, bytes]:
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))}


class TestFormatVersion:
    """Formula text is stored position-free.  A workspace of the format
    before it — A1 text, logs with no header, snapshots of version 1 — is
    refused loudly, with nothing on disk touched, never adopted as text
    that does not parse."""

    def test_every_generation_log_opens_with_a_header(self, tmp_path):
        directory = str(tmp_path)
        spread = DataSpread(durability="wal", storage_dir=directory)
        spread.set_value(1, 1, 1)
        first = next(decode_frames(open(wal_path(directory, 0), "rb").read()))
        spread.checkpoint()
        spread.set_value(1, 1, 2)
        second = next(decode_frames(open(wal_path(directory, 1), "rb").read()))
        spread.close()
        assert first == second == header_record() == {"t": "header", "version": WAL_VERSION}
        assert read_records(wal_path(directory, 1)) == [cell_record(1, 1, 2, None)]

    def test_a_log_without_a_header_is_refused(self, tmp_path):
        directory = str(tmp_path)
        with open(wal_path(directory, 0), "wb") as handle:
            handle.write(encode_frame(cell_record(1, 1, 5, None))
                         + encode_frame(cell_record(1, 2, None, "A1*2")))
        before = _files(directory)
        with pytest.raises(RecoveryError, match="header"):
            recover(directory)
        assert _files(directory) == before

    def test_a_header_of_another_version_is_refused(self, tmp_path):
        directory = str(tmp_path)
        with open(wal_path(directory, 0), "wb") as handle:
            handle.write(encode_frame({"t": "header", "version": 1})
                         + encode_frame(cell_record(1, 2, None, "A1*2")))
        before = _files(directory)
        with pytest.raises(RecoveryError, match="version 1"):
            recover(directory)
        assert _files(directory) == before

    def test_a_version_1_snapshot_is_refused(self, tmp_path):
        directory = str(tmp_path)
        with open(snapshot_path(directory), "wb") as handle:
            handle.write(encode_frame({
                "t": "snapshot", "version": 1, "generation": 1, "config": {},
                "cells": [[1, 1, 5, None], [2, 1, 10, "A1*2"]],
            }))
        open(wal_path(directory, 1), "wb").close()
        before = _files(directory)
        with pytest.raises(RecoveryError, match="version 1"):
            recover(directory)
        assert _files(directory) == before

    @pytest.mark.parametrize("kept", [0, FRAME_HEADER.size + 3])
    def test_a_log_whose_header_never_landed_is_empty(self, tmp_path, kept):
        # A crash before (or while) the header frame was written.
        directory = str(tmp_path)
        with open(wal_path(directory, 0), "wb") as handle:
            handle.write(encode_frame(header_record())[:kept])
        assert read_records(wal_path(directory, 0)) == []
        recovered = recover(directory)
        assert recovered.cell_count() == 0
        recovered.close()

    def test_a_header_only_log_is_no_durable_state(self, tmp_path):
        directory = str(tmp_path)
        DataSpread(durability="wal", storage_dir=directory).close()
        spread = DataSpread(durability="wal", storage_dir=directory)
        spread.close()
        assert read_records(wal_path(directory, 0)) == []

    @pytest.mark.parametrize("torn", ["header", "first commit"])
    def test_a_fresh_engine_over_a_torn_log_commits_recoverably(self, tmp_path, torn):
        # A log holding no record after its header is no durable state, so a
        # fresh engine may open it; its commits must not land after the torn
        # bytes, where the next recovery would read them as corruption.
        directory = str(tmp_path)
        header = encode_frame(header_record())
        first = encode_frame(cell_record(1, 1, 5, None))
        data = (header[:FRAME_HEADER.size + 3] if torn == "header"
                else header + first[:len(first) - 2])
        with open(wal_path(directory, 0), "wb") as handle:
            handle.write(data)
        assert read_records(wal_path(directory, 0)) == []
        spread = DataSpread(durability="wal", storage_dir=directory)
        spread.set_value(1, 1, 7)
        spread.set_formula(1, 2, "A1*2")
        spread.close()
        recovered = recover(directory)
        assert recovered.get_value(1, 1) == 7
        assert recovered.get_cell(1, 2).formula == "A1*2"
        assert recovered.get_value(1, 2) == 14
        recovered.close()


# ---------------------------------------------------------------------- #
# scheduler quarantine under the engine
# ---------------------------------------------------------------------- #
class TestQuarantineIntegration:
    def test_poisoned_formula_quarantined_with_error_value(self):
        spread = DataSpread(async_recompute=True)
        spread.set_value(1, 1, 1)
        spread.set_formula(1, 2, "A1+1")
        spread.set_formula(1, 3, "B1+1")
        calls = {"n": 0}
        original = spread._safe_evaluate

        def poisoned(formula, address=None):
            if address and (address.row, address.column) == (1, 2):
                calls["n"] += 1
                raise RuntimeError("evaluator bug")
            return original(formula, address)

        spread._safe_evaluate = poisoned
        spread.flush_compute()
        # Bounded retries, then quarantined as an error value; the drain
        # kept going and committed the dependent.
        assert calls["n"] == spread.compute_scheduler.max_evaluate_attempts
        assert spread.get_value(1, 2) == "#ERROR!"
        assert spread.get_cell(1, 2).formula == "A1+1"
        assert spread.get_value(1, 3) == "#VALUE!"  # arithmetic over the error value
        stats = spread.compute_scheduler.stats
        assert stats.quarantined == 1
        assert stats.quarantine_retries == spread.compute_scheduler.max_evaluate_attempts - 1
        assert list(spread.compute_scheduler.quarantined) != []

    def test_reedit_clears_quarantine(self):
        spread = DataSpread(async_recompute=True)
        spread.set_value(1, 1, 1)
        spread.set_formula(1, 2, "A1+1")
        original = spread._safe_evaluate
        state = {"poison": True}

        def flaky(formula, address=None):
            if state["poison"] and address and (address.row, address.column) == (1, 2):
                raise RuntimeError("still broken")
            return original(formula, address)

        spread._safe_evaluate = flaky
        spread.flush_compute()
        assert spread.get_value(1, 2) == "#ERROR!"
        state["poison"] = False
        spread.set_value(1, 1, 5)  # re-dirties the quarantined dependent
        spread.flush_compute()
        assert spread.get_value(1, 2) == 6
        assert not spread.compute_scheduler.quarantined

    def test_structural_edit_remaps_quarantine(self):
        spread = DataSpread(async_recompute=True)
        spread.set_value(1, 1, 1)
        spread.set_formula(10, 2, "A1+1")
        original = spread._safe_evaluate
        spread._safe_evaluate = lambda formula, address=None: (_ for _ in ()).throw(
            RuntimeError("poison")
        ) if address and address.column == 2 else original(formula, address)
        spread.flush_compute()
        assert spread.compute_scheduler.quarantined
        # The insert moves the quarantined cell but leaves its references
        # (and therefore its text) untouched, so the quarantine mark must
        # follow the cell rather than being cleared by a rewrite re-dirty.
        spread.insert_row_after(2, 3)
        quarantined = list(spread.compute_scheduler.quarantined)
        assert [(a.row, a.column) for a in quarantined] == [(13, 2)]


class TestRefusedConstructor:
    @pytest.mark.parametrize("option", [
        {"idle_drain_ms": -1}, {"cache_capacity": 0}])
    def test_refused_options_leave_no_open_log(self, tmp_path, monkeypatch, option):
        # A leaked file handle surfaces as a ResourceWarning when it is
        # collected; made an error, it reaches the unraisable hook.  Earlier
        # tests' garbage is collected first, outside the hook.
        gc.collect()
        leaks = []
        monkeypatch.setattr(sys, "unraisablehook", leaks.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            with pytest.raises(ValueError):
                DataSpread(durability="wal", storage_dir=str(tmp_path), **option)
            gc.collect()
        assert not leaks


# ---------------------------------------------------------------------- #
# crash-recovery fuzz (seeded; widened by ``make fuzz``)
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", seed_set(_FAST_CRASH_SEEDS))
def test_sync_crash_recovery(seed):
    run(seed, CRASH)


@pytest.mark.parametrize("seed", [1000 + seed for seed in seed_set(_FAST_CRASH_SEEDS)])
def test_async_crash_recovery(seed):
    run(seed, ASYNC_CRASH)
