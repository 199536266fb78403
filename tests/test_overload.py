"""Overload-safe serving: admission control, deadlines, retry, reaper.

Covers the serving layer's graceful-degradation contract:

* admission control sheds non-coalescing async edits past the queue
  quota with a retryable, hint-carrying error — and never refuses
  committed transactional work;
* deadline-bounded reads degrade to the last *committed* value, tagged
  with staleness metadata — never an uncommitted placeholder, never a
  lost committed edit;
* the shared retry policy backs off deterministically (virtual clocks,
  Weyl-sequence jitter) and honours server ``retry_after_ms`` hints;
* the transaction reaper rolls expired idle transactions back through
  the savepoint/undo machinery, releasing write-locks and expiring the
  zombie session;
* ``health()`` snapshots and quarantine requeue close the operator loop;
* the latency-chaos fuzz drives all of it at once against a synchronous
  replay oracle (``REPRO_FUZZ_SEEDS`` widens the sweep — ``make
  fuzz``).

Everything runs on virtual time: a regression test pins that no hot path
in ``src/repro`` ever calls ``time.sleep`` directly.
"""

from __future__ import annotations

import pathlib
import re

import pytest

from repro.engine.dataspread import DataSpread
from repro.errors import (
    EngineOverloadedError,
    SessionError,
    SessionExpiredError,
    SnapshotInvalidatedError,
    TransactionBusyError,
)
from repro.service import Workspace
from repro.service.retry import RetryPolicy, _jitter_fraction
from repro.storage.wal import WALWriter

from tests.support.faults import LatencyPlan, VirtualClock
from tests.support.harness import OVERLOAD, run
from tests.support.seeds import seed_set

#: Tier-1 slice of the latency-chaos sweep (widened via REPRO_FUZZ_SEEDS).
FAST_CHAOS_SEEDS = range(1, 9)


# ---------------------------------------------------------------------- #
# error taxonomy
# ---------------------------------------------------------------------- #
class TestErrorTaxonomy:
    def test_overload_error_is_a_session_error(self):
        assert issubclass(EngineOverloadedError, SessionError)

    def test_session_expired_error_is_a_session_error(self):
        assert issubclass(SessionExpiredError, SessionError)

    def test_overload_error_carries_retry_hint(self):
        error = EngineOverloadedError("queue full", retry_after_ms=12.5)
        assert error.retry_after_ms == 12.5

    def test_busy_error_names_both_sessions(self):
        ws = Workspace()
        holder = ws.open_session("holder")
        intruder = ws.open_session("intruder")
        with holder.batch():
            holder.set_value(1, 1, 1)
            with pytest.raises(TransactionBusyError) as info:
                with intruder.batch():
                    pass  # pragma: no cover
            assert "'intruder'" in str(info.value)
            assert "'holder'" in str(info.value)
        ws.close()

    def test_write_lock_refusal_names_both_sessions(self):
        ws = Workspace()
        holder = ws.open_session("holder")
        intruder = ws.open_session("intruder")
        with holder.batch():
            holder.set_value(1, 1, "locked")
            with pytest.raises(TransactionBusyError) as info:
                intruder.set_value(1, 1, "clobber")
            assert "'intruder'" in str(info.value)
            assert "'holder'" in str(info.value)
        ws.close()

    def test_invalidated_snapshot_names_owning_session(self):
        ws = Workspace()
        reader = ws.open_session("watcher")
        writer = ws.open_session("mover")
        reader.set_value(1, 1, 1)
        snapshot = reader.read_snapshot()
        writer.insert_row_after(0)
        with pytest.raises(SnapshotInvalidatedError) as info:
            snapshot.get_value(1, 1)
        assert "'watcher'" in str(info.value)
        ws.close()


# ---------------------------------------------------------------------- #
# admission control & backpressure
# ---------------------------------------------------------------------- #
def _fill_queue(spread: DataSpread, formulas: int) -> None:
    """Queue ``formulas`` stale formula cells without draining any."""
    spread.set_value(1, 1, 7)
    for index in range(formulas):
        spread.set_formula(2 + index, 2, "=A1*2")


class TestAdmissionControl:
    def test_edit_past_global_quota_is_shed(self):
        spread = DataSpread(async_recompute=True, max_pending_compute=3)
        _fill_queue(spread, 3)
        with pytest.raises(EngineOverloadedError) as info:
            spread.set_formula(10, 2, "=A1+1")
        assert info.value.retry_after_ms > 0
        assert spread.compute_scheduler.stats.shed == 1
        # The refused edit never mutated the grid.
        assert spread.get_cell(10, 2).formula is None

    def test_coalescing_edit_is_always_admitted(self):
        spread = DataSpread(async_recompute=True, max_pending_compute=3)
        _fill_queue(spread, 3)
        # Rewriting an already-queued cell adds no depth: admitted.
        spread.set_formula(2, 2, "=A1*3")
        spread.flush_compute()
        assert spread.get_value(2, 2) == 21

    def test_drain_reopens_admission(self):
        spread = DataSpread(async_recompute=True, max_pending_compute=3)
        _fill_queue(spread, 3)
        with pytest.raises(EngineOverloadedError):
            spread.set_formula(10, 2, "=A1+1")
        spread.flush_compute()
        spread.set_formula(10, 2, "=A1+1")
        spread.flush_compute()
        assert spread.get_value(10, 2) == 8

    def test_committed_batch_work_is_never_refused(self):
        spread = DataSpread(async_recompute=True, max_pending_compute=2)
        # The batch's dirty set far exceeds the quota; commit must not shed.
        with spread.batch():
            spread.set_value(1, 1, 5)
            for index in range(8):
                spread.set_formula(2 + index, 2, "=A1*2")
        assert spread.compute_scheduler.stats.shed == 0
        spread.flush_compute()
        assert spread.get_value(9, 2) == 10

    def test_per_session_quota_isolates_noisy_writer(self):
        ws = Workspace(max_pending_per_owner=2)
        noisy = ws.open_session("noisy")
        polite = ws.open_session("polite")
        noisy.set_value(1, 1, 1)
        ws.flush()
        noisy.set_formula(2, 2, "=A1*2")
        noisy.set_formula(3, 2, "=A1*3")
        with pytest.raises(EngineOverloadedError):
            noisy.set_formula(4, 2, "=A1*4")
        # The other session still has queue budget of its own.
        polite.set_formula(10, 2, "=A1*5")
        assert ws.shed_count == 1
        ws.flush()
        assert polite.get_value(10, 2) == 5
        ws.close()

    def test_high_water_mark_is_tracked(self):
        spread = DataSpread(async_recompute=True)
        _fill_queue(spread, 4)
        assert spread.compute_scheduler.stats.high_water >= 4
        spread.flush_compute()
        assert spread.compute_scheduler.pending_count == 0


# ---------------------------------------------------------------------- #
# deadlines & degraded reads
# ---------------------------------------------------------------------- #
def _deadline_workspace(clock: VirtualClock, **kwargs) -> Workspace:
    return Workspace(clock=clock, **kwargs)


class TestDeadlineReads:
    def test_met_deadline_serves_fresh(self):
        clock = VirtualClock()
        ws = _deadline_workspace(clock)
        session = ws.open_session("s")
        session.set_value(1, 1, 6)
        session.set_formula(1, 2, "=A1*2")
        read = session.value(1, 2, deadline_ms=50.0)
        assert read.fresh and not read.degraded and read.value == 12
        ws.close()

    def test_missed_deadline_degrades_to_committed_value(self):
        clock = VirtualClock()
        ws = _deadline_workspace(clock)
        session = ws.open_session("s")
        session.set_value(1, 1, 6)
        session.set_formula(1, 2, "=A1*2")
        ws.flush()
        # Make the dependent stale again, with evaluation too slow for
        # the deadline: the read must serve the last committed value.
        plan = LatencyPlan(clock, base_seconds=1.0)
        plan.install(ws.engine.compute_scheduler)
        session.set_value(1, 1, 50)
        read = session.value(1, 2, deadline_ms=0, allow_stale=True)
        assert not read.fresh and read.degraded
        assert read.value == 12  # the committed result, not a placeholder
        assert read.retry_after_ms > 0
        assert ws.stale_serve_count == 1
        # The committed edit is never lost: chaos off, drain, fresh read.
        plan.uninstall(ws.engine.compute_scheduler)
        ws.flush()
        assert session.value(1, 2).value == 100
        ws.close()

    def test_missed_deadline_without_allow_stale_raises(self):
        clock = VirtualClock()
        ws = _deadline_workspace(clock)
        session = ws.open_session("reader")
        session.set_value(1, 1, 6)
        session.set_formula(1, 2, "=A1*2")
        with pytest.raises(EngineOverloadedError) as info:
            session.value(1, 2, deadline_ms=0)
        assert "'reader'" in str(info.value)
        assert info.value.retry_after_ms > 0
        ws.close()

    def test_fresh_formula_never_leaks_a_placeholder(self):
        clock = VirtualClock()
        ws = _deadline_workspace(clock)
        session = ws.open_session("s")
        session.set_value(1, 1, 3)
        # A brand-new never-evaluated formula keeps serving the cell's
        # previous committed value while stale.
        session.set_value(1, 2, "previous")
        read = session.value(1, 2, deadline_ms=0, allow_stale=True)
        assert read.fresh and read.value == "previous"
        session.set_formula(1, 2, "=A1*10")
        read = session.value(1, 2, deadline_ms=0, allow_stale=True)
        assert read.degraded and read.value == "previous"
        ws.flush()
        assert session.value(1, 2).value == 30
        ws.close()

    def test_deadline_bounds_a_slow_drain(self):
        clock = VirtualClock()
        ws = _deadline_workspace(clock)
        session = ws.open_session("s")
        session.set_value(1, 1, 1)
        # A chain: B1 reads A1, C1 reads B1, D1 reads C1.
        session.set_formula(1, 2, "=A1+1")
        session.set_formula(1, 3, "=B1+1")
        session.set_formula(1, 4, "=C1+1")
        plan = LatencyPlan(clock, base_seconds=0.010)
        plan.install(ws.engine.compute_scheduler)
        # 15ms buys one evaluation plus the one-evaluation overshoot the
        # progress guarantee allows; the chain's tail stays queued.
        read = session.value(1, 4, deadline_ms=15.0, allow_stale=True)
        assert read.degraded
        assert ws.engine.compute_pending > 0
        plan.uninstall(ws.engine.compute_scheduler)
        ws.flush()
        assert session.value(1, 4).value == 4
        ws.close()

    def test_flush_compute_timeout_stops_cooperatively(self):
        clock = VirtualClock()
        spread = DataSpread(async_recompute=True, clock=clock)
        spread.set_value(1, 1, 1)
        for index in range(6):
            spread.set_formula(2 + index, 2, "=A1*2")
        plan = LatencyPlan(clock, base_seconds=0.010)
        plan.install(spread.compute_scheduler)
        done = spread.flush_compute(timeout_ms=25.0)
        assert 0 < done < 6
        assert spread.compute_pending == 6 - done
        plan.uninstall(spread.compute_scheduler)
        spread.flush_compute()
        assert spread.compute_pending == 0


# ---------------------------------------------------------------------- #
# retry policy
# ---------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_backoff_schedule_is_deterministic(self):
        first = RetryPolicy(base_delay_ms=1.0, multiplier=2.0, jitter=0.25)
        second = RetryPolicy(base_delay_ms=1.0, multiplier=2.0, jitter=0.25)
        schedule = [first.delay_ms(attempt) for attempt in range(5)]
        assert schedule == [second.delay_ms(attempt) for attempt in range(5)]
        # Exponential growth underneath the deterministic jitter.
        bare = [delay / (1.0 + 0.25 * _jitter_fraction(n))
                for n, delay in enumerate(schedule)]
        assert bare == pytest.approx([1.0, 2.0, 4.0, 8.0, 16.0])

    def test_backoff_is_capped(self):
        policy = RetryPolicy(base_delay_ms=1.0, multiplier=10.0,
                             max_delay_ms=5.0, jitter=0.0)
        assert policy.delay_ms(0) == 1.0
        assert policy.delay_ms(3) == 5.0

    def test_server_hint_wins_when_larger(self):
        policy = RetryPolicy(base_delay_ms=1.0, jitter=0.0)
        assert policy.delay_ms(0, hint_ms=40.0) == 40.0
        assert policy.delay_ms(0, hint_ms=0.1) == 1.0

    def test_call_retries_then_succeeds_on_virtual_time(self):
        clock = VirtualClock()
        policy = RetryPolicy(max_attempts=5, jitter=0.0,
                             clock=clock, sleep=clock.sleep)
        attempts = []

        def operation():
            attempts.append(clock())
            if len(attempts) < 3:
                raise EngineOverloadedError("busy", retry_after_ms=10.0)
            return "done"

        assert policy.call(operation) == "done"
        assert len(attempts) == 3
        # Each backoff honoured the 10ms server hint on the virtual clock.
        assert attempts[1] - attempts[0] == pytest.approx(0.010)

    def test_final_failure_reraises_unchanged(self):
        clock = VirtualClock()
        policy = RetryPolicy(max_attempts=2, clock=clock, sleep=clock.sleep)
        with pytest.raises(TransactionBusyError):
            policy.call(lambda: (_ for _ in ()).throw(
                TransactionBusyError("still held")))

    def test_non_transient_errors_pass_straight_through(self):
        policy = RetryPolicy(sleep=lambda _s: None)
        calls = []

        def operation():
            calls.append(1)
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            policy.call(operation)
        assert len(calls) == 1

    def test_session_retrying_uses_workspace_policy(self):
        clock = VirtualClock()
        policy = RetryPolicy(max_attempts=3, jitter=0.0,
                             clock=clock, sleep=clock.sleep)
        ws = Workspace(clock=clock, retry_policy=policy)
        session = ws.open_session("s")
        attempts = []

        def operation():
            attempts.append(1)
            if len(attempts) < 2:
                raise TransactionBusyError("held")
            return "committed"

        assert session.retrying(operation) == "committed"
        assert len(attempts) == 2
        ws.close()

    def test_wal_writer_reproduces_legacy_schedule(self, tmp_path):
        sleeps = []
        writer = WALWriter(str(tmp_path / "log.wal"), max_retries=3,
                           backoff_seconds=0.001, sleep=sleeps.append)
        # The shared policy must encode the historical inline loop:
        # backoff * 2**attempt, no jitter, no cap, attempts = retries + 1.
        assert writer._policy.max_attempts == 4
        assert writer._policy.jitter == 0.0
        assert [writer._policy.delay_ms(n) for n in range(3)] == [1.0, 2.0, 4.0]
        writer.close()


# ---------------------------------------------------------------------- #
# transaction reaper
# ---------------------------------------------------------------------- #
class TestReaper:
    def _workspace(self, clock: VirtualClock, lease_ms: float = 100.0) -> Workspace:
        return Workspace(clock=clock,
                         session_lease_ms=lease_ms)

    def test_idle_transaction_is_reaped_and_locks_release(self):
        clock = VirtualClock()
        ws = self._workspace(clock)
        zombie = ws.open_session("zombie")
        other = ws.open_session("other")
        zombie.set_value(1, 1, "committed")
        handle = zombie.savepoint()
        zombie.set_value(1, 2, "buffered")
        with pytest.raises(TransactionBusyError):
            other.set_value(1, 2, "blocked")
        clock.advance(1.0)
        assert ws.reap() == ["zombie"]
        assert ws.reaped_count == 1
        # The write-lock died with the transaction.
        other.set_value(1, 2, "unblocked")
        assert other.get_value(1, 2) == "unblocked"
        # Committed work survives; the buffered write is gone.
        assert other.get_value(1, 1) == "committed"
        # The zombie handle is expired everywhere.
        with pytest.raises(SessionExpiredError):
            zombie.get_value(1, 1)
        with pytest.raises(SessionExpiredError):
            zombie.set_value(2, 2, "late")
        with pytest.raises(SessionExpiredError):
            handle.release()
        ws.close()

    def test_heartbeat_defers_the_reaper(self):
        clock = VirtualClock()
        ws = self._workspace(clock)
        session = ws.open_session("alive")
        session.savepoint()
        for _ in range(5):
            clock.advance(0.05)  # 50ms < the 100ms lease each time
            session.heartbeat()
            assert ws.reap() == []
        clock.advance(1.0)
        assert ws.reap() == ["alive"]
        ws.close()

    def test_ops_heartbeat_implicitly(self):
        clock = VirtualClock()
        ws = self._workspace(clock)
        session = ws.open_session("busy")
        session.savepoint()
        clock.advance(0.08)
        session.set_value(1, 1, 1)  # any op renews the lease
        clock.advance(0.08)
        assert ws.reap() == []  # only 80ms idle since the last op
        ws.close()

    def test_no_lease_means_no_reaping(self):
        clock = VirtualClock()
        ws = Workspace(clock=clock)
        session = ws.open_session("s")
        session.savepoint()
        clock.advance(3600.0)
        assert ws.reap() == []
        ws.close()

    def test_sessions_without_transactions_are_never_reaped(self):
        clock = VirtualClock()
        ws = self._workspace(clock)
        ws.open_session("idle-reader")
        clock.advance(3600.0)
        assert ws.reap() == []
        ws.close()

    def test_zombie_batch_exit_raises_session_expired(self):
        clock = VirtualClock()
        ws = self._workspace(clock)
        zombie = ws.open_session("zombie")
        context = zombie.batch()
        context.__enter__()
        zombie.set_value(1, 1, "doomed")
        clock.advance(1.0)
        assert ws.reap() == ["zombie"]
        with pytest.raises(SessionExpiredError):
            context.__exit__(None, None, None)
        ws.close()

    def test_structural_commit_point_survives_the_reap(self):
        clock = VirtualClock()
        ws = self._workspace(clock)
        zombie = ws.open_session("zombie")
        handle = zombie.savepoint()
        zombie.set_value(5, 1, "pre-barrier")
        # The structural edit is a commit point: it flushes the buffered
        # write before shifting coordinates.
        zombie.insert_row_after(1)
        zombie.set_value(20, 1, "post-barrier")
        clock.advance(1.0)
        assert ws.reap() == ["zombie"]
        survivor = ws.open_session("survivor")
        # Pre-barrier work committed (shifted one row down); post dropped.
        assert survivor.get_value(6, 1) == "pre-barrier"
        assert survivor.get_value(20, 1) is None
        with pytest.raises(SessionExpiredError):
            handle.rollback()
        ws.close()

    def test_reaped_name_can_reopen(self):
        clock = VirtualClock()
        ws = self._workspace(clock)
        first = ws.open_session("worker")
        first.savepoint()
        clock.advance(1.0)
        assert ws.reap() == ["worker"]
        second = ws.open_session("worker")
        second.set_value(1, 1, "fresh start")
        assert second.get_value(1, 1) == "fresh start"
        ws.close()


# ---------------------------------------------------------------------- #
# health & quarantine requeue
# ---------------------------------------------------------------------- #
class TestHealthAndQuarantine:
    def test_health_snapshot_shape(self):
        clock = VirtualClock()
        ws = Workspace(clock=clock,
                       session_lease_ms=250.0)
        session = ws.open_session("client")
        session.set_value(1, 1, 1)
        session.set_formula(1, 2, "=A1*2")
        snapshot = ws.health()
        for key in ("pending", "pending_by_owner", "high_water", "shed",
                    "stale_serves", "reaped_transactions", "quarantined",
                    "in_transaction", "sessions", "transaction_owner",
                    "lease_ms"):
            assert key in snapshot, key
        assert snapshot["pending"] == 1
        assert snapshot["pending_by_owner"] == {"client": 1}
        assert snapshot["lease_ms"] == 250.0
        assert snapshot["sessions"]["client"]["idle_ms"] == 0.0
        ws.close()

    @staticmethod
    def _poison(scheduler, addresses) -> None:
        """Make evaluating the given cells raise, via ``before_evaluate``."""
        doomed = set(addresses)

        def hook(address):
            if address in doomed:
                raise RuntimeError("poisoned evaluation")

        scheduler.before_evaluate = hook

    def test_quarantined_cell_surfaces_and_requeues(self):
        from repro.grid.address import CellAddress

        spread = DataSpread(async_recompute=True)
        scheduler = spread.compute_scheduler
        spread.set_value(1, 1, 4)
        self._poison(scheduler, [CellAddress(1, 2)])
        spread.set_formula(1, 2, "=A1*2")
        spread.flush_compute()
        health = spread.health()
        assert "B1" in health["quarantined"]
        assert spread.get_value(1, 2) == "#ERROR!"
        # Lift the fault, requeue, and the cell heals.
        scheduler.before_evaluate = None
        assert scheduler.requeue_quarantined() == 1
        spread.flush_compute()
        assert spread.health()["quarantined"] == {}
        assert spread.get_value(1, 2) == 8

    def test_requeue_specific_address_only(self):
        from repro.grid.address import CellAddress

        spread = DataSpread(async_recompute=True)
        scheduler = spread.compute_scheduler
        spread.set_value(1, 1, 4)
        self._poison(scheduler, [CellAddress(1, 2), CellAddress(1, 3)])
        spread.set_formula(1, 2, "=A1*2")
        spread.set_formula(1, 3, "=A1*3")
        spread.flush_compute()
        assert len(scheduler.quarantined) == 2
        scheduler.before_evaluate = None
        assert scheduler.requeue_quarantined([CellAddress(1, 2)]) == 1
        spread.flush_compute()
        assert spread.get_value(1, 2) == 8
        assert spread.get_value(1, 3) == "#ERROR!"

    def test_workspace_counters_surface(self):
        clock = VirtualClock()
        ws = Workspace(clock=clock,
                       max_pending_compute=2, session_lease_ms=100.0)
        session = ws.open_session("s")
        session.set_value(1, 1, 1)
        ws.flush()
        session.set_formula(2, 2, "=A1*2")
        session.set_formula(3, 2, "=A1*2")
        with pytest.raises(EngineOverloadedError):
            session.set_formula(4, 2, "=A1*2")
        assert ws.shed_count == 1
        session.value(2, 2, deadline_ms=0, allow_stale=True)
        assert ws.stale_serve_count == 1
        session.savepoint()
        clock.advance(1.0)
        ws.reap()
        assert ws.reaped_count == 1
        ws.close()


# ---------------------------------------------------------------------- #
# no real sleeps in the hot paths
# ---------------------------------------------------------------------- #
class TestNoRealSleep:
    def test_no_time_sleep_call_sites_in_src(self):
        """Every delay must flow through an injectable ``sleep``/``clock``.

        ``time.sleep`` may appear as an injectable *default* (a bare
        reference), but a direct call site would block tier-1 tests on
        real time — the deterministic-time sweep forbids it.
        """
        root = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
        offenders = []
        for path in sorted(root.rglob("*.py")):
            for number, line in enumerate(path.read_text().splitlines(), 1):
                if re.search(r"\btime\.sleep\(", line):
                    offenders.append(f"{path}:{number}: {line.strip()}")
        assert not offenders, "\n".join(offenders)


# ---------------------------------------------------------------------- #
# latency-chaos fuzz
# ---------------------------------------------------------------------- #
class TestChaosFuzz:
    @pytest.mark.parametrize("seed", seed_set(FAST_CHAOS_SEEDS))
    def test_overload_chaos(self, seed):
        metrics = run(seed, OVERLOAD)
        # Convergence and boundedness are asserted inside the harness;
        # here, pin that the run exercised the serving layer at all.
        assert metrics["attempted"] > 0
