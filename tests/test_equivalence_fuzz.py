"""Seeded, bounded-iteration randomized equivalence fuzzing.

Runs the shared harness (``tests/support/``) — randomized interleavings of
edits, batches, aborts, scheduling churn and **unbounded** structural edits
(beyond the stored extent, above the RCV catch-all anchor, at the
``MAX_ROWS``/``MAX_COLUMNS`` boundary) — and requires the async engine, the
sync engine and the ``Sheet`` oracle to agree cell-for-cell afterwards.

The default seed set is small and deterministic so the suite rides in the
tier-1 run; ``make fuzz`` widens it via the ``REPRO_FUZZ_SEEDS`` environment
variable (e.g. ``REPRO_FUZZ_SEEDS=50`` runs seeds 1..50).  Every failure
message carries its seed, so a fuzz find replays as a one-seed run.
"""

import pytest

from tests.support import (
    run_equivalence,
    run_mid_batch_equivalence,
    run_refcount_churn,
)
from tests.support.seeds import seed_set

#: Fast deterministic default (tier-1); disjoint from the seeds
#: tests/test_async_compute.py already runs.
_FAST_SEEDS = range(21, 27)


def _seed_set() -> list[int]:
    return seed_set("REPRO_FUZZ_SEEDS", _FAST_SEEDS)


@pytest.mark.parametrize("seed", _seed_set())
def test_unbounded_interleavings_converge(seed):
    run_equivalence(seed)


@pytest.mark.parametrize("seed", [100 + seed for seed in _seed_set()])
def test_unbounded_mid_batch_structural_edits_converge(seed):
    run_mid_batch_equivalence(seed)


@pytest.mark.parametrize("seed", [200 + seed for seed in _seed_set()])
def test_refcount_churn_keeps_shared_state_bookkeeping_consistent(seed):
    run_refcount_churn(seed)
