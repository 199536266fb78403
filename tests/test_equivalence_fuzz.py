"""Seeded, bounded-iteration randomized equivalence fuzzing.

Runs the one fuzz harness (``tests/support/harness.py``) over the presets
whose oracle is a replay on a fresh engine: interleavings of edits,
transactions, aborts, scheduling churn and **unbounded** structural edits
(beyond the stored extent, above the RCV catch-all anchor, at the
``MAX_ROWS``/``MAX_COLUMNS`` boundary) in both recompute modes, the
shared-range refcount churn, and ``COMPOSED`` — every axis at once.

The default seed set is small and deterministic so the suite rides in the
tier-1 run; ``make fuzz`` widens it via ``REPRO_FUZZ_SEEDS`` (e.g.
``REPRO_FUZZ_SEEDS=50`` runs seeds 1..50).  Every failure message carries
its seed, so a fuzz find replays as a one-seed run.
"""

from dataclasses import replace

import pytest

from tests.support import (
    COMPOSED,
    EQUIVALENCE,
    MID_BATCH,
    REFCOUNT_CHURN,
    run,
)
from tests.support.seeds import seed_set

#: Fast deterministic default (tier-1); disjoint from the seeds
#: tests/test_async_compute.py already runs.
_FAST_SEEDS = range(21, 27)


@pytest.mark.parametrize("seed", seed_set(_FAST_SEEDS))
def test_unbounded_interleavings_converge(seed):
    for recompute in ("sync", "async"):
        run(seed, replace(EQUIVALENCE, recompute=recompute))


@pytest.mark.parametrize("seed", [100 + seed for seed in seed_set(_FAST_SEEDS)])
def test_unbounded_mid_batch_structural_edits_converge(seed):
    for recompute in ("sync", "async"):
        run(seed, replace(MID_BATCH, recompute=recompute))


@pytest.mark.parametrize("seed", [200 + seed for seed in seed_set(_FAST_SEEDS)])
def test_refcount_churn_keeps_shared_state_bookkeeping_consistent(seed):
    run(seed, REFCOUNT_CHURN)


@pytest.mark.parametrize("seed", [300 + seed for seed in seed_set(range(1, 5))])
def test_composed_axes_converge(seed):
    metrics = run(seed, COMPOSED)
    assert metrics.get("crashed") or metrics["attempted"] > 0
