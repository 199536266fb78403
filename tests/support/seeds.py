"""Unified seed-count environment scheme for the randomized sweeps.

Every widened sweep reads one ``REPRO_*_SEEDS`` variable naming how many
seeds to run — ``REPRO_FUZZ_SEEDS=50`` means seeds 1..50.  Unset (or
empty), the sweep falls back to its fast deterministic tier-1 slice.  The
Makefile passes the same names through, so ``REPRO_FUZZ_SEEDS=100 make
fuzz`` and ``make fuzz REPRO_FUZZ_SEEDS=100`` behave identically.
"""

from __future__ import annotations

import os
from typing import Iterable


def seed_set(env: str, fast_seeds: Iterable[int]) -> list[int]:
    """The seed list a sweep should run.

    A non-empty ``env`` (a ``REPRO_*_SEEDS`` name) selects seeds ``1..n``;
    with it unset, the fast tier-1 ``fast_seeds`` slice runs instead.
    """
    requested = os.environ.get(env)
    if requested:
        return list(range(1, int(requested) + 1))
    return list(fast_seeds)
