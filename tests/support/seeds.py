"""The one seed knob of the randomized sweeps.

``REPRO_FUZZ_SEEDS=50`` runs seeds 1..50 of every sweep; unset (or empty),
each sweep runs its fast deterministic tier-1 slice instead.  The Makefile
passes the same name through, so ``REPRO_FUZZ_SEEDS=100 make fuzz`` and
``make fuzz REPRO_FUZZ_SEEDS=100`` behave identically.
"""

from __future__ import annotations

import os
from typing import Iterable


def seed_set(fast_seeds: Iterable[int], *, env: str = "REPRO_FUZZ_SEEDS") -> list[int]:
    """The seed list a sweep should run: ``1..n`` when ``env`` holds ``n``,
    else the fast tier-1 ``fast_seeds`` slice."""
    requested = os.environ.get(env)
    if requested:
        return list(range(1, int(requested) + 1))
    return list(fast_seeds)
