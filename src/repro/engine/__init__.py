"""The DataSpread execution engine (Section VI).

Ties together the storage engine pieces: the hybrid translator routing cell
operations to the owning data model, the LRU cell cache, the formula parser /
evaluator / dependency graph, and the hybrid optimizer.  Relational queries
and ``sql()`` run through :mod:`repro.query`, which the engine serves.
"""

from repro.engine.cache import LRUCellCache
from repro.engine.dataspread import DataSpread

__all__ = ["DataSpread", "LRUCellCache"]
