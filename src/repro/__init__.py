"""DataSpread storage-engine reproduction.

This package reproduces the storage engine described in *"Towards a Holistic
Integration of Spreadsheets with Databases: A Scalable Storage Engine for
Presentational Data Management"* (Bendre et al., ICDE 2018).

The public API is organised around a handful of entry points:

``repro.grid``
    The spreadsheet conceptual data model: cells, A1 addressing, ranges,
    sparse sheets, connected components and tabular-region detection.

``repro.formula``
    A spreadsheet formula engine (tokenizer, parser, evaluator, dependency
    graph) supporting the functions observed in the paper's corpus study.

``repro.storage``
    A pure-Python relational row-store substrate parameterised by the paper's
    cost constants, standing in for PostgreSQL.

``repro.models``
    The primitive data models (ROM, COM, RCV, TOM) and the hybrid data model.

``repro.decomposition``
    Hybrid-model optimisation: optimal recursive-decomposition dynamic
    programming, greedy and aggressive-greedy heuristics, weighted grids,
    bounds, and incremental maintenance.

``repro.positional``
    Positional mapping schemes: position-as-is, monotonic gapped keys, and
    hierarchical (order-statistic B+-tree) mapping.

``repro.engine``
    The DataSpread facade tying everything together: LRU cell cache, hybrid
    translator/optimizer, formula evaluation, linked tables, and the catalog
    that ``repro.query`` plans and runs against.

``repro.service``
    The multi-session workspace layer: named sessions over one shared
    engine, single-writer transactions with real savepoints, per-session
    viewports, and snapshot-isolated readers.

``repro.query``
    The generative relational query subsystem: composable ``select()``
    over grid regions and linked tables, the ``sql()`` parser, a pushdown
    planner, a streaming executor whose drained results are composite
    ``TableValue`` tables, and reactive live views.

``repro.workloads`` / ``repro.analysis`` / ``repro.experiments``
    Workload generators, corpus analysis, and the per-table/figure experiment
    harness used by the benchmark suite.
"""

from repro.grid.address import CellAddress, column_letter_to_index, column_index_to_letter
from repro.grid.range import RangeRef
from repro.grid.sheet import Sheet
from repro.engine.dataspread import DataSpread
from repro.query import avg, col, count, max_, min_, region, select, sum_, table
from repro.service import Workspace
from repro.storage.recovery import recover

__version__ = "1.0.0"

__all__ = [
    "CellAddress",
    "RangeRef",
    "Sheet",
    "DataSpread",
    "Workspace",
    "avg",
    "col",
    "column_letter_to_index",
    "column_index_to_letter",
    "count",
    "max_",
    "min_",
    "recover",
    "region",
    "select",
    "sum_",
    "table",
    "__version__",
]
