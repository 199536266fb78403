"""Shared test support: the seeded fuzz harness, its invariant checker and
fault injection."""

from tests.support.faults import (  # noqa: F401
    FaultPlan,
    FaultyIO,
    SimulatedCrash,
)
from tests.support.harness import (  # noqa: F401
    ASYNC_CRASH,
    COMPARE_WINDOW,
    COMPOSED,
    CRASH,
    DATA_COLUMNS,
    DATA_ROWS,
    EQUIVALENCE,
    FORMULA_COLUMNS,
    MID_BATCH,
    OVERLOAD,
    REFCOUNT_CHURN,
    SESSIONS,
    Axes,
    Boom,
    apply_edit,
    apply_op,
    apply_structural,
    assert_matches_replay,
    assert_oracle_agrees,
    full_read_engine,
    random_edit,
    random_formula,
    random_structural,
    run,
)
from tests.support.invariants import check_engine, scan_dependents  # noqa: F401
