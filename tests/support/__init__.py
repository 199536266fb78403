"""Shared test support machinery (randomized-equivalence harness)."""

from tests.support.faults import (  # noqa: F401
    FaultPlan,
    FaultyIO,
    SimulatedCrash,
)
from tests.support.harness import (  # noqa: F401
    COMPARE_WINDOW,
    DATA_COLUMNS,
    DATA_ROWS,
    FORMULA_COLUMNS,
    Boom,
    apply_edit,
    apply_op,
    apply_structural,
    assert_engines_agree,
    assert_matches_replay,
    assert_oracle_agrees,
    full_read_engine,
    random_edit,
    random_formula,
    random_structural,
    run_async_crash_recovery,
    run_crash_recovery,
    run_equivalence,
    run_mid_batch_equivalence,
    run_refcount_churn,
    run_session_interleaving,
    scan_dependents,
)
