"""Appendix C-A2 experiments: incremental hybrid maintenance (Figure 26).

A reproduction artefact, not a benchmark: the rows regenerate Figure 26(a)
and 26(b) at laptop scale; engine speed is measured by ``bench/``.
"""

from __future__ import annotations

import time

from repro.decomposition import decompose_aggressive, incremental_decompose
from repro.experiments.reporting import ExperimentResult
from repro.storage.costs import POSTGRES_COSTS
from repro.workloads.operations import apply_trace, generate_update_trace
from repro.workloads.synthetic import SyntheticSheetSpec, generate_synthetic_sheet


def _initial_sheet(scale: float, seed: int):
    spec = SyntheticSheetSpec(
        total_rows=max(int(300 * scale), 80),
        total_columns=30,
        table_count=5,
        density=0.5,
        formula_count=0,
        seed=seed,
    )
    return generate_synthetic_sheet(spec).sheet


def run_fig26a(*, scale: float = 1.0, seed: int = 13) -> ExperimentResult:
    """Figure 26(a): the η trade-off between migration effort and storage."""
    sheet = _initial_sheet(scale, seed)
    baseline = decompose_aggressive(sheet.coordinates(), POSTGRES_COSTS)
    # Let the sheet drift away from the plan it was optimised for.
    trace = generate_update_trace(sheet, count=int(600 * scale), seed=seed + 1)
    apply_trace(sheet, trace)
    coordinates = sheet.coordinates()

    rows = []
    for eta in (0.0, 0.1, 1.0, 10.0, 100.0, 1_000.0):
        started = time.perf_counter()
        result = incremental_decompose(
            coordinates, baseline.regions, POSTGRES_COSTS, eta=eta, algorithm="aggressive"
        )
        elapsed = time.perf_counter() - started
        rows.append({
            "eta": eta,
            "storage_cost": round(result.cost, 1),
            "migration_cells": result.metadata["migration_cells"],
            "migrated": result.metadata["migrated"],
            "optimise_ms": round(1000 * elapsed, 2),
        })
    return ExperimentResult(
        experiment_id="fig26a",
        title="Incremental maintenance: migration vs storage trade-off (η sweep)",
        rows=rows,
        paper_reference="Figure 26(a)",
        notes=[
            "Expected shape: small η migrates aggressively (low storage, many migrated cells); "
            "large η keeps the old plan (zero migration, higher storage).",
        ],
    )


def run_fig26b(*, scale: float = 1.0, seed: int = 19, batches: int = 8,
               batch_size: int = 400) -> ExperimentResult:
    """Figure 26(b): storage across batches of user actions (sawtooth)."""
    sheet = _initial_sheet(scale, seed)
    current_plan = decompose_aggressive(sheet.coordinates(), POSTGRES_COSTS)
    rows = [{
        "actions": 0,
        "actual_storage": round(current_plan.cost, 1),
        "optimal_storage": round(current_plan.cost, 1),
        "migrated": False,
    }]
    batch_size = max(int(batch_size * scale), 100)
    for batch in range(1, batches + 1):
        trace = generate_update_trace(sheet, count=batch_size, seed=seed + batch)
        apply_trace(sheet, trace)
        coordinates = sheet.coordinates()
        incremental = incremental_decompose(
            coordinates, current_plan.regions, POSTGRES_COSTS, eta=3.0, algorithm="aggressive"
        )
        optimal = decompose_aggressive(coordinates, POSTGRES_COSTS)
        rows.append({
            "actions": batch * batch_size,
            "actual_storage": round(incremental.cost, 1),
            "optimal_storage": round(optimal.cost, 1),
            "migrated": incremental.metadata["migrated"],
        })
        current_plan = incremental
    return ExperimentResult(
        experiment_id="fig26b",
        title="Incremental maintenance: storage vs user actions",
        rows=rows,
        paper_reference="Figure 26(b)",
        notes=[
            "Actual storage follows a sawtooth: it drifts above the optimum between migrations "
            "and drops back when the incremental optimiser decides to migrate (η = 1).",
        ],
    )

