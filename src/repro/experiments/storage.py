"""Section VII-B experiments: Figures 13, 14, 15, 17 and 25.

These experiments compare the primitive data models (ROM, COM, RCV) against
the hybrid plans produced by DP, Greedy and Aggressive-Greedy, on storage and
on formula access time, under both the PostgreSQL and the "ideal database"
cost models.

A reproduction artefact, not a benchmark: the rows regenerate Figures 13-15,
17 and 25 at laptop scale; engine speed is measured by ``bench/``.
"""

from __future__ import annotations

import statistics
import time

from repro.decomposition import (
    decompose_aggressive,
    decompose_dp,
    decompose_greedy,
    evaluate_primitive_models,
    optimal_lower_bound,
    table_count_upper_bound,
)
from repro.experiments.reporting import ExperimentResult, normalize_to_worst
from repro.formula.evaluator import Evaluator
from repro.grid.sheet import Sheet
from repro.models.hybrid import HybridDataModel
from repro.models.rcv import RowColumnValueModel
from repro.models.rom import RowOrientedModel
from repro.storage.costs import IDEAL_COSTS, POSTGRES_COSTS, CostParameters
from repro.workloads.corpus import CORPUS_PROFILES, generate_corpus
from repro.workloads.synthetic import SyntheticSheetSpec, generate_synthetic_sheet

#: Sheets whose weighted grid exceeds this budget are excluded from the DP
#: averages, mirroring the paper's 10-minute DP cut-off for huge sheets.
DP_CELL_BUDGET = 4_096


def _corpus_specs(name: str, scale: float, seed: int):
    profile = CORPUS_PROFILES[name]
    count = max(3, int(profile.default_sheet_count * scale))
    return generate_corpus(profile, sheets=count, seed=seed)


def _sheet_costs(coordinates: set, costs: CostParameters) -> dict[str, float]:
    """Per-model storage cost of one sheet (plus the OPT lower bound)."""
    primitives = evaluate_primitive_models(coordinates, costs)
    results = {name: result.cost for name, result in primitives.items()}
    results["greedy"] = decompose_greedy(coordinates, costs).cost
    results["agg"] = decompose_aggressive(coordinates, costs).cost
    try:
        results["dp"] = decompose_dp(coordinates, costs, max_weighted_cells=DP_CELL_BUDGET).cost
    except ValueError:
        results["dp"] = float("nan")
    results["opt"] = optimal_lower_bound(coordinates, costs)
    return results


def _storage_figure(costs: CostParameters, *, scale: float, seed: int,
                    experiment_id: str, title: str, reference: str) -> ExperimentResult:
    rows = []
    for name in CORPUS_PROFILES:
        normalized_sums: dict[str, list[float]] = {}
        for spec in _corpus_specs(name, scale, seed):
            coordinates = spec.sheet.coordinates()
            if not coordinates:
                continue
            sheet_costs = _sheet_costs(coordinates, costs)
            if sheet_costs["dp"] != sheet_costs["dp"]:   # NaN: DP excluded
                continue
            normalized = normalize_to_worst(sheet_costs)
            for model_name, value in normalized.items():
                normalized_sums.setdefault(model_name, []).append(value)
        row: dict[str, object] = {"dataset": name}
        for model_name in ("rcv", "rom", "com", "dp", "greedy", "agg", "opt"):
            samples = normalized_sums.get(model_name, [])
            row[model_name] = round(statistics.mean(samples), 2) if samples else None
        rows.append(row)
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        rows=rows,
        paper_reference=reference,
        notes=[
            "Average storage per sheet, normalised so the worst model on each sheet is 100 "
            "(the paper's Figure 13 normalisation).",
        ],
    )


def run_fig13a(*, scale: float = 0.5, seed: int = 2018) -> ExperimentResult:
    """Figure 13(a): storage comparison under the PostgreSQL cost model."""
    return _storage_figure(
        POSTGRES_COSTS, scale=scale, seed=seed,
        experiment_id="fig13a",
        title="Storage comparison (PostgreSQL cost model)",
        reference="Figure 13(a)",
    )


def run_fig13b(*, scale: float = 0.5, seed: int = 2018) -> ExperimentResult:
    """Figure 13(b): storage comparison under the ideal cost model."""
    return _storage_figure(
        IDEAL_COSTS, scale=scale, seed=seed,
        experiment_id="fig13b",
        title="Storage comparison (ideal database cost model)",
        reference="Figure 13(b)",
    )


def run_fig14(*, scale: float = 0.5, seed: int = 2018) -> ExperimentResult:
    """Figure 14: distribution of the Theorem-4 upper bound on table counts."""
    buckets = (1, 2, 4, 6, 8, 10, float("inf"))
    rows = []
    for name in CORPUS_PROFILES:
        histogram = {f"<={edge}" if edge != float("inf") else ">10": 0 for edge in buckets}
        for spec in _corpus_specs(name, scale, seed):
            bound = table_count_upper_bound(spec.sheet.coordinates(), POSTGRES_COSTS)
            for edge in buckets:
                if bound <= edge:
                    key = f"<={edge}" if edge != float("inf") else ">10"
                    histogram[key] += 1
                    break
        row: dict[str, object] = {"dataset": name}
        row.update(histogram)
        rows.append(row)
    return ExperimentResult(
        experiment_id="fig14",
        title="Upper bound on #tables in the optimal decomposition",
        rows=rows,
        paper_reference="Figure 14",
        notes=["The paper observes ~90% of sheets have a bound below 10."],
    )


def run_fig15a(*, scale: float = 0.3, seed: int = 2018) -> ExperimentResult:
    """Figure 15(a): running time of the hybrid optimisation algorithms."""
    rows = []
    for name in CORPUS_PROFILES:
        timings: dict[str, list[float]] = {"dp": [], "greedy": [], "agg": []}
        for spec in _corpus_specs(name, scale, seed):
            coordinates = spec.sheet.coordinates()
            if not coordinates:
                continue
            greedy = decompose_greedy(coordinates, POSTGRES_COSTS)
            aggressive = decompose_aggressive(coordinates, POSTGRES_COSTS)
            timings["greedy"].append(greedy.elapsed_seconds)
            timings["agg"].append(aggressive.elapsed_seconds)
            try:
                dp = decompose_dp(coordinates, POSTGRES_COSTS, max_weighted_cells=DP_CELL_BUDGET)
                timings["dp"].append(dp.elapsed_seconds)
            except ValueError:
                continue
        rows.append({
            "dataset": name,
            "dp_ms": round(1000 * statistics.mean(timings["dp"]), 3) if timings["dp"] else None,
            "greedy_ms": round(1000 * statistics.mean(timings["greedy"]), 3),
            "agg_ms": round(1000 * statistics.mean(timings["agg"]), 3),
        })
    return ExperimentResult(
        experiment_id="fig15a",
        title="Hybrid optimisation running time",
        rows=rows,
        paper_reference="Figure 15(a)",
        notes=["Expected shape: DP slowest, Greedy fastest, Agg in between."],
    )


def run_fig15b(*, scale: float = 0.2, seed: int = 2018) -> ExperimentResult:
    """Figure 15(b): average formula access time for ROM, RCV and Agg."""
    rows = []
    for name in CORPUS_PROFILES:
        timings: dict[str, list[float]] = {"rom": [], "rcv": [], "agg": []}
        for spec in _corpus_specs(name, scale, seed):
            sheet = spec.sheet
            formulas = list(sheet.formulas())
            if not formulas:
                continue
            models = {
                "rom": RowOrientedModel.from_sheet(sheet),
                "rcv": RowColumnValueModel.from_sheet(sheet),
                "agg": HybridDataModel.from_decomposition(
                    sheet, decompose_aggressive(sheet.coordinates(), POSTGRES_COSTS).as_plan()
                ),
            }
            for model_name, model in models.items():
                evaluator = Evaluator(model.get_value, range_provider=model.get_values_dense)
                started = time.perf_counter()
                for _address, formula in formulas:
                    try:
                        evaluator.evaluate(formula)
                    except Exception:       # noqa: BLE001 - malformed corpus formulae are skipped
                        continue
                elapsed = time.perf_counter() - started
                timings[model_name].append(elapsed / len(formulas))
        rows.append({
            "dataset": name,
            "rom_ms": round(1000 * statistics.mean(timings["rom"]), 4) if timings["rom"] else None,
            "rcv_ms": round(1000 * statistics.mean(timings["rcv"]), 4) if timings["rcv"] else None,
            "agg_ms": round(1000 * statistics.mean(timings["agg"]), 4) if timings["agg"] else None,
        })
    return ExperimentResult(
        experiment_id="fig15b",
        title="Average access time per formula",
        rows=rows,
        paper_reference="Figure 15(b)",
        notes=["Expected shape: Agg <= ROM << RCV on formula-heavy sheets."],
    )


def run_fig17(*, scale: float = 1.0, seed: int = 7) -> ExperimentResult:
    """Figure 17: storage and formula access time on large synthetic sheets."""
    densities = (0.8, 0.6, 0.4, 0.2)
    base_rows = int(600 * scale) or 100
    rows = []
    for density in densities:
        spec = SyntheticSheetSpec(
            total_rows=base_rows,
            total_columns=60,
            table_count=8,
            density=density,
            formula_count=30,
            seed=seed,
        )
        synthetic = generate_synthetic_sheet(spec)
        sheet = synthetic.sheet
        coordinates = sheet.coordinates()
        primitives = evaluate_primitive_models(coordinates, POSTGRES_COSTS)
        aggressive = decompose_aggressive(coordinates, POSTGRES_COSTS)
        access = _formula_access_times(sheet, aggressive)
        rows.append({
            "density": density,
            "rom_storage": round(primitives["rom"].cost / 1024, 1),
            "rcv_storage": round(primitives["rcv"].cost / 1024, 1),
            "agg_storage": round(aggressive.cost / 1024, 1),
            "rom_access_ms": access["rom"],
            "rcv_access_ms": access["rcv"],
            "agg_access_ms": access["agg"],
        })
    return ExperimentResult(
        experiment_id="fig17",
        title="Synthetic sheets: storage (KB) and formula access time",
        rows=rows,
        paper_reference="Figure 17",
        notes=["Expected shape: Agg <= ROM <= RCV for storage; RCV closes the gap as density falls."],
    )


def run_fig25(*, seed: int = 5, **_options) -> ExperimentResult:
    """Figure 25: storage drill-down on four structurally different sample sheets."""
    samples = {
        "sheet1-dense-tall": _dense_sample(rows=200, columns=12, seed=seed),
        "sheet2-dense-wide": _dense_sample(rows=12, columns=200, seed=seed + 1),
        "sheet3-mixed": _mixed_sample(seed=seed + 2),
        "sheet4-sparse-form": _sparse_sample(seed=seed + 3),
    }
    rows = []
    for name, sheet in samples.items():
        coordinates = sheet.coordinates()
        sheet_costs = _sheet_costs(coordinates, POSTGRES_COSTS)
        normalized = normalize_to_worst(
            {key: value for key, value in sheet_costs.items() if key != "opt"}
        )
        row: dict[str, object] = {"sheet": name}
        row.update({key: round(value, 1) for key, value in normalized.items()})
        rows.append(row)
    return ExperimentResult(
        experiment_id="fig25",
        title="Storage comparison for sample spreadsheets (normalised)",
        rows=rows,
        paper_reference="Figure 25",
    )


# ---------------------------------------------------------------------- #
def _formula_access_times(sheet: Sheet, aggressive_plan) -> dict[str, float]:
    formulas = list(sheet.formulas())
    models = {
        "rom": RowOrientedModel.from_sheet(sheet),
        "rcv": RowColumnValueModel.from_sheet(sheet),
        "agg": HybridDataModel.from_decomposition(sheet, aggressive_plan.as_plan()),
    }
    results = {}
    for model_name, model in models.items():
        evaluator = Evaluator(model.get_value, range_provider=model.get_values_dense)
        started = time.perf_counter()
        for _address, formula in formulas:
            try:
                evaluator.evaluate(formula)
            except Exception:               # noqa: BLE001
                continue
        elapsed = time.perf_counter() - started
        results[model_name] = round(1000 * elapsed / max(len(formulas), 1), 4)
    return results


def _dense_sample(*, rows: int, columns: int, seed: int) -> Sheet:
    from repro.workloads.synthetic import generate_dense_sheet

    return generate_dense_sheet(rows, columns, seed=seed)


def _mixed_sample(*, seed: int) -> Sheet:
    from repro.workloads.synthetic import generate_dense_sheet

    sheet = generate_dense_sheet(80, 10, seed=seed)
    sparse = generate_dense_sheet(40, 3, density=0.4, seed=seed + 1, top=200, left=30)
    for address, cell in sparse.items():
        sheet.set_cell(address.row, address.column, cell)
    return sheet


def _sparse_sample(*, seed: int) -> Sheet:
    from repro.workloads.corpus import CORPUS_PROFILES, generate_sheet
    import random

    profile = CORPUS_PROFILES["academic"]
    return generate_sheet(profile, random.Random(seed), name="sample-sparse").sheet
