"""Section II experiments: Table I and Figures 2-6.

A reproduction artefact, not a benchmark: the rows regenerate the corpus
study over synthetic corpora; engine speed is measured by ``bench/``.
"""

from __future__ import annotations

from repro.analysis.histograms import (
    component_density_histogram,
    density_histogram,
    formula_function_distribution,
    tables_per_sheet_histogram,
)
from repro.analysis.stats import analyze_corpus
from repro.experiments.reporting import ExperimentResult
from repro.workloads.corpus import CORPUS_PROFILES, generate_corpus
from repro.workloads.survey import SURVEY_OPERATIONS

_DEFAULT_SHEETS = 30


def _corpus_sheets(profile_name: str, scale: float, seed: int) -> list:
    profile = CORPUS_PROFILES[profile_name]
    count = max(4, int(profile.default_sheet_count * scale))
    return [spec.sheet for spec in generate_corpus(profile, sheets=count, seed=seed)]


def run_table1(*, scale: float = 1.0, seed: int = 2018) -> ExperimentResult:
    """Table I: preliminary statistics of the four spreadsheet corpora."""
    rows = []
    for name in CORPUS_PROFILES:
        sheets = _corpus_sheets(name, scale, seed)
        rows.append(analyze_corpus(name, sheets).as_row())
    return ExperimentResult(
        experiment_id="table1",
        title="Spreadsheet corpora: preliminary statistics",
        rows=rows,
        paper_reference="Table I",
        notes=[
            "Corpora are seeded synthetic equivalents calibrated to the paper's aggregate "
            "statistics (see DESIGN.md); absolute sheet counts are scaled down."
        ],
    )


def run_fig2(*, scale: float = 1.0, seed: int = 2018) -> ExperimentResult:
    """Figure 2: per-corpus sheet density histograms."""
    rows = []
    for name in CORPUS_PROFILES:
        histogram = density_histogram(_corpus_sheets(name, scale, seed))
        row: dict[str, object] = {"dataset": name}
        row.update({f"density<={edge:.1f}": count for edge, count in histogram.items()})
        rows.append(row)
    return ExperimentResult(
        experiment_id="fig2",
        title="Sheet density distribution",
        rows=rows,
        paper_reference="Figure 2",
    )


def run_fig3(*, scale: float = 1.0, seed: int = 2018) -> ExperimentResult:
    """Figure 3: tabular regions per sheet."""
    rows = []
    for name in CORPUS_PROFILES:
        histogram = tables_per_sheet_histogram(_corpus_sheets(name, scale, seed))
        row: dict[str, object] = {"dataset": name}
        row.update({f"tables={bucket}": count for bucket, count in histogram.items()})
        rows.append(row)
    return ExperimentResult(
        experiment_id="fig3",
        title="Tabular region distribution",
        rows=rows,
        paper_reference="Figure 3",
    )


def run_fig4(*, scale: float = 1.0, seed: int = 2018) -> ExperimentResult:
    """Figure 4: connected-component density distribution."""
    rows = []
    for name in CORPUS_PROFILES:
        histogram = component_density_histogram(_corpus_sheets(name, scale, seed))
        row: dict[str, object] = {"dataset": name}
        row.update({f"density<={edge:.1f}": count for edge, count in histogram.items()})
        rows.append(row)
    return ExperimentResult(
        experiment_id="fig4",
        title="Connected-component density distribution",
        rows=rows,
        paper_reference="Figure 4",
        notes=["The paper observes >80% of components have density above 0.8."],
    )


def run_fig5(*, scale: float = 1.0, seed: int = 2018) -> ExperimentResult:
    """Figure 5: formula function distribution."""
    rows = []
    for name in CORPUS_PROFILES:
        distribution = formula_function_distribution(_corpus_sheets(name, scale, seed))
        for function, count in distribution:
            rows.append({"dataset": name, "function": function, "count": count})
    return ExperimentResult(
        experiment_id="fig5",
        title="Formula distribution",
        rows=rows,
        paper_reference="Figure 5",
    )


def run_fig6(**_options) -> ExperimentResult:
    """Figure 6: user-survey operation frequencies (stacked bars)."""
    rows = []
    for question in SURVEY_OPERATIONS:
        row: dict[str, object] = {"operation": question.label}
        row.update({f"answered_{answer}": count for answer, count in zip(range(1, 6), question.counts)})
        row["frequent_pct"] = round(100 * question.frequent_fraction, 1)
        rows.append(row)
    return ExperimentResult(
        experiment_id="fig6",
        title="Operations performed on spreadsheets (30-participant survey)",
        rows=rows,
        paper_reference="Figure 6",
        notes=["Published distribution encoded directly; see workloads.survey."],
    )
