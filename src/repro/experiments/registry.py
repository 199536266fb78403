"""Registry mapping experiment ids (paper table/figure numbers) to runners."""

from __future__ import annotations

from typing import Callable

from repro.experiments.incremental import run_fig26a, run_fig26b
from repro.experiments.positional import run_fig18, run_fig22, run_fig23, run_fig24, run_table2
from repro.experiments.reporting import ExperimentResult
from repro.experiments.storage import (
    run_fig13a,
    run_fig13b,
    run_fig14,
    run_fig15a,
    run_fig15b,
    run_fig17,
    run_fig25,
)
from repro.experiments.study import run_fig2, run_fig3, run_fig4, run_fig5, run_fig6, run_table1
from repro.experiments.usecases import run_usecase_genomics, run_usecase_retail

ExperimentRunner = Callable[..., ExperimentResult]

#: All registered experiments, keyed by the paper artefact they reproduce.
EXPERIMENTS: dict[str, ExperimentRunner] = {
    "table1": run_table1,
    "table2": run_table2,
    "fig2": run_fig2,
    "fig3": run_fig3,
    "fig4": run_fig4,
    "fig5": run_fig5,
    "fig6": run_fig6,
    "fig13a": run_fig13a,
    "fig13b": run_fig13b,
    "fig14": run_fig14,
    "fig15a": run_fig15a,
    "fig15b": run_fig15b,
    "fig17": run_fig17,
    "fig18": run_fig18,
    "fig22": run_fig22,
    "fig23": run_fig23,
    "fig24": run_fig24,
    "fig25": run_fig25,
    "fig26a": run_fig26a,
    "fig26b": run_fig26b,
    "usecase-genomics": run_usecase_genomics,
    "usecase-retail": run_usecase_retail,
}


def get_experiment(experiment_id: str) -> ExperimentRunner:
    """Look up a runner; raises ``KeyError`` with the available ids."""
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError as exc:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: {', '.join(sorted(EXPERIMENTS))}"
        ) from exc


def run_experiment(experiment_id: str, **options) -> ExperimentResult:
    """Run one experiment by id."""
    return get_experiment(experiment_id)(**options)
