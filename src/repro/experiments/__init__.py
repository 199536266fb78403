"""Experiment harness: one runner per paper table/figure.

These are reproduction artefacts, not benchmarks: each runner regenerates
the rows of one table, figure or use case of the paper (Table I-II,
Figures 2-6, 13-15, 17-18, 22-26, Section VII-D).  How fast the engine
runs is measured in one place only, ``bench/`` (``BENCHMARK.json``).

Every experiment produces an :class:`~repro.experiments.reporting.ExperimentResult`
holding the rows/series the paper reports.  Experiments are registered in
:data:`~repro.experiments.registry.EXPERIMENTS` and can be run three ways:

* programmatically — ``run_experiment("fig13a")``;
* from the command line — ``python -m repro.experiments fig13a``;
* through the paper-figure suite — each ``benchmarks/test_bench_*.py`` wraps
  the corresponding runner in ``pytest-benchmark`` (``make figures``).

All experiments accept a ``scale`` factor in (0, 1] that shrinks workload
sizes proportionally; the defaults are chosen so the full suite completes in
minutes on a laptop while preserving the paper's qualitative shapes.
"""

from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment
from repro.experiments.reporting import ExperimentResult, format_result

__all__ = [
    "EXPERIMENTS",
    "get_experiment",
    "run_experiment",
    "ExperimentResult",
    "format_result",
]
