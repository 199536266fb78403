"""Shared helpers for the paper-figure suite (``make figures``).

Each ``benchmarks/test_bench_*.py`` regenerates one paper table or figure by
wrapping the corresponding experiment runner (``repro.experiments``) in
pytest-benchmark.  The resulting rows are printed so a run doubles as a
reproduction report.  These are reproduction artefacts: how fast the engine
runs is measured by ``bench/`` (``BENCHMARK.json``, ``bench/README.md``).
"""

import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.experiments import format_result, run_experiment  # noqa: E402


@pytest.fixture
def run_figure(benchmark, capsys):
    """Benchmark one experiment runner and print its reproduction table."""

    def runner(experiment_id: str, *, rounds: int = 1, **options):
        result = benchmark.pedantic(
            lambda: run_experiment(experiment_id, **options),
            rounds=rounds,
            iterations=1,
            warmup_rounds=0,
        )
        with capsys.disabled():
            print()
            print(format_result(result))
        return result

    return runner
