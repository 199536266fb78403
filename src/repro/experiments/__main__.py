"""Command-line entry point: ``python -m repro.experiments <experiment-id> [...]``."""

from __future__ import annotations

import argparse
import sys

from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.experiments.reporting import format_result


def main(argv: list[str] | None = None) -> int:
    """Run one or more experiments and print their tables."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run DataSpread-reproduction experiments (one per paper table/figure).",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids to run (default: list the available ids)",
    )
    parser.add_argument("--scale", type=float, default=None,
                        help="workload scale factor in (0, 1]; smaller is faster")
    parser.add_argument("--all", action="store_true", help="run every registered experiment")
    arguments = parser.parse_args(argv)

    requested = list(EXPERIMENTS) if arguments.all else arguments.experiments
    if not requested:
        print("Available experiments:")
        for experiment_id in EXPERIMENTS:
            print(f"  {experiment_id}")
        return 0

    options = {} if arguments.scale is None else {"scale": arguments.scale}
    for experiment_id in requested:
        try:
            runner = get_experiment(experiment_id)
        except KeyError as error:
            print(error, file=sys.stderr)
            return 2
        print(format_result(runner(**options)))
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
