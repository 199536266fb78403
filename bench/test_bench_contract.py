"""The benchmark's contract, checked on ``--smoke`` runs (2 % size, one round).

Every metric BENCHMARK.json names must come out of every workload with a
finite value, counts must repeat exactly for one seed, and the layers a
workload is designed to bypass must read zero there.  Timings are never
asserted on: this file checks the shape of the benchmark, not the speed of
the engine.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import run as bench_run  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]
END_TO_END = [metric["name"] for metric in CONTRACT["end_to_end"]]
PER_LAYER = [metric["name"] for metric in CONTRACT["per_layer"]]
#: Units of metrics that count things: they must repeat exactly.
COUNT_UNITS = {"count", "B"}


@lru_cache(maxsize=None)
def smoke(workload: str, traced: bool, repeat: int) -> dict:
    """One in-process smoke run (``repeat`` only keys the cache)."""
    return bench_run.run_benchmark(workload, seed=1, trace=traced, smoke=True)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_reported(workload):
    document = smoke(workload, False, 0)
    assert document["correct"], document["errors"]
    assert sorted(document["end_to_end"]) == sorted(END_TO_END)
    assert sorted(bench_run.END_TO_END) == sorted(END_TO_END)
    for name, metric in document["end_to_end"].items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name
    assert document["ops_attempted"].keys() == document["ops_failed"].keys()
    assert sum(document["ops_attempted"].values()) >= 1
    assert sum(document["ops_failed"].values()) == 0, document["first_failure"]
    line = json.loads(bench_run.driver_line(document))
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert sorted(line["metrics"]) == sorted(END_TO_END)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_per_layer_metric_is_reported(workload):
    document = smoke(workload, True, 0)
    assert document["correct"], document["errors"]
    assert sorted(document["per_layer"]) == sorted(PER_LAYER)
    for name, metric in document["per_layer"].items():
        assert math.isfinite(metric["value"]) and metric["value"] >= 0, name
    for kind, share in document["op_class_shares"].items():
        # Self times plus what no layer claimed add up to the op wall (how
        # small the unclaimed part is depends on timing: see the README).
        parts = sum(share["self_ms_share"].values()) + share["unattributed_share"]
        assert math.isclose(parts, 1.0, rel_tol=1e-9), (kind, share)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_for_one_seed(workload):
    first, second = smoke(workload, False, 0), smoke(workload, False, 1)
    assert (first["end_to_end"]["storage_bytes_per_cell"]["value"]
            == second["end_to_end"]["storage_bytes_per_cell"]["value"])
    assert first["ops_attempted"] == second["ops_attempted"]
    first, second = smoke(workload, True, 0), smoke(workload, True, 1)
    for name, metric in first["per_layer"].items():
        if metric["unit"] in COUNT_UNITS:
            assert metric["value"] == second["per_layer"][name]["value"], name


def test_bypassed_layers_read_zero():
    for workload in WORKLOADS:
        layers = smoke(workload, True, 0)["per_layer"]
        wal = {name: metric["value"] for name, metric in layers.items()
               if name.startswith("storage.wal.")}
        if workload == "durable_service":
            assert all(value > 0 for value in wal.values()), wal
            assert layers["service.workspace.self_ms"]["value"] > 0
        else:
            assert not any(wal.values()), (workload, wal)
            assert layers["service.workspace.self_ms"]["value"] == 0
    dense = smoke("relayout_dense", True, 0)["per_layer"]
    # The only scheduler calls are the structural pairs' queue remaps:
    # two per pair, 20 passes over three rows in the traced set.
    assert dense["compute.scheduler.calls"]["value"] == 2 * 20 * 3
    assert dense["compute.scheduler.evaluated"]["value"] == 0
    assert dense["formula.evaluator.calls"]["value"] == 0
    assert dense["storage.heap.calls"]["value"] > 0
    assert smoke("query_analytics", True, 0)["per_layer"]["query.views.refreshes"]["value"] > 0
    assert smoke("interactive_formulas", True, 0)["per_layer"][
        "formula.evaluator.calls"]["value"] > 0


def test_tracing_leaves_the_engine_unwrapped():
    smoke("interactive_formulas", True, 0)
    from repro.engine.dataspread import DataSpread
    from repro.storage import recovery

    assert not hasattr(DataSpread.set_value, "__wrapped__")
    assert not hasattr(recovery.recover, "__wrapped__")


def test_command_line_prints_the_result_line_last():
    command = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
               "query_analytics", "--seed", "3", "--seconds", "10", "--trace", "0", "--smoke"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    for name in END_TO_END:
        assert set(line["metrics"][name]) == {"value", "unit"}


def test_command_line_fails_without_the_engine_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    command = [sys.executable, "bench/run.py", "--workload", "query_analytics",
               "--seed", "1", "--seconds", "10", "--trace", "0"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_compare_judges_by_the_bounds_in_the_contract(tmp_path, capsys):
    runs = [smoke("query_analytics", False, 0), smoke("query_analytics", False, 1)]
    base = tmp_path / "a.jsonl"
    base.write_text("".join(json.dumps(run) + "\n" for run in runs), encoding="utf-8")
    slower = json.loads(json.dumps(runs))
    for run in slower:
        run["end_to_end"]["storage_bytes_per_cell"]["value"] *= 2.0
    other = tmp_path / "b.jsonl"
    other.write_text("".join(json.dumps(run) + "\n" for run in slower), encoding="utf-8")
    assert bench_run.compare(str(base), str(other)) == 1
    assert "REGRESSED" in capsys.readouterr().out
