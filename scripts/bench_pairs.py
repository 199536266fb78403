#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs: how ROADMAP says to compare.

    python scripts/bench_pairs.py PARENT [--workloads a,b] [--pairs 10] [--summary FILE]

Extracts revision PARENT into a temporary directory outside the repository
(``git archive``: nothing is registered in ``.git``), then for every workload
of ``BENCHMARK.json`` and every pair N runs ``bench/run.py --workload W
--seed N`` once in the parent and once in this working tree — strictly one
process at a time, the side that goes first alternating pair by pair (ABBA),
because the box has a fast and a slow phase.  The two sets of runs land in
``parent.jsonl`` / ``change.jsonl`` in the temporary directory, go through
``bench/run.py --compare``, and each pair's change / parent ratio is printed
beside the median of those ratios: read the pairs, not the set medians.
``--summary FILE`` also writes those ratios, their medians and the
``--compare`` verdicts as one JSON document.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> dict[tuple[str, int], dict]:
    with open(path, encoding="utf-8") as handle:
        runs = [json.loads(line) for line in handle if line.strip()]
    return {(run["workload"], run["seed"]): run for run in runs}


def verdicts(compare_output: str, metrics: list[str]) -> dict[str, dict[str, str]]:
    """``{workload: {metric: verdict}}`` read off ``bench/run.py --compare``'s
    table: a workload header line, then one line per metric ending in its
    verdict."""
    found: dict[str, dict[str, str]] = {}
    workload = None
    for line in compare_output.splitlines():
        fields = line.split()
        if "(A:" in fields and not line.startswith(" "):
            workload = fields[0]
        elif workload and len(fields) > 1 and fields[0] in metrics:
            found.setdefault(workload, {})[fields[0]] = fields[-1]
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the revision to compare this working tree with")
    parser.add_argument("--workloads", help="comma-separated (default: all of BENCHMARK.json)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--summary", help="write pair ratios, medians and verdicts here as JSON")
    args = parser.parse_args()
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = (args.workloads.split(",") if args.workloads
                 else [workload["name"] for workload in contract["workloads"]])
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT, check=True,
                             capture_output=True).stdout
    tarfile.open(fileobj=io.BytesIO(archive)).extractall(scratch / "parent")
    sides = {"parent": scratch / "parent", "change": ROOT}
    # Each checkout's bench/run.py puts its own src/ first; keep ours out of its way.
    environment = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    for workload in workloads:
        for pair in range(1, args.pairs + 1):
            for side in ("parent", "change") if pair % 2 else ("change", "parent"):
                print(f"{workload} pair {pair}/{args.pairs}: {side}", flush=True)
                subprocess.run(
                    [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(pair),
                     "--out", str(scratch / f"{side}.jsonl")],
                    cwd=sides[side], env=environment, stdout=subprocess.DEVNULL, check=False)
    shutil.rmtree(scratch / "parent")
    compared = subprocess.run(
        [sys.executable, "bench/run.py", "--compare",
         str(scratch / "parent.jsonl"), str(scratch / "change.jsonl")],
        cwd=ROOT, capture_output=True, text=True)
    print(compared.stdout, end="")
    metrics = [entry["name"] for entry in contract["end_to_end"]]
    verdict = verdicts(compared.stdout, metrics)
    parent, change = load(scratch / "parent.jsonl"), load(scratch / "change.jsonl")
    summary: dict = {
        "parent": subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, check=True,
                                 capture_output=True, text=True).stdout.strip(),
        "pairs": args.pairs, "compare_status": compared.returncode,
        "machine": {"python": platform.python_version(), "nproc": os.cpu_count(),
                    "processor": platform.machine()},
        "workloads": {},
    }
    print("\nchange / parent, pair by pair (same seed, run back to back), then their median")
    for workload in workloads:
        pairs = [key for key in parent if key[0] == workload and key in change]
        bad = [f"{side} seed {key[1]}" for key in pairs
               for side, run in (("parent", parent[key]), ("change", change[key]))
               if not run["correct"] or sum(run["ops_failed"].values())]
        print(f"\n{workload}: {len(pairs)} pairs, wrong or failed: {', '.join(bad) or 'none'}")
        entry = summary["workloads"][workload] = {
            "seeds": [key[1] for key in pairs], "wrong_or_failed": bad, "metrics": {}}
        for metric in metrics:
            ratios = [change[key]["end_to_end"][metric]["value"]
                      / parent[key]["end_to_end"][metric]["value"] for key in pairs]
            median = statistics.median(ratios)
            print(f"  {metric:<24} {' '.join(f'{ratio:6.3f}' for ratio in ratios)}"
                  f"   median {median:6.3f}")
            entry["metrics"][metric] = {
                "ratios": [round(ratio, 4) for ratio in ratios], "median": round(median, 4),
                "verdict": verdict.get(workload, {}).get(metric)}
    if args.summary:
        Path(args.summary).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
        print(f"\nsummary written to {args.summary}")
    print(f"\nruns kept in {scratch}")
    return compared.returncode


if __name__ == "__main__":
    sys.exit(main())
