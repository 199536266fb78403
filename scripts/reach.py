#!/usr/bin/env python3
"""Which ``def``s of ``src/repro`` the system's own entry points reach.

    python scripts/reach.py [--json FILE]                # system, then tier-1
    python scripts/reach.py --no-tests --entry examples/quickstart.py

Every entry point runs in a child process under a profile hook
(``sys.setprofile`` plus ``threading.setprofile``) that records each code
object on its first ``call``.  A ``def`` is keyed by ``(file,
co_firstlineno, name)``; for a decorated one that line is its first
decorator's.  The *system* is the four examples, ``bench/run.py --smoke``
and one traced full-size lap (``--trace 1``) per workload, every
experiment at ``--scale 0.05``, ``pytest benchmarks`` and the doc snippets;
``--entry`` (repeatable) replaces that list.  Tier-1 (``pytest -x -q``)
runs last under the same hook.  CPython silently drops a profile hook
after a ``RecursionError`` raised inside it, and the depth-bound tests
raise them, so the pytest runs re-install it around every test phase.

The report gives three counts (reached by the system, only by tier-1, by
nothing) and lists each def the system does not reach with its file, line
and size.  ``T`` marks a def that ``bench/trace.py`` resolves: deleting it
breaks every traced run.  Exit status 1 if an entry point failed.
"""

from __future__ import annotations

import argparse
import ast
import inspect
import json
import os
import runpy
import shlex
import subprocess
import sys
import tempfile
import threading
from importlib import import_module
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = "-m pytest -x -q -p no:cacheprovider"

Key = tuple[str, int, str]


def system_entries() -> list[str]:
    """The system's own entry points, each as a command line."""
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    return [
        "examples/quickstart.py", "examples/customer_management.py",
        "examples/genomics_vcf.py", "examples/storage_tuning.py",
        *(f"bench/run.py --workload {w} --seed 1 --smoke" for w in workloads),
        *(f"bench/run.py --workload {w} --seed 1 --trace 1" for w in workloads),
        "-m repro.experiments --all --scale 0.05",
        "-m pytest -q -p no:cacheprovider benchmarks",
        "scripts/check_docs.py README.md docs/architecture.md",
    ]


def run_child(out: str, argv: list[str]) -> int:
    """Run ``argv`` (a script path or ``-m module`` and its arguments) in
    this process under the hook; write the reached ``src/repro`` keys to
    ``out``."""
    seen: set = set()
    add = seen.add

    def hook(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    def install(*_args) -> None:
        sys.setprofile(hook)
        threading.setprofile(hook)

    status = 0
    install()
    try:
        if argv[0] != "-m":
            sys.argv = argv
            sys.path[0] = str(Path(argv[0]).resolve().parent)
            runpy.run_path(argv[0], run_name="__main__")
        elif argv[1] == "pytest":
            import pytest

            class Reinstall:
                pytest_runtest_setup = pytest.hookimpl(tryfirst=True)(install)
                pytest_runtest_call = pytest.hookimpl(tryfirst=True)(install)
                pytest_runtest_teardown = pytest.hookimpl(tryfirst=True)(install)

            status = int(pytest.main(argv[2:], plugins=[Reinstall()]))
        else:
            sys.argv = argv[1:]
            sys.path[0] = os.getcwd()
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
    except SystemExit as stop:
        status = stop.code if isinstance(stop.code, int) else int(stop.code is not None)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        prefix = str(SRC / "repro") + os.sep
        reached = sorted({(str(Path(code.co_filename).relative_to(ROOT)), code.co_firstlineno,
                           code.co_name) for code in seen if code.co_filename.startswith(prefix)})
        Path(out).write_text(json.dumps(reached))
    return status


def defs() -> dict[Key, tuple[str, int]]:
    """``key -> (qualified name, lines)`` of every ``def`` under src/repro."""
    found: dict[Key, tuple[str, int]] = {}

    def visit(node: ast.AST, path: str, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{scope}{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(path, first, child.name)] = (name, child.end_lineno - first + 1)
                visit(child, path, name + ".")
            else:
                visit(child, path, scope)

    for file in sorted((SRC / "repro").rglob("*.py")):
        visit(ast.parse(file.read_text()), str(file.relative_to(ROOT)), "")
    return found


def traced() -> set[Key]:
    """Keys of the functions ``bench/trace.py`` resolves by name."""
    sys.path[:0] = [str(ROOT), str(SRC)]
    keys = set()
    for _layer, module, owner, names in import_module("bench.trace").TARGETS:
        holder = import_module(module)
        holder = getattr(holder, owner) if owner else holder
        for name in names:
            code = inspect.unwrap(getattr(holder, name.lstrip("@"))).__code__
            keys.add((str(Path(code.co_filename).resolve().relative_to(ROOT)),
                      code.co_firstlineno, code.co_name))
    return keys


def trace_all(entries: list[str], scratch: Path, tag: str) -> tuple[set[Key], list[str]]:
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    reached: set[Key] = set()
    failed = []
    for index, entry in enumerate(entries):
        out = scratch / f"{tag}-{index}.json"
        print(f"reach: {entry}", file=sys.stderr, flush=True)
        done = subprocess.run([sys.executable, __file__, "--child", str(out), "--", *shlex.split(entry)],
                              cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
        if done.returncode:
            failed.append(entry)
        if out.exists():
            reached.update(tuple(key) for key in json.loads(out.read_text()))
    return reached, failed


def main() -> int:
    if sys.argv[1:2] == ["--child"]:  # python reach.py --child OUT -- ENTRY...
        return run_child(sys.argv[2], sys.argv[4:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--entry", action="append",
                        help="an entry point (script or -m module, with arguments); repeatable")
    parser.add_argument("--no-tests", action="store_true", help="skip the tier-1 pass")
    parser.add_argument("--json", help="also write the report here as JSON")
    args = parser.parse_args()
    every = defs()
    with tempfile.TemporaryDirectory() as scratch:
        system, failed = trace_all(args.entry or system_entries(), Path(scratch), "system")
        tests, tests_failed = trace_all([] if args.no_tests else [TESTS], Path(scratch), "tests")
    failed += tests_failed
    pinned = traced()
    rows = []
    for key, (name, lines) in sorted(every.items()):
        reach = "system" if key in system else "tests" if key in tests else "none"
        rows.append({"file": key[0], "line": key[1], "name": name, "lines": lines,
                     "reach": reach, "traced": key in pinned})
    counts = {reach: sum(row["reach"] == reach for row in rows) for reach in ("system", "tests", "none")}
    sizes = {reach: sum(row["lines"] for row in rows if row["reach"] == reach) for reach in counts}
    pinned_only = [row["lines"] for row in rows if row["traced"] and row["reach"] != "system"]
    print(f"defs in src/repro: {len(rows)}")
    for reach, label in (("system", "reached by the system"), ("tests", "reached only by tier-1"),
                         ("none", "reached by nothing")):
        print(f"{label}: {counts[reach]} ({sizes[reach]} lines)")
        if reach != "system":
            for row in rows:
                if row["reach"] == reach:
                    flag = "  T" if row["traced"] else ""
                    print(f"  {row['file']}:{row['line']}  {row['name']}  ({row['lines']} lines){flag}")
    print(f"not reached by the system, but bench/trace.py resolves them (T): "
          f"{len(pinned_only)} ({sum(pinned_only)} lines)")
    for entry in failed:
        print(f"FAILED: {entry}")
    if args.json:
        Path(args.json).write_text(json.dumps({"counts": counts, "lines": sizes, "failed": failed,
                                               "defs": rows}, indent=1))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
