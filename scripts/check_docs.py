"""Execute the Python snippets embedded in Markdown docs, and check that
the docs' pointers into the code still point somewhere.

Used by ``make docs-check``. Three checks, each a failure when it finds
anything:

* every fenced ```python code block of the given Markdown files runs in a
  fresh namespace without raising (a failed ``assert`` included), so README
  examples cannot silently rot;
* every backticked ``*.py`` path in those files names a file: a bare file
  name matches by basename anywhere in the repository, a path with ``/``
  must exist under the repository root, ``src/repro/`` or ``tests/``;
* every qualified Sphinx cross-reference (``:class:`~repro...```, and
  ``:func:``, ``:meth:``, ``:mod:``, ``:exc:``) in the ``src/repro`` sources
  resolves by import.

Usage::

    PYTHONPATH=src python scripts/check_docs.py README.md [more.md ...]
"""

from __future__ import annotations

import importlib
import re
import sys
import traceback
from pathlib import Path

_FENCE = re.compile(r"^```python\s*$(.*?)^```\s*$", re.MULTILINE | re.DOTALL)
_ANY_FENCE = re.compile(r"^```.*?^```\s*$", re.MULTILINE | re.DOTALL)
_INLINE_CODE = re.compile(r"`([^`\n]+)`")
_PY_PATH = re.compile(r"[\w./-]*\w\.py\b")
_CROSS_REF = re.compile(r":(?:class|func|meth|mod|exc):`~?(repro(?:\.\w+)+)`")

ROOT = Path(__file__).resolve().parent.parent
_PATH_BASES = (ROOT, ROOT / "src" / "repro", ROOT / "tests")


def extract_snippets(text: str) -> list[str]:
    """Return the bodies of all ```python fenced blocks, in order."""
    return [match.group(1) for match in _FENCE.finditer(text)]


def check_file(path: Path) -> int:
    """Run every snippet in ``path``; return the number of failures."""
    snippets = extract_snippets(path.read_text(encoding="utf-8"))
    if not snippets:
        print(f"{path}: no python snippets")
        return 0
    failures = 0
    for index, snippet in enumerate(snippets, start=1):
        try:
            exec(compile(snippet, f"{path}:snippet-{index}", "exec"), {"__name__": "__docs__"})
        except Exception:
            failures += 1
            print(f"FAIL {path} snippet {index}:")
            traceback.print_exc()
        else:
            print(f"ok   {path} snippet {index}")
    return failures


def doc_paths(text: str) -> set[str]:
    """The ``*.py`` paths named inside inline code spans (fences skipped)."""
    prose = _ANY_FENCE.sub("", text)
    return {path for span in _INLINE_CODE.findall(prose) for path in _PY_PATH.findall(span)}


def path_exists(path: str) -> bool:
    if "/" not in path:
        return any(ROOT.rglob(path))
    return any((base / path).is_file() for base in _PATH_BASES)


def check_paths(doc: Path) -> int:
    """Every backticked ``*.py`` path in ``doc`` names a file."""
    paths = doc_paths(doc.read_text(encoding="utf-8"))
    stale = sorted(path for path in paths if not path_exists(path))
    for path in stale:
        print(f"FAIL {doc}: `{path}` names no file")
    if not stale:
        print(f"ok   {doc}: {len(paths)} file path(s)")
    return len(stale)


def resolves(dotted: str) -> bool:
    """Import the longest module prefix of ``dotted``, then walk the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        module = ".".join(parts[:cut])
        try:
            target = importlib.import_module(module)
        except ModuleNotFoundError as error:
            if not f"{module}.".startswith(f"{error.name}."):
                raise  # the package itself does not import: not a stale pointer
            continue
        for name in parts[cut:]:
            if not hasattr(target, name):
                return False
            target = getattr(target, name)
        return True
    return False


def check_cross_references() -> int:
    """Every qualified cross-reference in the ``src/repro`` sources resolves."""
    references: dict[str, str] = {}
    for source in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for dotted in _CROSS_REF.findall(source.read_text(encoding="utf-8")):
            references.setdefault(dotted, str(source.relative_to(ROOT)))
    stale = sorted(dotted for dotted in references if not resolves(dotted))
    for dotted in stale:
        print(f"FAIL {references[dotted]}: `~{dotted}` does not resolve")
    if not stale:
        print(f"ok   src/repro: {len(references)} qualified cross-reference(s)")
    return len(stale)


def main(argv: list[str]) -> int:
    paths = [Path(argument) for argument in argv] or [Path("README.md")]
    failures = sum(check_file(path) + check_paths(path) for path in paths)
    failures += check_cross_references()
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all doc snippets ran cleanly and every pointer resolves")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
