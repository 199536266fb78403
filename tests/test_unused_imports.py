"""Every name a library module imports is used in that module.

The repository runs no linter, so an import left behind by a deletion
(the last caller of a helper goes, its import stays) would otherwise go
unnoticed.  This walks the AST of every non-``__init__`` module under
``src/repro``: an imported name counts as used when the module loads it
anywhere (annotations included, quoted forward references too) or lists
it in ``__all__`` as a re-export.  Package ``__init__`` modules are
skipped: importing to re-export is what they are for.
"""

import ast
from pathlib import Path

import pytest

import repro

SOURCE_DIR = Path(repro.__file__).parent
MODULES = sorted(path for path in SOURCE_DIR.rglob("*.py") if path.name != "__init__.py")


def _imported_names(tree: ast.Module) -> list[tuple[int, str]]:
    """``(line, bound name)`` for every import binding in the module."""
    bound: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound.append((node.lineno, alias.asname or alias.name))
    return bound


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
            arguments = node.args
            for arg in (*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs,
                        arguments.vararg, arguments.kwarg):
                if arg is not None:
                    yield arg.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # Quoted forward references: ``-> "IntervalTree"``, ``list["Cell"]``.
    for annotation in _annotations(tree):
        if annotation is None:
            continue
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    # Re-exports listed in ``__all__``.
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SOURCE_DIR)))
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = [f"{path.name}:{line}: {name}"
              for line, name in _imported_names(tree) if name not in used]
    assert unused == []


def test_an_unused_import_is_caught():
    tree = ast.parse(
        "from typing import Hashable, Iterable\n"
        "import os.path\n"
        "from repro.grid.range import RangeRef as Region\n"
        "__all__ = ['Iterable']\n"
        "def f(x: 'Region') -> None: ...\n"
    )
    unused = {name for _line, name in _imported_names(tree)} - _used_names(tree)
    assert unused == {"Hashable", "os"}
