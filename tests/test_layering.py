"""The import graph matches the layer map: ``query`` sits below ``engine``.

The engine imports the query layer (planner, executor, live views, the SQL
parser) and serves as its catalog; nothing under ``repro.query`` may import
the engine or the service layer back, at any scope — ``TYPE_CHECKING``
blocks and function bodies included — so there is one relational path and
no import cycle to dodge.
"""

import ast
import importlib
from pathlib import Path

import pytest

import repro.query

QUERY_DIR = Path(repro.query.__file__).parent
FORBIDDEN = ("repro.engine", "repro.service")


def _imported_modules(path: Path) -> list[tuple[int, str]]:
    imports: list[tuple[int, str]] = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imports.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{path.name}:{node.lineno}: relative import"
            imports.append((node.lineno, node.module))
    return imports


@pytest.mark.parametrize("path", sorted(QUERY_DIR.glob("*.py")), ids=lambda p: p.name)
def test_query_modules_import_neither_engine_nor_service(path):
    offending = [
        f"{path.name}:{line}: {module}"
        for line, module in _imported_modules(path)
        if module.startswith(FORBIDDEN)
    ]
    assert offending == []


@pytest.mark.parametrize("name", ["relational", "sql"])
def test_second_relational_path_is_gone(name):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(f"repro.engine.{name}")
