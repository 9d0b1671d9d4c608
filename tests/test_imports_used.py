"""Every name a library module imports is read somewhere in that module.

``__init__.py`` re-exports what it imports, so it is left out; so is
``from __future__ import annotations``, which binds no name.
"""
import ast
from pathlib import Path

import pytest

SOURCES = sorted(path for path in (Path(__file__).resolve().parents[1] / "src" / "greycast")
                 .glob("*.py") if path.name != "__init__.py")


def _imported(tree: ast.Module) -> dict:
    """{bound name: line} of every import in ``tree``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _read(tree: ast.Module) -> set:
    """Every name ``tree`` loads."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_every_module_is_scanned():
    assert {path.name for path in SOURCES} >= {"cli.py", "data.py", "models.py", "rolling.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_are_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = {name: line for name, line in _imported(tree).items() if name not in _read(tree)}
    assert not unused, f"{path.name} imports names it never reads: {unused}"


def test_an_unread_import_is_caught():
    tree = ast.parse("from __future__ import annotations\nimport os.path\n"
                     "from typing import Dict, List as Seq\nx: Dict[str, int] = {}\n")
    assert set(_imported(tree)) - _read(tree) == {"os", "Seq"}
