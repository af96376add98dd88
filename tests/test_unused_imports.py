"""Every top-level import of a program or test module is used there or re-exported through ``__all__``."""

import ast
import glob
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = sorted(
    path
    for pattern in (("src", "fisherflow", "*.py"), ("tools", "*.py"), ("tests", "*.py"))
    for path in glob.glob(os.path.join(ROOT, *pattern))
    if os.path.basename(path) != "__init__.py"
)


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name each top-level import binds, with its line; ``__future__`` imports bind none."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    """``name (line n)`` for each top-level import that ``source`` neither reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    keep = read | _exported(tree)
    return [f"{name} (line {line})" for name, line in _imported_names(tree).items() if name not in keep]


def test_scan_finds_an_unused_import():
    source = "from typing import Sequence\nimport os.path\nimport numpy as np\n__all__ = ['Sequence']\nnp.zeros(1)\n"
    assert unused_imports(source) == ["os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=[os.path.relpath(p, ROOT) for p in MODULES])
def test_no_unused_imports(path):
    with open(path, encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []
