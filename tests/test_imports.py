"""Import hygiene of the package, by an AST scan of ``src/panache/*.py``.

Every import sits at module level, where a reader sees a module's
dependencies in one place, and every name a module-level import binds is
used in that module.  ``from __future__`` imports bind nothing.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "panache").glob("*.py"))


def bound_names(node):
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    nested = [f"{path.name}:{node.lineno} in {func.name}"
              for func in ast.walk(tree)
              if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(func)
              if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {(name, node.lineno) for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for name in bound_names(node)}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{path.name}:{line} {name}" for name, line in imported
                    if name not in used)
    assert unused == []
