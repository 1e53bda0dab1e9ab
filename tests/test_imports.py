"""No module of the package imports a name that it never uses.

A stdlib ``ast`` check over ``src/linfvar/*.py``: every name that a
module-level import binds must be read somewhere in the module, in a
string annotation or in the module's ``__all__``.  ``__init__.py``, which
imports in order to re-export, and ``from __future__`` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "linfvar"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict:
    """Name -> line of every module-level import binding."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _used_names(tree: ast.Module) -> set:
    """Names read in the module, in its string annotations and in its ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval")) if isinstance(n, ast.Name)}
        if (isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__"
                                                 for t in node.targets)):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return used


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_level_import(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    used = _used_names(tree)
    unused = sorted((line, name) for name, line in _imported_names(tree).items() if name not in used)
    assert not unused, f"{module}: unused imports " + ", ".join(f"{name} (line {line})" for line, name in unused)


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from __future__ import annotations\nimport os\nimport numpy as np\n"
                     "from . import linalg\n__all__ = []\nx: 'np.ndarray' = None\n")
    used = _used_names(tree)
    assert sorted(name for name in _imported_names(tree) if name not in used) == ["linalg", "os"]
