"""No module of the package imports a name that it never uses or defines one that nobody reads or sets.

Four stdlib ``ast`` checks over ``src/linfvar/*.py``:

- every name that a module-level import binds must be read somewhere in
  the module, in a string annotation or in the module's ``__all__``;
- every top-level ``def`` or ``class`` must be read, by a name, an
  attribute or an import, somewhere in ``src/linfvar``, ``tests`` or
  ``scripts``;
- every parameter of every ``def``, ``self`` and ``cls`` aside, must be
  read in that ``def``;
- every defaulted parameter of a public function or method must be passed,
  by keyword or by position, by some call in ``src/linfvar``, ``tests``,
  ``scripts`` or ``bench``, apart from the reduced projection's levers.

``__init__.py``, which imports in order to re-export, and ``from
__future__`` imports are exempt from the first two.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "linfvar"
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


def _definitions(tree: ast.Module) -> dict:
    """Name -> line of every top-level function and class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name: node.lineno for node in tree.body if isinstance(node, kinds)}


def _read_names(tree: ast.Module) -> set:
    """Names that a ``Name`` or an ``Attribute`` loads, or that a ``from`` import binds."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
    return read


def test_no_dead_top_level_definition():
    readers = [SRC / module for module in MODULES]
    readers += sorted((ROOT / "tests").rglob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    read = set().union(*(_read_names(ast.parse(path.read_text(), filename=str(path))) for path in readers))
    dead = [f"{module}: {name} (line {line})" for module in MODULES
            for name, line in _definitions(ast.parse((SRC / module).read_text())).items() if name not in read]
    assert not dead, "definitions that nothing reads: " + ", ".join(dead)


def test_the_check_sees_a_dead_definition():
    module = ast.parse("import os\n\ndef used():\n    return os.sep\n\ndef dead():\n    pass\n\n"
                       "class Kept:\n    pass\n\nclass Gone:\n    pass\n\nx = 1\n")
    reader = ast.parse("from mod import used\nimport mod\nmod.Kept()\nused = dead = None\n")
    read = _read_names(reader)
    assert sorted(_definitions(module)) == ["Gone", "Kept", "dead", "used"]
    assert sorted(name for name in _definitions(module) if name not in read) == ["Gone", "dead"]


def _unread_parameters(tree: ast.Module) -> list:
    """``Function.parameter`` of every parameter, ``self`` and ``cls`` aside, that its ``def`` never reads."""
    unread = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                params += [a for a in (args.vararg, args.kwarg) if a is not None]
                read = {n.id for n in ast.walk(child) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                unread.extend(f"{prefix}{child.name}.{a.arg}" for a in params
                              if a.arg not in ("self", "cls") and a.arg not in read)
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return unread


def test_no_unread_parameter():
    unread = [f"{path.name}: {name}" for path in sorted(SRC.glob("*.py"))
              for name in _unread_parameters(ast.parse(path.read_text(), filename=path.name))]
    assert not unread, "parameters that their function never reads: " + ", ".join(unread)


def test_the_check_sees_an_unread_parameter():
    module = ast.parse("def f(a, b=1, *args, c, **kw):\n    return a + c\n\n"
                       "class K:\n    def m(self, x, y):\n        def inner(z):\n            return x\n"
                       "        return inner\n\n    @classmethod\n    def make(cls, w):\n        return cls()\n")
    assert _unread_parameters(module) == ["f.b", "f.args", "f.kw", "K.m.y", "K.m.inner.z", "K.make.w"]


# The documented levers of the reduced projection (README "Fixed numerical constants").
LEVERS = frozenset({"eps", "tol_angle"})


def _defaulted_parameters(tree: ast.Module) -> list:
    """(call name, offset, parameter, position) for each defaulted parameter of a public
    top-level function or of a method of a public class, ``__init__`` included.

    A call names a function by its own name, a method by its attribute name and
    ``__init__`` by its class's name; ``offset`` is the number of leading
    parameters, ``self`` or ``cls``, that such a call does not pass, and
    ``position`` is None for a keyword-only parameter.
    """
    found = []

    def add(fn, name, offset):
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        found.extend((name, offset, a.arg, i) for i, a in enumerate(positional) if i >= first)
        found.extend((name, offset, a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)

    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions) and not node.name.startswith("_"):
            add(node, node.name, 0)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for method in node.body:
                if not isinstance(method, functions):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in method.decorator_list)
                if method.name == "__init__":
                    add(method, node.name, 1)
                elif not method.name.startswith("_"):
                    add(method, method.name, 0 if static else 1)
    return found


def _calls(trees) -> dict:
    """Call name -> [positional counts, keyword names, whether some call unpacks ``*`` or ``**``]
    over the modules ``trees``.

    ``cls(...)`` inside a class, as in its classmethods, calls that class.
    """
    calls = {}

    def record(call, name):
        entry = calls.setdefault(name, [set(), set(), False])
        entry[0].add(len(call.args))
        entry[1].update(k.arg for k in call.keywords if k.arg is not None)
        if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
            entry[2] = True

    def visit(node, cls_name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Name):
                    record(child, cls_name if func.id == "cls" and cls_name else func.id)
                elif isinstance(func, ast.Attribute):
                    record(child, func.attr)
            visit(child, child.name if isinstance(child, ast.ClassDef) else cls_name)

    for tree in trees:
        visit(tree, None)
    return calls


def _unset_parameters(definitions: list, calls: dict) -> list:
    """``name.parameter`` of each defaulted parameter that no call passes, by keyword or by position."""
    unset = []
    for name, offset, param, position in definitions:
        counts, keywords, unpacks = calls.get(name, (set(), set(), False))
        by_position = position is not None and any(count + offset > position for count in counts)
        if not (unpacks or param in keywords or by_position):
            unset.append(f"{name}.{param}")
    return unset


def test_no_parameter_that_nothing_sets():
    """A parameter that no caller sets is a constant, not an option."""
    callers = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    callers += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    calls = _calls(ast.parse(path.read_text(), filename=str(path)) for path in callers)
    definitions = [d for path in sorted(SRC.glob("*.py"))
                   for d in _defaulted_parameters(ast.parse(path.read_text(), filename=path.name))]
    unset = [name for name in _unset_parameters(definitions, calls) if name.split(".")[-1] not in LEVERS]
    assert not unset, "defaulted parameters that no call sets: " + ", ".join(unset)


def test_the_check_sees_a_parameter_that_nothing_sets():
    module = ast.parse("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n\n"
                       "def g(x=0):\n    pass\n\n"
                       "def _private(y=0):\n    pass\n\n"
                       "class K:\n    def __init__(self, p=1, q=2):\n        pass\n\n"
                       "    @classmethod\n    def make(cls, r=0):\n        return cls(5)\n\n"
                       "    @staticmethod\n    def build(s=0):\n        pass\n")
    callers = ast.parse("f(1, 2, e=5)\nK.make(1)\nK.build()\ng(*args)\n")
    calls = _calls([module, callers])
    assert _unset_parameters(_defaulted_parameters(module), calls) == ["f.c", "f.d", "K.q", "build.s"]
