"""Source hygiene of src/hqsynth, checked with `ast` alone (no linter is
needed): no module imports a name it does not use, every private
module-level function or class is referenced somewhere in the package, and
no module has a `global` statement."""

import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "src", "hqsynth")
MODULES = sorted(name for name in os.listdir(PACKAGE) if name.endswith(".py"))


def _tree(name):
    with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
        return ast.parse(fh.read(), name)


def _imported(tree):
    """{name bound by an import: line} of a module, `__future__` left out."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _references(tree):
    """Every name a module reads: bare names and attribute names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_every_module_is_checked():
    assert {"automata.py", "mdp.py", "synthesis.py", "__init__.py"} <= set(MODULES)


@pytest.mark.parametrize("name", [m for m in MODULES if m != "__init__.py"])
def test_no_unused_imports(name):
    tree = _tree(name)
    used = _references(tree)
    unused = sorted(f"{imp} (line {line})" for imp, line in _imported(tree).items()
                    if imp not in used)
    assert not unused, f"{name} imports names it does not use: {', '.join(unused)}"


def test_private_definitions_are_referenced():
    trees = {name: _tree(name) for name in MODULES}
    used = set()
    for tree in trees.values():
        used |= _references(tree)
        used |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for alias in node.names}
    unused = sorted(
        f"{name}: {node.name}" for name, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in used)
    assert not unused, f"private definitions nothing references: {', '.join(unused)}"


@pytest.mark.parametrize("name", MODULES)
def test_no_global_statements(name):
    # Module state is held only by objects changed in place, never rebound,
    # so a module that imports it by name sees what every other one sees.
    lines = [node.lineno for node in ast.walk(_tree(name)) if isinstance(node, ast.Global)]
    assert not lines, f"{name} has `global` statements at lines {lines}"
