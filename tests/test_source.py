"""Checks on the library's source text."""

import ast
from collections import Counter
from pathlib import Path

import torslat

SRC = Path(torslat.__file__).resolve().parent


def _references(node):
    """Each name read or attribute taken under the node, once per use."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def unreferenced_defs(root):
    """(file, line, name) of each def under root whose name no code under
    root uses outside the def itself.  Dunders and torslat.__all__ are
    exempt: Python and the package's users call them."""
    trees = {p: ast.parse(p.read_text()) for p in sorted(root.rglob("*.py"))}
    uses = Counter(r for tree in trees.values() for r in _references(tree))
    exempt = set(torslat.__all__)
    out = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name in exempt or (name.startswith("__") and name.endswith("__")):
                continue
            own = sum(r == name for r in _references(node))
            if uses[name] == own:
                out.append((path.relative_to(root).as_posix(), node.lineno, name))
    return out


def test_every_library_def_has_a_library_caller():
    # a def that only tests call belongs in tests/oracles.py, or nowhere
    assert unreferenced_defs(SRC) == []
