"""The public surface of src/spinloops: every name a module exports is used there.

A name in a module's __all__ that only the tests read belongs in
tests/oracles.py.  Uses are found in the parsed code (Name and Attribute
nodes), so a mention in a docstring or comment does not count, and neither
does a use inside the name's own definition.
"""

import ast
import pathlib

import pytest

import spinloops

TREES = {p.stem: ast.parse(p.read_text()) for p in sorted(pathlib.Path(spinloops.__file__).parent.glob("*.py"))}
MODULES = sorted(set(TREES) - {"__init__"})


def _exports(tree) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _used(name: str, skip) -> bool:
    """Whether name occurs as a Name or an Attribute anywhere in src outside the node skip."""
    stack = list(TREES.values())
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if (isinstance(node, ast.Name) and node.id == name) or (isinstance(node, ast.Attribute) and node.attr == name):
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


@pytest.mark.parametrize("module", MODULES)
def test_every_export_is_used_in_src(module):
    tree = TREES[module]
    definitions = {node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert [name for name in _exports(tree) if not _used(name, definitions.get(name))] == []


def test_package_exports_its_modules():
    # the package's __all__ names its submodules; cli is the console script's home
    assert sorted(_exports(TREES["__init__"])) == MODULES
