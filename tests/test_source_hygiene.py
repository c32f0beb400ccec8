"""Source hygiene of the package, read with the stdlib ``ast`` alone.

Every name a module takes with ``from ... import`` must be used there or
re-exported through its ``__all__``, and every module-level private
function or class must be referenced somewhere in the package, so a
helper that lost its last caller, or the import that fed it, fails here.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "covchan"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _used_names(tree: ast.AST) -> set:
    """Every name read as a variable or an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _exported(tree: ast.Module) -> set:
    """The string entries of a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {
                e.value
                for e in node.value.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            }
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_from_imports_are_used_or_exported(path):
    tree = _tree(path)
    kept = _used_names(tree) | _exported(tree)
    unused = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if alias.name != "*" and (alias.asname or alias.name) not in kept
    ]
    assert not unused, f"{path.name} imports {unused} without using them"


def test_private_helpers_are_referenced():
    trees = {path.stem: _tree(path) for path in MODULES}
    assert trees, f"no modules under {PACKAGE}"
    used = set().union(*map(_used_names, trees.values()))
    orphans = [
        f"{name}.{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    ]
    assert not orphans, f"private helpers nothing references: {orphans}"
