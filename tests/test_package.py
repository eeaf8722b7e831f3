"""Static checks on the package source, using only the stdlib ``ast``."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "denjoylab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> list[str]:
    """Names bound by the module's top-level imports, __future__ aside."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Every name read in the module, string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and isinstance(node.annotation, ast.Constant):
            used |= _used_names(ast.parse(node.annotation.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    unused = set(_imported_names(tree)) - _used_names(tree)
    assert not unused, f"{path.name} imports {sorted(unused)} without using them"


def test_all_lists_the_public_imports_once_sorted():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [n for n in _imported_names(tree) if not n.startswith("_")]
    exported = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and node.targets[0].id == "__all__")
    assert len(exported) == len(set(exported))
    assert exported == sorted(exported)
    assert set(exported) == set(imported)
