"""Checks on the package source and its import graph.

Most are static and use only the stdlib ``ast``; one imports the CLI in
a fresh interpreter and lists the third-party packages it loads.
"""
import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "denjoylab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
#: top-level packages outside the stdlib that the library may import
RUNTIME_DEPENDENCIES = {"numpy"}


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


def _experiment_keys_read(tree: ast.Module) -> set[str]:
    """Keys passed as ("experiment", key) to a get* or has_option call."""
    keys = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and (node.func.attr.startswith("get")
                     or node.func.attr == "has_option")
                and len(node.args) >= 2
                and all(isinstance(a, ast.Constant) for a in node.args[:2])
                and node.args[0].value == "experiment"):
            keys.add(node.args[1].value)
    return keys


def test_cli_docstring_documents_every_experiment_key():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    layout = ast.get_docstring(tree).split("[experiment]")[1]
    layout = layout.split("[map]")[0]
    documented = {line.split("=")[0].strip() for line in layout.splitlines()
                  if "=" in line.split(";")[0]}
    read = _experiment_keys_read(tree)
    assert {"pipeline", "n", "x0", "max_seconds"} <= read
    missing = read - documented
    assert not missing, f"cli reads undocumented [experiment] keys {sorted(missing)}"


@pytest.mark.parametrize("path", [PACKAGE / "__init__.py", *MODULES],
                         ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    """Every absolute import, function bodies included."""
    tree = ast.parse(path.read_text())
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    foreign = roots - set(sys.stdlib_module_names) - RUNTIME_DEPENDENCIES
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_cli_import_loads_only_numpy():
    # the snapshot taken first holds what `python -c pass` loads, site
    # and its .pth hooks included, so only the import itself counts
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import denjoylab.cli\n"
            "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    added = set(out.split()) - set(sys.stdlib_module_names)
    assert added == {"denjoylab"} | RUNTIME_DEPENDENCIES
