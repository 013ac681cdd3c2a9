"""Module layout rules, read off the source with ``ast``.

The membership checks in ``graph.py`` must share no code with the searches
in ``solver.py``, the searches keep their internals to themselves, the
constructors are the one place that builds a symmetry, no module carries an
import it does not use, and ``import genpos`` stays free of the CLI.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import genpos

SRC = Path(genpos.__file__).parent
MODULES = sorted(SRC.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text("utf-8"), str(path))


def _imports(tree: ast.Module):
    """(node, module, name, bound) for every name imported anywhere in the
    file: module is the absolute module imported from (relative imports
    resolved inside genpos), name the name taken from it (None for a plain
    ``import``), bound the name the import binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "genpos" + (f".{base}" if base else "")
            for alias in node.names:
                yield node, base, alias.name, alias.asname or alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.name, None, alias.asname or alias.name.split(".")[0]


def _modules_named(module: str, name: str | None) -> set[str]:
    # ``from genpos import solver`` imports the module genpos.solver
    return {module} if name is None else {module, f"{module}.{name}"}


@pytest.mark.parametrize("forbidden", ["solver", "budget", "harness", "cli"])
def test_graph_imports_nothing_from_the_searches(forbidden):
    target = f"genpos.{forbidden}"
    found = [
        f"line {node.lineno}: {module} {name}"
        for node, module, name, _ in _imports(_tree(SRC / "graph.py"))
        if target in _modules_named(module, name)
    ]
    assert not found, f"graph.py imports from {target}: {found}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "solver.py"], ids=lambda p: p.name)
def test_no_module_reaches_into_the_solver(path):
    tree = _tree(path)
    found = []
    solver_names = set()
    for node, module, name, bound in _imports(tree):
        if module == "genpos.solver" and name is not None and name.startswith("_"):
            found.append(f"line {node.lineno}: {name}")
        if "genpos.solver" in _modules_named(module, name) and module != "genpos.solver":
            solver_names.add(bound)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and isinstance(node.value, ast.Name)
            and node.value.id in solver_names
        ):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    assert not found, f"{path.name} uses private names of genpos.solver: {found}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "constructions.py"], ids=lambda p: p.name)
def test_only_the_constructors_build_actions(path):
    tree = _tree(path)
    names = {"GroundAction"} | {bound for _, _, name, bound in _imports(tree) if name == "GroundAction"}
    found = [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Name) and node.func.id in names
            or isinstance(node.func, ast.Attribute) and node.func.attr == "GroundAction"
        )
    ]
    assert not found, f"{path.name} calls GroundAction: {found}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [
        f"line {node.lineno}: {bound}"
        for node, module, _, bound in _imports(tree)
        if module != "__future__" and bound not in used
    ]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_import_genpos_loads_no_cli():
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    probe = "import sys, genpos; print(sorted(m for m in sys.modules if m.split('.')[0] == 'click' or m == 'genpos.cli'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
