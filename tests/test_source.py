"""Source hygiene of the package modules, checked with the stdlib ``ast``:
no unused imports, no unreferenced module-level private definitions, one
finiteness check for caller arrays and one range check for caller integers;
and every package name the benchmark's workloads call still resolves."""

import ast
import importlib
from pathlib import Path

import pytest

import gha3d
from gha3d import cli, geometry, hierarchy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gha3d"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _used_names(tree: ast.AST) -> set:
    """Every name read in the tree, plus the attribute names it reads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    assert sorted(imported - used) == []


def test_every_private_definition_is_referenced():
    trees = {p: _tree(p) for p in sorted(SRC.glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        referenced |= _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    unreferenced = [
        f"{path.name}:{node.name}"
        for path in MODULES
        for node in trees[path].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in referenced
    ]
    assert unreferenced == []


def test_only_the_array_check_tests_finiteness():
    """Caller arrays are checked one way, in ``geometry._checked``; only
    ``_voxel_coords`` keeps its own integer-value test. An entry point that
    reads a float array goes through the helper, not a check of its own."""
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(_tree(path)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                callers.update(
                    f"{path.name}:{fn.name}" for node in ast.walk(fn)
                    if isinstance(node, ast.Attribute) and node.attr == "isfinite"
                    and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
                )
    assert callers == {"geometry.py:_checked", "geometry.py:_voxel_coords"}


def _message(node: ast.AST) -> str:
    """The literal text of a message: a string, or an f-string's constant parts."""
    if isinstance(node, ast.JoinedStr):
        return "".join(v.value for v in node.values if isinstance(v, ast.Constant))
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else ""


def test_only_the_integer_check_reads_and_bounds_integers():
    """Caller counts and indices are read one way, in ``geometry._integer``:
    no other function calls ``operator.index`` or raises InvalidInputError
    with a range message of its own, so an entry point cannot grow one."""
    readers, bounders = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(_tree(path)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if (isinstance(node, ast.Attribute) and node.attr == "index"
                        and isinstance(node.value, ast.Name) and node.value.id == "operator"):
                    readers.add(f"{path.name}:{fn.name}")
                if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                        and isinstance(node.exc.func, ast.Name)
                        and node.exc.func.id == "InvalidInputError" and node.exc.args
                        and any(m in _message(node.exc.args[0])
                                for m in ("must be >= ", "must be in ["))):
                    bounders.add(f"{path.name}:{fn.name}")
    assert readers == {"geometry.py:_integer"}
    assert bounders == {"geometry.py:_integer"}


def test_every_package_name_the_benchmark_calls_resolves():
    """``perfbench/workloads.py`` reaches the package through ``geometry.*``,
    ``hierarchy.*`` and ``gha3d.*`` attributes, ``from gha3d.<module> import``
    lines, and the ``cli`` functions its ``CLI_BOUNDARY`` wraps in spans.
    The file is only read here; a renamed name fails this test, not a run."""
    tree = _tree(ROOT / "perfbench" / "workloads.py")
    modules = {"gha3d": gha3d, "cli": cli, "geometry": geometry, "hierarchy": hierarchy}
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add((node.value.id, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gha3d."):
            modules[node.module] = importlib.import_module(node.module)
            names.update((node.module, alias.name) for alias in node.names)
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name) and node.targets[0].id == "CLI_BOUNDARY"):
            names.update(("cli", key) for key in ast.literal_eval(node.value))
    assert {("geometry", "kernel_window_topology"), ("hierarchy", "with_values"),
            ("cli", "block_forward"), ("gha3d.block", "layer_norm")} <= names
    assert sorted(f"{m}.{name}" for m, name in names if not hasattr(modules[m], name)) == []
