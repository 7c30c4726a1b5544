"""Source hygiene of the package modules, checked with the stdlib ``ast``:
no unused imports, no unreferenced module-level private definitions, one
finiteness check for caller arrays, one range check for caller integers,
two sparse products over one compiled-kernel call for every sum over a
sparse map (no sparse matrix built, no reduceat sum), one arithmetic for
every squared distance in the geometry and the analysis, one helper for every level
score; one writer for each piece of state a structure keeps; no
kernel gather by an index map through fancy indexing; and every package
name the benchmark's workloads call still resolves."""

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


# Index maps: names of per-edge or per-group integer arrays, and the
# fields of a topology or level that hold one.
INDEX_MAP_NAMES = {"rows", "cols", "anc", "p", "groups", "indices"}
INDEX_MAP_FIELDS = {"rows", "indices", "parent_of"}


def test_kernels_gather_by_index_maps_with_take():
    """The kernels read an array by an index map with ``ndarray.take``,
    which copies the same bytes as ``a[idx]`` several times faster: no
    Load subscript in these modules takes an index map as its index."""
    found = []
    for name in ("attention.py", "hierarchy.py", "analysis.py"):
        for node in ast.walk(_tree(SRC / name)):
            if not (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)):
                continue
            index = node.slice
            if ((isinstance(index, ast.Name) and index.id in INDEX_MAP_NAMES)
                    or (isinstance(index, ast.Attribute) and index.attr in INDEX_MAP_FIELDS)):
                found.append(f"{name}:{node.lineno} {ast.unparse(node)}")
    assert found == []


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


# SciPy's sparse containers, each of which a product could build per call.
SPARSE_CONTAINERS = {f"{fmt}_{kind}" for fmt in ("bsr", "coo", "csc", "csr", "dia", "dok", "lil")
                     for kind in ("matrix", "array")}


def test_only_the_transposed_product_scatters():
    """Every sum over a sparse map is one of the two products in
    geometry.py, which add from +0.0 in entry order: ``_product`` (A x:
    the pooling, voxelize's cell means, the forward's y and denominators,
    dq) and ``_transposed_product`` (A^T x, every adjoint scatter). Both are
    ``_kernel_product``, the one function that reads SciPy's compiled
    ``_sparsetools`` kernels. Only geometry.py imports from
    ``scipy.sparse``, no module names a sparse matrix or array container
    (none is built per call), and no ``np.add.reduceat`` sum, ``np.bincount``
    or ``np.add.at`` scatter is left in the geometry, the kernels, the
    pooling or the analysis (a row maximum stays a ``np.maximum.reduceat``:
    a max is exact in any order)."""
    importers, readers, containers, scatters = set(), set(), [], []
    for path in sorted(SRC.glob("*.py")):
        tree = _tree(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) and any(a.name.startswith("scipy.sparse")
                                                    for a in node.names):
                importers.add(path.name)
            if isinstance(node, ast.ImportFrom) and (
                    (node.module or "").startswith("scipy.sparse")
                    or (node.module == "scipy" and any(a.name == "sparse" for a in node.names))):
                importers.add(path.name)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                readers.update(f"{path.name}:{node.name}" for inner in ast.walk(node)
                               if (isinstance(inner, ast.Name) and inner.id == "_sparsetools")
                               or (isinstance(inner, ast.Attribute)
                                   and inner.attr == "_sparsetools"))
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name in SPARSE_CONTAINERS or (isinstance(node, ast.ImportFrom) and any(
                    a.name in SPARSE_CONTAINERS for a in node.names)):
                containers.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
            if (path.name in ("attention.py", "analysis.py", "geometry.py", "hierarchy.py")
                    and isinstance(node, ast.Attribute)
                    and ast.unparse(node) in ("np.bincount", "np.add.at", "np.add.reduceat")):
                scatters.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert importers == {"geometry.py"}
    assert readers == {"geometry.py:_kernel_product"}
    assert containers == []
    assert scatters == []


def test_scores_are_formed_in_one_span_helper():
    """A level's score, q . k plus its relative term Q' . K', and the
    exponential of a score are formed in ``attention._span_weights`` alone:
    the forward, the backward and effective weights all call it, so t made
    again from a pass's row maxima is bitwise the forward's. The dense
    reference (``_dense_softmax_chunks``) forms its rows-by-keys scores
    itself. No other function reads a ``_Sides``' Q' or K' (``q_rot``,
    ``k_rot``) into a ``_query_dot``, or takes ``np.exp`` of an expression
    that reads a score ``s``."""
    dots, exps = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(_tree(path)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                callee = ast.unparse(node.func)
                if callee == "_query_dot" and any(
                        isinstance(n, ast.Attribute) and n.attr in ("q", "q_rot", "k", "k_rot")
                        for arg in node.args for n in ast.walk(arg)):
                    dots.add(f"{path.name}:{fn.name}")
                if callee in ("np.exp", "numpy.exp") and node.args and any(
                        isinstance(n, ast.Name) and n.id == "s" for n in ast.walk(node.args[0])):
                    exps.add(f"{path.name}:{fn.name}")
    assert dots == {"attention.py:_span_weights"}
    assert exps == {"attention.py:_span_weights", "attention.py:_dense_softmax_chunks"}


def _functions(path: Path):
    """Every function of a module, with its name as ``<file>:<function>``."""
    for fn in ast.walk(_tree(path)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{path.name}:{fn.name}", fn


def test_one_function_writes_each_piece_of_kept_state():
    """A structure keeps two things that passes write: its last forward's
    pass and each level's positional terms. ``attention._forward`` is the one
    function that stores a pass in ``forward_pass`` (``Hierarchy`` and
    ``hierarchy._shared`` only reset it to None), and
    ``attention._kept_term`` the one that writes a level's ``positional``
    slot, by item assignment or by a dict method."""
    passes, resets, slots = set(), set(), set()
    for path in sorted(SRC.glob("*.py")):
        for name, fn in _functions(path):
            for node in ast.walk(fn):
                value = None
                if (isinstance(node, ast.Call) and ast.unparse(node.func) in
                        ("object.__setattr__", "setattr") and len(node.args) == 3
                        and isinstance(node.args[1], ast.Constant)
                        and node.args[1].value == "forward_pass"):
                    value = node.args[2]
                elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    if any(isinstance(t, ast.Attribute) and t.attr == "forward_pass"
                           for t in targets):
                        value = node.value
                if value is not None:
                    none = isinstance(value, ast.Constant) and value.value is None
                    (resets if none else passes).add(name)
                if (isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load)
                        and isinstance(node.value, ast.Attribute)
                        and node.value.attr == "positional"):
                    slots.add(name)
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("update", "setdefault", "pop", "popitem", "clear")
                        and isinstance(node.func.value, ast.Attribute)
                        and node.func.value.attr == "positional"):
                    slots.add(name)
    assert passes == {"attention.py:_forward"}
    assert resets == {"hierarchy.py:__post_init__", "hierarchy.py:_shared"}
    assert slots == {"attention.py:_kept_term"}


def test_geometry_squares_distances_one_way():
    """geometry.py and analysis.py call no ``einsum``: every squared
    distance there is ``_squared_dist_cols``'s explicit sum, so no second
    summation order can split a distance tie that the samples and neighbor
    lists break by index, or bin a pair apart from its neighbor list."""
    found = [f"{name}:{node.lineno} {ast.unparse(node)}"
             for name in ("geometry.py", "analysis.py")
             for node in ast.walk(_tree(SRC / name))
             if isinstance(node, ast.Attribute) and node.attr == "einsum"]
    assert found == []


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
