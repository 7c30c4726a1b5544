"""Figures of the point build, the attention kernels and the block, per
source tree:

    python3 tools/bench.py build BENCH_build.json parent=../old/src change=src

The suite is ``build``, ``kernels`` or ``block``; each ``label=path`` is a
``src/`` directory holding a ``gha3d`` package. Every (tree, case) cell runs
three times, each in a fresh interpreter on one BLAS thread (``bench.py cell
SUITE SRC CASE``), trees interleaved; the JSON keeps each figure's median. A
case ``cloud/n`` draws n points with ``perfbench/workloads.py``'s generators.

- ``build`` (seed 17; d=8, k=8, r=2): ``knn_s`` is spent in
  ``knn_from_positions``, ``fps_s`` in farthest-point sampling (which also
  gives the parent maps), ``pool_s`` in the rest of ``build_hierarchy``:
  the structure's position pooling and topologies' bookkeeping, then
  ``with_values``' pooling of q, k and v.
- ``kernels`` (seed 19; relative mode, d=8, the positional terms kept on
  the structure): the wall time of the case's structure's first
  ``positional_table`` (``table_s``, the terms it then keeps; a structure
  pays it once), and of ``with_values(h, q, k, v)`` re-pooling
  (``with_values_s``) and ``gha_forward`` or ``gha_backward`` (``*_s``),
  each the median of 3 calls after one untimed call of the same kind, so
  the first-touch page faults of a fresh interpreter stay out of them; then
  the tracemalloc peak of one more call (``*_peak_mb``), on uniform clouds
  and on the ``voxel_infer`` scene (100k points at 1 cm). The backward reads
  the pass the forward before it left: level 0's edge weights as they are,
  and each level's row maxima and Q', from which it scores the coarser
  levels again. ``backward_alone_s`` times ``gha_backward`` on a fresh
  ``with_values`` copy per call (made untimed), which holds no pass, so it
  runs its own forward. ``structure_mib`` is the size of the built
  structure (``structure_bytes``): every array its levels hold, the
  topologies (with their width classes) and maps included, and
  ``pass_mib`` that of the pass the structure holds after those calls,
  less the level-0 term it refers to (the level's memo owns that); each
  buffer counted once.
- ``block`` (seed 23; ``voxel_infer``'s block: 2 layers, 4 heads,
  ``model_dim`` 32, ``ffn_dim`` 64, relative mode, on the case's structure,
  point flavor at k=8, r=2): ``block_s`` is the median of 3 ``block_forward``
  calls after one untimed call, on the same kinds of cloud as ``kernels``,
  and ``block_peak_mb`` the tracemalloc peak of one more call: what the
  layers hold above the caller's features and the structure, which keeps
  the positional terms the first call made.

The record's ``command`` holds no machine path: a tree inside the working
directory is written relative to it, any other as ``<label checkout>/`` and
the path's last component.
"""

import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
from harness import THREAD_VARS

REPEATS = 3
CALLS = 3  # timed calls of each warm kernel in a kernels cell
D, K, R = 8, 8, 2


def _cloud(name: str, rng, n: int):
    """Token positions and voxel coords (None for a point cloud) of a case. gha3d
    is imported in the suites: a child puts its tree first on sys.path."""
    import workloads
    from gha3d import geometry
    if name == "voxel_scene":
        grid = geometry.voxelize(geometry.PointCloud(positions=workloads.scene_surface(rng, n)),
                                 workloads.VOXEL_SIZE)
        return grid.cell_centroid, grid.occupied
    shapes = {"uniform": workloads.uniform_volume, "scene": workloads.scene_surface,
              "distinct10": workloads.quantized_scene}
    return shapes[name](rng, n), None


def _timed(spent: dict, key: str, module, name: str):
    """Patch module.name to add its wall time to spent[key]; a missing name raises."""
    fn = getattr(module, name)
    def wrapper(*args, **kwargs):
        t = time.perf_counter()
        out = fn(*args, **kwargs)
        spent[key] += time.perf_counter() - t
        return out
    return mock.patch.object(module, name, wrapper)


def build(cloud: str, n: int) -> dict:
    from gha3d import hierarchy
    rng = np.random.default_rng(17)
    pos, _ = _cloud(cloud, rng, n)
    q, k, v = (rng.normal(size=(n, D)) for _ in range(3))
    spent = {"knn_s": 0.0, "fps_s": 0.0}
    with (_timed(spent, "knn_s", hierarchy, "knn_from_positions"),
          _timed(spent, "fps_s", hierarchy, "_fps_in_order")):
        t = time.perf_counter()
        h = hierarchy.build_hierarchy(pos, q, k, v, k=K, r=R)
        total = time.perf_counter() - t
    return {**spent, "pool_s": total - spent["knn_s"] - spent["fps_s"], "build_s": total,
            "us_per_token": total / n * 1e6, "levels": len(h.levels)}


def held_bytes(root) -> int:
    """The bytes of every array ``root`` holds, through dataclass fields and
    tuples (a topology's width classes, a pass's per-level arrays; a level's
    positional memo aside), each buffer counted once however many arrays
    view it."""
    owners = {}

    def visit(x):
        if isinstance(x, np.ndarray):
            while isinstance(x.base, np.ndarray):
                x = x.base
            owners[id(x)] = x
        elif isinstance(x, tuple):
            for item in x:
                visit(item)
        elif dataclasses.is_dataclass(x):
            for f in dataclasses.fields(x):
                if f.name != "positional":
                    visit(getattr(x, f.name))

    visit(root)
    return sum(a.nbytes for a in owners.values())


def structure_bytes(h) -> int:
    """The bytes of every array a structure's levels hold (``held_bytes``)."""
    return held_bytes(tuple(h.levels))


def _warm_median(call, make=lambda: None) -> float:
    """The median wall time of ``CALLS`` calls of ``call(make())`` after one
    untimed call of the same kind; ``make`` runs untimed before each call."""
    times = []
    for _ in range(1 + CALLS):
        arg = make()
        t = time.perf_counter()
        call(arg)
        times.append(time.perf_counter() - t)
    return statistics.median(times[1:])


def _peak_mb(call) -> float:
    """The tracemalloc peak of one ``call(None)``, in MiB."""
    tracemalloc.start()
    try:
        call(None)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def kernels(cloud: str, n: int) -> dict:
    from gha3d import attention, hierarchy
    rng = np.random.default_rng(19)
    pos, coords = _cloud(cloud, rng, n)
    tokens = pos.shape[0]
    q, k, v, dz = (rng.normal(size=(tokens, D)) for _ in range(4))
    h = hierarchy.build_hierarchy(pos, q, k, v, flavor="point" if coords is None else "voxel",
                                  k=K, r=R, coords=coords)
    emb = attention.make_fourier_embedding(D, rng)
    out = {"structure_mib": structure_bytes(h) / 2**20}
    t = time.perf_counter()
    attention.positional_table(h, emb, "relative")
    out["table_s"] = time.perf_counter() - t
    out["with_values_s"] = _warm_median(lambda _: hierarchy.with_values(h, q, k, v))
    calls = {"forward": lambda _: attention.gha_forward(h, emb, "relative"),
             "backward": lambda _: attention.gha_backward(h, dz, emb, "relative")}
    # The timed calls, then the peak of one more.
    for name, call in calls.items():
        out[name + "_s"] = _warm_median(call)
        out[name + "_peak_mb"] = _peak_mb(call)
    out["backward_alone_s"] = _warm_median(
        lambda fresh: attention.gha_backward(fresh, dz, emb, "relative"),
        lambda: hierarchy.with_values(h, q, k, v))
    # The level-0 term the pass refers to is the memo's, not the pass's.
    out["pass_mib"] = held_bytes(h.forward_pass._replace(term=None)) / 2**20
    return {**out, "tokens": tokens, "edges": sum(lv.topology.total_edges for lv in h.levels)}


def block(cloud: str, n: int) -> dict:
    from gha3d import attention_structure
    from gha3d.block import BlockConfig, block_forward, init_params
    rng = np.random.default_rng(23)
    pos, coords = _cloud(cloud, rng, n)
    structure = attention_structure(pos, flavor="point" if coords is None else "voxel",
                                    k=K, r=R, coords=coords)
    params = init_params(BlockConfig(n_layers=2, model_dim=32, ffn_dim=64, n_heads=4,
                                     embedding_mode="relative"))
    x = rng.normal(size=(pos.shape[0], 32))

    def call(_):
        block_forward(x, pos, params, structure=structure)

    return {"block_s": _warm_median(call), "block_peak_mb": _peak_mb(call),
            "tokens": pos.shape[0]}


SIZES = (8192, 32768, 131072)
# suite: (cell function, cases, the record's description of the suite)
SUITES = {
    "build": (build, [f"{c}/{n}" for c in ("uniform", "scene", "distinct10") for n in SIZES],
              "build_hierarchy(positions, q, k, v, k=8, r=2), d=8, one BLAS thread"),
    "kernels": (kernels, [f"uniform/{n}" for n in SIZES] + ["voxel_scene/100000"],
                "positional_table (first call), then with_values, gha_forward and gha_backward"
                " (after a forward, and alone on a with_values copy), each the median of 3 calls"
                " after one untimed call; relative mode, d=8, positional terms kept"),
    "block": (block, [f"uniform/{n}" for n in SIZES] + ["voxel_scene/100000"],
              "block_forward with 2 layers, 4 heads, model_dim 32, ffn_dim 64, relative mode"
              " (voxel_infer's settings; point structures at k=8, r=2), the median of 3 calls"
              " after one untimed call, then the tracemalloc peak of one more"),
}


def run_cell(suite: str, src: str, case: str) -> dict:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    out = subprocess.run([sys.executable, __file__, "cell", suite, os.path.abspath(src), case],
                         env=env, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _command(argv) -> str:
    """``argv`` as the record's command, with no machine path in it: each
    path inside the working directory relative to it, any other tree as
    ``<label checkout>/<last component>`` and any other output as its name."""
    cwd = Path.cwd().resolve()

    def portable(path: str, outside: str) -> str:
        resolved = Path(path).resolve()
        return (resolved.relative_to(cwd).as_posix() if resolved.is_relative_to(cwd)
                else outside + resolved.name)

    suite, out_path, *trees = argv
    trees = [f"{label}={portable(path, f'<{label} checkout>/')}"
             for label, path in (arg.split("=", 1) for arg in trees)]
    return " ".join(["python3 tools/bench.py", suite, portable(out_path, ""), *trees])


def main(argv) -> int:
    if argv[0] == "cell":  # SUITE SRC CASE: one run of one cell, in this interpreter
        sys.path.insert(0, argv[2])
        cloud, n = argv[3].split("/")
        print(json.dumps(SUITES[argv[1]][0](cloud, int(n))))
        return 0
    suite, out_path, trees = argv[0], argv[1], dict(arg.split("=", 1) for arg in argv[2:])
    _, cases, what = SUITES[suite]
    results = {label: {} for label in trees}
    for case in cases:
        runs = {label: [] for label in trees}
        for _ in range(REPEATS):
            for label, src in trees.items():
                runs[label].append(run_cell(suite, src, case))
        for label, cell in runs.items():
            # Odd repeats: each median is one run's figure, so counts stay ints.
            results[label][case] = {key: round(statistics.median(r[key] for r in cell), 4)
                                    for key in cell[0]}
            print(label, case, results[label][case], flush=True)
    record = {
        "command": _command(argv),
        suite: what,
        "statistic": f"median of {REPEATS} runs, trees interleaved",
        "machine": {"platform": platform.platform(), "python": platform.python_version(),
                    "processor": platform.processor() or platform.machine(),
                    "cpus": os.cpu_count()},
        "date": time.strftime("%Y-%m-%d"),
        "results": results,
    }
    Path(out_path).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
