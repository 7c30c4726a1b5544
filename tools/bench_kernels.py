"""Time and memory of the attention kernels, for one or more source trees.

    python3 tools/bench_kernels.py BENCH_kernels.json parent=../old/src change=src

Each ``label=path`` names a ``src/`` directory holding a ``gha3d`` package.
Every (tree, case) cell runs in its own interpreter on one BLAS thread,
three times, with the trees interleaved; the JSON records the median of the
three runs of each figure:

- ``forward_s``, ``backward_s``: wall time of one ``gha_forward`` and one
  ``gha_backward`` call, after one untimed forward
- ``forward_peak_mb``, ``backward_peak_mb``: the tracemalloc peak of one
  more call each, above what was allocated before it

Both kernels run in relative mode, d=8, on a structure built once with
its positional table, which the calls share. The cases are uniform point
clouds (k=8, r=2) of 8k, 32k and 128k tokens, and the voxel scene of the
benchmark's ``voxel_infer`` workload: 100k scene-surface points at 1 cm.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time

CASES = ("uniform/8192", "uniform/32768", "uniform/131072", "voxel_scene/100000")
REPEATS = 3
FIGURES = ("forward_s", "backward_s", "forward_peak_mb", "backward_peak_mb")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

CHILD = r"""
import json, sys, time, tracemalloc
sys.path.insert(0, sys.argv[1])
import numpy as np
from gha3d import attention, geometry, hierarchy

def scene(rng, n):
    part = rng.choice(3, size=n, p=[0.4, 0.4, 0.2])
    uv = rng.uniform(0.0, 1.0, size=(n, 2))
    out = np.empty((n, 3))
    floor, wall, ball = part == 0, part == 1, part == 2
    out[floor] = np.column_stack([uv[floor], np.zeros(floor.sum())])
    out[wall] = np.column_stack([np.zeros(wall.sum()), uv[wall]])
    d = rng.normal(size=(int(ball.sum()), 3))
    out[ball] = np.array([0.55, 0.5, 0.3]) + 0.2 * d / np.linalg.norm(d, axis=1, keepdims=True)
    return out

cloud, n = sys.argv[2].split("/")
rng = np.random.default_rng(19)
d = 8
if cloud == "uniform":
    pos, coords = rng.uniform(0.0, 1.0, size=(int(n), 3)), None
else:
    grid = geometry.voxelize(geometry.PointCloud(positions=scene(rng, int(n))), 0.01)
    pos, coords = grid.cell_centroid, grid.occupied
tokens = pos.shape[0]
q, k, v, dz = (rng.normal(size=(tokens, d)) for _ in range(4))
h = hierarchy.build_hierarchy(pos, q, k, v, flavor="point" if coords is None else "voxel",
                              k=8, r=2, coords=coords)
emb = attention.make_fourier_embedding(d, rng)
table = attention.positional_table(h, emb, "relative")
calls = {"forward": lambda: attention.gha_forward(h, emb, "relative", table=table),
         "backward": lambda: attention.gha_backward(h, dz, emb, "relative", table=table)}
calls["forward"]()
out = {"tokens": tokens, "edges": sum(lv.topology.total_edges for lv in h.levels)}
for name, call in calls.items():
    t = time.perf_counter()
    call()
    out[name + "_s"] = time.perf_counter() - t
    tracemalloc.start()
    try:
        call()
        out[name + "_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
print(json.dumps(out))
"""


def run_cell(src: str, case: str) -> dict:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    out = subprocess.run([sys.executable, "-c", CHILD, os.path.abspath(src), case],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv) -> int:
    out_path, trees = argv[0], dict(arg.split("=", 1) for arg in argv[1:])
    results = {label: {} for label in trees}
    for case in CASES:
        runs = {label: [] for label in trees}
        for _ in range(REPEATS):
            for label, src in trees.items():
                runs[label].append(run_cell(src, case))
        for label, cell in runs.items():
            med = {key: round(statistics.median(r[key] for r in cell), 4) for key in FIGURES}
            med.update(tokens=cell[0]["tokens"], edges=cell[0]["edges"])
            results[label][case] = med
            print(label, case, med, flush=True)
    record = {
        "command": "python3 tools/bench_kernels.py " + " ".join(argv),
        "kernels": "gha_forward and gha_backward, relative mode, d=8, shared positional table",
        "statistic": f"median of {REPEATS} runs, trees interleaved",
        "machine": {"platform": platform.platform(), "python": platform.python_version(),
                    "processor": platform.processor() or platform.machine(),
                    "cpus": os.cpu_count()},
        "date": time.strftime("%Y-%m-%d"),
        "results": results,
    }
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
