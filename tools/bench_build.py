"""Stage times of the point hierarchy build, for one or more source trees.

    python3 tools/bench_build.py BENCH_build.json parent=../old/src change=src

Each ``label=path`` names a ``src/`` directory holding a ``gha3d`` package.
Every (tree, cloud, N) cell runs in its own interpreter on one BLAS thread,
three times, with the trees interleaved; the JSON records the median of the
three runs of each stage:

- ``knn_s``: ``knn_from_positions`` over all levels
- ``fps_s``: farthest-point sampling over all levels
- ``parent_s``: the build's own parent-map kNN calls (none where FPS
  returns the parent map)
- ``pool_s``: the rest of ``build_hierarchy`` (pooling, level set-up)

The build is d=8, k=8, r=2 on uniform, scene and 10%-distinct clouds.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time

SIZES = (8192, 32768, 131072)
CLOUDS = ("uniform", "scene", "distinct10")
REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

CHILD = r"""
import json, sys, time
sys.path.insert(0, sys.argv[1])
import numpy as np
from gha3d import hierarchy

def uniform(rng, n):
    return rng.uniform(0.0, 1.0, size=(n, 3))

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

def distinct10(rng, n):
    base = scene(rng, n // 10)
    return base[rng.integers(0, base.shape[0], size=n)]

spent = {"knn_s": 0.0, "fps_s": 0.0, "parent_s": 0.0}

def timed(name, fn):
    def wrapper(*args, **kwargs):
        t = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[name] += time.perf_counter() - t
    return wrapper

for attr, name in (("knn_from_positions", "knn_s"), ("_fps_in_order", "fps_s"),
                   ("deterministic_knn", "parent_s")):
    if hasattr(hierarchy, attr):
        setattr(hierarchy, attr, timed(name, getattr(hierarchy, attr)))

cloud, n = sys.argv[2], int(sys.argv[3])
rng = np.random.default_rng(17)
pos = {"uniform": uniform, "scene": scene, "distinct10": distinct10}[cloud](rng, n)
q, k, v = (rng.normal(size=(n, 8)) for _ in range(3))
t = time.perf_counter()
h = hierarchy.build_hierarchy(pos, q, k, v, k=8, r=2)
total = time.perf_counter() - t
spent["pool_s"] = total - sum(spent.values())
spent["build_s"] = total
spent["levels"] = len(h.levels)
print(json.dumps(spent))
"""


def run_cell(src: str, cloud: str, n: int) -> dict:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    out = subprocess.run([sys.executable, "-c", CHILD, os.path.abspath(src), cloud, str(n)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv) -> int:
    out_path, trees = argv[0], dict(arg.split("=", 1) for arg in argv[1:])
    results = {label: {} for label in trees}
    for cloud in CLOUDS:
        for n in SIZES:
            runs = {label: [] for label in trees}
            for _ in range(REPEATS):
                for label, src in trees.items():
                    runs[label].append(run_cell(src, cloud, n))
            for label, cell in runs.items():
                med = {key: statistics.median(r[key] for r in cell)
                       for key in ("knn_s", "fps_s", "parent_s", "pool_s", "build_s")}
                med["us_per_token"] = med["build_s"] / n * 1e6
                med["levels"] = cell[0]["levels"]
                results[label][f"{cloud}/{n}"] = {key: round(val, 4) for key, val in med.items()}
                print(label, cloud, n, results[label][f"{cloud}/{n}"], flush=True)
    record = {
        "command": "python3 tools/bench_build.py " + " ".join(argv),
        "build": "build_hierarchy(positions, q, k, v, k=8, r=2), d=8, one BLAS thread",
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
