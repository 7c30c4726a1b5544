"""The four workloads: seeded inputs, one op each, output checks, and the
replays that split composite calls into per-stage spans.

Every workload is a closed loop with one client. ``setup`` makes the
inputs (and, for point_train, the reused structure); ``make_op`` returns
the timed callable and its output check; ``traced_op`` runs the same op
with spans at the module boundaries and then replays the stages of each
composite call on the inputs that call was given.
"""

import contextlib
import io
import os
import re

import numpy as np

import gha3d
from gha3d import cli, geometry, hierarchy
from gha3d.attention import gha_backward, gha_forward, make_fourier_embedding
from gha3d.block import layer_norm

from harness import sha256

N_POINT = 8192  # point_infer / point_train tokens
N_VOXEL_POINTS = 100_000  # voxel_infer raw points, ~25k cells at 1 cm
N_HEATMAP = 2048
VOXEL_SIZE = 0.01
K, R = 8, 2
LAYERS, HEADS, MODEL_DIM = 2, 4, 32
HEAD_DIM = MODEL_DIM // HEADS
PROBE_BLOCK = 512  # effective_attention_row's default column block

WORKLOAD_IDS = {"point_infer": 1, "voxel_infer": 2, "point_train": 3, "heatmap": 4}


def rng_for(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *keys]))


# ---------------------------------------------------------------------------
# Seeded clouds
# ---------------------------------------------------------------------------

def uniform_volume(rng, n: int) -> np.ndarray:
    return rng.uniform(0.0, 1.0, size=(n, 3))


def scene_surface(rng, n: int) -> np.ndarray:
    """A scanned room corner: floor z=0 and wall x=0 over the unit square,
    plus a sphere of radius 0.2 resting above the floor. Points are spread
    in proportion to area (1 : 1 : 0.5), as a scanner would sample them."""
    part = rng.choice(3, size=n, p=[0.4, 0.4, 0.2])
    uv = rng.uniform(0.0, 1.0, size=(n, 2))
    out = np.empty((n, 3))
    floor, wall, ball = part == 0, part == 1, part == 2
    out[floor] = np.column_stack([uv[floor], np.zeros(floor.sum())])
    out[wall] = np.column_stack([np.zeros(wall.sum()), uv[wall]])
    d = rng.normal(size=(int(ball.sum()), 3))
    out[ball] = np.array([0.55, 0.5, 0.3]) + 0.2 * d / np.linalg.norm(d, axis=1, keepdims=True)
    return out


def quantized_scene(rng, n: int) -> np.ndarray:
    """Accumulated frames of a static sensor: every point repeats one of
    n/10 scene positions, so about 10% of positions are distinct."""
    base = scene_surface(rng, n // 10)
    return base[rng.integers(0, base.shape[0], size=n)]


POINT_SHAPES = (("uniform", uniform_volume), ("scene", scene_surface),
                ("quantized", quantized_scene))


def write_cloud(path: str, positions: np.ndarray) -> None:
    geometry.save_point_cloud_binary(path, positions, None)


def dup_token_frac(positions: np.ndarray) -> float:
    """Share of tokens whose position equals another token's."""
    _, inverse, counts = np.unique(positions, axis=0, return_inverse=True, return_counts=True)
    return float(np.mean(counts[inverse.reshape(-1)] > 1))


# ---------------------------------------------------------------------------
# Output checks (independent of the package's own readers)
# ---------------------------------------------------------------------------

def read_gpc1(data: bytes) -> tuple[int, int, np.ndarray]:
    if len(data) < 12 or data[:4] != b"GPC1":
        raise AssertionError("output is not GPC1")
    n, d = (int(x) for x in np.frombuffer(data, dtype="<u4", count=2, offset=4))
    if len(data) != 12 + 4 * n * (3 + d):
        raise AssertionError(f"GPC1 size {len(data)} does not match N={n} d={d}")
    return n, d, np.frombuffer(data, dtype="<f4", offset=12).reshape(n, 3 + d)


_RUN_LINE = re.compile(r"tokens=(\d+) levels=(\d+) weight_count=(\d+) ")


def check_run_output(rc: int, stdout: str, out_path: str, n_expected, k: int, r: int):
    """`gha3d run` must exit 0, write a finite N x 32 GPC1 cloud, and print a
    weight count within heads * layers * k * r / (r - 1) * N."""
    if rc != 0:
        raise AssertionError(f"exit code {rc}")
    m = _RUN_LINE.search(stdout)
    if m is None:
        raise AssertionError(f"no summary line in {stdout!r}")
    tokens, levels, weight_count = (int(g) for g in m.groups())
    with open(out_path, "rb") as f:
        data = f.read()
    n, d, rows = read_gpc1(data)
    if d != MODEL_DIM or n != tokens or (n_expected is not None and n != n_expected):
        raise AssertionError(f"output is {n} x {d}, expected {n_expected or tokens} x {MODEL_DIM}")
    if not np.all(np.isfinite(rows)):
        raise AssertionError("output has non-finite values")
    bound = HEADS * LAYERS * k * r / (r - 1) * tokens
    if weight_count > bound:
        raise AssertionError(f"weight_count {weight_count} exceeds bound {bound}")
    return sha256(data), {"tokens": tokens, "levels": levels, "weight_count": weight_count}


def check_heatmap_output(rc: int, out_path: str, n: int):
    """Rows must be nonnegative and sum to 1 within 1e-10, as `gha3d compare`
    requires of every effective-weight row."""
    if rc != 0:
        raise AssertionError(f"exit code {rc}")
    with open(out_path, "rb") as f:
        data = f.read()
    lines = data.decode("utf-8").splitlines()
    if lines[0] != "x,y,z,weight" or len(lines) != n + 1:
        raise AssertionError(f"expected header and {n} rows, got {len(lines)} lines")
    w = np.array([float(line.rsplit(",", 1)[1]) for line in lines[1:]])
    if w.min() < 0.0 or abs(w.sum() - 1.0) > 1e-10:
        raise AssertionError(f"row is not a distribution (min {w.min()}, sum {w.sum()!r})")
    return sha256(data), {"row_sum_err": abs(float(w.sum()) - 1.0)}


def call_cli(argv: list) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


# ---------------------------------------------------------------------------
# Replays: stages of composite calls, re-run on the composite's own inputs
# ---------------------------------------------------------------------------

def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def replay_structure(tracer, h) -> bool:
    """Re-run each coarsening stage of a built hierarchy on the level it
    was applied to, and check that every stage reproduces what the build
    stored: topologies, FPS samples, parent maps, smoothed/pooled rows."""
    ok = True
    depth = len(h.levels) - 1
    for lvl, lv in enumerate(h.levels):
        if h.flavor == "point":
            with tracer.span("geometry.knn"):
                topo = geometry.knn_from_positions(lv.positions, h.neighborhood_k)
        else:
            with tracer.span("geometry.window"):
                topo = geometry.kernel_window_topology(lv.coords)
        ok &= _same(topo.indptr, lv.topology.indptr) and _same(topo.indices, lv.topology.indices)
        if lvl == depth:
            break
        nxt = h.levels[lvl + 1]
        rows = (lv.positions, lv.q_tilde, lv.k_tilde, lv.v_tilde)
        if h.flavor == "point":
            with tracer.span("hierarchy.smooth"):
                # Each neighborhood is averaged in member-coordinate order.
                t = lv.topology
                gid = np.repeat(np.arange(lv.n_tokens), np.diff(t.indptr))
                p = lv.positions[t.indices]
                canon = t.indices[np.lexsort((t.indices, p[:, 2], p[:, 1], p[:, 0], gid))]
                smoothed = [hierarchy.segment_mean(a, t.indptr, canon) for a in rows]
            m = -(-lv.n_tokens // h.coarsen_ratio)
            with tracer.span("geometry.fps"):
                selected = geometry.fps_from_positions(lv.positions, m)
            with tracer.span("geometry.parent"):
                nearest = geometry.deterministic_knn(lv.positions[nxt.selected], lv.positions, 1)
                parent = np.fromiter((int(c[0]) for c in nearest), dtype=np.int64,
                                     count=lv.n_tokens)
                parent[nxt.selected] = np.arange(m, dtype=np.int64)
            ok &= _same(selected, nxt.selected) and _same(parent, lv.parent_of)
            coarse = [s[nxt.selected] for s in smoothed]
        else:
            with tracer.span("hierarchy.smooth"):
                # Children pooled in child-cell-coordinate order.
                counts = np.bincount(lv.parent_of, minlength=nxt.n_tokens)
                indptr = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
                order = np.lexsort((geometry.pack_voxel_coords(lv.coords), lv.parent_of))
                coarse = [hierarchy.segment_mean(a, indptr, order) for a in rows]
        ok &= all(_same(c, s) for c, s in
                  zip(coarse, (nxt.positions, nxt.q_tilde, nxt.k_tilde, nxt.v_tilde)))
    return bool(ok)


def replay_block(tracer, args, kwargs, out) -> bool:
    """Re-run block_forward layer by layer with spans around attention
    (LN1, projections, per-head with_values + gha_forward, output
    projection) and FFN (LN2, two projections); bitwise equal or False."""
    x, positions, params = args[:3]
    structure = kwargs.get("structure")
    config = params.config
    if (structure is None or kwargs.get("mechanism", "gha") != "gha"
            or config.dropout_enabled):
        return False
    x = np.asarray(x, dtype=np.float64)
    ch = config.head_dim
    for layer_idx, lp in enumerate(params.layers):
        if config.embedding_mode != "none" and (config.positional_every_layer or layer_idx == 0):
            mode, emb = config.embedding_mode, params.embedding
        else:
            mode, emb = "none", None
        with tracer.span("block.attn"):
            h = layer_norm(x, lp.ln1_gain, lp.ln1_shift)
            q = h @ lp.w_q + lp.b_q
            k_rows = h @ lp.w_k + lp.b_k
            v = h @ lp.w_v + lp.b_v
            heads = []
            for head in range(config.n_heads):
                sl = slice(head * ch, (head + 1) * ch)
                with tracer.span("hierarchy.with_values"):
                    hh = hierarchy.with_values(structure, q=q[:, sl], k=k_rows[:, sl], v=v[:, sl])
                with tracer.span("attention.forward") as sp:
                    res = gha_forward(hh, embedding=emb, embedding_mode=mode)
                sp["counts"]["edges"] = res.weight_count
                heads.append(res.z)
            x = x + (np.concatenate(heads, axis=1) @ lp.w_o + lp.b_o)
        with tracer.span("block.ffn"):
            f = layer_norm(x, lp.ln2_gain, lp.ln2_shift)
            u = np.maximum(f @ lp.w1 + lp.b1, 0.0)
            x = x + (u @ lp.w2 + lp.b2)
    return _same(x, out)


def replay_row(tracer, args, kwargs, row) -> bool:
    """Re-read one effective-weight row by one-hot probe blocks
    (with_values + gha_forward per block); bitwise equal or False."""
    h, i = args[0], args[1]
    emb = args[2] if len(args) > 2 else kwargs.get("embedding")
    mode = args[3] if len(args) > 3 else kwargs.get("embedding_mode", "none")
    n = h.levels[0].n_tokens
    parts = []
    for lo in range(0, n, PROBE_BLOCK):
        hi = min(n, lo + PROBE_BLOCK)
        probes = np.zeros((n, hi - lo))
        probes[np.arange(lo, hi), np.arange(hi - lo)] = 1.0
        with tracer.span("hierarchy.with_values", columns=hi - lo):
            probed = hierarchy.with_values(h, v=probes)
        with tracer.span("attention.forward") as sp:
            res = gha_forward(probed, emb, mode)
        sp["counts"]["edges"] = res.weight_count
        parts.append(res.z[i])
    return _same(np.concatenate(parts), row)


REPLAYS = {"hierarchy.build": ("structure", lambda tracer, a, kw, h: replay_structure(tracer, h)),
           "block.forward": ("block", replay_block),
           "analysis.row": ("row", replay_row)}

# Module boundary crossed by the CLI: name it looks up -> span name.
CLI_BOUNDARY = {
    "load_point_cloud": "geometry.io",
    "save_point_cloud_binary": "geometry.io",
    "voxelize": "geometry.voxelize",
    "attention_structure": "hierarchy.build",
    "build_hierarchy": "hierarchy.build",
    "block_forward": "block.forward",
    "effective_attention_row": "analysis.row",
}


@contextlib.contextmanager
def cli_spans(tracer, calls: list):
    """Wrap the layer functions the cli module calls in spans for the
    duration of one op; the package source is untouched and the names are
    restored afterwards."""
    saved = {name: getattr(cli, name) for name in CLI_BOUNDARY}
    try:
        for name, span in CLI_BOUNDARY.items():
            setattr(cli, name, tracer.wrap(span, saved[name], calls))
        yield
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)


def structure_counts(h) -> dict:
    return {
        "dup_token_frac": dup_token_frac(h.levels[0].positions),
        "level_sizes": [lv.n_tokens for lv in h.levels],
        "level_edges": [lv.topology.total_edges for lv in h.levels],
    }


def replay_calls(tracer, calls: list) -> tuple[list, dict]:
    """Replay every composite call an op made. Returns the replay kinds
    that did not reproduce the composite bitwise, and the input-property
    counts of the structure the op built."""
    mismatched, props = [], {}
    with tracer.span("replay"):
        for name, args, kwargs, result in calls:
            if name == "hierarchy.build":
                props = structure_counts(result)
            if name in REPLAYS:
                kind, fn = REPLAYS[name]
                if not fn(tracer, args, kwargs, result):
                    mismatched.append(kind)
    return mismatched, props


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    cycle = 1  # ops per input cycle; runs end on a cycle boundary

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.wid = WORKLOAD_IDS[self.name]
        self.work = work_dir
        self.cli_seed = seed % 2**32
        self.out_path = os.path.join(work_dir, "out.bin")

    def setup(self, tracer=None) -> None:
        raise NotImplementedError

    def make_op(self, i: int):
        """-> (fn, check) for op i."""
        raise NotImplementedError

    def traced_op(self, i: int, tracer):
        """-> (fn, check, after): ``after()`` runs outside the op's timing
        and returns (mismatched replay kinds, input-property counts)."""
        fn, check = self.make_op(i)
        calls: list = []

        def traced():
            with cli_spans(tracer, calls), tracer.span("cli.main"):
                return fn()
        return traced, check, lambda: replay_calls(tracer, calls)

    def invariant_check(self):
        """Once-per-run property check outside timing; None when passed."""
        return None

    def _remove_output(self):
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.out_path)


class PointInfer(Workload):
    """`gha3d run` on fresh 8k clouds cycling uniform / scene / quantized."""

    name = "point_infer"
    cycle = len(POINT_SHAPES)
    pool = 9
    # Output check: expected token count (None: as printed), k, r.
    expect = (N_POINT, K, R)

    def setup(self, tracer=None):
        self.inputs = []
        for j in range(self.pool):
            shape, gen = POINT_SHAPES[j % self.cycle]
            path = os.path.join(self.work, f"cloud{j}.gpc")
            write_cloud(path, gen(rng_for(self.seed, self.wid, 0, j), N_POINT))
            self.inputs.append((shape, path))

    def argv(self, path):
        return ["run", "--input", path, "--output", self.out_path, "--k", str(K), "--r", str(R),
                "--layers", str(LAYERS), "--heads", str(HEADS), "--model-dim", str(MODEL_DIM),
                "--embedding", "relative", "--seed", str(self.cli_seed), "--threads", "1"]

    def make_op(self, i):
        shape, path = self.inputs[i % self.pool]
        argv = self.argv(path)
        self._remove_output()

        def check(res):
            digest, info = check_run_output(*res, self.out_path, *self.expect)
            return digest, dict(info, shape=shape)
        return (lambda: call_cli(argv)), check


class VoxelInfer(PointInfer):
    """`gha3d run --flavor voxel` on fresh 100k-point scenes at 1 cm."""

    name = "voxel_infer"
    cycle = 1
    pool = 6
    expect = (None, gha3d.VOXEL_WINDOW_K, 2)

    def setup(self, tracer=None):
        self.inputs = []
        for j in range(self.pool):
            path = os.path.join(self.work, f"scene{j}.gpc")
            write_cloud(path, scene_surface(rng_for(self.seed, self.wid, 0, j), N_VOXEL_POINTS))
            self.inputs.append(("scene", path))

    def argv(self, path):
        return super().argv(path) + ["--flavor", "voxel", "--voxel-size", str(VOXEL_SIZE)]


class PointTrain(Workload):
    """Training steps over a frozen 8k scene structure, 4 heads each."""

    name = "point_train"

    def setup(self, tracer=None):
        pos = scene_surface(rng_for(self.seed, self.wid, 0), N_POINT)
        with (tracer.span if tracer else _no_span)("hierarchy.build"):
            self.structure = gha3d.attention_structure(pos, flavor="point", k=K, r=R)
        self.embedding = make_fourier_embedding(HEAD_DIM, rng_for(self.seed, self.wid, 1))

    def _step_inputs(self, i):
        rng = rng_for(self.seed, self.wid, 2, i)
        return [tuple(rng.normal(size=(N_POINT, HEAD_DIM)) for _ in range(4))
                for _ in range(HEADS)]

    def _step(self, inputs, span):
        outs = []
        for q, k, v, dz in inputs:
            with span("hierarchy.with_values"):
                hh = hierarchy.with_values(self.structure, q=q, k=k, v=v)
            with span("attention.forward") as sp:
                res = gha_forward(hh, self.embedding, "relative")
            sp["counts"]["edges"] = res.weight_count
            with span("attention.backward"):
                g = gha_backward(hh, dz, self.embedding, "relative")
            outs.append((res.z, g.dq, g.dk, g.dv))
        return outs

    @staticmethod
    def check(outs):
        arrays = [a for step in outs for a in step]
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise AssertionError("non-finite output or gradient")
        return sha256(b"".join(a.tobytes() for a in arrays)), {}

    def make_op(self, i):
        inputs = self._step_inputs(i)
        return (lambda: self._step(inputs, _no_span)), self.check

    def traced_op(self, i, tracer):
        inputs = self._step_inputs(i)

        def traced():
            with tracer.span("train.step"):
                return self._step(inputs, tracer.span)
        return traced, self.check, lambda: ([], {})

    def invariant_check(self):
        """A constant v gives z = v and, because z then ignores q and k,
        dq = dk = 0 (all within 1e-12)."""
        rng = rng_for(self.seed, self.wid, 3)
        q, k, dz = (rng.normal(size=(N_POINT, HEAD_DIM)) for _ in range(3))
        c = rng.normal(size=HEAD_DIM)
        v = np.tile(c, (N_POINT, 1))
        hh = hierarchy.with_values(self.structure, q=q, k=k, v=v)
        z = gha_forward(hh, self.embedding, "relative").z
        g = gha_backward(hh, dz, self.embedding, "relative")
        errs = {"z": float(np.max(np.abs(z - c))), "dq": float(np.max(np.abs(g.dq))),
                "dk": float(np.max(np.abs(g.dk)))}
        bad = {k: e for k, e in errs.items() if not e <= 1e-12}
        return f"constant-v check failed: {bad}" if bad else None


@contextlib.contextmanager
def _no_span(name):
    yield {"counts": {}}


class Heatmap(Workload):
    """`gha3d heatmap` for seeded queries on one fixed 2k scene."""

    name = "heatmap"

    def setup(self, tracer=None):
        self.path = os.path.join(self.work, "heat.gpc")
        write_cloud(self.path, scene_surface(rng_for(self.seed, self.wid, 0), N_HEATMAP))

    def make_op(self, i):
        query = int(rng_for(self.seed, self.wid, 1, i).integers(N_HEATMAP))
        argv = ["heatmap", "--input", self.path, "--output", self.out_path, "--query", str(query),
                "--k", str(K), "--r", str(R), "--dim", str(HEAD_DIM), "--embedding", "relative",
                "--seed", str(self.cli_seed), "--threads", "1"]
        self._remove_output()

        def check(res):
            digest, info = check_heatmap_output(res[0], self.out_path, N_HEATMAP)
            return digest, dict(info, query=query)
        return (lambda: call_cli(argv)), check


WORKLOADS = {w.name: w for w in (PointInfer, VoxelInfer, PointTrain, Heatmap)}


def warmup(work_dir: str) -> None:
    """One small op per code path, so lazy imports and first-call set-up
    inside numpy/scipy are paid before timing starts."""
    path = os.path.join(work_dir, "warm.gpc")
    out = os.path.join(work_dir, "warm.out")
    write_cloud(path, scene_surface(rng_for(0, 99), 512))
    for extra in ([], ["--flavor", "voxel", "--voxel-size", "0.05"]):
        call_cli(["run", "--input", path, "--output", out, "--threads", "1"] + extra)
    call_cli(["heatmap", "--input", path, "--output", out, "--query", "0",
              "--embedding", "relative", "--threads", "1"])
    for p in (path, out):
        os.remove(p)

