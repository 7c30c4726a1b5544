"""Command-line tools around the attention kernels.

Subcommands:
  run       forward a point cloud through a parameterized attention block
  compare   approximation report of hierarchical vs dense attention (CSV)
  bench     weight-count scaling sweep over seeded clouds (CSV)
  hist      attention-mass distance histogram (CSV)
  heatmap   one query's effective weights as x,y,z,weight CSV
  selftest  built-in correctness checks with a pass/fail table

Exit codes: 0 on success, 1 when an invariant or selftest check fails,
2 on I/O and usage errors.

A ``--config`` file supplies ``key = value`` defaults (keys are the long
option names with underscores); explicit command-line flags win. All
randomness is drawn from named substreams of the single ``--seed``, and
``--threads`` (or the GHA_THREADS environment variable) only parallelizes
independent row blocks of the weight matrices, so outputs never depend on it.
"""

import argparse
import math
import os
import sys
import time

import numpy as np

from .analysis import (
    _check_matrix_cap,
    approximation_csv,
    approximation_report,
    attention_histogram,
    effective_attention_row,
    heatmap_csv,
    histogram_csv,
    scaling_csv,
    scaling_sweep,
)
from .attention import (
    _MODES,
    MECHANISMS,
    AttentionInputs,
    dense_attention,
    gha_backward,
    gha_forward,
    local_attention,
    make_fourier_embedding,
)
from .block import BlockConfig, block_forward, init_params, load_params
from .errors import (
    CapacityError,
    ConfigError,
    FormatError,
    InvalidInputError,
    InvariantViolation,
)
from .geometry import _check_float32, _integer, load_point_cloud, save_point_cloud_binary, voxelize
from .hierarchy import attention_structure, build_hierarchy, truncate, with_values
from .seeding import substream


# ---------------------------------------------------------------------------
# Config file expansion
# ---------------------------------------------------------------------------

def _expand_config(argv: list) -> list:
    """Splice ``key = value`` lines from --config in as flags.

    Injected tokens land right after the subcommand, before any explicit
    flags, so the command line always has the last word."""
    out = []
    cfg_path = None
    i = 0
    while i < len(argv):
        a = argv[i]
        if a == "--config":
            if i + 1 >= len(argv):
                raise ConfigError("--config needs a file path")
            cfg_path = argv[i + 1]
            i += 2
            continue
        if a.startswith("--config="):
            cfg_path = a.split("=", 1)[1]
            i += 1
            continue
        out.append(a)
        i += 1
    if cfg_path is None:
        return out
    tokens = []
    with open(cfg_path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"{cfg_path}:{lineno}: expected key = value")
            key, val = (s.strip() for s in body.split("=", 1))
            if not key or not val:
                raise ConfigError(f"{cfg_path}:{lineno}: empty key or value")
            tokens.extend(["--" + key.replace("_", "-"), val])
    for j, a in enumerate(out):
        if not a.startswith("-"):
            return out[: j + 1] + tokens + out[j + 1 :]
    return out + tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--seed", type=int, default=0,
                   help="master seed; named substreams derive from it")
    p.add_argument("--threads", type=int, default=None,
                   help="row-block parallelism of the compare and hist weight "
                        "matrices (default: GHA_THREADS or 1); never affects results")
    p.add_argument("--config", metavar="FILE",
                   help="key = value defaults; explicit flags override")


def _add_geometry(p):
    p.add_argument("--input", required=True, help="point cloud (text or GPC1 binary)")
    p.add_argument("--flavor", choices=("point", "voxel"), default="point")
    p.add_argument("--k", type=int, default=8, help="neighborhood size (point flavor)")
    p.add_argument("--r", type=int, default=2, help="coarsening ratio (point flavor)")
    p.add_argument("--voxel-size", type=float, default=0.05)


def _add_seeded_values(p):
    p.add_argument("--dim", type=int, default=8, help="width of the seeded q/k/v draws")
    p.add_argument("--embedding", choices=_MODES, default="none")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gha3d", description="hierarchical attention over 3D point clouds"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="forward a cloud through an attention block")
    _add_geometry(p)
    p.add_argument("--output", required=True, help="output features, GPC1 binary")
    p.add_argument("--params", help="GHAB parameter file (else seeded init)")
    p.add_argument("--mechanism", choices=MECHANISMS, default="gha")
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--model-dim", type=int, default=32)
    p.add_argument("--ffn-dim", type=int, default=64)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--embedding", choices=_MODES, default="relative")
    p.add_argument("--dropout", type=int, choices=(0, 1), default=0,
                   help="1 enables seeded dropout masks")
    p.add_argument("--attn-dropout", type=float, default=0.1)
    p.add_argument("--ffn-dropout", type=float, default=0.3)
    p.add_argument("--positional-every-layer", type=int, choices=(0, 1), default=1)
    _add_common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="hierarchical vs dense approximation report")
    _add_geometry(p)
    _add_seeded_values(p)
    p.add_argument("--output", help="CSV path (default: stdout)")
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("bench", help="weight-count scaling sweep")
    p.add_argument("--sizes", default="1000,2000,4000,8000",
                   help="comma-separated cloud sizes")
    p.add_argument("--flavor", choices=("point", "voxel"), default="point")
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--voxel-size", type=float, default=0.05)
    p.add_argument("--mechanism", choices=MECHANISMS, default="gha")
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--output", help="CSV path (default: stdout)")
    _add_common(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("hist", help="attention mass by pair distance")
    _add_geometry(p)
    _add_seeded_values(p)
    p.add_argument("--mechanism", choices=MECHANISMS, default="gha")
    p.add_argument("--bins", type=int, default=64)
    p.add_argument("--output", help="CSV path (default: stdout)")
    _add_common(p)
    p.set_defaults(func=cmd_hist)

    p = sub.add_parser("heatmap", help="effective weights of one query")
    _add_geometry(p)
    _add_seeded_values(p)
    p.add_argument("--query", type=int, default=0, help="query token index")
    p.add_argument("--output", help="CSV path (default: stdout)")
    _add_common(p)
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("selftest", help="run built-in correctness checks")
    _add_common(p)
    p.set_defaults(func=cmd_selftest)

    return parser


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _resolve_threads(args) -> int:
    t = args.threads
    if t is None:
        raw = os.environ.get("GHA_THREADS", "1")
        try:
            t = int(raw)
        except ValueError:
            raise ConfigError(f"GHA_THREADS must be an integer, got {raw!r}") from None
    return _integer(t, "threads", 1)


def _load_tokens(args):
    """-> (token positions, voxel coords or None, input features or None)."""
    cloud = load_point_cloud(args.input)
    if args.flavor == "voxel":
        grid = voxelize(cloud, args.voxel_size)
        feats = grid.cell_features if grid.cell_features.shape[1] > 0 else None
        return grid.cell_centroid, grid.occupied, feats
    return cloud.positions, None, cloud.features


def _seeded_hierarchy(args, positions, coords):
    """Hierarchy over seeded N(0,1) q/k/v plus the optional embedding."""
    n = positions.shape[0]
    rng = substream(args.seed, "qkv")
    q, k_mat, v = (rng.normal(size=(n, args.dim)) for _ in range(3))
    emb = None
    if args.embedding != "none":
        emb = make_fourier_embedding(args.dim, substream(args.seed, "fourier"))
    h = build_hierarchy(positions, q, k_mat, v, flavor=args.flavor,
                        k=args.k, r=args.r, coords=coords)
    return h, emb


def _emit(text: str, output) -> None:
    if output:
        with open(output, "w", encoding="utf-8", newline="") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    positions, coords, feats = _load_tokens(args)
    # Refused before the block runs; the output features are checked as written.
    _check_float32(positions, "positions")
    n = positions.shape[0]

    if args.params:
        params = load_params(args.params)
    else:
        config = BlockConfig(
            n_layers=args.layers, model_dim=args.model_dim, ffn_dim=args.ffn_dim,
            n_heads=args.heads, attn_dropout=args.attn_dropout,
            ffn_dropout=args.ffn_dropout, dropout_enabled=bool(args.dropout),
            seed=args.seed, embedding_mode=args.embedding,
            positional_every_layer=bool(args.positional_every_layer),
        )
        params = init_params(config)
    c = params.config.model_dim

    if feats is not None and feats.shape[1] != c:
        raise InvalidInputError(
            f"input features are {feats.shape[1]} wide but the block needs {c}"
        )

    if args.mechanism == "dense":
        _check_matrix_cap(n, "dense")

    t0 = time.perf_counter()
    structure = None
    if args.mechanism != "dense":
        structure = attention_structure(positions, flavor=args.flavor,
                                        k=args.k, r=args.r, coords=coords)
    # Seeded features are made in the call, so no name here keeps them
    # alive once the first layer's residual has read them.
    out = block_forward(substream(args.seed, "features").normal(size=(n, c)) if feats is None
                        else feats, positions, params, mechanism=args.mechanism,
                        structure=structure)
    wall = time.perf_counter() - t0

    if args.mechanism == "dense":
        per_forward = n * n
        levels = 1
    else:
        counted = truncate(structure, 0) if args.mechanism == "local" else structure
        per_forward = sum(lv.topology.total_edges for lv in counted.levels)
        levels = len(counted.levels)
    weight_count = per_forward * params.config.n_heads * params.config.n_layers

    save_point_cloud_binary(args.output, positions, out)
    print(f"tokens={n} levels={levels} weight_count={weight_count} "
          f"wall_time={wall:.3f}s output={args.output}")
    return 0


def cmd_compare(args) -> int:
    positions, coords, _ = _load_tokens(args)
    h, emb = _seeded_hierarchy(args, positions, coords)
    report = approximation_report(h, emb, args.embedding, threads=args.threads)
    _emit(approximation_csv(report), args.output)
    return 0


def cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"--sizes must be comma-separated integers, got {args.sizes!r}") from None
    if not sizes:
        raise ConfigError("--sizes is empty")
    report = scaling_sweep(
        sizes, flavor=args.flavor, k=args.k, r=args.r, mechanism=args.mechanism,
        seed=args.seed, d=args.dim, voxel_size=args.voxel_size,
    )
    _emit(scaling_csv(report), args.output)
    return 0


def cmd_hist(args) -> int:
    positions, coords, _ = _load_tokens(args)
    h, emb = _seeded_hierarchy(args, positions, coords)
    hist = attention_histogram(h, args.mechanism, args.bins, emb, args.embedding,
                               threads=args.threads)
    _emit(histogram_csv(hist), args.output)
    return 0


def cmd_heatmap(args) -> int:
    positions, coords, _ = _load_tokens(args)
    h, emb = _seeded_hierarchy(args, positions, coords)
    row = effective_attention_row(h, args.query, emb, args.embedding)
    _emit(heatmap_csv(h.levels[0].positions, row), args.output)
    return 0


# ---------------------------------------------------------------------------
# Selftest
# ---------------------------------------------------------------------------

_SELFTEST_POSITIONS = np.array(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [10.0, 0.0, 0.0], [11.0, 0.0, 0.0]]
)


def _selftest_golden(seed):
    """Two separated pairs, k=2, r=2: forward must match the closed form."""
    rng = substream(seed, "probe", 0)
    q, k, v = (rng.normal(size=(4, 3)) for _ in range(3))
    h = build_hierarchy(_SELFTEST_POSITIONS, q, k, v, flavor="point", k=2, r=2)
    z = gha_forward(h).z

    s = math.sqrt(3)
    qc = [(q[0] + q[1]) / 2, (q[2] + q[3]) / 2]
    kc = [(k[0] + k[1]) / 2, (k[2] + k[3]) / 2]
    vc = [(v[0] + v[1]) / 2, (v[2] + v[3]) / 2]
    pair_of = (0, 0, 1, 1)
    mate = (1, 0, 3, 2)
    worst = 0.0
    for i in range(4):
        p = pair_of[i]
        e_self = math.exp(np.dot(q[i], k[i]) / s)
        e_mate = math.exp(np.dot(q[i], k[mate[i]]) / s)
        e_near = math.exp(np.dot(qc[p], kc[p]) / s)
        e_far = math.exp(np.dot(qc[p], kc[1 - p]) / s)
        denom = e_self + e_mate + e_near + e_far
        want = (e_self * v[i] + e_mate * v[mate[i]] + e_near * vc[p] + e_far * vc[1 - p]) / denom
        worst = max(worst, float(np.max(np.abs(z[i] - want))))
    return worst < 1e-12, f"max_abs_err={worst:.2e} (tol 1e-12)"


def _selftest_dense_equivalence(seed):
    """Single-level hierarchies must reproduce dense attention exactly."""
    worst = 0.0
    for i in range(6):
        rng = substream(seed, "probe", 1, i)
        n = int(rng.integers(2, 33))
        d = int(rng.choice([2, 4, 8]))
        pos = rng.normal(size=(n, 3))
        q, k, v = (rng.normal(size=(n, d)) for _ in range(3))
        h = build_hierarchy(pos, q, k, v, flavor="point", k=n, r=2)
        z = gha_forward(h).z
        ref = dense_attention(AttentionInputs(q=q, k=k, v=v, positions=pos)).z
        rel = np.linalg.norm(z - ref, axis=1) / np.maximum(np.linalg.norm(ref, axis=1), 1e-300)
        worst = max(worst, float(rel.max()))
    return worst < 1e-12, f"max_row_rel_err={worst:.2e} (tol 1e-12)"


def _selftest_truncation(seed):
    """A hierarchy truncated to level 0 must equal local attention."""
    worst = 0.0
    for i in range(4):
        rng = substream(seed, "probe", 2, i)
        n = int(rng.integers(10, 28))
        pos = rng.normal(size=(n, 3))
        q, k, v = (rng.normal(size=(n, 4)) for _ in range(3))
        h = build_hierarchy(pos, q, k, v, flavor="point", k=3, r=2)
        z = gha_forward(truncate(h, 0)).z
        ref = local_attention(
            AttentionInputs(q=q, k=k, v=v, positions=pos), h.levels[0].topology
        ).z
        worst = max(worst, float(np.max(np.abs(z - ref))))
    return worst < 1e-12, f"max_abs_err={worst:.2e} (tol 1e-12)"


def _selftest_gradient(seed):
    """Analytic v-gradient must match central finite differences."""
    rng = substream(seed, "probe", 3)
    n, d = 10, 4
    pos = rng.normal(size=(n, 3))
    q, k, v = (rng.normal(size=(n, d)) for _ in range(3))
    dz = rng.normal(size=(n, d))
    h = build_hierarchy(pos, q, k, v, flavor="point", k=3, r=2)
    grads = gha_backward(h, dz)

    step = 1e-5
    worst = 0.0
    for _ in range(8):
        i, j = int(rng.integers(n)), int(rng.integers(d))
        vp, vm = v.copy(), v.copy()
        vp[i, j] += step
        vm[i, j] -= step
        lp = float(np.sum(dz * gha_forward(with_values(h, v=vp)).z))
        lm = float(np.sum(dz * gha_forward(with_values(h, v=vm)).z))
        fd = (lp - lm) / (2 * step)
        a = float(grads.dv[i, j])
        worst = max(worst, abs(a - fd) / max(1.0, abs(a), abs(fd)))
    return worst < 1e-5, f"max_rel_err={worst:.2e} (tol 1e-5)"


def cmd_selftest(args) -> int:
    checks = [
        ("golden-pair-layout", _selftest_golden),
        ("dense-equivalence", _selftest_dense_equivalence),
        ("truncation-locality", _selftest_truncation),
        ("gradient-check", _selftest_gradient),
    ]
    failed = 0
    for name, fn in checks:
        try:
            ok, detail = fn(args.seed)
        except Exception as e:  # a crash is a failed check, not a usage error
            ok, detail = False, f"raised {type(e).__name__}: {e}"
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name:22s} {detail}")
        failed += 0 if ok else 1
    total = len(checks)
    print(f"{total - failed}/{total} checks passed")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        argv = _expand_config(argv)
    except (ConfigError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse handles its own messaging
        return 0 if e.code in (0, None) else 2

    try:
        # Resolved once for every subcommand, so a bad count is a usage error
        # even where the command itself runs single-threaded.
        args.threads = _resolve_threads(args)
        return args.func(args)
    except InvariantViolation as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return 1
    except (FormatError, ConfigError, CapacityError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
