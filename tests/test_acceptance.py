"""End-to-end acceptance checks.

Each test exercises one numbered guarantee at its full stated tolerance
and prints a single ``[criterion NN] PASS/FAIL`` line (to the unbuffered
stream, so the lines survive pytest's capture). Tolerances and runtime
budgets are asserted, not just reported.
"""

import math
import sys
import time

import numpy as np

from gha3d import attention_structure
from gha3d.analysis import (
    locality_ratio,
    mass_beyond_radius,
    mechanism_weights,
    neighborhood_radius,
    scaling_sweep,
)
from gha3d.attention import (
    AttentionInputs,
    dense_attention,
    gha_backward,
    gha_forward,
    local_attention,
    make_fourier_embedding,
)
from gha3d.block import BlockConfig, GhaBlockParams, block_forward, init_params
from gha3d.cli import main
from gha3d.geometry import kernel_window_topology, voxelize, PointCloud
from gha3d.hierarchy import build_hierarchy, truncate, with_values

PAIR_POSITIONS = np.array(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [10.0, 0.0, 0.0], [11.0, 0.0, 0.0]]
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {status} {name}"
    if detail:
        line += f" ({detail})"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def _row_rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    num = np.linalg.norm(a - b, axis=1)
    den = np.maximum(np.linalg.norm(b, axis=1), np.finfo(np.float64).tiny)
    return float((num / den).max())


# ---------------------------------------------------------------------------
# 1. Golden micro-example: two separated pairs, one coarse level.
# ---------------------------------------------------------------------------

def test_criterion_01_golden_pair_layout():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    q, k, v = (rng.normal(size=(4, 3)) for _ in range(3))
    z = gha_forward(build_hierarchy(PAIR_POSITIONS, q, k, v, flavor="point", k=2, r=2)).z

    # Closed form straight from the two-level recursion: each query sees its
    # pair locally and both pair means through its coarse ancestor.
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
        want = (e_self * v[i] + e_mate * v[mate[i]]
                + e_near * vc[p] + e_far * vc[1 - p]) / denom
        worst = max(worst, float(np.max(np.abs(z[i] - want))))
    elapsed = time.perf_counter() - t0
    _report(1, "golden two-pair layout matches closed form",
            worst < 1e-12 and elapsed < 1.0,
            f"max_abs_err={worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Single-level hierarchies reproduce dense attention.
# ---------------------------------------------------------------------------

def test_criterion_02_dense_equivalence_50_instances():
    t0 = time.perf_counter()
    modes = ("none", "absolute", "relative")
    worst = 0.0
    for i in range(50):
        rng = np.random.default_rng(2000 + i)
        n = int(rng.integers(2, 33))
        d = int(rng.choice([2, 4, 8]))
        mode = modes[i % 3]
        emb = make_fourier_embedding(d, rng) if mode != "none" else None
        pos = rng.normal(size=(n, 3))
        q, k, v = (rng.normal(size=(n, d)) for _ in range(3))
        h = build_hierarchy(pos, q, k, v, flavor="point", k=n, r=2)
        assert h.depth == 0
        z = gha_forward(h, emb, mode).z
        ref = dense_attention(AttentionInputs(q=q, k=k, v=v, positions=pos,
                                              embedding=emb, embedding_mode=mode)).z
        worst = max(worst, _row_rel_l2(z, ref))
    elapsed = time.perf_counter() - t0
    _report(2, "flat hierarchy == dense softmax over 50 instances",
            worst < 1e-12 and elapsed < 10.0,
            f"max_row_rel_err={worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. Truncation to level 0 reproduces local attention.
# ---------------------------------------------------------------------------

def test_criterion_03_truncation_equals_local_50_instances():
    modes = ("none", "absolute", "relative")
    worst = 0.0
    for i in range(50):
        rng = np.random.default_rng(3000 + i)
        n = int(rng.integers(10, 49))
        d = int(rng.choice([2, 4, 8]))
        kk = int(rng.integers(2, 6))
        mode = modes[i % 3]
        emb = make_fourier_embedding(d, rng) if mode != "none" else None
        pos = rng.normal(size=(n, 3))
        q, k, v = (rng.normal(size=(n, d)) for _ in range(3))
        h = build_hierarchy(pos, q, k, v, flavor="point", k=kk, r=2)
        z = gha_forward(truncate(h, 0), emb, mode).z
        ref = local_attention(
            AttentionInputs(q=q, k=k, v=v, positions=pos, embedding=emb,
                            embedding_mode=mode),
            h.levels[0].topology,
        ).z
        worst = max(worst, float(np.max(np.abs(z - ref))))
    _report(3, "truncated hierarchy == local attention over 50 instances",
            worst < 1e-12, f"max_abs_err={worst:.2e}")


# ---------------------------------------------------------------------------
# 4. Analytic gradients vs central finite differences.
# ---------------------------------------------------------------------------

def _voxel_tokens(rng, n_cells):
    # Distinct integer cells with centroid-like positions inside each cell.
    cells = rng.choice(5 ** 3, size=n_cells, replace=False)
    coords = np.stack([cells // 25, (cells // 5) % 5, cells % 5], axis=1).astype(np.int64) - 2
    pos = coords * 1.0 + rng.uniform(0.1, 0.9, size=(n_cells, 3))
    return pos, coords


def test_criterion_04_gradients_match_finite_differences():
    step = 1e-5
    worst = 0.0
    for i in range(20):
        rng = np.random.default_rng(4000 + i)
        flavor = "point" if i < 10 else "voxel"
        n = int(rng.integers(6, 17))
        d = int(rng.choice([2, 4, 8]))
        mode = "relative" if i % 2 else "none"
        emb = make_fourier_embedding(d, rng) if mode != "none" else None
        if flavor == "voxel":
            pos, coords = _voxel_tokens(rng, n)
            h = build_hierarchy(pos, *(rng.normal(size=(n, d)) for _ in range(3)),
                                flavor="voxel", coords=coords)
        else:
            pos = rng.normal(size=(n, 3))
            h = build_hierarchy(pos, *(rng.normal(size=(n, d)) for _ in range(3)),
                                flavor="point", k=3, r=2)
        dz = rng.normal(size=(n, d))
        grads = gha_backward(h, dz, emb, mode)
        lv = h.levels[0]
        base = {"q": lv.q_tilde, "k": lv.k_tilde, "v": lv.v_tilde}

        def loss(**kw):
            return float(np.sum(dz * gha_forward(with_values(h, **kw), emb, mode).z))

        for name, grad in (("q", grads.dq), ("k", grads.dk), ("v", grads.dv)):
            for r_idx in range(n):
                for c_idx in range(d):
                    up = base[name].copy()
                    dn = base[name].copy()
                    up[r_idx, c_idx] += step
                    dn[r_idx, c_idx] -= step
                    fd = (loss(**{name: up}) - loss(**{name: dn})) / (2 * step)
                    a = float(grad[r_idx, c_idx])
                    worst = max(worst, abs(a - fd) / max(1.0, abs(a), abs(fd)))
    _report(4, "analytic gradients vs central differences (20 instances, both flavors)",
            worst < 1e-5, f"max_rel_err={worst:.2e}")


# ---------------------------------------------------------------------------
# 5. Linear weight scaling from 1k to 32k points.
# ---------------------------------------------------------------------------

def test_criterion_05_linear_weight_scaling():
    t0 = time.perf_counter()
    sizes = [1000, 2000, 4000, 8000, 16000, 32000]
    gha = scaling_sweep(sizes, flavor="point", k=8, r=2, mechanism="gha", seed=50)
    bound_ok = all(row.weight_count <= 16 * row.n_tokens for row in gha.rows)
    dense = scaling_sweep(sizes, flavor="point", k=8, r=2, mechanism="dense", seed=50)
    dense_ok = all(row.weight_count == row.n_tokens ** 2 for row in dense.rows)
    elapsed = time.perf_counter() - t0
    _report(5, "weight count linear in N with exact dense comparison rows",
            bound_ok and gha.r_squared > 0.999 and dense_ok and elapsed < 60.0,
            f"r_squared={gha.r_squared:.6f}, slope={gha.slope:.2f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. Global connectivity: mass beyond the local radius.
# ---------------------------------------------------------------------------

def test_criterion_06_mass_beyond_local_radius_100_seeds():
    gha_positive = 0
    local_zero = 0
    trials = 100
    for seed in range(trials):
        rng = np.random.default_rng(6000 + seed)
        pos = rng.uniform(0.0, 1.0, size=(512, 3))
        q, k, v = (rng.normal(size=(512, 8)) for _ in range(3))
        h = build_hierarchy(pos, q, k, v, flavor="point", k=8, r=2)
        radius = neighborhood_radius(h)
        if mass_beyond_radius(pos, mechanism_weights(h, "gha"), radius) > 0.0:
            gha_positive += 1
        if mass_beyond_radius(pos, mechanism_weights(h, "local"), radius) == 0.0:
            local_zero += 1
    _report(6, "hierarchical attention reaches beyond the level-0 kNN radius",
            gha_positive >= 99 and local_zero == trials,
            f"gha positive {gha_positive}/100, local zero {local_zero}/100")


# ---------------------------------------------------------------------------
# 7. Locality: more mass near each query than far from it.
# ---------------------------------------------------------------------------

def test_criterion_07_locality_ratio_100_seeds():
    above_one = 0
    trials = 100
    for seed in range(trials):
        rng = np.random.default_rng(7000 + seed)
        pos = rng.uniform(0.0, 1.0, size=(256, 3))
        q, k, v = (rng.normal(size=(256, 8)) for _ in range(3))
        h = build_hierarchy(pos, q, k, v, flavor="point", k=8, r=2)
        if locality_ratio(pos, mechanism_weights(h, "gha")) > 1.0:
            above_one += 1
    _report(7, "locality ratio above 1 on random clouds",
            above_one >= 95, f"{above_one}/100 seeds")


# ---------------------------------------------------------------------------
# 8. Effective rows are probability distributions, both flavors.
# ---------------------------------------------------------------------------

def test_criterion_08_effective_rows_are_distributions():
    worst_dev = 0.0
    min_weight = 0.0
    for i in range(100):
        rng = np.random.default_rng(8000 + i)
        d = int(rng.choice([2, 4, 8]))
        if i % 2 == 0:
            n = int(rng.integers(8, 65))
            pos = rng.normal(size=(n, 3))
            h = build_hierarchy(pos, *(rng.normal(size=(n, d)) for _ in range(3)),
                                flavor="point", k=4, r=2)
        else:
            base = PointCloud(positions=rng.uniform(0.0, 4.0, size=(96, 3)))
            grid = voxelize(base, 0.8)
            m = grid.n_voxels
            h = build_hierarchy(grid.cell_centroid, *(rng.normal(size=(m, d)) for _ in range(3)),
                                flavor="voxel", coords=grid.occupied)
        w = mechanism_weights(h, "gha")
        min_weight = min(min_weight, float(w.min()))
        worst_dev = max(worst_dev, float(np.max(np.abs(w.sum(axis=1) - 1.0))))
    _report(8, "effective weights nonnegative with unit row sums (100 instances)",
            min_weight >= 0.0 and worst_dev < 1e-10,
            f"min_weight={min_weight:.1e}, max_row_sum_dev={worst_dev:.2e}")


# ---------------------------------------------------------------------------
# 9. Permutation equivariance and translation invariance.
# ---------------------------------------------------------------------------

def test_criterion_09_equivariance_and_invariance():
    perm_exact = True
    trans_worst = 0.0
    for i in range(5):
        rng = np.random.default_rng(9000 + i)
        n, d = 40, 4
        pos = rng.normal(size=(n, 3))
        q, k, v = (rng.normal(size=(n, d)) for _ in range(3))
        emb = make_fourier_embedding(d, rng)

        perm = rng.permutation(n)
        z = gha_forward(build_hierarchy(pos, q, k, v, flavor="point", k=4, r=2)).z
        z_p = gha_forward(build_hierarchy(pos[perm], q[perm], k[perm], v[perm],
                                          flavor="point", k=4, r=2)).z
        perm_exact = perm_exact and np.array_equal(z_p, z[perm])

        cells = np.unique(rng.integers(-5, 6, size=(70, 3)), axis=0)
        nc = cells.shape[0]
        cpos = cells + rng.uniform(0.1, 0.9, size=(nc, 3))
        cq, ck, cv = (rng.normal(size=(nc, d)) for _ in range(3))
        cperm = rng.permutation(nc)
        zc = gha_forward(build_hierarchy(cpos, cq, ck, cv, flavor="voxel", coords=cells)).z
        zc_p = gha_forward(build_hierarchy(cpos[cperm], cq[cperm], ck[cperm], cv[cperm],
                                           flavor="voxel", coords=cells[cperm])).z
        perm_exact = perm_exact and np.array_equal(zc_p, zc[cperm])

        t = rng.uniform(-5.0, 5.0, size=3)
        for mode, e in (("none", None), ("relative", emb)):
            z0 = gha_forward(build_hierarchy(pos, q, k, v, flavor="point", k=4, r=2), e, mode).z
            z1 = gha_forward(build_hierarchy(pos + t, q, k, v, flavor="point", k=4, r=2), e, mode).z
            trans_worst = max(trans_worst, float(np.max(np.abs(z1 - z0))))

    # Voxel flavor: translation by whole cells relabels coordinates exactly —
    # occupied cells shift uniformly, contents and window structure are
    # identical, and local attention over the relabeled grid is bitwise
    # unchanged. (Coarser levels regroup cells by floor(c/2), which is
    # parity-sensitive by construction, so the guarantee is about the grid,
    # not the pooled pyramid.) Positions sit on a dyadic lattice so the
    # shifted cloud is itself exactly representable.
    voxel_exact = True
    for i in range(3):
        rng = np.random.default_rng(9100 + i)
        pts = rng.integers(0, 6 << 20, size=(80, 3)) * 2.0**-20
        feats = rng.normal(size=(80, 2))
        shift_cells = np.array([3, -2, 5], dtype=np.int64)
        for size in (1.0, 0.5):
            g0 = voxelize(PointCloud(positions=pts, features=feats), size)
            g1 = voxelize(PointCloud(positions=pts + shift_cells * size, features=feats), size)
            t0 = kernel_window_topology(g0.occupied)
            t1 = kernel_window_topology(g1.occupied)
            voxel_exact = (
                voxel_exact
                and np.array_equal(g1.occupied, g0.occupied + shift_cells)
                and np.array_equal(g1.cell_count, g0.cell_count)
                and np.array_equal(g1.cell_features, g0.cell_features)
                and np.array_equal(t0.indptr, t1.indptr)
                and np.array_equal(t0.indices, t1.indices)
            )
            m = g0.n_voxels
            q, k, v = (rng.normal(size=(m, 4)) for _ in range(3))
            z0 = gha_forward(truncate(build_hierarchy(
                g0.cell_centroid, q, k, v, flavor="voxel", coords=g0.occupied), 0)).z
            z1 = gha_forward(truncate(build_hierarchy(
                g1.cell_centroid, q, k, v, flavor="voxel", coords=g1.occupied), 0)).z
            voxel_exact = voxel_exact and np.array_equal(z0, z1)

    _report(9, "permutation equivariance and translation invariance",
            perm_exact and trans_worst < 1e-10 and voxel_exact,
            f"perm exact={perm_exact} (both flavors), translation_err={trans_worst:.2e}, "
            f"voxel shift exact={voxel_exact}")


# ---------------------------------------------------------------------------
# 10. CLI run is byte-deterministic, including across thread counts.
# ---------------------------------------------------------------------------

def test_criterion_10_cli_run_deterministic(tmp_path):
    rng = np.random.default_rng(105)
    pts = rng.uniform(0.0, 1.0, size=(200, 3))
    cloud = tmp_path / "cloud.txt"
    cloud.write_text(
        "\n".join(f"{float(p[0])!r} {float(p[1])!r} {float(p[2])!r}" for p in pts) + "\n"
    )
    blobs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "8")):
        out = tmp_path / f"{name}.gpc"
        code = main(["run", "--input", str(cloud), "--output", str(out),
                     "--k", "8", "--seed", "5", "--threads", threads])
        assert code == 0
        blobs.append(out.read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    _report(10, "cmd run byte-identical across reruns and thread counts", ok,
            f"{len(blobs[0])} bytes")


# ---------------------------------------------------------------------------
# 11. Zero-weight block is the identity map.
# ---------------------------------------------------------------------------

def test_criterion_11_zero_weight_block_is_identity():
    import dataclasses

    ok = True
    for n_layers in (1, 6):
        config = BlockConfig(n_layers=n_layers, model_dim=8, ffn_dim=16, n_heads=2,
                             seed=0, embedding_mode="none")
        params = init_params(config)
        zero_layers = tuple(
            dataclasses.replace(lp, **{
                name: np.zeros_like(getattr(lp, name))
                for name in ("w_q", "b_q", "w_k", "b_k", "w_v", "b_v", "w_o", "b_o",
                             "w1", "b1", "w2", "b2")
            })
            for lp in params.layers
        )
        params = GhaBlockParams(config=config, embedding=None, layers=zero_layers)
        rng = np.random.default_rng(110 + n_layers)
        pos = rng.normal(size=(30, 3))
        x = rng.normal(size=(30, 8))
        out = block_forward(x, pos, params, structure=attention_structure(pos, k=4, r=2))
        ok = ok and np.array_equal(out, x)
    _report(11, "zero-weight block acts as the identity (L in {1, 6})", ok)
