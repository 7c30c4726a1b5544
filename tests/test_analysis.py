import csv
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gha3d import analysis
from gha3d.analysis import (
    PROBE_CAP,
    ApproximationReport,
    ScalingRow,
    approximation_csv,
    approximation_report,
    attention_histogram,
    effective_attention,
    effective_attention_row,
    heatmap_csv,
    histogram_csv,
    locality_ratio,
    mass_beyond_radius,
    mechanism_weights,
    neighborhood_radius,
    scaling_csv,
    scaling_sweep,
    weight_bound,
    _check_weight_bound,
    _effective_rows,
    _pairwise_distances,
)
from gha3d.attention import _bounded_spans, _forward_core, gha_forward, make_fourier_embedding
from gha3d.errors import CapacityError, InvalidInputError, InvariantViolation
from gha3d.hierarchy import build_hierarchy, with_values
from gha3d.seeding import substream

PAIR_POSITIONS = np.array(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [10.0, 0.0, 0.0], [11.0, 0.0, 0.0]]
)


# ---------------------------------------------------------------------------
# Oracles. Effective weights are recomputed from first principles: compose
# the per-level averaging operators explicitly, then run the raw-exponential
# recursion on weight rows over the original tokens. The probe oracle reads
# columns instead, from forward passes over one-hot values.
# ---------------------------------------------------------------------------

def probe_columns(hierarchy, lo, hi, emb=None, mode="none"):
    """Columns lo:hi of the effective weight matrix: the forward output for
    one-hot value columns e_lo ... e_(hi-1)."""
    n = hierarchy.levels[0].n_tokens
    probes = np.zeros((n, hi - lo))
    probes[np.arange(lo, hi), np.arange(hi - lo)] = 1.0
    return gha_forward(with_values(hierarchy, v=probes), emb, mode).z


def oracle_score(q, k, pos, i, j, emb, mode):
    d = q.shape[1]
    qi, kj = q[i].copy(), k[j].copy()

    def gamma(p):
        ang = 2.0 * math.pi * (emb.frequencies @ p)
        out = np.empty(2 * emb.m)
        out[0::2] = np.cos(ang)
        out[1::2] = np.sin(ang)
        return out

    if mode == "absolute":
        qi += gamma(pos[i])
        kj += gamma(pos[j])
    s = float(np.dot(qi, kj))
    if mode == "relative":
        s += float(np.dot(qi, gamma(pos[i] - pos[j])))
    return s / math.sqrt(d)


def averaging_operator(hierarchy, h):
    """(n_h, n_0) matrix R with v_tilde^h = R @ v_tilde^0."""
    r_op = np.eye(hierarchy.levels[0].n_tokens)
    for lev in range(h):
        fine = hierarchy.levels[lev]
        nxt = hierarchy.levels[lev + 1]
        s_op = np.zeros((nxt.n_tokens, fine.n_tokens))
        if hierarchy.flavor == "point":
            for jc in range(nxt.n_tokens):
                nb = fine.topology.neighbors(int(nxt.selected[jc]))
                s_op[jc, nb] = 1.0 / len(nb)
        else:
            for jc in range(nxt.n_tokens):
                ch = np.flatnonzero(fine.parent_of == jc)
                s_op[jc, ch] = 1.0 / len(ch)
        r_op = s_op @ r_op
    return r_op


def oracle_effective_weights(hierarchy, emb=None, mode="none"):
    n0 = hierarchy.levels[0].n_tokens
    carry_w = carry_d = None
    for h in range(hierarchy.depth, -1, -1):
        lv = hierarchy.levels[h]
        r_op = averaging_operator(hierarchy, h)
        w_rows = np.zeros((lv.n_tokens, n0))
        d_rows = np.zeros(lv.n_tokens)
        for i in range(lv.n_tokens):
            for j in lv.topology.neighbors(i):
                w = math.exp(oracle_score(lv.q_tilde, lv.k_tilde, lv.positions, i, int(j), emb, mode))
                w_rows[i] += w * r_op[int(j)]
                d_rows[i] += w
        if carry_w is not None:
            w_rows += carry_w[lv.parent_of]
            d_rows += carry_d[lv.parent_of]
        carry_w, carry_d = w_rows, d_rows
    return carry_w / carry_d[:, None]


def oracle_dense_weights(q, k, pos, emb=None, mode="none"):
    n = q.shape[0]
    w = np.zeros((n, n))
    for i in range(n):
        row = np.array([math.exp(oracle_score(q, k, pos, i, j, emb, mode)) for j in range(n)])
        w[i] = row / row.sum()
    return w


def rand_hierarchy(seed, n, d, k, flavor="point"):
    rng = np.random.default_rng(seed)
    pos = rng.normal(size=(n, 3))
    q, k_mat, v = rng.normal(size=(n, d)), rng.normal(size=(n, d)), rng.normal(size=(n, d))
    if flavor == "voxel":
        coords = np.floor(pos / 0.8).astype(np.int64)
        order = np.lexsort((coords[:, 2], coords[:, 1], coords[:, 0]))
        uniq, first = np.unique(coords[order], axis=0, return_index=True)
        keep = order[first][: min(n, len(first))]
        pos, q, k_mat, v = pos[keep], q[keep], k_mat[keep], v[keep]
        return build_hierarchy(pos, q, k_mat, v, flavor="voxel",
                               coords=np.floor(pos / 0.8).astype(np.int64))
    return build_hierarchy(pos, q, k_mat, v, flavor="point", k=k, r=2)


# ---------------------------------------------------------------------------
# Effective attention weights
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["none", "absolute", "relative"])
def test_effective_weights_match_operator_oracle(mode):
    h = rand_hierarchy(7, n=14, d=4, k=3)
    emb = make_fourier_embedding(4, np.random.default_rng(70)) if mode != "none" else None
    got = effective_attention(h, emb, mode)
    want = oracle_effective_weights(h, emb, mode)
    assert np.max(np.abs(got - want)) < 1e-12


def test_effective_weights_are_row_stochastic():
    h = rand_hierarchy(8, n=20, d=4, k=3)
    w = effective_attention(h)
    assert w.min() >= 0.0
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)


def test_effective_weights_reconstruct_forward_output():
    h = rand_hierarchy(9, n=17, d=4, k=3)
    w = effective_attention(h)
    z = gha_forward(h).z
    assert np.max(np.abs(w @ h.levels[0].v_tilde - z)) < 1e-12


def test_effective_row_matches_matrix():
    # The row and the matrix come from one adjoint path: bitwise equal.
    h = rand_hierarchy(10, n=13, d=4, k=3)
    w = effective_attention(h)
    for i in (0, 5, 12):
        np.testing.assert_array_equal(effective_attention_row(h, i), w[i])
    with pytest.raises(InvalidInputError):
        effective_attention_row(h, 13)


def test_effective_row_rejects_non_integer_query():
    h = rand_hierarchy(10, n=13, d=4, k=3)
    for bad in (1.5, 2.0, np.float64(3.0), "1", None):
        with pytest.raises(InvalidInputError, match="integer"):
            effective_attention_row(h, bad)
    np.testing.assert_array_equal(effective_attention_row(h, np.int64(5)),
                                  effective_attention_row(h, 5))


def duplicate_hierarchy(seed, n=40, d=4):
    """Point hierarchy over a cloud where every position occurs 4 times."""
    rng = np.random.default_rng(seed)
    pos = np.repeat(rng.normal(size=(n // 4, 3)), 4, axis=0)
    q, k, v = (rng.normal(size=(n, d)) for _ in range(3))
    return build_hierarchy(pos, q, k, v, flavor="point", k=5, r=2)


ROW_HIERARCHIES = {
    "point": lambda: rand_hierarchy(30, n=60, d=4, k=5),
    "voxel": lambda: rand_hierarchy(31, n=200, d=4, k=0, flavor="voxel"),
    "duplicates": lambda: duplicate_hierarchy(32),
}


@pytest.mark.parametrize("mode", ["none", "relative", "absolute"])
@pytest.mark.parametrize("kind", sorted(ROW_HIERARCHIES))
def test_adjoint_row_matches_probed_matrix(kind, mode):
    h = ROW_HIERARCHIES[kind]()
    assert h.depth >= 1
    emb = make_fourier_embedding(4, np.random.default_rng(33)) if mode != "none" else None
    n = h.levels[0].n_tokens
    w = effective_attention(h, emb, mode)
    assert np.max(np.abs(w - probe_columns(h, 0, n, emb, mode))) <= 1e-15
    for i in range(n):
        row = effective_attention_row(h, i, emb, mode)
        np.testing.assert_array_equal(row, w[i])
        assert row.min() >= 0.0
        assert abs(row.sum() - 1.0) <= 1e-12


def test_adjoint_row_is_deterministic():
    h = rand_hierarchy(34, n=50, d=4, k=4)
    emb = make_fourier_embedding(4, np.random.default_rng(34))
    first = effective_attention_row(h, 7, emb, "relative").tobytes()
    for _ in range(3):
        assert effective_attention_row(h, 7, emb, "relative").tobytes() == first


def test_adjoint_row_permutation_equivariance_exact():
    rng = np.random.default_rng(35)
    n = 30
    pos = rng.normal(size=(n, 3))
    q, k, v = (rng.normal(size=(n, 4)) for _ in range(3))
    emb = make_fourier_embedding(4, rng)
    perm = rng.permutation(n)
    h = build_hierarchy(pos, q, k, v, flavor="point", k=4, r=2)
    hp = build_hierarchy(pos[perm], q[perm], k[perm], v[perm], flavor="point", k=4, r=2)
    for mode, e in (("none", None), ("relative", emb), ("absolute", emb)):
        for a in (0, 11, 29):
            np.testing.assert_array_equal(effective_attention_row(hp, a, e, mode),
                                          effective_attention_row(h, perm[a], e, mode)[perm])

    coords = np.unique(rng.integers(-5, 6, size=(90, 3)), axis=0)
    m = coords.shape[0]
    vpos = coords + rng.uniform(0.1, 0.9, size=(m, 3))
    q, k, v = (rng.normal(size=(m, 4)) for _ in range(3))
    cperm = rng.permutation(m)
    h = build_hierarchy(vpos, q, k, v, flavor="voxel", coords=coords)
    hp = build_hierarchy(vpos[cperm], q[cperm], k[cperm], v[cperm], flavor="voxel",
                         coords=coords[cperm])
    for a in (0, m // 2, m - 1):
        np.testing.assert_array_equal(effective_attention_row(hp, a, emb, "relative"),
                                      effective_attention_row(h, cperm[a], emb, "relative")[cperm])


def test_effective_matrix_permutation_equivariance_exact():
    # Small point clouds make coincident coarse tokens, whose ties the
    # pull-back must break the way FPS and kNN do.
    rng = np.random.default_rng(40)
    emb = make_fourier_embedding(4, rng)
    cases = []
    for seed in range(6):
        crng = np.random.default_rng(seed)
        pos = crng.normal(size=(30, 3))
        q, k, v = (crng.normal(size=(30, 4)) for _ in range(3))
        perm = rng.permutation(30)
        cases.append((build_hierarchy(pos, q, k, v, flavor="point", k=5, r=2),
                      build_hierarchy(pos[perm], q[perm], k[perm], v[perm], flavor="point",
                                      k=5, r=2), perm))
    assert any(lv.n_tokens > np.unique(lv.positions, axis=0).shape[0]
               for h, _, _ in cases for lv in h.levels)
    coords = np.unique(rng.integers(-5, 6, size=(150, 3)), axis=0)
    m = coords.shape[0]
    vpos = coords + rng.uniform(0.1, 0.9, size=(m, 3))
    q, k, v = (rng.normal(size=(m, 4)) for _ in range(3))
    perm = rng.permutation(m)
    cases.append((build_hierarchy(vpos, q, k, v, flavor="voxel", coords=coords),
                  build_hierarchy(vpos[perm], q[perm], k[perm], v[perm], flavor="voxel",
                                  coords=coords[perm]), perm))
    for h, hp, perm in cases:
        assert h.depth >= 2
        for mode, e in (("none", None), ("relative", emb), ("absolute", emb)):
            w = effective_attention(h, e, mode)
            np.testing.assert_array_equal(effective_attention(hp, e, mode), w[np.ix_(perm, perm)])


_grid_coordinate = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0])


@st.composite
def small_hierarchies(draw):
    """Point or voxel hierarchies over at most 40 tokens: point positions
    come from a few grid points (so duplicates are common) and k ranges
    past N; voxel cells are unique, their positions need not be."""
    flavor = draw(st.sampled_from(["point", "voxel"]))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = draw(st.lists(st.tuples(*[_grid_coordinate] * 3), min_size=1, max_size=n))
    pos = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    pos = pos + draw(st.sampled_from([0.0, 1e-3])) * rng.normal(size=pos.shape)
    if flavor == "point":
        k, r, coords = draw(st.integers(1, n + 2)), draw(st.integers(2, 3)), None
    else:
        k, r = 8, 2
        cells = rng.choice(6 ** 3, size=n, replace=False)
        coords = np.stack(np.unravel_index(cells, (6, 6, 6)), axis=1) - 3
    q, k_mat, v = (rng.normal(size=(n, 4)) for _ in range(3))
    return build_hierarchy(pos, q, k_mat, v, flavor=flavor, k=k, r=r, coords=coords)


@settings(max_examples=100, deadline=None)
@given(h=small_hierarchies(), mode=st.sampled_from(["none", "relative", "absolute"]))
def test_effective_rows_property(h, mode):
    emb = make_fourier_embedding(4, np.random.default_rng(41)) if mode != "none" else None
    w = effective_attention(h, emb, mode)
    assert w.min() >= 0.0
    assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-12
    for i in range(h.levels[0].n_tokens):
        np.testing.assert_array_equal(effective_attention_row(h, i, emb, mode), w[i])


def test_adjoint_row_beyond_probe_cap():
    n = 5000
    assert n > PROBE_CAP
    rng = np.random.default_rng(36)
    pos = rng.uniform(size=(n, 3))
    q, k, v = (rng.normal(size=(n, 4)) for _ in range(3))
    h = build_hierarchy(pos, q, k, v, flavor="point", k=8, r=2)
    with pytest.raises(CapacityError):
        effective_attention(h)
    row = effective_attention_row(h, 4321)
    assert row.shape == (n,) and row.min() >= 0.0
    assert abs(row.sum() - 1.0) <= 1e-12
    for lo in (0, 4300):  # spot-check column blocks against one-hot probes
        probed = probe_columns(h, lo, lo + 64)[4321]
        assert np.max(np.abs(row[lo:lo + 64] - probed)) <= 1e-15


def test_effective_weights_flat_hierarchy_equal_dense_softmax():
    rng = np.random.default_rng(11)
    n, d = 9, 4
    pos = rng.normal(size=(n, 3))
    q, k, v = rng.normal(size=(n, d)), rng.normal(size=(n, d)), rng.normal(size=(n, d))
    h = build_hierarchy(pos, q, k, v, flavor="point", k=n, r=2)
    assert h.depth == 0
    got = effective_attention(h)
    want = oracle_dense_weights(q, k, pos)
    assert np.max(np.abs(got - want)) < 1e-12


def test_pair_layout_effective_weights_closed_form():
    # k=2, r=2 on two separated pairs: query 0 attends locally to {0, 1} and
    # through its coarse ancestor to both pair means, each spreading half its
    # weight to each member.
    rng = np.random.default_rng(12)
    q, k, v = (rng.normal(size=(4, 3)) for _ in range(3))
    h = build_hierarchy(PAIR_POSITIONS, q, k, v, flavor="point", k=2, r=2)
    qc = (q[[0, 1]].mean(axis=0), q[[2, 3]].mean(axis=0))
    kc = (k[[0, 1]].mean(axis=0), k[[2, 3]].mean(axis=0))
    s = math.sqrt(3)
    e00 = math.exp(np.dot(q[0], k[0]) / s)
    e01 = math.exp(np.dot(q[0], k[1]) / s)
    ec0 = math.exp(np.dot(qc[0], kc[0]) / s)
    ec1 = math.exp(np.dot(qc[0], kc[1]) / s)
    denom = e00 + e01 + ec0 + ec1
    want = np.array([e00 + ec0 / 2, e01 + ec0 / 2, ec1 / 2, ec1 / 2]) / denom
    got = effective_attention(h)[0]
    np.testing.assert_allclose(got, want, atol=1e-14)


def test_effective_weights_independent_of_block_size_and_threads():
    # Block heights derive from the level-0 edge count: n=800, k=8 gives two.
    n = 800
    h = rand_hierarchy(13, n=n, d=4, k=8)
    spans = _bounded_spans(n, h.levels[0].topology.total_edges)
    assert len(spans) >= 2
    base = effective_attention(h)
    np.testing.assert_array_equal(effective_attention(h, threads=4), base)
    forward = _forward_core(h, None, "none", want_cache=True)
    cut = spans[1][0]
    for rows in (np.arange(*spans[-1]), np.arange(cut - 5, cut + 5), np.array([799, 3, 3, 0])):
        np.testing.assert_array_equal(_effective_rows(h, forward, rows), base[rows])


def test_row_blocks_keep_the_element_bound(monkeypatch):
    n = 4096
    rng = np.random.default_rng(37)
    pos = rng.uniform(size=(n, 3))
    q, k, v = (rng.normal(size=(n, 4)) for _ in range(3))
    h = build_hierarchy(pos, q, k, v, flavor="point", k=8, r=2)
    edges = h.levels[0].topology.total_edges
    blocks = []

    def recording(hierarchy, forward, queries):
        blocks.append(queries)
        return np.broadcast_to(queries[:, None].astype(np.float64), (queries.shape[0], n))

    monkeypatch.setattr(analysis, "_effective_rows", recording)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:  # more threads than cores write their blocks into one array
        w = effective_attention(h, threads=4)
    finally:
        sys.setswitchinterval(switch)
    blocks.sort(key=lambda b: b[0])
    assert len(blocks) == 32
    np.testing.assert_array_equal(np.concatenate(blocks), np.arange(n))
    assert all(b.shape[0] * edges <= 1 << 22 for b in blocks)
    assert np.array_equal(w, np.broadcast_to(np.arange(n, dtype=np.float64)[:, None], (n, n)))


def test_probe_cap_enforced(monkeypatch):
    h = rand_hierarchy(14, n=16, d=4, k=3)
    monkeypatch.setattr(analysis, "PROBE_CAP", 8)
    with pytest.raises(CapacityError, match="cap of 8"):
        effective_attention(h)
    with pytest.raises(CapacityError, match="effective_attention_row"):
        mechanism_weights(h, "local")
    # Dense weights have no row reader, and nothing probes.
    with pytest.raises(CapacityError, match="cap of 8") as err:
        mechanism_weights(h, "dense")
    assert "effective_attention_row" not in str(err.value)
    assert "prob" not in str(err.value)
    monkeypatch.setattr(analysis, "PROBE_CAP", 16)
    assert effective_attention(h).shape == (16, 16)


# ---------------------------------------------------------------------------
# Mechanism weight matrices
# ---------------------------------------------------------------------------

def test_local_weights_are_masked_softmax():
    h = rand_hierarchy(15, n=12, d=4, k=3)
    w = mechanism_weights(h, "local")
    lv = h.levels[0]
    for i in range(12):
        nb = lv.topology.neighbors(i)
        raw = np.array([
            math.exp(oracle_score(lv.q_tilde, lv.k_tilde, lv.positions, i, int(j), None, "none"))
            for j in nb
        ])
        want = np.zeros(12)
        want[nb] = raw / raw.sum()
        np.testing.assert_allclose(w[i], want, atol=1e-13)
    outside = np.ones((12, 12), dtype=bool)
    for i in range(12):
        outside[i, lv.topology.neighbors(i)] = False
    assert np.all(w[outside] == 0.0)  # structurally untouched, not just tiny


@pytest.mark.parametrize("mode", ["none", "relative", "absolute"])
def test_dense_weights_match_oracle(mode):
    h = rand_hierarchy(16, n=11, d=4, k=3)
    emb = make_fourier_embedding(4, np.random.default_rng(160)) if mode != "none" else None
    lv = h.levels[0]
    got = mechanism_weights(h, "dense", emb, mode)
    want = oracle_dense_weights(lv.q_tilde, lv.k_tilde, lv.positions, emb, mode)
    assert np.max(np.abs(got - want)) < 1e-12


def test_mechanism_weights_rejects_unknown():
    h = rand_hierarchy(17, n=8, d=4, k=3)
    with pytest.raises(InvalidInputError):
        mechanism_weights(h, "sparse")


# ---------------------------------------------------------------------------
# Distance histograms
# ---------------------------------------------------------------------------

def brute_histogram_mass(positions, weights, edges):
    n = positions.shape[0]
    mass = np.zeros(len(edges) - 1)
    for i in range(n):
        for j in range(n):
            dist = float(np.linalg.norm(positions[i] - positions[j]))
            b = int(np.searchsorted(edges, dist, side="right")) - 1
            b = min(max(b, 0), len(edges) - 2)
            mass[b] += weights[i, j]
    return mass


def test_histogram_total_mass_and_oracle():
    h = rand_hierarchy(18, n=19, d=4, k=3)
    hist = attention_histogram(h, "gha", n_bins=16)
    assert hist.n_bins == 16
    assert hist.bin_edges[0] == 0.0
    assert abs(hist.total_mass - 19) < 1e-9
    assert np.all(hist.mass >= 0.0)
    w = effective_attention(h)
    want = brute_histogram_mass(h.levels[0].positions, w, hist.bin_edges)
    np.testing.assert_allclose(hist.mass, want, atol=1e-12)


def test_histogram_local_mass_confined_to_radius():
    # Two tight clusters 100 apart: local attention with k=2 never crosses.
    rng = np.random.default_rng(19)
    pos = np.vstack([rng.normal(size=(8, 3)), rng.normal(size=(8, 3)) + [100, 0, 0]])
    q, k, v = (rng.normal(size=(16, 4)) for _ in range(3))
    h = build_hierarchy(pos, q, k, v, flavor="point", k=2, r=2)
    radius = neighborhood_radius(h)
    assert radius < 50

    local = attention_histogram(h, "local", n_bins=32)
    beyond = local.bin_edges[:-1] > radius
    assert np.all(local.mass[beyond] == 0.0)
    assert abs(local.total_mass - 16) < 1e-9

    gha = attention_histogram(h, "gha", n_bins=32)
    far = gha.bin_edges[:-1] >= 50
    assert gha.mass[far].sum() > 0.0  # coarse levels bridge the gap


def test_mass_beyond_radius_local_vs_gha():
    h = rand_hierarchy(20, n=24, d=4, k=3)
    radius = neighborhood_radius(h)
    pos = h.levels[0].positions
    assert mass_beyond_radius(pos, mechanism_weights(h, "local"), radius) == 0.0
    assert mass_beyond_radius(pos, mechanism_weights(h, "gha"), radius) > 0.0


def test_neighborhood_radius_matches_brute():
    h = rand_hierarchy(21, n=15, d=4, k=4)
    lv = h.levels[0]
    best = 0.0
    for i in range(15):
        for j in lv.topology.neighbors(i):
            best = max(best, float(np.linalg.norm(lv.positions[i] - lv.positions[int(j)])))
    assert neighborhood_radius(h) == pytest.approx(best, abs=0.0)


def test_histogram_coincident_points_degenerate_span():
    pos = np.zeros((3, 3))
    q, k, v = (np.ones((3, 2)) for _ in range(3))
    h = build_hierarchy(pos, q, k, v, flavor="point", k=3, r=2)
    hist = attention_histogram(h, "gha", n_bins=4)
    assert abs(hist.total_mass - 3) < 1e-12
    assert hist.mass[0] == hist.total_mass  # all pairs at distance zero


@pytest.mark.parametrize("n_bins", [2.5, "4", None])
def test_histogram_rejects_a_non_integer_bin_count(n_bins):
    rng = np.random.default_rng(43)
    h = build_hierarchy(rng.normal(size=(6, 3)), *(rng.normal(size=(6, 2)) for _ in range(3)),
                        flavor="point", k=3, r=2)
    with pytest.raises(InvalidInputError, match="n_bins must be an integer"):
        attention_histogram(h, "gha", n_bins=n_bins)
    assert attention_histogram(h, "gha", n_bins=np.int64(3)).n_bins == 3


# ---------------------------------------------------------------------------
# Locality ratio and approximation report
# ---------------------------------------------------------------------------

def test_pairwise_distances_memory_bound():
    n = 2048
    pos = np.random.default_rng(38).uniform(size=(n, 3))
    tracemalloc.start()
    try:
        d = _pairwise_distances(pos)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert d.shape == (n, n)
    assert peak <= n * n * 8 + (1 << 22) * 8 * 2


def test_locality_ratio_memory_bound():
    # Row chunks: neither the distances nor their order is ever N x N.
    n = 3000
    rng = np.random.default_rng(42)
    pos = rng.uniform(size=(n, 3))
    w = rng.uniform(size=(n, n))
    tracemalloc.start()
    try:
        locality_ratio(pos, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (1 << 22) * 8 * 2 < n * n * 8


def test_locality_ratio_matches_lexsort_order_on_ties():
    # A 1/6 grid makes most distances tie; the oracle is the one-shot
    # einsum with a 2-key (distance, index) lexsort.
    n = 1500
    rng = np.random.default_rng(39)
    pos = np.round(rng.uniform(size=(n, 3)) * 6) / 6
    w = rng.uniform(size=(n, n))
    diff = pos[:, None, :] - pos[None, :, :]
    d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    assert len(_bounded_spans(n, 3 * n)) >= 2
    np.testing.assert_array_equal(_pairwise_distances(pos), d)
    idx = np.arange(n)
    d[idx, idx] = np.inf
    order = np.lexsort((np.broadcast_to(idx, (n, n)), d), axis=1)
    near = np.take_along_axis(w, order[:, :5], axis=1).mean()
    far = np.take_along_axis(w, order[:, n - 6:n - 1], axis=1).mean()
    assert locality_ratio(pos, w) == near / far


def test_locality_ratio_uniform_weights_is_one():
    rng = np.random.default_rng(22)
    pos = rng.normal(size=(12, 3))
    w = np.full((12, 12), 1.0 / 12)
    assert locality_ratio(pos, w) == pytest.approx(1.0, abs=1e-15)


def test_locality_ratio_hand_case():
    pos = np.array([[0.0, 0, 0], [1.0, 0, 0], [10.0, 0, 0]])
    w = np.array([[0.0, 0.9, 0.1], [0.5, 0.0, 0.5], [0.2, 0.8, 0.0]])
    # nearest-1 picks weights (.9, .5, .8), farthest-1 picks (.1, .5, .2)
    got = locality_ratio(pos, w, n_extreme=1)
    assert got == pytest.approx((0.9 + 0.5 + 0.8) / (0.1 + 0.5 + 0.2))


def test_locality_ratio_input_checks():
    with pytest.raises(InvalidInputError):
        locality_ratio(np.zeros((1, 3)), np.ones((1, 1)))


@pytest.mark.parametrize("n_extreme", [0, -2, 1.5])
def test_locality_ratio_rejects_a_bad_extreme_count(n_extreme):
    # 0 returned nan with a RuntimeWarning, -2 raised a bare ValueError.
    pos, w = np.random.default_rng(44).uniform(size=(5, 3)), np.full((5, 5), 0.2)
    with pytest.raises(InvalidInputError, match="n_extreme"):
        locality_ratio(pos, w, n_extreme=n_extreme)


def _pair_cases():
    rng = np.random.default_rng(40)
    pos, w = rng.uniform(size=(10, 3)), np.full((10, 10), 0.1)
    nan_w = w.copy()
    nan_w[3, 4] = np.nan
    inf_pos = pos.copy()
    inf_pos[2, 1] = np.inf
    return {
        "short_weights": (pos, w[:9, :9]),  # raised a raw IndexError
        "flat_weights": (pos, w[0]),  # raised a raw AxisError
        "planar_positions": (pos[:, :2], w),  # was accepted
        "nan_weights": (pos, nan_w),  # locality_ratio returned nan
        "inf_positions": (inf_pos, w),
    }


@pytest.mark.parametrize("case", sorted(_pair_cases()))
def test_locality_ratio_rejects_malformed_inputs(case):
    pos, w = _pair_cases()[case]
    with pytest.raises(InvalidInputError):
        locality_ratio(pos, w)


@pytest.mark.parametrize("case", sorted(_pair_cases()))
def test_mass_beyond_radius_rejects_malformed_inputs(case):
    pos, w = _pair_cases()[case]
    with pytest.raises(InvalidInputError):
        mass_beyond_radius(pos, w, 0.5)


@pytest.mark.parametrize("radius", [-0.1, math.nan, math.inf])
def test_mass_beyond_radius_rejects_bad_radius(radius):
    pos = np.random.default_rng(41).uniform(size=(10, 3))
    with pytest.raises(InvalidInputError):
        mass_beyond_radius(pos, np.full((10, 10), 0.1), radius)
    assert mass_beyond_radius(pos, np.full((10, 10), 0.1), 0.0) == pytest.approx(9.0)


def test_approximation_report_flat_hierarchy_is_exact():
    rng = np.random.default_rng(23)
    n, d = 10, 4
    pos = rng.normal(size=(n, 3))
    q, k, v = (rng.normal(size=(n, d)) for _ in range(3))
    h = build_hierarchy(pos, q, k, v, flavor="point", k=n, r=2)
    rep = approximation_report(h)
    assert rep.max_rel_err < 1e-12
    assert rep.mean_rel_err <= rep.max_rel_err
    assert rep.dense_weight_count == n * n
    assert rep.n_tokens == n and rep.flavor == "point" and rep.k == n


def test_approximation_report_matches_direct_recomputation():
    from gha3d.attention import AttentionInputs, dense_attention

    h = rand_hierarchy(24, n=18, d=4, k=3)
    rep = approximation_report(h)
    lv = h.levels[0]
    z_g = gha_forward(h).z
    z_d = dense_attention(AttentionInputs(
        q=lv.q_tilde, k=lv.k_tilde, v=lv.v_tilde, positions=lv.positions)).z
    rel = np.linalg.norm(z_g - z_d, axis=1) / np.linalg.norm(z_d, axis=1)
    assert rep.max_rel_err == pytest.approx(float(rel.max()), rel=1e-12)
    assert rep.mean_rel_err == pytest.approx(float(rel.mean()), rel=1e-12)
    assert rep.locality_ratio == locality_ratio(lv.positions, effective_attention(h))
    assert rep.weight_count == gha_forward(h).weight_count


# ---------------------------------------------------------------------------
# Scaling sweep
# ---------------------------------------------------------------------------

def test_weight_bound_arithmetic():
    assert weight_bound(8, 2, 1000) == 16000.0
    assert weight_bound(4, 4, 99) == pytest.approx(4 * 4 / 3 * 99)
    with pytest.raises(InvalidInputError):
        weight_bound(8, 1, 10)


def test_weight_bound_violation_raises():
    row = ScalingRow(n_points=10, n_tokens=10, flavor="point", k=2, r=2,
                     mechanism="gha", weight_count=1000, weight_bound=40.0,
                     peak_bytes_estimate=0, wall_time=0.0)
    with pytest.raises(InvariantViolation):
        _check_weight_bound(row)


def test_scaling_sweep_gha_rows_and_fit():
    rep = scaling_sweep([64, 128, 256], flavor="point", k=4, r=2, seed=3)
    assert [row.n_tokens for row in rep.rows] == [64, 128, 256]
    for row in rep.rows:
        assert row.mechanism == "gha"
        assert row.weight_count <= row.weight_bound
        assert row.peak_bytes_estimate == row.weight_count * 8 * 10
        assert row.wall_time > 0.0
    assert rep.slope > 0.0
    assert rep.r_squared > 0.999


def test_scaling_sweep_dense_and_local_counts():
    dense = scaling_sweep([32, 64], mechanism="dense", seed=4)
    assert [row.weight_count for row in dense.rows] == [32 * 32, 64 * 64]
    assert all(math.isnan(row.weight_bound) for row in dense.rows)
    local = scaling_sweep([32, 64], mechanism="local", k=4, seed=4)
    assert [row.weight_count for row in local.rows] == [4 * 32, 4 * 64]


def test_scaling_sweep_voxel_flavor():
    rep = scaling_sweep([128, 256], flavor="voxel", k=8, r=3, seed=5, voxel_size=0.2)
    for row in rep.rows:
        assert row.flavor == "voxel"
        assert row.k == 27 and row.r == 2  # window and stride are fixed
        assert row.n_tokens <= row.n_points
        assert row.weight_count <= row.weight_bound


def test_scaling_sweep_rejects_unknown_mechanism():
    with pytest.raises(InvalidInputError):
        scaling_sweep([16], mechanism="exact")


@pytest.mark.parametrize("kw", [dict(sizes=[32, -5]), dict(sizes=[0]), dict(sizes=[16], d=0),
                                dict(sizes=[16], d=-2), dict(sizes=[16], d=2.5)])
def test_scaling_sweep_rejects_bad_sizes_and_widths(kw):
    with pytest.raises(InvalidInputError, match="size|d must"):
        scaling_sweep(kw.pop("sizes"), mechanism="dense", **kw)


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def parse_csv(text):
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def test_scaling_csv_roundtrip():
    rep = scaling_sweep([32, 64], flavor="point", k=4, r=2, seed=6)
    text = scaling_csv(rep)
    header, rows = parse_csv(text)
    assert header == ["n_points", "n_tokens", "flavor", "k", "r", "mechanism",
                      "weight_count", "weight_bound", "peak_bytes_estimate", "wall_time"]
    assert len(rows) == 2
    for row, want in zip(rows, rep.rows):
        assert int(row[0]) == want.n_points
        assert int(row[6]) == want.weight_count
        assert float(row[7]) == want.weight_bound
        assert float(row[9]) == want.wall_time
    assert f"r_squared = {rep.r_squared!r}" in text.splitlines()[-1]


def test_scaling_csv_blank_bound_for_dense():
    rep = scaling_sweep([16], mechanism="dense", seed=7)
    _, rows = parse_csv(scaling_csv(rep))
    assert rows[0][7] == ""


def test_histogram_csv_roundtrip():
    h = rand_hierarchy(25, n=10, d=4, k=3)
    hist = attention_histogram(h, "local", n_bins=8)
    header, rows = parse_csv(histogram_csv(hist))
    assert header == ["mechanism", "bin_lo", "bin_hi", "mass"]
    assert len(rows) == 8
    assert all(row[0] == "local" for row in rows)
    assert sum(float(row[3]) for row in rows) == pytest.approx(10.0, abs=1e-9)
    np.testing.assert_array_equal([float(row[1]) for row in rows], hist.bin_edges[:-1])


def test_approximation_csv_roundtrip():
    h = rand_hierarchy(26, n=12, d=4, k=3)
    rep = approximation_report(h)
    header, rows = parse_csv(approximation_csv(rep))
    assert header[:5] == ["n_tokens", "flavor", "k", "r", "embedding_mode"]
    assert len(rows) == 1
    assert float(rows[0][5]) == rep.max_rel_err
    assert float(rows[0][7]) == rep.locality_ratio


def test_heatmap_csv_roundtrip():
    h = rand_hierarchy(27, n=9, d=4, k=3)
    pos = h.levels[0].positions
    row = effective_attention_row(h, 2)
    header, rows = parse_csv(heatmap_csv(pos, row))
    assert header == ["x", "y", "z", "weight"]
    assert len(rows) == 9
    got_pos = np.array([[float(c) for c in r[:3]] for r in rows])
    np.testing.assert_array_equal(got_pos, pos)  # repr round-trips f64 exactly
    assert sum(float(r[3]) for r in rows) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InvalidInputError):
        heatmap_csv(pos, row[:5])
