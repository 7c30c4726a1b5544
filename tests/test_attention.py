import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from gha3d.analysis import effective_attention, effective_attention_row
from gha3d.attention import (
    AttentionInputs,
    FourierEmbedding,
    _dense_softmax_chunks,
    _transposed_product,
    dense_attention,
    embed_points,
    fourier_embed,
    gha_backward,
    gha_forward,
    local_attention,
    make_fourier_embedding,
    positional_table,
)
from gha3d.errors import ConfigError, InvalidInputError
from gha3d.geometry import knn_from_positions
from gha3d.hierarchy import build_hierarchy, truncate, with_values

PAIR_POSITIONS = np.array(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [10.0, 0.0, 0.0], [11.0, 0.0, 0.0]]
)


# ---------------------------------------------------------------------------
# Oracles: two plain python loops, raw exponentials, no shared kernels.
# ---------------------------------------------------------------------------

def oracle_score(q, k, pos, i, j, emb, mode):
    d = q.shape[1]
    qi, kj = q[i], k[j]
    if mode == "absolute":
        qi = qi + fourier_embed(emb, pos[i])
        kj = kj + fourier_embed(emb, pos[j])
    s = float(np.dot(qi, kj))
    if mode == "relative":
        s += float(np.dot(qi, fourier_embed(emb, pos[i] - pos[j])))
    return s / math.sqrt(d)


def oracle_dense(q, k, v, pos, emb=None, mode="none"):
    n = q.shape[0]
    z = np.zeros_like(v)
    denom = np.zeros(n)
    for i in range(n):
        weights = [math.exp(oracle_score(q, k, pos, i, j, emb, mode)) for j in range(n)]
        denom[i] = sum(weights)
        for j in range(n):
            z[i] += (weights[j] / denom[i]) * v[j]
    return z, denom


def oracle_masked_dense(q, k, v, pos, topo, emb=None, mode="none"):
    n = q.shape[0]
    z = np.zeros_like(v)
    denom = np.zeros(n)
    for i in range(n):
        nb = list(topo.neighbors(i))
        weights = [math.exp(oracle_score(q, k, pos, i, j, emb, mode)) for j in nb]
        denom[i] = sum(weights)
        for w, j in zip(weights, nb):
            z[i] += (w / denom[i]) * v[j]
    return z, denom


def naive_gha(hierarchy, emb=None, mode="none"):
    """Raw-exponential top-down recursion: no max shifting anywhere."""
    carry_y = carry_d = None
    for h in range(hierarchy.depth, -1, -1):
        lv = hierarchy.levels[h]
        n_h = lv.n_tokens
        y = np.zeros((n_h, lv.v_tilde.shape[1]))
        dd = np.zeros(n_h)
        for i in range(n_h):
            for j in lv.topology.neighbors(i):
                w = math.exp(oracle_score(lv.q_tilde, lv.k_tilde, lv.positions, i, int(j), emb, mode))
                y[i] += w * lv.v_tilde[int(j)]
                dd[i] += w
        if carry_y is not None:
            y = y + carry_y[lv.parent_of]
            dd = dd + carry_d[lv.parent_of]
        carry_y, carry_d = y, dd
    return carry_y / carry_d[:, None], carry_d


def rand_inputs(rng, n, d, scale=1.0):
    return (
        scale * rng.normal(size=(n, d)),
        scale * rng.normal(size=(n, d)),
        scale * rng.normal(size=(n, d)),
        rng.normal(size=(n, 3)),
    )


# ---------------------------------------------------------------------------
# Fourier embedding
# ---------------------------------------------------------------------------

def test_fourier_zero_point():
    emb = make_fourier_embedding(6, np.random.default_rng(0))
    np.testing.assert_array_equal(fourier_embed(emb, [0, 0, 0]), [1, 0, 1, 0, 1, 0])


def test_fourier_known_frequency():
    emb = FourierEmbedding(frequencies=np.array([[1.0, 0.0, 0.0]]))
    out = fourier_embed(emb, [0.25, 0.0, 0.0])  # angle 2*pi/4
    np.testing.assert_allclose(out, [math.cos(math.pi / 2), math.sin(math.pi / 2)], atol=1e-15)


def test_fourier_bounded_and_interleaved():
    rng = np.random.default_rng(1)
    emb = make_fourier_embedding(8, rng)
    assert emb.m == 4 and emb.output_dim == 8
    pts = rng.normal(size=(50, 3)) * 10
    g = embed_points(emb, pts)
    assert g.shape == (50, 8)
    assert np.all(np.abs(g) <= 1.0 + 1e-15)
    # interleaving: cos^2 + sin^2 = 1 pairwise
    np.testing.assert_allclose(g[:, 0::2] ** 2 + g[:, 1::2] ** 2, 1.0, atol=1e-12)


def test_fourier_rejects_odd_width():
    with pytest.raises(ConfigError):
        make_fourier_embedding(5, np.random.default_rng(0))
    with pytest.raises(ConfigError):
        make_fourier_embedding(0, np.random.default_rng(0))


def test_embedding_rejects_non_finite_positions():
    emb = make_fourier_embedding(4, np.random.default_rng(3))
    for bad in (np.nan, np.inf, -np.inf):
        pts = np.zeros((5, 3))
        pts[3, 2] = bad
        with pytest.raises(InvalidInputError):
            embed_points(emb, pts)
        with pytest.raises(InvalidInputError):
            fourier_embed(emb, [0.0, bad, 0.0])


def test_fourier_frequencies_frozen():
    emb = make_fourier_embedding(4, np.random.default_rng(2))
    with pytest.raises(ValueError):
        emb.frequencies[0, 0] = 1.0


# ---------------------------------------------------------------------------
# Dense attention
# ---------------------------------------------------------------------------

def test_dense_single_token_is_value():
    rng = np.random.default_rng(3)
    q, k, v, pos = rand_inputs(rng, 1, 4)
    out = dense_attention(AttentionInputs(q=q, k=k, v=v, positions=pos))
    np.testing.assert_array_equal(out.z, v)
    assert out.weight_count == 1


def test_dense_zero_keys_is_uniform():
    rng = np.random.default_rng(4)
    q, _, v, pos = rand_inputs(rng, 7, 3)
    out = dense_attention(AttentionInputs(q=q, k=np.zeros((7, 3)), v=v, positions=pos))
    np.testing.assert_allclose(out.z, np.tile(v.mean(axis=0), (7, 1)), atol=1e-12)


@pytest.mark.parametrize("mode", ["none", "absolute", "relative"])
def test_dense_matches_two_loop_oracle(mode):
    rng = np.random.default_rng(5)
    q, k, v, pos = rand_inputs(rng, 6, 4)
    emb = make_fourier_embedding(4, rng) if mode != "none" else None
    out = dense_attention(AttentionInputs(q=q, k=k, v=v, positions=pos, embedding=emb, embedding_mode=mode))
    ez, ed = oracle_dense(q, k, v, pos, emb, mode)
    np.testing.assert_allclose(out.z, ez, atol=1e-12)
    np.testing.assert_allclose(out.normalizers, ed, rtol=1e-12)
    assert out.weight_count == 36


def test_dense_rejects_bad_inputs():
    with pytest.raises(InvalidInputError):
        AttentionInputs(q=np.array([[np.inf]]), k=np.ones((1, 1)), v=np.ones((1, 1)), positions=np.zeros((1, 3)))
    with pytest.raises(InvalidInputError):
        AttentionInputs(q=np.ones((2, 3)), k=np.ones((2, 2)), v=np.ones((2, 3)), positions=np.zeros((2, 3)))
    with pytest.raises(ConfigError):
        AttentionInputs(q=np.ones((2, 4)), k=np.ones((2, 4)), v=np.ones((2, 4)),
                        positions=np.zeros((2, 3)), embedding_mode="relative")


def test_dense_large_scores_do_not_overflow():
    rng = np.random.default_rng(6)
    q, k, v, pos = rand_inputs(rng, 5, 3, scale=40.0)
    out = dense_attention(AttentionInputs(q=q, k=k, v=v, positions=pos))
    assert np.all(np.isfinite(out.z))


@pytest.mark.parametrize("mode", ["none", "absolute", "relative"])
def test_dense_row_chunks_stay_bounded_at_the_cap(mode):
    # Every rows-by-keys temporary of a chunk holds at most 2^22 elements
    # (relative mode scores [q | Q'] against [k | K'], so it forms no
    # rows-by-keys-by-frequencies one); the chunks tile the rows in order.
    rng = np.random.default_rng(26)
    n = 4096
    q, k, _, pos = rand_inputs(rng, n, 4)
    emb = make_fourier_embedding(4, rng) if mode != "none" else None
    covered = 0
    for start, stop, a, denom, mu in _dense_softmax_chunks(q, k, pos, emb, mode):
        assert start == covered and (stop - start) * n <= 1 << 22
        assert a.shape == (stop - start, n) and denom.shape == mu.shape == (stop - start,)
        covered = stop
    assert covered == n


# ---------------------------------------------------------------------------
# Local attention
# ---------------------------------------------------------------------------

def test_local_full_neighborhood_equals_dense():
    rng = np.random.default_rng(7)
    q, k, v, pos = rand_inputs(rng, 9, 4)
    topo = knn_from_positions(pos, 9)
    inputs = AttentionInputs(q=q, k=k, v=v, positions=pos)
    a = local_attention(inputs, topo)
    b = dense_attention(inputs)
    np.testing.assert_allclose(a.z, b.z, atol=1e-12)
    np.testing.assert_allclose(a.normalizers, b.normalizers, rtol=1e-12)


def test_local_self_only_returns_values():
    rng = np.random.default_rng(8)
    q, k, v, pos = rand_inputs(rng, 6, 3)
    topo = knn_from_positions(pos, 1)
    out = local_attention(AttentionInputs(q=q, k=k, v=v, positions=pos), topo)
    np.testing.assert_array_equal(out.z, v)
    assert out.weight_count == 6


@pytest.mark.parametrize("mode", ["none", "relative"])
def test_local_matches_masked_dense(mode):
    rng = np.random.default_rng(9)
    q, k, v, pos = rand_inputs(rng, 8, 4)
    emb = make_fourier_embedding(4, rng) if mode != "none" else None
    topo = knn_from_positions(pos, 3)
    out = local_attention(AttentionInputs(q=q, k=k, v=v, positions=pos, embedding=emb, embedding_mode=mode), topo)
    ez, ed = oracle_masked_dense(q, k, v, pos, topo, emb, mode)
    np.testing.assert_allclose(out.z, ez, atol=1e-12)
    np.testing.assert_allclose(out.normalizers, ed, rtol=1e-12)
    assert out.weight_count == topo.total_edges


# ---------------------------------------------------------------------------
# Hierarchical forward
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["none", "absolute", "relative"])
def test_gha_collapses_to_dense_when_flat(mode):
    rng = np.random.default_rng(10)
    q, k, v, pos = rand_inputs(rng, 12, 4)
    emb = make_fourier_embedding(4, rng) if mode != "none" else None
    h = build_hierarchy(pos, q, k, v, flavor="point", k=12, r=2)
    assert h.depth == 0
    out = gha_forward(h, embedding=emb, embedding_mode=mode)
    ref = dense_attention(AttentionInputs(q=q, k=k, v=v, positions=pos, embedding=emb, embedding_mode=mode))
    np.testing.assert_allclose(out.z, ref.z, atol=1e-12)
    np.testing.assert_allclose(out.normalizers, ref.normalizers, rtol=1e-12)


def test_gha_pair_layout_closed_form():
    """Two-level closed form: level-0 pair weights plus half-weight level-1
    terms reaching the far pair through the coarsened rows."""
    rng = np.random.default_rng(11)
    d = 3
    q, k, v, _ = rand_inputs(rng, 4, d)
    h = build_hierarchy(PAIR_POSITIONS, q, k, v, flavor="point", k=2, r=2)
    out = gha_forward(h)

    s = math.sqrt(d)
    w0_0 = math.exp(np.dot(q[0], k[0]) / s)
    w1_0 = math.exp(np.dot(q[0], k[1]) / s)
    w0_1 = math.exp(np.dot(q[0] + q[1], k[0] + k[1]) / (4 * s))
    w2_1 = math.exp(np.dot(q[0] + q[1], k[2] + k[3]) / (4 * s))
    d0 = w0_0 + w1_0 + w0_1 + w2_1
    z0 = (
        (w0_0 + w0_1 / 2) * v[0]
        + (w1_0 + w0_1 / 2) * v[1]
        + (w2_1 / 2) * v[2]
        + (w2_1 / 2) * v[3]
    ) / d0
    np.testing.assert_allclose(out.z[0], z0, atol=1e-12)
    np.testing.assert_allclose(out.normalizers[0], d0, rtol=1e-12)
    assert out.per_level_weight_count == (8, 4)
    assert out.weight_count == 12


@pytest.mark.parametrize("mode", ["none", "absolute", "relative"])
def test_gha_matches_naive_recursion_point(mode):
    rng = np.random.default_rng(12)
    q, k, v, pos = rand_inputs(rng, 40, 4)
    emb = make_fourier_embedding(4, rng) if mode != "none" else None
    h = build_hierarchy(pos, q, k, v, flavor="point", k=4, r=2)
    assert h.depth >= 2
    out = gha_forward(h, embedding=emb, embedding_mode=mode)
    ez, ed = naive_gha(h, emb, mode)
    np.testing.assert_allclose(out.z, ez, atol=1e-10)
    np.testing.assert_allclose(out.normalizers, ed, rtol=1e-10)


@pytest.mark.parametrize("mode", ["none", "relative"])
def test_forward_values_near_the_float_limit_stay_finite(mode):
    """A finite v = 1.5e308 used to overflow the weighted edge sums
    ("overflow encountered in reduceat", an error under the suite's warning
    filter). Such a column runs scaled down by a power of two and z is
    scaled back: the same bits as v scaled down by hand, z scaled up after.
    A column far from the limit keeps every bit."""
    rng = np.random.default_rng(26)
    q, k, _, pos = rand_inputs(rng, 40, 4)
    emb = make_fourier_embedding(4, rng) if mode != "none" else None
    small = rng.normal(size=(40, 1))
    v = np.hstack([np.full((40, 1), 1.5e308), rng.normal(size=(40, 1)) * 1e307, small])
    h = build_hierarchy(pos, q, k, v, flavor="point", k=4, r=2)
    z = gha_forward(h, embedding=emb, embedding_mode=mode).z
    assert np.all(np.isfinite(z))
    np.testing.assert_allclose(z[:, 0], 1.5e308, rtol=1e-12)
    scaled = gha_forward(with_values(h, v=v * 2.0**-8), embedding=emb, embedding_mode=mode).z
    assert np.array_equal(z[:, :2], scaled[:, :2] * 2.0**8)
    alone = gha_forward(with_values(h, v=small), embedding=emb, embedding_mode=mode).z
    assert np.array_equal(z[:, 2], alone[:, 0])


def test_backward_values_near_the_float_limit_stay_finite():
    """A finite v = 1.5e308 used to overflow the backward's v terms ("invalid
    value encountered in subtract"). They run on v scaled down by a power of
    two and dq, dk are scaled back: the same bits as v scaled down by hand,
    dq and dk scaled up after; dv does not depend on v."""
    rng = np.random.default_rng(27)
    q, k, _, pos = rand_inputs(rng, 40, 4)
    dz = np.ones((40, 4))
    h = build_hierarchy(pos, q, k, np.full((40, 4), 1.5e308), flavor="point", k=4, r=2)
    g = gha_backward(h, dz)
    for a in (g.dq, g.dk):  # constant v: z = v whatever the weights, so no q/k gradient
        assert np.all(np.isfinite(a))
        assert np.abs(a).max() <= 1e-12 * 1.5e308
    v = np.hstack([np.full((40, 2), 1.5e308), rng.normal(size=(40, 1)) * 1e307,
                   rng.normal(size=(40, 1))])
    h = with_values(h, v=v)
    g = gha_backward(h, dz)
    scaled = gha_backward(with_values(h, v=v * 2.0**-8), dz)
    assert all(np.all(np.isfinite(a)) for a in g)
    assert np.array_equal(g.dq, scaled.dq * 2.0**8)
    assert np.array_equal(g.dk, scaled.dk * 2.0**8)
    assert np.array_equal(g.dv, scaled.dv)


def test_references_values_near_the_float_limit_stay_finite():
    """The dense and local references used to overflow on the cloud where
    gha_forward does not ("overflow encountered in reduceat" in the local
    kernel, z of inf from the dense one). They scale v by the same rule."""
    rng = np.random.default_rng(27)
    q, k, _, pos = rand_inputs(rng, 40, 4)
    inputs = AttentionInputs(q=q, k=k, v=np.full((40, 4), 1.5e308), positions=pos)
    topology = knn_from_positions(pos, 4)
    for z in (dense_attention(inputs).z, local_attention(inputs, topology).z):
        assert np.all(np.isfinite(z))
        np.testing.assert_allclose(z, 1.5e308, rtol=1e-12)


@pytest.mark.parametrize("mode", ["none", "relative"])
@pytest.mark.parametrize("huge", [False, True])
def test_local_attention_is_the_level0_truncation_bit_for_bit(mode, huge):
    # One rule sizes the value scaling of both kernels, so they agree in
    # every bit on normal values and on values near the float limit.
    rng = np.random.default_rng(28)
    q, k, v, pos = rand_inputs(rng, 40, 4)
    if huge:
        v[:, 0] = 1.5e308
        v[:, 1] *= 1e307
    emb = make_fourier_embedding(4, rng) if mode != "none" else None
    h = build_hierarchy(pos, q, k, v, flavor="point", k=4, r=2)
    local = local_attention(AttentionInputs(q=q, k=k, v=v, positions=pos, embedding=emb,
                                            embedding_mode=mode), h.levels[0].topology)
    gha = gha_forward(truncate(h, 0), emb, mode)
    assert np.all(np.isfinite(local.z))
    assert np.array_equal(local.z, gha.z)
    assert np.array_equal(local.normalizers, gha.normalizers)


def test_gha_matches_naive_recursion_voxel():
    rng = np.random.default_rng(13)
    coords = np.unique(rng.integers(0, 8, size=(150, 3)), axis=0)
    order = np.lexsort((coords[:, 2], coords[:, 1], coords[:, 0]))
    coords = coords[order]
    n = coords.shape[0]
    q, k, v, _ = rand_inputs(rng, n, 4)
    pos = coords.astype(np.float64) + 0.5
    h = build_hierarchy(pos, q, k, v, flavor="voxel", coords=coords)
    assert h.depth >= 1
    out = gha_forward(h)
    ez, ed = naive_gha(h)
    np.testing.assert_allclose(out.z, ez, atol=1e-10)
    np.testing.assert_allclose(out.normalizers, ed, rtol=1e-10)


def test_gha_truncated_equals_local():
    rng = np.random.default_rng(14)
    q, k, v, pos = rand_inputs(rng, 30, 4)
    h = build_hierarchy(pos, q, k, v, flavor="point", k=3, r=2)
    t0 = truncate(h, 0)
    out = gha_forward(t0)
    ref = local_attention(AttentionInputs(q=q, k=k, v=v, positions=pos), h.levels[0].topology)
    np.testing.assert_allclose(out.z, ref.z, atol=1e-12)
    np.testing.assert_allclose(out.normalizers, ref.normalizers, rtol=1e-12)
    assert out.weight_count == ref.weight_count


def test_gha_weight_counts_per_level():
    rng = np.random.default_rng(15)
    q, k, v, pos = rand_inputs(rng, 50, 3)
    h = build_hierarchy(pos, q, k, v, flavor="point", k=5, r=2)
    out = gha_forward(h)
    assert len(out.per_level_weight_count) == h.depth + 1
    for h_idx, lv in enumerate(h.levels):
        assert out.per_level_weight_count[h_idx] == lv.topology.total_edges
    assert out.weight_count == sum(out.per_level_weight_count)
    assert np.all(out.normalizers > 0)


def test_gha_rescaling_handles_huge_scores():
    # raw exponentials here would overflow: scores scale like 400^2 / sqrt(d)
    rng = np.random.default_rng(16)
    q, k, v, pos = rand_inputs(rng, 20, 4, scale=400.0)
    h = build_hierarchy(pos, q, k, v, flavor="point", k=3, r=2)
    out = gha_forward(h)
    assert np.all(np.isfinite(out.z))


def test_gha_permutation_equivariance_exact():
    rng = np.random.default_rng(17)
    q, k, v, pos = rand_inputs(rng, 30, 6)
    h = build_hierarchy(pos, q, k, v, flavor="point", k=4, r=2)
    z = gha_forward(h).z
    perm = rng.permutation(30)
    hp = build_hierarchy(pos[perm], q[perm], k[perm], v[perm], flavor="point", k=4, r=2)
    zp = gha_forward(hp).z
    np.testing.assert_array_equal(zp, z[perm])


def test_gha_permutation_equivariance_with_coincident_coarse_tokens():
    # This seed smooths two selected tokens onto the same coarse position
    # (identical neighborhood sets), so the coarse kNN has to break an
    # exact distance tie; the pick must not leak the input numbering.
    rng = np.random.default_rng(9000)
    pos = rng.normal(size=(40, 3))
    q, k, v = (rng.normal(size=(40, 4)) for _ in range(3))
    perm = rng.permutation(40)
    h = build_hierarchy(pos, q, k, v, flavor="point", k=4, r=2)
    hp = build_hierarchy(pos[perm], q[perm], k[perm], v[perm], flavor="point", k=4, r=2)
    np.testing.assert_array_equal(gha_forward(hp).z, gha_forward(h).z[perm])


def test_gha_voxel_permutation_equivariance_exact():
    rng = np.random.default_rng(21)
    coords = np.unique(rng.integers(-5, 6, size=(90, 3)), axis=0)
    n = coords.shape[0]
    pos = coords + rng.uniform(0.1, 0.9, size=(n, 3))
    q, k, v = (rng.normal(size=(n, 4)) for _ in range(3))
    emb = make_fourier_embedding(4, rng)
    perm = rng.permutation(n)
    h = build_hierarchy(pos, q, k, v, flavor="voxel", coords=coords)
    hp = build_hierarchy(pos[perm], q[perm], k[perm], v[perm],
                         flavor="voxel", coords=coords[perm])
    for mode, e in (("none", None), ("relative", emb)):
        z = gha_forward(h, embedding=e, embedding_mode=mode).z
        zp = gha_forward(hp, embedding=e, embedding_mode=mode).z
        np.testing.assert_array_equal(zp, z[perm])


def test_gha_translation_invariance():
    rng = np.random.default_rng(18)
    q, k, v, pos = rand_inputs(rng, 30, 4)
    shift = np.array([12.3, -4.5, 100.0])
    h0 = build_hierarchy(pos, q, k, v, flavor="point", k=4, r=2)
    h1 = build_hierarchy(pos + shift, q, k, v, flavor="point", k=4, r=2)
    # no positional terms: identical to the bit
    np.testing.assert_array_equal(gha_forward(h0).z, gha_forward(h1).z)
    # relative embedding sees only coordinate differences
    emb = make_fourier_embedding(4, rng)
    za = gha_forward(h0, embedding=emb, embedding_mode="relative").z
    zb = gha_forward(h1, embedding=emb, embedding_mode="relative").z
    np.testing.assert_allclose(za, zb, atol=1e-10)


def test_gha_embedding_config_errors():
    rng = np.random.default_rng(19)
    q, k, v, pos = rand_inputs(rng, 8, 4)
    h = build_hierarchy(pos, q, k, v, flavor="point", k=3, r=2)
    with pytest.raises(ConfigError):
        gha_forward(h, embedding_mode="relative")  # missing embedding
    with pytest.raises(ConfigError):
        gha_forward(h, embedding=make_fourier_embedding(6, rng), embedding_mode="relative")
    with pytest.raises(ConfigError):
        gha_forward(h, embedding_mode="sinusoidal")


# ---------------------------------------------------------------------------
# Kept positional terms
# ---------------------------------------------------------------------------

def table_structures(rng):
    """A point structure of depth >= 3 and a voxel structure, zero values."""
    pos = rng.normal(size=(40, 3))
    point = build_hierarchy(pos, *(np.zeros((40, 1)),) * 3, flavor="point", k=3, r=2)
    coords = np.unique(rng.integers(0, 8, size=(150, 3)), axis=0)
    voxel = build_hierarchy(coords + 0.5, *(np.zeros((coords.shape[0], 1)),) * 3,
                            flavor="voxel", coords=coords)
    assert point.depth >= 3 and voxel.depth >= 1
    return {"point": point, "voxel": voxel}


@pytest.mark.parametrize("flavor", ["point", "voxel"])
@pytest.mark.parametrize("mode", ["none", "absolute", "relative"])
def test_positional_table_leaves_every_bit(flavor, mode):
    # positional_table fills the structure's terms, one read-only row per
    # token, and returns the kept arrays; passes that read them have the
    # bits of passes on a twin structure that makes its own terms.
    rng = np.random.default_rng(30)
    d = 4
    structure = table_structures(rng)[flavor]
    emb = make_fourier_embedding(d, rng) if mode != "none" else None
    terms = positional_table(structure, emb, mode)
    assert len(terms) == len(structure.levels)
    for term, lv in zip(terms, structure.levels):
        if mode == "none":
            assert term is None and lv.positional == {}
        else:
            assert term.shape == (lv.n_tokens, d) and not term.flags.writeable
            assert lv.positional[mode][1] is term
    assert all(a is b for a, b in zip(positional_table(structure, emb, mode), terms))
    n = structure.n_tokens
    for _ in range(2):  # the kept terms serve every with_values of the structure
        q, k, v, dz = (rng.normal(size=(n, d)) for _ in range(4))
        h = with_values(structure, q=q, k=k, v=v)
        twin = with_values(table_structures(np.random.default_rng(30))[flavor], q=q, k=k, v=v)
        want, got = gha_forward(twin, emb, mode), gha_forward(h, emb, mode)
        np.testing.assert_array_equal(got.z, want.z)
        np.testing.assert_array_equal(got.normalizers, want.normalizers)
        want_g, got_g = gha_backward(twin, dz, emb, mode), gha_backward(h, dz, emb, mode)
        for name in ("dq", "dk", "dv"):
            np.testing.assert_array_equal(getattr(got_g, name), getattr(want_g, name))


def test_positional_table_rejects_another_structure_embedding_or_mode():
    # Kept terms serve their own structure (and its with_values and truncate
    # copies), mode and frequencies, compared by value: another structure of
    # the same geometry, another embedding or another mode gets terms of its
    # own, and positional_table refuses a mode it cannot fill.
    rng = np.random.default_rng(31)
    q, k, v, pos = rand_inputs(rng, 20, 4)
    h = build_hierarchy(pos, q, k, v, flavor="point", k=3, r=2)
    emb = make_fourier_embedding(4, rng)
    terms = positional_table(h, emb, "relative")
    copied = FourierEmbedding(frequencies=emb.frequencies.copy())
    assert all(a is b for a, b in zip(positional_table(h, copied, "relative"), terms))
    assert all(a is b for a, b in zip(positional_table(truncate(h, 0), emb, "relative"), terms))
    same_geometry = build_hierarchy(pos, q, k, v, flavor="point", k=3, r=2)
    others = [positional_table(same_geometry, emb, "relative"),
              positional_table(h, make_fourier_embedding(4, rng), "relative"),
              positional_table(h, emb, "absolute")]
    for other in others:
        assert not any(a is b for a, b in zip(other, terms))
    np.testing.assert_array_equal(others[0][0], terms[0])  # equal terms, not the same arrays
    assert not np.array_equal(others[1][0], terms[0])
    assert all(a is b for a, b in zip(positional_table(h, emb, "absolute"), others[2]))
    assert positional_table(h, emb, "none") == (None,) * len(h.levels)
    with pytest.raises(ConfigError):
        positional_table(h, None, "relative")
    with pytest.raises(ConfigError):
        positional_table(h, emb, "sinusoidal")


def test_backward_and_effective_weights_sort_nothing(monkeypatch):
    # Every order the backward needs is stored on the structure at build time.
    rng = np.random.default_rng(32)
    q, k, v, pos = rand_inputs(rng, 40, 2)
    h = build_hierarchy(pos, q, k, v, flavor="point", k=2, r=2)
    assert h.depth >= 3
    emb = make_fourier_embedding(2, rng)
    dz = rng.normal(size=(40, 2))
    calls = []
    for name in ("lexsort", "argsort", "sort"):
        real = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *a, _real=real, _name=name, **kw:
                            calls.append(_name) or _real(*a, **kw))
    for mode in ("none", "absolute", "relative"):
        gha_backward(h, dz, emb, mode)
        effective_attention_row(h, 7, emb, mode)
        effective_attention(h, emb, mode)
    assert calls == []
    build_hierarchy(pos, q, k, v, flavor="point", k=2, r=2)
    assert "lexsort" in calls  # the build does sort, so the counters are live


TERM_FUNCTIONS = [("relative", "embed_points"), ("absolute", "embed_points")]


def count_terms(monkeypatch, term_fn):
    """A list that grows by one each time a positional term is made."""
    import gha3d.attention as attention_mod

    real, calls = getattr(attention_mod, term_fn), []
    monkeypatch.setattr(attention_mod, term_fn, lambda *a: calls.append(1) or real(*a))
    return calls


@pytest.mark.parametrize("mode,term_fn", TERM_FUNCTIONS)
def test_structure_makes_its_positional_terms_once(monkeypatch, mode, term_fn):
    # Training steps over one structure: every head re-pools new values and
    # runs a backward and a forward. The first backward makes each level's
    # term and the structure keeps it for every later pass, the with_values
    # and truncate copies included; the bits are those of a structure whose
    # terms positional_table made up front.
    rng = np.random.default_rng(39)
    n, d = 60, 4
    pos = rng.normal(size=(n, 3))
    emb = make_fourier_embedding(d, rng)
    steps = [[tuple(rng.normal(size=(n, d)) for _ in range(4)) for _ in range(2)]
             for _ in range(2)]

    def run(structure):
        outs = []
        for heads in steps:
            for q, k, v, dz in heads:
                hs = with_values(structure, q=q, k=k, v=v)
                outs += [*gha_backward(hs, dz, emb, mode), gha_forward(hs, emb, mode).z]
        q, k, v, _ = steps[0][0]
        local = truncate(with_values(structure, q=q, k=k, v=v), 0)
        return outs + [gha_forward(local, emb, mode).z]

    reference = build_hierarchy(pos, *(np.zeros((n, 1)),) * 3, flavor="point", k=3, r=2)
    positional_table(reference, emb, mode)
    want = run(reference)
    h = build_hierarchy(pos, *(np.zeros((n, 1)),) * 3, flavor="point", k=3, r=2)
    assert h.depth >= 3
    calls = count_terms(monkeypatch, term_fn)
    got = run(h)
    assert len(calls) == len(h.levels)
    for a, b in zip(got, want, strict=True):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("mode,term_fn", TERM_FUNCTIONS)
def test_kept_terms_serve_equal_frequencies_only(monkeypatch, mode, term_fn):
    # An embedding with equal frequencies reads the kept terms; one with
    # other frequencies gets its own terms, bitwise a fresh structure's.
    rng = np.random.default_rng(40)
    n, d = 40, 4
    q, k, v, pos = rand_inputs(rng, n, d)
    dz = rng.normal(size=(n, d))
    emb, other = make_fourier_embedding(d, rng), make_fourier_embedding(d, rng)

    def passes(h, e):
        return [gha_forward(h, e, mode).z, *gha_backward(h, dz, e, mode)]

    def fresh():
        return build_hierarchy(pos, q, k, v, flavor="point", k=3, r=2)

    h = fresh()
    want = passes(h, emb)  # the forward keeps emb's terms
    calls = count_terms(monkeypatch, term_fn)
    copied = FourierEmbedding(frequencies=emb.frequencies.copy())
    for a, b in zip(passes(h, copied), want, strict=True):
        assert a.tobytes() == b.tobytes()
    assert calls == []
    assert all(np.array_equal(lv.positional[mode][0], emb.frequencies) for lv in h.levels)
    other_want = passes(fresh(), other)
    del calls[:]
    for a, b in zip(passes(h, other), other_want, strict=True):
        assert a.tobytes() == b.tobytes()
    assert not np.array_equal(other_want[0], want[0])
    # The forward made other's terms once and kept them in the mode's one
    # slot, where the backward read them.
    assert len(calls) == len(h.levels)
    assert all(np.array_equal(lv.positional[mode][0], other.frequencies) for lv in h.levels)
    for a, b in zip(passes(h, emb), want, strict=True):
        assert a.tobytes() == b.tobytes()


def test_forward_then_backward_makes_each_term_once(monkeypatch):
    # A bare forward on a fresh structure keeps every term it makes, so the
    # backward after it makes none: each level's term is made once (twice
    # when a bare forward kept none) and every slot is filled, in the one
    # memo that with_values and truncate copies share. Mode "none" keeps
    # nothing; effective weights fill their own mode's slot.
    rng = np.random.default_rng(41)
    n, d = 40, 4
    q, k, v, pos = rand_inputs(rng, n, d)
    emb = make_fourier_embedding(d, rng)
    h = build_hierarchy(pos, q, k, v, flavor="point", k=3, r=2)
    assert h.depth >= 2
    gha_forward(h, emb, "none")
    assert all(lv.positional == {} for lv in h.levels)
    calls = count_terms(monkeypatch, "embed_points")
    gha_forward(h, emb, "relative")
    gha_backward(h, rng.normal(size=(n, d)), emb, "relative")
    assert len(calls) == len(h.levels)
    assert all(list(lv.positional) == ["relative"] for lv in h.levels)
    effective_attention_row(h, 3, emb, "absolute")
    assert all(sorted(lv.positional) == ["absolute", "relative"] for lv in h.levels)
    for shared in (with_values(h, v=v + 1.0), truncate(h, 1)):
        assert all(a.positional is b.positional for a, b in zip(shared.levels, h.levels))


@pytest.mark.parametrize("flavor", ["point", "voxel"])
@pytest.mark.parametrize("mode", ["absolute", "relative"])
def test_positional_table_leaves_every_bit_of_a_fresh_structure(flavor, mode):
    # Passes over the kept terms against passes on a twin structure that
    # keeps no term yet, so its forward makes every term, and keeps it.
    rng = np.random.default_rng(30)
    d = 4
    structure = table_structures(np.random.default_rng(30))[flavor]
    emb = make_fourier_embedding(d, rng)
    positional_table(structure, emb, mode)
    n = structure.n_tokens
    for _ in range(2):
        q, k, v, dz = (rng.normal(size=(n, d)) for _ in range(4))
        twin = with_values(table_structures(np.random.default_rng(30))[flavor], q=q, k=k, v=v)
        h = with_values(structure, q=q, k=k, v=v)
        want, got = gha_forward(twin, emb, mode), gha_forward(h, emb, mode)
        np.testing.assert_array_equal(got.z, want.z)
        np.testing.assert_array_equal(got.normalizers, want.normalizers)
        assert all(list(lv.positional) == [mode] for lv in twin.levels)
        for kept, lv in zip(positional_table(structure, emb, mode), twin.levels, strict=True):
            np.testing.assert_array_equal(lv.positional[mode][1], kept)
        want_g, got_g = gha_backward(twin, dz, emb, mode), gha_backward(h, dz, emb, mode)
        for name in ("dq", "dk", "dv"):
            np.testing.assert_array_equal(getattr(got_g, name), getattr(want_g, name))


@pytest.mark.parametrize("mode", ["absolute", "relative"])
def test_kept_terms_follow_frequencies_changed_in_place(mode):
    # An array that owns its memory can always be made writeable again, so a
    # caller can change an embedding's stored frequencies in place; the kept
    # terms and the pass then serve it no longer, and every pass matches a
    # fresh structure's.
    rng = np.random.default_rng(42)
    n, d = 40, 4
    q, k, v, pos = rand_inputs(rng, n, d)
    dz = rng.normal(size=(n, d))
    emb = FourierEmbedding(frequencies=make_fourier_embedding(d, rng).frequencies.copy())
    base = emb.frequencies
    h = build_hierarchy(pos, q, k, v, flavor="point", k=3, r=2)
    gha_backward(h, dz, emb, mode)  # keeps the terms and the pass of the old frequencies
    base.flags.writeable = True
    base *= 0.5
    fresh = build_hierarchy(pos, q, k, v, flavor="point", k=3, r=2)
    changed = FourierEmbedding(frequencies=base.copy())
    want = [gha_forward(fresh, changed, mode).z, *gha_backward(fresh, dz, changed, mode)]
    got = [gha_forward(h, emb, mode).z, *gha_backward(h, dz, emb, mode)]
    for a, b in zip(got, want, strict=True):
        assert a.tobytes() == b.tobytes()


def span_structure(flavor, d):
    """A point structure with 6-edge rows, or a voxel one whose level-0
    windows hold from 1 cell (lone cells) to 27 (inside a dense block)."""
    rng = np.random.default_rng(35)
    if flavor == "point":
        q, k, v, pos = rand_inputs(rng, 90, d)
        return build_hierarchy(pos, q, k, v, flavor="point", k=6, r=2)
    block = np.stack(np.meshgrid(*[np.arange(4)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    lone = np.column_stack([10 + 3 * np.arange(8), np.zeros(8, int), 3 * np.arange(8)])
    coords = np.vstack([block, lone])[rng.permutation(72)]
    q, k, v, _ = rand_inputs(rng, 72, d)
    h = build_hierarchy(coords + 0.5, q, k, v, flavor="voxel", coords=coords)
    sizes = h.levels[0].topology.sizes
    assert sizes.min() == 1 and sizes.max() == 27
    return h


@pytest.mark.parametrize("flavor", ["point", "voxel"])
@pytest.mark.parametrize("mode", ["none", "absolute", "relative"])
def test_level_spans_keep_every_bit(monkeypatch, flavor, mode):
    # The level kernel's row spans change no bit of any output, down to one
    # row per span and rows longer than the span budget.
    import gha3d.attention as attention_mod

    d = 4
    h = span_structure(flavor, d)
    emb = make_fourier_embedding(d, np.random.default_rng(36)) if mode != "none" else None
    dz = np.random.default_rng(37).normal(size=(h.levels[0].n_tokens, d))
    lv = h.levels[0]
    inputs = AttentionInputs(q=lv.q_tilde, k=lv.k_tilde, v=lv.v_tilde, positions=lv.positions,
                             embedding=emb, embedding_mode=mode)

    def outputs():
        fwd, loc = gha_forward(h, emb, mode), local_attention(inputs, lv.topology)
        return (fwd.z, fwd.normalizers, loc.z, loc.normalizers, *gha_backward(h, dz, emb, mode),
                effective_attention_row(h, 5, emb, mode))

    monkeypatch.setattr(attention_mod, "_SPAN_ELEMENTS", 1 << 40)  # one span per width class
    whole = outputs()
    assert lv.topology.sizes.max() > 3
    for budget in (1, 3 * d, 40 * d):  # 1, 3 and 40 edges a span
        monkeypatch.setattr(attention_mod, "_SPAN_ELEMENTS", budget)
        spans = list(attention_mod._spans(lv.topology, d))
        assert len(spans) > len(lv.topology.classes)
        # The spans cover every row and every edge once.
        rows = np.concatenate([np.arange(lv.n_tokens)[r] for r, *_ in spans])
        edges = np.concatenate([np.arange(lv.topology.total_edges)[e] for _, e, *_ in spans])
        assert sorted(rows) == list(range(lv.n_tokens))
        assert sorted(edges) == list(range(lv.topology.total_edges))
        for got, want in zip(outputs(), whole):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("case", ["k1", "k4", "k8", "k12", "voxel"])
@pytest.mark.parametrize("mode", ["none", "absolute", "relative"])
def test_sums_by_product_keep_every_bit(monkeypatch, case, mode, loop_sums,
                                        loop_transposed_sums):
    # Every sum over a map is one sparse product that adds each row's terms
    # from +0.0 in entry order: the pooling of the build and of with_values
    # (its overflow rescue too), the forward's y and denominators, dq, dk,
    # dv, the fold and the pull-back. Each product of a build, a forward, a
    # local pass, a backward, an effective row and a re-pooling of values
    # near the float64 limit gives the loop oracle's bits, and every sum that
    # used to be a reduceat stays within 1e-14 of the gathered reduceat. v
    # has rows of -0.0 and a zero column. The voxel cells (a dense block and
    # scattered cells) give levels of windows up to 27 cells and up to 8.
    import sys

    import gha3d.attention as attention_mod
    import gha3d.geometry as geometry_mod

    calls = []

    def recorded(real, transposed):
        def product(indptr, indices, data, x, *n_out):
            out = real(indptr, indices, data, x, *n_out)
            calls.append((sys._getframe(1).f_code.co_name, transposed,
                          *(np.array(a) for a in (indptr, indices, data, x)), *n_out, out.copy()))
            return out
        return product

    products = (recorded(geometry_mod._product, False),
                recorded(geometry_mod._transposed_product, True))
    for module in (attention_mod, geometry_mod):
        monkeypatch.setattr(module, "_product", products[0])
        monkeypatch.setattr(module, "_transposed_product", products[1])

    d = 4
    rng = np.random.default_rng(38)
    if case == "voxel":
        block = np.stack(np.meshgrid(*[np.arange(4)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
        coords = np.unique(np.vstack([block, rng.integers(8, 60, size=(150, 3))]), axis=0)
        pos = coords + 0.5
    else:
        pos, coords = rng.normal(size=(120, 3)), None
    n = pos.shape[0]
    q, k, v = rand_inputs(rng, n, d)[:3]
    v[:, 1] = 0.0
    v[::3, 2] = -0.0
    v[:10] = -0.0
    emb = make_fourier_embedding(d, rng) if mode != "none" else None
    h = build_hierarchy(pos, q, k, v, flavor="point" if coords is None else "voxel",
                        k=int(case[1:]) if coords is None else 8, coords=coords)
    assert h.depth >= 2
    lv = h.levels[0]
    inputs = AttentionInputs(q=lv.q_tilde, k=lv.k_tilde, v=lv.v_tilde, positions=pos,
                             embedding=emb, embedding_mode=mode)
    assert (gha_forward(h, emb, mode).z == 0.0).any()
    local_attention(inputs, lv.topology)
    gha_backward(h, rng.normal(size=(n, d)), emb, mode)
    effective_attention_row(h, 5, emb, mode)
    huge = np.full((n, 2), 1.5e308)
    huge[::3] = -1.5e308
    assert np.all(np.abs(with_values(h, v=huge).levels[-1].v_tilde) < np.inf)

    assert {name for name, *_ in calls} == {"_pooled", "_level_softmax", "gha_backward",
                                           "_value_cotangent", "_fold", "_pull_back"}
    widest = max(int(np.diff(indptr).max()) for name, _, indptr, *_ in calls
                 if name == "_level_softmax")
    assert widest == {"k1": 1, "k4": 4, "k8": 8, "k12": 12, "voxel": 27}[case]
    rescued = any(np.isinf(out).any() for name, *_, out in calls if name == "_pooled")
    assert rescued == (case != "k1")  # groups of one member cannot overflow
    for name, transposed, indptr, indices, data, x, *rest in calls:
        got = rest[-1]
        if transposed:
            assert got.tobytes() == loop_transposed_sums(indptr, indices, data, x,
                                                         rest[0]).tobytes(), name
            continue
        assert got.tobytes() == loop_sums(indptr, indices, data, x).tobytes(), name
        terms = data[:, None] * x.reshape(x.shape[0], -1).take(indices, axis=0)
        with np.errstate(over="ignore", invalid="ignore"):
            gathered = np.add.reduceat(terms, indptr[:-1], axis=0).reshape(got.shape)
        finite = np.isfinite(gathered) & np.isfinite(got)
        assert (np.abs(got[finite] - gathered[finite]).max(initial=0.0)
                <= 1e-14 * np.abs(gathered[finite]).max(initial=0.0)), name


def test_forward_edge_temporaries_do_not_grow_with_the_level():
    # One thing per edge is level-wide: a level's edge weights t, E floats,
    # live whole from its spans through its softmax product. The rest of
    # the per-edge temporaries (gathered key and value rows, scores) live
    # one row span at a time, each within 2^17 elements (``_SPAN_ELEMENTS``,
    # N x d_v here at N = 2^14, d_v = 8). So doubling k doubles t (1 MB at
    # k=8) but not the span temporaries, and the forward's peak stays within
    # a few N x d_v arrays.
    rng = np.random.default_rng(34)
    n, d = 16384, 8
    q, k, v = (rng.normal(size=(n, d)) for _ in range(3))
    pos = rng.uniform(size=(n, 3))
    emb = make_fourier_embedding(d, rng)

    def peak(k_nn):
        h = build_hierarchy(pos, q, k, v, flavor="point", k=k_nn, r=2)
        positional_table(h, emb, "relative")
        tracemalloc.start()
        try:
            gha_forward(h, emb, "relative")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    p8, p16 = peak(8), peak(16)
    assert p16 <= 1.2 * p8
    assert max(p8, p16) <= 8 * n * d * 8


# ---------------------------------------------------------------------------
# Relative mode against its per-edge form
# ---------------------------------------------------------------------------

def rotation(p_query, p_key, emb):
    """The per-edge (cos, sin) of 2 pi b . (p_query - p_key): a relative
    score adds q . gamma(p_query - p_key)."""
    angles = (2.0 * np.pi) * ((p_query - p_key) @ emb.frequencies.T)
    return np.cos(angles), np.sin(angles)


def interleaved_dot(q_rows, cos, sin):
    """Per-row dot of q_rows (..., 2m) with the interleaved (cos, sin)."""
    return (np.einsum("...m,...m->...", q_rows[..., 0::2], cos)
            + np.einsum("...m,...m->...", q_rows[..., 1::2], sin))


def per_edge_relative(h, emb, dz):
    """z and the exact (dq, dk, dv) of relative mode in its per-edge form:
    every edge's score is (q . k + q . gamma(p_q - p_k)) / sqrt(d) from the
    edge's own (cos, sin), whole levels at a time, raw exponentials summed
    by np.add.at, the gradients by the chain rule through the per-query
    sums and the pooling means."""
    d = h.levels[0].q_tilde.shape[1]
    scale = math.sqrt(d)
    anc = np.arange(h.n_tokens)
    denom, y, levels = 0.0, 0.0, []
    for lv in h.levels:
        rows = np.repeat(np.arange(lv.n_tokens), lv.topology.sizes)
        cols = lv.topology.indices
        cos, sin = rotation(lv.positions[rows], lv.positions[cols], emb)
        q, k, v = lv.q_tilde, lv.k_tilde, lv.v_tilde
        w = np.exp((np.einsum("ed,ed->e", q[rows], k[cols]) + interleaved_dot(q[rows], cos, sin))
                   / scale)
        d_lv, y_lv = np.zeros(lv.n_tokens), np.zeros((lv.n_tokens, v.shape[1]))
        np.add.at(d_lv, rows, w)
        np.add.at(y_lv, rows, w[:, None] * v[cols])
        denom, y = denom + d_lv[anc], y + y_lv[anc]
        levels.append((anc, cos, sin, w))
        if lv.parent_of is not None:
            anc = lv.parent_of[anc]
    z = y / denom[:, None]
    a, b = dz / denom[:, None], np.einsum("id,id->i", dz, z) / denom
    grads = []
    for lv, (anc, cos, sin, w) in zip(h.levels, levels):
        rows = np.repeat(np.arange(lv.n_tokens), lv.topology.sizes)
        cols = lv.topology.indices
        q, k, v = lv.q_tilde, lv.k_tilde, lv.v_tilde
        a_lv, b_lv = np.zeros((lv.n_tokens, a.shape[1])), np.zeros(lv.n_tokens)
        np.add.at(a_lv, anc, a)
        np.add.at(b_lv, anc, b)
        ds = w * (np.einsum("ed,ed->e", a_lv[rows], v[cols]) - b_lv[rows]) / scale
        key = k[cols].copy()
        key[:, 0::2] += cos
        key[:, 1::2] += sin
        g = np.zeros((lv.n_tokens, 2 * d + v.shape[1]))
        np.add.at(g[:, :d], rows, ds[:, None] * key)
        np.add.at(g[:, d:2 * d], cols, ds[:, None] * q[rows])
        np.add.at(g[:, 2 * d:], cols, w[:, None] * a_lv[rows])
        grads.append(g)
    g = grads.pop()
    for fine in range(h.depth - 1, -1, -1):
        coarse = h.levels[fine + 1]
        sizes = np.diff(coarse.pool_indptr)
        pulled = np.zeros((h.levels[fine].n_tokens, g.shape[1]))
        np.add.at(pulled, coarse.pool_indices, np.repeat(g / sizes[:, None], sizes, axis=0))
        g = pulled + grads.pop()
    return z, g[:, :d], g[:, d:2 * d], g[:, 2 * d:]


def largest_angle(h, emb):
    """The largest |2 pi b . (p - c)| of any level's per-token K'."""
    return max(float(np.abs(2 * np.pi * ((lv.positions - (lv.positions.min(axis=0)
                                                           + lv.positions.max(axis=0)) / 2)
                                         @ emb.frequencies.T)).max()) for lv in h.levels)


@pytest.mark.parametrize("flavor", ["point", "voxel"])
@pytest.mark.parametrize("shift", [0.0, 1e3, 1e6])
@pytest.mark.parametrize("size", [1e-3, 1.0, 1e3])
def test_relative_mode_matches_its_per_edge_form(flavor, shift, size):
    # z and all three gradients stay within 1e-13 of the per-edge form,
    # relative to the largest magnitude, on clouds far from the origin: the
    # per-token angles are taken about each level's bounding-box centre.
    # Angles of |a| radians carry a rounding of |a| * 2^-52 in float64
    # whichever way they are formed, so the bound grows by that where the
    # cloud is 1e3 wide (|a| near 1e4; the per-edge form itself is then
    # about 5e-13 from one made in long double).
    rng = np.random.default_rng(60)
    d = 4
    if flavor == "point":
        coords, base = None, rng.normal(size=(80, 3))
    else:
        coords = np.unique(rng.integers(0, 6, size=(120, 3)), axis=0)
        base = coords + rng.uniform(0.1, 0.9, size=coords.shape)
    n = base.shape[0]
    q, k, v, dz = (rng.normal(size=(n, d)) for _ in range(4))
    emb = make_fourier_embedding(d, rng)
    h = build_hierarchy(base * size + shift, q, k, v, flavor=flavor, k=4, r=2, coords=coords)
    assert h.depth >= 1
    got = (gha_forward(h, emb, "relative").z, *gha_backward(h, dz, emb, "relative"))
    bound = 1e-13 + largest_angle(h, emb) * 2.0**-52
    assert size > 1 or bound < 1.1e-13
    for a, want in zip(got, per_edge_relative(h, emb, dz), strict=True):
        assert np.abs(a - want).max() <= bound * np.abs(want).max()


def test_dense_relative_reference_matches_its_per_edge_form():
    # The dense reference scores [q | Q'] against [k | K']; the per-edge
    # form scores every pair with its own (cos, sin).
    rng = np.random.default_rng(61)
    n, d = 60, 6
    q, k, v, pos = rand_inputs(rng, n, d)
    pos += 1e3
    emb = make_fourier_embedding(d, rng)
    out = dense_attention(AttentionInputs(q=q, k=k, v=v, positions=pos, embedding=emb,
                                          embedding_mode="relative"))
    cos, sin = rotation(pos[:, None, :], pos[None, :, :], emb)
    w = np.exp((q @ k.T + interleaved_dot(q[:, None, :], cos, sin)) / math.sqrt(d))
    want = (w @ v) / w.sum(axis=1)[:, None]
    assert np.abs(out.z - want).max() <= 1e-13 * np.abs(want).max()
    np.testing.assert_allclose(out.normalizers, w.sum(axis=1), rtol=1e-13)


def test_a_cloud_near_the_float_limit_runs_relative_and_refuses_absolute():
    # Each level's centre sums the halves of its bounding box, so a cloud
    # near 1.7e308 has a finite one and its relative terms are those of the
    # same tokens at the origin. Absolute mode's angles 2 pi B p overflow:
    # they are refused by name, with no RuntimeWarning first.
    rng = np.random.default_rng(64)
    n, d = 60, 4
    pos = 1.7e308 - rng.uniform(0.0, 1e150, size=(n, 3))
    q, k, v, dz = (rng.normal(size=(n, d)) for _ in range(4))
    emb = make_fourier_embedding(d, rng)
    h = build_hierarchy(pos, q, k, v, flavor="point", k=4)
    z = gha_forward(h, emb, "relative").z
    grads = gha_backward(h, dz, emb, "relative")
    assert all(np.isfinite(a).all() for a in (z, *grads))
    origin = build_hierarchy(np.zeros((n, 3)), q, k, v, flavor="point", k=4)
    assert z.tobytes() == gha_forward(origin, emb, "relative").z.tobytes()
    with pytest.raises(InvalidInputError, match="angle array 2 pi B p of points"):
        gha_forward(h, emb, "absolute")


# ---------------------------------------------------------------------------
# Rows of one width
# ---------------------------------------------------------------------------

def gathered_level(lv, sides, scale, mu=None):
    """A level's row maxima (these, where given) and edge weights t, every
    edge gathering its own query's rows: the oracle of the width classes,
    whose spans broadcast each query's rows over its edges."""
    topology = lv.topology
    rows = np.repeat(np.arange(lv.n_tokens), topology.sizes)
    cols = topology.indices
    s = np.einsum("ed,ed->e", sides.q.take(rows, axis=0), sides.k.take(cols, axis=0))
    if sides.k_rot is not None:
        s += np.einsum("ed,ed->e", sides.q_rot.take(rows, axis=0), sides.k_rot.take(cols, axis=0))
    s /= scale
    if mu is None:
        mu = np.maximum.reduceat(s, topology.indptr[:-1])
    return rows, mu, np.exp(s - mu.take(rows))


def gathered_gradients(h, dz, emb, mode):
    """``gha_backward`` after a forward, with every edge's t and ds made from
    per-edge gathers (``gathered_level``), on the package's fold, products
    and pull-back."""
    import gha3d.attention as attention_mod

    held, d = h.forward_pass, h.levels[0].q_tilde.shape[1]
    c = np.column_stack([dz / held.d_hat[:, None],
                         np.einsum("qd,qd->q", dz, held.z) / held.d_hat])
    per_level = []
    for lv, mu, fold, q_rot in zip(h.levels, held.mu, attention_mod._fold(h, held.mu, held.m_q, c),
                                   held.q_rot):
        sides = attention_mod._scored(lv.q_tilde, lv.k_tilde,
                                      attention_mod._kept_term(lv, emb, mode), mode, q_rot)
        rows, _, t = gathered_level(lv, sides, math.sqrt(d), mu)
        indptr, cols, d_v = lv.topology.indptr, lv.topology.indices, lv.v_tilde.shape[1]
        s = np.einsum("ed,ed->e", fold[:, :d_v].take(rows, axis=0), lv.v_tilde.take(cols, axis=0))
        s -= fold[:, d_v].take(rows)
        ds = t * s / math.sqrt(d)
        dq = attention_mod._product(indptr, cols, ds, sides.k)
        if sides.k_rot is not None:
            dq += attention_mod._rotated(attention_mod._product(indptr, cols, ds, sides.k_rot),
                                         sides.k_rot)
        dk = attention_mod._transposed_product(indptr, cols, ds, sides.q, lv.n_tokens)
        dv = attention_mod._transposed_product(indptr, cols, t, fold, lv.n_tokens)[:, :d_v]
        per_level.append(np.hstack([dq, dk, dv]))
    return np.hsplit(attention_mod._pull_back(h, per_level), [d, 2 * d])


def width_structure(flavor, d, cells=None):
    """The point structure of ``span_structure`` (rows of 6 at every level),
    a 4 x 4 x 4 voxel block (windows of 8 to 27 cells at level 0, and the
    2 x 2 x 2 cells of level 1, each window holding all 8), or a voxel
    structure over ``cells``."""
    if flavor == "point":
        return span_structure(flavor, d)
    rng = np.random.default_rng(39)
    coords = np.stack(np.meshgrid(*[np.arange(4)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    coords = coords[rng.permutation(64)] if cells is None else cells
    q, k, v, _ = rand_inputs(rng, coords.shape[0], d)
    return build_hierarchy(coords + 0.5, q, k, v, flavor="voxel", coords=coords)


@pytest.mark.parametrize("flavor", ["point", "voxel", "every_width"])
@pytest.mark.parametrize("mode", ["none", "absolute", "relative"])
def test_rows_of_one_width_broadcast_with_the_same_bits(flavor, mode, every_width_cells):
    # Each width class (every kNN level, a voxel level's windows of one
    # size) broadcasts each query's q, Q', row maximum and folded
    # cotangents over its edges: the forward's row maxima and edge weights
    # and the gradients keep the bits of a pass that gathers them edge by
    # edge, on windows of up to 27 cells and of every width from 1 to 27.
    import gha3d.attention as attention_mod

    d = 4
    emb = make_fourier_embedding(d, np.random.default_rng(62)) if mode != "none" else None
    h = width_structure("voxel" if flavor == "every_width" else flavor, d,
                        every_width_cells if flavor == "every_width" else None)
    dz = np.random.default_rng(63).normal(size=(h.n_tokens, d))
    widths = [[w for *_, w in lv.topology.classes] for lv in h.levels]
    if flavor == "point":
        assert widths == [[6]] * 5
    else:
        assert widths[0] == (list(range(1, 28)) if flavor == "every_width" else [8, 12, 18, 27])
    held, weights = attention_mod._edge_weights(h, emb, mode)
    for lv, mu, t in zip(h.levels, held.mu, weights, strict=True):
        sides = attention_mod._scored(lv.q_tilde, lv.k_tilde,
                                      attention_mod._kept_term(lv, emb, mode), mode)
        _, want_mu, want_t = gathered_level(lv, sides, math.sqrt(d))
        assert mu.tobytes() == want_mu.tobytes() and t.tobytes() == want_t.tobytes()
    oracle = gathered_gradients(h, dz, emb, mode)
    for got, want in zip(gha_backward(h, dz, emb, mode), oracle, strict=True):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("mode", ["none", "absolute", "relative"])
def test_a_topology_with_no_rows_constructs_and_runs(mode):
    import gha3d.attention as attention_mod
    from gha3d.geometry import NeighborhoodTopology

    topology = NeighborhoodTopology(indptr=np.array([0]), indices=np.zeros(0, np.int64))
    assert topology.classes == ()
    empty = np.zeros((0, 4))
    term = None if mode == "none" else empty
    sides = attention_mod._scored(empty, empty, term, mode)
    mu, denom, y, t = attention_mod._level_softmax(sides, empty, topology, 2.0)
    assert mu.shape == denom.shape == t.shape == (0,) and y.shape == (0, 4)


# ---------------------------------------------------------------------------
# The pass a forward leaves for its backward
# ---------------------------------------------------------------------------

def count_softmax(monkeypatch):
    """A list that grows by one each time a level's softmax runs."""
    import gha3d.attention as attention_mod

    real, calls = attention_mod._level_softmax, []
    monkeypatch.setattr(attention_mod, "_level_softmax", lambda *a: calls.append(1) or real(*a))
    return calls


def same_bits(got, want):
    return [a.tobytes() for a in got] == [b.tobytes() for b in want]


@pytest.mark.parametrize("flavor", ["point", "voxel"])
@pytest.mark.parametrize("mode", ["none", "absolute", "relative"])
@pytest.mark.parametrize("kept", [False, True])
def test_gradients_are_the_same_with_or_without_a_pass(flavor, mode, kept):
    # A backward after a forward reads its pass, one with none runs its own
    # forward first, and a second backward on the same hierarchy reads the
    # pass the first left: every bit is the same. With ``kept`` the terms
    # are made up front by positional_table; without, the forward-first
    # case runs on a twin structure that keeps no term yet.
    d = 4
    structure = span_structure(flavor, d)
    emb = make_fourier_embedding(d, np.random.default_rng(43)) if mode != "none" else None
    if kept:
        positional_table(structure, emb, mode)
    n = structure.n_tokens
    q, k, v, dz = (np.random.default_rng(44).normal(size=(n, d)) for _ in range(4))
    alone = with_values(structure, q=q, k=k, v=v)
    assert alone.forward_pass is None
    first = gha_backward(alone, dz, emb, mode)
    again = gha_backward(alone, dz, emb, mode)
    after = with_values(structure if kept else span_structure(flavor, d), q=q, k=k, v=v)
    z = gha_forward(after, emb, mode).z
    got = gha_backward(after, dz, emb, mode)
    assert same_bits(again, first) and same_bits(got, first)
    assert gha_forward(alone, emb, mode).z.tobytes() == z.tobytes()


@pytest.mark.parametrize("mode", ["absolute", "relative"])
def test_a_pass_serves_only_its_own_values_mode_and_frequencies(monkeypatch, mode):
    # with_values and truncate copies start without a pass; another mode,
    # other frequencies or frequencies changed in place run a forward of
    # their own, bitwise a fresh structure's. Equal frequencies are served.
    rng = np.random.default_rng(45)
    n, d = 60, 4
    q, k, v, pos = rand_inputs(rng, n, d)
    dz, v2 = rng.normal(size=(n, d)), rng.normal(size=(n, d))
    emb, other = make_fourier_embedding(d, rng), make_fourier_embedding(d, rng)

    def fresh():
        return build_hierarchy(pos, q, k, v, flavor="point", k=3, r=2)

    h = fresh()
    levels = len(h.levels)
    gha_forward(h, emb, mode)
    held = h.forward_pass
    calls = count_softmax(monkeypatch)
    copied = FourierEmbedding(frequencies=emb.frequencies.copy())
    assert same_bits(gha_backward(h, dz, copied, mode), gha_backward(fresh(), dz, emb, mode))
    assert len(calls) == levels  # the fresh structure's forward only
    hv, ht = with_values(h, v=v2), truncate(h, 1)
    assert hv.forward_pass is None and ht.forward_pass is None and h.forward_pass is held
    assert same_bits(gha_backward(hv, dz, emb, mode),
                     gha_backward(with_values(fresh(), v=v2), dz, emb, mode))
    assert same_bits(gha_backward(ht, dz, emb, mode), gha_backward(truncate(fresh(), 1), dz, emb, mode))
    assert h.forward_pass is held
    another = "absolute" if mode == "relative" else "relative"
    for e, m in ((emb, "none"), (emb, another), (other, mode), (emb, mode)):
        del calls[:]
        assert same_bits(gha_backward(h, dz, e, m), gha_backward(fresh(), dz, e, m))
        assert len(calls) == 2 * levels  # h's own forward, then the fresh structure's
    changing = FourierEmbedding(frequencies=emb.frequencies.copy())
    gha_forward(h, changing, mode)
    base = changing.frequencies
    base.flags.writeable = True  # the owner of its memory may
    base *= 0.5
    changed = FourierEmbedding(frequencies=base.copy())
    assert same_bits(gha_backward(h, dz, changing, mode), gha_backward(fresh(), dz, changed, mode))


def test_a_pass_is_served_only_by_the_term_it_scored_with(monkeypatch):
    # A pass is served when level 0's kept term is the very one it scored
    # with. Another with_values copy shares the memo: filling level 0's slot
    # again, with other frequencies and then with the pass's own, leaves an
    # equal term but not the same one, so the structure runs a forward of
    # its own, and its gradients are bitwise a fresh structure's.
    rng = np.random.default_rng(48)
    n, d = 60, 4
    q, k, v, pos = rand_inputs(rng, n, d)
    dz, v2 = rng.normal(size=(n, d)), rng.normal(size=(n, d))
    emb, other = make_fourier_embedding(d, rng), make_fourier_embedding(d, rng)
    h = build_hierarchy(pos, q, k, v, flavor="point", k=3, r=2)
    gha_forward(h, emb, "relative")
    held = h.forward_pass
    assert held.term is h.levels[0].positional["relative"][1]
    copy = with_values(h, v=v2)
    gha_forward(copy, other, "relative")
    gha_forward(copy, emb, "relative")
    assert h.forward_pass is held and held.term is not h.levels[0].positional["relative"][1]
    calls = count_softmax(monkeypatch)
    fresh = build_hierarchy(pos, q, k, v, flavor="point", k=3, r=2)
    assert same_bits(gha_backward(h, dz, emb, "relative"),
                     gha_backward(fresh, dz, emb, "relative"))
    assert len(calls) == 2 * len(h.levels)  # h's own forward, then the fresh structure's
    assert h.forward_pass is not held


def test_editing_the_returned_z_leaves_the_gradients():
    # The pass holds a private read-only copy of z.
    rng = np.random.default_rng(46)
    q, k, v, pos = rand_inputs(rng, 50, 4)
    dz = rng.normal(size=(50, 4))
    emb = make_fourier_embedding(4, rng)
    h, twin = (build_hierarchy(pos, q, k, v, flavor="point", k=3, r=2) for _ in range(2))
    z = gha_forward(h, emb, "relative").z
    assert not h.forward_pass.z.flags.writeable and not np.shares_memory(z, h.forward_pass.z)
    z *= -3.0
    assert same_bits(gha_backward(h, dz, emb, "relative"), gha_backward(twin, dz, emb, "relative"))


def test_backward_after_a_forward_runs_no_level_softmax(monkeypatch):
    rng = np.random.default_rng(47)
    n, d = 60, 4
    q, k, v, pos = rand_inputs(rng, n, d)
    dz = rng.normal(size=(n, d))
    emb = make_fourier_embedding(d, rng)
    h = build_hierarchy(pos, q, k, v, flavor="point", k=3, r=2)
    calls = count_softmax(monkeypatch)
    gha_forward(h, emb, "relative")
    assert len(calls) == len(h.levels)
    del calls[:]
    gha_backward(h, dz, emb, "relative")
    gha_backward(h, dz, emb, "relative")
    assert calls == []
    effective_attention_row(h, 3, emb, "relative")  # keeps t: a forward of its own, left
    assert len(calls) == len(h.levels)
    del calls[:]
    gha_backward(h, dz, emb, "relative")
    assert calls == []
    gha_backward(with_values(h, v=v + 1.0), dz, emb, "relative")  # no pass: its own forward
    assert len(calls) == len(h.levels)


@pytest.mark.parametrize("flavor", ["point", "voxel"])
@pytest.mark.parametrize("mode", ["none", "absolute", "relative"])
def test_backward_reads_level_0_weights_from_the_pass(monkeypatch, flavor, mode):
    # The forward scores level 0 last, and its pass keeps those edge weights
    # read-only: a backward after it scores levels 1..H again from the kept
    # row maxima and reads level 0's. Level sizes strictly fall, so the
    # length of the row maxima a span is scored against names its level.
    import gha3d.attention as attention_mod

    d = 4
    h = span_structure(flavor, d)
    sizes = [lv.n_tokens for lv in h.levels]
    assert len(sizes) > 1 and sizes == sorted(set(sizes), reverse=True)
    emb = make_fourier_embedding(d, np.random.default_rng(49)) if mode != "none" else None
    dz = np.random.default_rng(50).normal(size=(h.n_tokens, d))
    result, held = gha_forward(h, emb, mode), h.forward_pass
    real, scored = attention_mod._span_weights, []
    monkeypatch.setattr(attention_mod, "_span_weights",
                        lambda *a, **kw: scored.append(a[5].shape[0]) or real(*a, **kw))
    grads = gha_backward(h, dz, emb, mode)
    assert sizes[0] not in scored and set(scored) == set(sizes[1:])
    t0 = held.t0
    assert h.forward_pass is held and not t0.flags.writeable and t0.shape == (h.levels[0].topology.total_edges,)
    assert not any(np.shares_memory(t0, a) for a in (result.z, result.normalizers, *grads))
    _, weights = attention_mod._edge_weights(h, emb, mode)
    assert weights[0].tobytes() == t0.tobytes() and weights[0] is h.forward_pass.t0


@pytest.mark.parametrize("flavor", ["point", "voxel"])
def test_a_relative_pass_keeps_only_what_the_backward_reads(monkeypatch, flavor):
    # The backward reads level 0's weights and never scores level 0: the
    # pass keeps no level-0 Q' and the backward forms none, so its one
    # rotation per level is dq's relative half. Of the value scaling it
    # keeps the one shift the backward applies.
    import gha3d.attention as attention_mod

    d = 4
    h = span_structure(flavor, d)
    emb = make_fourier_embedding(d, np.random.default_rng(51))
    dz = np.random.default_rng(52).normal(size=(h.n_tokens, d))
    gha_forward(h, emb, "relative")
    held = h.forward_pass
    assert held.q_rot[0] is None and all(q_rot is not None for q_rot in held.q_rot[1:])
    assert "exponents" not in held._fields and held.shift is None
    rotated = []
    real = attention_mod._rotated
    monkeypatch.setattr(attention_mod, "_rotated",
                        lambda x, term: rotated.append(x.shape[0]) or real(x, term))
    gha_backward(h, dz, emb, "relative")
    assert h.forward_pass is held and rotated == [lv.n_tokens for lv in h.levels]
    v = h.levels[0].v_tilde * np.array([1.0, 1e307, 1.0, 1e306])
    scaled = with_values(h, h.levels[0].q_tilde, h.levels[0].k_tilde, v)
    gha_forward(scaled, emb, "relative")
    assert isinstance(scaled.forward_pass.shift, int) and scaled.forward_pass.shift > 0


def test_no_pass_reads_a_topology_row_size(monkeypatch):
    # The overflow bound takes each level's widest row from its width
    # classes: a forward or local pass runs no np.diff over any indptr.
    from gha3d.geometry import NeighborhoodTopology

    d = 4
    h = span_structure("voxel", d)
    emb = make_fourier_embedding(d, np.random.default_rng(53))
    lv = h.levels[0]
    inputs = AttentionInputs(lv.q_tilde, lv.k_tilde, lv.v_tilde, lv.positions, emb, "relative")
    real, diffed = np.diff, []
    monkeypatch.setattr(np, "diff", lambda a, *rest: diffed.append(a) or real(a, *rest))
    monkeypatch.setattr(NeighborhoodTopology, "sizes", property(lambda _: pytest.fail("sizes")))
    gha_forward(h, emb, "relative")
    local_attention(inputs, lv.topology)
    indptrs = [level.topology.indptr for level in h.levels]
    assert not any(np.shares_memory(a, p) for a in diffed for p in indptrs)


@pytest.mark.parametrize("mode", ["none", "absolute", "relative"])
def test_effective_rows_with_a_pass_stay_the_single_rows(mode):
    rng = np.random.default_rng(48)
    n, d = 70, 4
    q, k, v, pos = rand_inputs(rng, n, d)
    emb = make_fourier_embedding(d, rng) if mode != "none" else None
    h, twin = (build_hierarchy(pos, q, k, v, flavor="point", k=4, r=2) for _ in range(2))
    gha_forward(h, emb, mode)
    weights = effective_attention(h, emb, mode)
    for i in (0, 9, n - 1):
        row = effective_attention_row(twin, i, emb, mode)  # the first call leaves the pass
        assert weights[i].tobytes() == row.tobytes()
        assert effective_attention_row(h, i, emb, mode).tobytes() == row.tobytes()


# The tracemalloc peak of one gha_backward after a gha_forward on the
# structure below, when the backward ran the forward again and held every
# level's per-edge weights: 16918869 bytes (16.1 MiB); a backward with no
# forward before it peaked at 19024728 bytes (18.1 MiB).
BACKWARD_PEAK_BEFORE = 16918869
BACKWARD_ALONE_PEAK_BEFORE = 19024728


def test_backward_peak_is_below_the_recorded_figure():
    # 2^14 uniform tokens, d = 8, k = 8, relative mode, terms kept on the
    # structure. The backward holds one level's edge weights and ds at a time,
    # writes each level's [dq | dk | dv] in place and frees every level's
    # rows once the pull-back has summed them: about 10.3 MiB, and 13.8 MiB
    # with its own forward.
    rng = np.random.default_rng(34)
    n, d = 16384, 8
    q, k, v, dz = (rng.normal(size=(n, d)) for _ in range(4))
    pos = rng.uniform(size=(n, 3))
    emb = make_fourier_embedding(d, rng)
    h = build_hierarchy(pos, q, k, v, flavor="point", k=8, r=2)
    positional_table(h, emb, "relative")

    def peak(structure):
        tracemalloc.start()
        try:
            gha_backward(structure, dz, emb, "relative")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    gha_forward(h, emb, "relative")
    assert peak(h) < BACKWARD_PEAK_BEFORE
    assert peak(with_values(h, v=v)) < BACKWARD_ALONE_PEAK_BEFORE


# Bits of gha_backward in relative mode on 20 tokens at 5 positions (depth 3),
# one row of float.hex values per token: pins the pooling and pull-back
# summation orders for a general dz. Re-recorded when every sum over a map
# became one product adding from +0.0 in entry order (the pooling and dq's
# key side had added reduceat's x0 + (x1 + ...)): entries moved by at most
# 1.7e-16.
PINNED_BACKWARD = {
    "dq": """
        0x1.3b54b42c6fd6dp-3 -0x1.a2e92057d1a80p-11 0x1.d31adcb82722ep-5 0x1.2221194f57098p-5
        0x1.3b55596ba3028p-4 -0x1.33789610d5f22p-3 0x1.512698549c68dp-2 -0x1.45fdbc9b0c727p-5
        0x1.38722774959d4p-3 -0x1.a694f8c3fa85ep-5 0x1.e3e4f7b875e08p-5 0x1.af3847af1669ap-6
        0x1.8cb99d38e0c58p-6 0x1.c7b27e4dd83b8p-4 -0x1.a733c1a1a586dp-8 0x1.4ea8d4a196570p-5
        -0x1.41ecc434df23bp-4 0x1.702b66e5b4060p-5 0x1.27de10af192dcp-2 0x1.bfc4f28389fa4p-5
        0x1.0417ece66bc1ep-3 -0x1.081e0b4a6affap-4 -0x1.112c0306b70c5p-3 -0x1.704fbe08de16bp-4
        -0x1.05cc6842b30e2p-5 -0x1.cd02d00c07331p-10 -0x1.db439cc07fcb6p-2 -0x1.2f819586ec912p-4
        -0x1.9eacb76ac97a7p-2 0x1.2f958628bc95ap-2 -0x1.9fd2ef056e7b7p-7 -0x1.1562acd9cd96ep-5
        -0x1.56614855aecd1p-2 0x1.549d2e6fd83f9p-2 0x1.fe543b2841a64p-6 0x1.2f0bb6e8ceebap-6
        0x1.92ddea9de05a0p-7 0x1.a192c959ac2d4p-7 0x1.fbb00f0407ac8p-5 0x1.25b4b06b9b9e6p-8
    """,
    "dk": """
        -0x1.cb6c060f6e64bp-2 -0x1.b7e05d81c7e39p-2 0x1.a4d05131e55a6p-2 -0x1.0cd7f3e2c959dp-2
        -0x1.5cfa33fd9e8bep-7 -0x1.6fb61035cdb2ep-5 -0x1.9d2fd8efc2a5bp-4 0x1.e3840a7348e65p-5
        0x1.15f594ac78e10p-2 -0x1.e6231294ebd1cp-4 0x1.2613f70d26755p-6 -0x1.cfd31705c3fbdp-5
        0x1.6b338b6f67f2bp-3 0x1.93ba935c05327p-3 0x1.72998f81c1e9fp-3 0x1.043f3efed5365p-1
        -0x1.dc20676df7be4p-4 -0x1.60d73facb9afap-2 0x1.bfe9894f9bcffp-8 0x1.fc6dc53aecaa4p-5
        0x0.0p+0 0x0.0p+0 -0x1.b88f99337134ep-4 -0x1.29e1c9a125830p-3
        0x0.0p+0 0x0.0p+0 -0x1.3271b7c5f4100p-4 -0x1.8a3abb3cc40e6p-5
        -0x1.8d6d2b9d06716p-4 0x1.3e1f7132382e0p-4 0x0.0p+0 0x0.0p+0
        -0x1.7f8fd50366825p-3 0x1.2e00cb7d164aap-1 0x0.0p+0 0x0.0p+0
        0x1.abbd1f3f613c5p-5 0x1.26f125d2d0654p-4 0x0.0p+0 0x0.0p+0
    """,
    "dv": """
        0x1.6397b5be9f380p-1 0x1.a112fe2b0a290p-4 0x1.0bf52b6d59557p-1 0x1.ba22d951a60d2p-2
        -0x1.0eceee023892ep-6 -0x1.44f97cff8f526p-3 0x1.63ee2cb82d6dcp-2 0x1.c7cc0eda42f6cp-3
        0x1.986af4ac22aabp-2 0x1.41a37e95bcdc8p-2 0x1.b009223856053p-5 0x1.8a6f760af8bd4p-5
        0x1.bbd0737f1bcadp-3 0x1.668b8597953f2p-3 0x1.58df7f4442270p-2 -0x1.05cd6817d55c8p-3
        0x1.589ff83599a8ap-2 -0x1.290d2f04bc21ap-5 0x1.78a6c57c2a356p-2 0x1.c0ebd6ece6925p-4
        0x0.0p+0 0x0.0p+0 -0x1.ca270ce88fe24p-7 -0x1.703133e620aebp-6
        0x0.0p+0 0x0.0p+0 0x1.1e16ba37a5f36p-3 0x1.0ef73bf566618p-2
        -0x1.61a89251a4f95p-3 -0x1.632be763c55cdp-3 0x0.0p+0 0x0.0p+0
        -0x1.f4f1e61a772d1p-2 -0x1.1faeec0efb658p-3 0x0.0p+0 0x0.0p+0
        0x1.a6a30fba0a47ep-6 0x1.4b5d0ce7fd9dcp-5 0x0.0p+0 0x0.0p+0
    """,
}


def test_backward_bits_are_pinned_on_duplicate_positions():
    rng = np.random.default_rng(2024)
    pos = np.repeat(np.round(rng.uniform(size=(5, 3)), 2), 4, axis=0)[rng.permutation(20)]
    q, k, v, dz = (np.round(rng.normal(size=(20, 2)), 3) for _ in range(4))
    emb = make_fourier_embedding(2, np.random.default_rng(5))
    h = build_hierarchy(pos, q, k, v, flavor="point", k=3, r=2)
    assert h.level_sizes() == [20, 10, 5, 3]
    grads = gha_backward(h, dz, emb, "relative")
    for name, hexes in PINNED_BACKWARD.items():
        want = np.array([float.fromhex(x) for x in hexes.split()]).reshape(20, 2)
        assert getattr(grads, name).tobytes() == want.tobytes(), name


# SHA-256 prefixes of (z, normalizers, effective_attention_row(h, 7)) bytes:
# any later kernel that gathers, spans or broadcasts differently must not
# change a bit. Every entry was re-recorded when every sum over a map (the
# pooling, the forward's y and denominators) became one product adding from
# +0.0 in entry order, where reduceat had added x0 + (x1 + ...) or pairs: on
# 8k-point and 25k-cell scenes that moved each output by at most 9.3e-16 of
# its largest entry, in all three modes.
PINNED_FORWARD = {
    ("point", "none"): ("4619f473674ad761", "96dac28d3f52fea4", "7d2e43af15529851"),
    ("point", "absolute"): ("868cf38ea9e44d18", "0fa11b935dbfe9aa", "be90381c672865e2"),
    ("point", "relative"): ("3ae9d4cbb497d5b6", "7a059c130a21581d", "d02c4716744c717a"),
    ("voxel", "none"): ("08baa3f654c73676", "9702d29f49a3ae58", "334213bd7e159892"),
    ("voxel", "absolute"): ("fe6ac8312299a95e", "1bf748aa0042cd43", "e4c8f328fc585822"),
    ("voxel", "relative"): ("d4355e00ee85542e", "0bd6319c12797aaa", "0259a321b74f0258"),
}


def pinned_structure(flavor):
    """The duplicate-position point fixture of the pinned backward, or a
    64-cell voxel structure of depth 3."""
    if flavor == "point":
        rng = np.random.default_rng(2024)
        pos = np.repeat(np.round(rng.uniform(size=(5, 3)), 2), 4, axis=0)[rng.permutation(20)]
        q, k, v = (np.round(rng.normal(size=(20, 2)), 3) for _ in range(3))
        return build_hierarchy(pos, q, k, v, flavor="point", k=3, r=2)
    rng = np.random.default_rng(31)
    coords = np.unique(rng.integers(-8, 8, size=(70, 3)), axis=0)[rng.permutation(64)]
    pos = coords + np.round(rng.uniform(0.1, 0.9, size=(64, 3)), 2)
    q, k, v = (np.round(rng.normal(size=(64, 2)), 3) for _ in range(3))
    return build_hierarchy(pos, q, k, v, flavor="voxel", coords=coords)


@pytest.mark.parametrize("flavor, mode", sorted(PINNED_FORWARD))
def test_forward_and_row_bits_are_pinned(flavor, mode):
    h = pinned_structure(flavor)
    assert h.level_sizes() == ([20, 10, 5, 3] if flavor == "point" else [64, 60, 41, 8])
    emb = None if mode == "none" else make_fourier_embedding(2, np.random.default_rng(5))
    out = gha_forward(h, emb, mode)
    row = effective_attention_row(h, 7, emb, mode)
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest()[:16]
                for a in (out.z, out.normalizers, row))
    assert got == PINNED_FORWARD[flavor, mode]


# SHA-256 prefixes of gha_backward's (dq, dk, dv) bytes for one general dz:
# any later kernel must add their terms in the same order. Re-recorded with
# the forward's entries above, when the pooling, the forward's sums and dq's
# key side became products adding from +0.0 in entry order.
PINNED_GRADIENTS = {
    ("point", "none"): ("bf3446da35ca9087", "d7f37f3326f8356c", "0dec85ee1a8a09ec"),
    ("point", "absolute"): ("b6b0ca4156c993e6", "d3e131e06fbf80aa", "3d264a473c50e608"),
    ("point", "relative"): ("0017579cd3dae15d", "84f3d47fb9575b41", "5f4636b5cc4cf923"),
    ("voxel", "none"): ("b7fad461ed115904", "369382c07bcdfcba", "c8a0f3269a7ffd92"),
    ("voxel", "absolute"): ("07540ead7bcbc72c", "b127f304271c2c71", "28d99705f74a99cb"),
    ("voxel", "relative"): ("888d4776d4ebd5d0", "dd447f1ea4697a65", "67e83b43a0636121"),
}


@pytest.mark.parametrize("flavor, mode", sorted(PINNED_GRADIENTS))
def test_gradient_bits_are_pinned(flavor, mode):
    """The voxel structure of the pinned forward, and 60 full-precision point
    tokens at 30 positions with the default k=8."""
    if flavor == "voxel":
        h = pinned_structure("voxel")
    else:
        rng = np.random.default_rng(2025)
        pos = np.repeat(np.round(rng.uniform(size=(30, 3)), 2), 2, axis=0)[rng.permutation(60)]
        q, k, v = (rng.normal(size=(60, 2)) for _ in range(3))
        h = build_hierarchy(pos, q, k, v, flavor="point", r=2)
        assert h.level_sizes() == [60, 30, 15, 8]
    emb = None if mode == "none" else make_fourier_embedding(2, np.random.default_rng(5))
    dz = np.random.default_rng(7).normal(size=(h.levels[0].n_tokens, 2))
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest()[:16]
                for a in gha_backward(h, dz, emb, mode))
    assert got == PINNED_GRADIENTS[flavor, mode]


# ---------------------------------------------------------------------------
# Backward
# ---------------------------------------------------------------------------

def fd_gradient(h0, which, dz, emb=None, mode="none", step=1e-5):
    """Central finite differences of sum(dz * z) w.r.t. one input matrix."""
    base = {"q": h0.levels[0].q_tilde, "k": h0.levels[0].k_tilde, "v": h0.levels[0].v_tilde}
    x0 = base[which]
    g = np.zeros_like(x0)
    for idx in np.ndindex(*x0.shape):
        def loss(delta):
            x = np.array(x0)
            x[idx] += delta
            h = with_values(h0, **{which: x})
            return float(np.sum(dz * gha_forward(h, embedding=emb, embedding_mode=mode).z))
        g[idx] = (loss(step) - loss(-step)) / (2 * step)
    return g


def max_rel_err(a, f):
    return float(np.max(np.abs(a - f) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(f)))))


def test_transposed_product_matches_add_at():
    """A map's transposed product sums each output from 0 in edge order, as
    np.add.at does: magnitudes 1e-8 to 1e8 show any other order, and
    outputs without entries (17 and 50-59) read exactly 0.0."""
    rng = np.random.default_rng(22)
    index = rng.integers(0, 50, size=4000)
    index[index == 17] = 18
    rows = np.sort(rng.integers(0, 1000, size=4000))  # 4000 entries on 1000 rows, some empty
    indptr = np.searchsorted(rows, np.arange(1001))
    data = rng.normal(size=4000) * 10.0 ** rng.integers(-8, 8, size=4000)
    for x in (rng.normal(size=(1000, 1)) * 10.0 ** rng.integers(-8, 8, size=(1000, 1)),
              rng.normal(size=(1000, 3))):
        want = np.zeros((60, x.shape[1]))
        np.add.at(want, index, data[:, None] * x[rows])
        got = _transposed_product(indptr, index, data, x, 60)
        assert got.tobytes() == want.tobytes()
        assert got[[17, *range(50, 60)]].tobytes() == bytes(8 * 11 * x.shape[1])  # +0.0


def test_backward_folds_and_pulls_back_once(monkeypatch):
    import gha3d.attention as attention_mod

    rng = np.random.default_rng(23)
    n, d, d_v = 60, 4, 6
    q, k = rng.normal(size=(n, d)), rng.normal(size=(n, d))
    h = build_hierarchy(rng.normal(size=(n, 3)), q, k, rng.normal(size=(n, d_v)),
                        flavor="point", k=4, r=2)
    assert h.depth >= 3
    calls, folding = [], []
    real = {name: getattr(attention_mod, name)
            for name in ("_fold", "_pull_back", "_transposed_product")}

    def fold(*args):
        folding.append(True)
        try:
            return real["_fold"](*args)
        finally:
            folding.pop()

    def product(indptr, indices, data, x, n_out):
        calls.append(("fold" if folding else "product", x.shape[1]))
        return real["_transposed_product"](indptr, indices, data, x, n_out)

    monkeypatch.setattr(attention_mod, "_fold", fold)
    monkeypatch.setattr(attention_mod, "_transposed_product", product)
    monkeypatch.setattr(attention_mod, "_pull_back",
                        lambda *a: calls.append("pull_back") or real["_pull_back"](*a))
    gha_backward(h, rng.normal(size=(n, d_v)))
    levels = len(h.levels)
    assert calls.count("pull_back") == 1
    # One fold of [dz/d_hat | b] per level, not one for each part.
    assert calls.count(("fold", d_v + 1)) == levels
    # Per level one dk and one dv product; then one transposed pooling of
    # [dq | dk | dv] per coarse level.
    assert calls.count(("product", d)) == levels
    assert calls.count(("product", d_v + 1)) == levels
    assert calls.count(("product", 2 * d + d_v)) == h.depth
    assert len(calls) == 1 + levels + 2 * levels + h.depth


def test_fold_multiplies_int32_maps(monkeypatch):
    # The fold's per-level ancestor maps are int32, the dtype SciPy
    # multiplies in, so no product converts them.
    import gha3d.attention as attention_mod

    rng = np.random.default_rng(64)
    n, d = 60, 4
    h = build_hierarchy(rng.normal(size=(n, 3)), *(rng.normal(size=(n, d)) for _ in range(3)),
                        flavor="point", k=4, r=2)
    dtypes = []
    real = attention_mod._transposed_product

    def product(indptr, indices, data, x, n_out):
        dtypes.append((indptr.dtype, indices.dtype))
        return real(indptr, indices, data, x, n_out)

    monkeypatch.setattr(attention_mod, "_transposed_product", product)
    mus = tuple(np.zeros(lv.n_tokens) for lv in h.levels)
    attention_mod._fold(h, mus, np.zeros(n), rng.normal(size=(n, d + 1)))
    assert dtypes == [(np.dtype(np.int32), np.dtype(np.int32))] * len(h.levels)


def test_backward_zero_cotangent():
    rng = np.random.default_rng(20)
    q, k, v, pos = rand_inputs(rng, 10, 4)
    h = build_hierarchy(pos, q, k, v, flavor="point", k=3, r=2)
    g = gha_backward(h, np.zeros((10, 4)))
    assert not g.dq.any() and not g.dk.any() and not g.dv.any()


def test_backward_single_token_exact():
    rng = np.random.default_rng(21)
    q, k, v, pos = rand_inputs(rng, 1, 5)
    h = build_hierarchy(pos, q, k, v, flavor="point", k=4, r=2)
    dz = rng.normal(size=(1, 5))
    g = gha_backward(h, dz)
    np.testing.assert_array_equal(g.dv, dz)  # z = v identically
    np.testing.assert_array_equal(g.dq, np.zeros((1, 5)))
    np.testing.assert_array_equal(g.dk, np.zeros((1, 5)))


@pytest.mark.parametrize("mode", ["none", "absolute", "relative"])
def test_backward_matches_finite_differences_point(mode):
    rng = np.random.default_rng(22)
    q, k, v, pos = rand_inputs(rng, 12, 4)
    emb = make_fourier_embedding(4, rng) if mode != "none" else None
    h = build_hierarchy(pos, q, k, v, flavor="point", k=3, r=2)
    assert h.depth >= 1
    dz = rng.normal(size=(12, 4))
    g = gha_backward(h, dz, embedding=emb, embedding_mode=mode)
    for which, got in (("q", g.dq), ("k", g.dk), ("v", g.dv)):
        fd = fd_gradient(h, which, dz, emb, mode)
        assert max_rel_err(got, fd) < 1e-5, which


@pytest.mark.parametrize("mode", ["none", "absolute", "relative"])
def test_backward_matches_finite_differences_deep(mode):
    rng = np.random.default_rng(23)
    q, k, v, pos = rand_inputs(rng, 12, 2)
    emb = make_fourier_embedding(2, rng) if mode != "none" else None
    h = build_hierarchy(pos, q, k, v, flavor="point", k=2, r=2)
    assert h.depth >= 3
    dz = rng.normal(size=(12, 2))
    g = gha_backward(h, dz, embedding=emb, embedding_mode=mode)
    for which, got in (("q", g.dq), ("k", g.dk), ("v", g.dv)):
        fd = fd_gradient(h, which, dz, emb, mode)
        assert max_rel_err(got, fd) < 1e-5, which


@pytest.mark.parametrize("mode", ["none", "absolute", "relative"])
def test_backward_matches_finite_differences_voxel(mode):
    rng = np.random.default_rng(24)
    coords = np.unique(rng.integers(0, 6, size=(60, 3)), axis=0)[:32]
    order = np.lexsort((coords[:, 2], coords[:, 1], coords[:, 0]))
    coords = coords[order]
    n = coords.shape[0]
    d = 3 if mode == "none" else 4  # the embedding needs an even width
    q, k, v, _ = rand_inputs(rng, n, d)
    emb = make_fourier_embedding(d, rng) if mode != "none" else None
    pos = coords.astype(np.float64) + 0.5
    h = build_hierarchy(pos, q, k, v, flavor="voxel", coords=coords)
    assert h.depth >= 1
    dz = rng.normal(size=(n, d))
    g = gha_backward(h, dz, embedding=emb, embedding_mode=mode)
    for which, got in (("q", g.dq), ("k", g.dk), ("v", g.dv)):
        fd = fd_gradient(h, which, dz, emb, mode)
        assert max_rel_err(got, fd) < 1e-5, which


def test_backward_rejects_bad_shapes_and_modes():
    rng = np.random.default_rng(25)
    q, k, v, pos = rand_inputs(rng, 6, 4)
    h = build_hierarchy(pos, q, k, v, flavor="point", k=3, r=2)
    with pytest.raises(InvalidInputError):
        gha_backward(h, np.zeros((5, 4)))
    for bad in (np.nan, np.inf, -np.inf):
        dz = np.zeros((6, 4))
        dz[2, 1] = bad
        with pytest.raises(InvalidInputError):
            gha_backward(h, dz)
    with pytest.raises(ConfigError):
        gha_backward(h, np.zeros((6, 4)), embedding=make_fourier_embedding(4, rng),
                     embedding_mode="sinusoidal")
    with pytest.raises(ConfigError):
        gha_backward(h, np.zeros((6, 4)), embedding_mode="absolute")  # missing embedding
