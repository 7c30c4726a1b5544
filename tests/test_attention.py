import math

import numpy as np
import pytest

from gha3d.attention import (
    AttentionInputs,
    FourierEmbedding,
    _dense_softmax_chunks,
    _scatter_add,
    dense_attention,
    embed_points,
    fourier_embed,
    gha_backward,
    gha_forward,
    local_attention,
    make_fourier_embedding,
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
    # Every rows-by-keys(-by-frequencies) temporary of a chunk holds at
    # most 2^22 elements; the chunks tile the rows in order.
    rng = np.random.default_rng(26)
    n = 4096
    q, k, _, pos = rand_inputs(rng, n, 4)
    emb = make_fourier_embedding(4, rng) if mode != "none" else None
    per_row = n * (emb.m if mode == "relative" else 1)
    covered = 0
    for start, stop, a, denom, mu in _dense_softmax_chunks(q, k, pos, emb, mode):
        assert start == covered and (stop - start) * per_row <= 1 << 22
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


def test_scatter_add_matches_add_at_and_canonical_ignores_input_order():
    rng = np.random.default_rng(22)
    index = rng.integers(0, 50, size=4000)
    for values in (rng.normal(size=4000) * 10.0 ** rng.integers(-8, 8, size=4000),
                   rng.normal(size=(4000, 3))):
        want = np.zeros((60,) + values.shape[1:])
        np.add.at(want, index, values)
        np.testing.assert_array_equal(_scatter_add(index, values, 60), want)
        canon = _scatter_add(index, values, 60, canonical=True)
        np.testing.assert_allclose(canon, want, rtol=1e-12, atol=1e-12 * np.abs(values).max())
        perm = rng.permutation(4000)
        np.testing.assert_array_equal(_scatter_add(index[perm], values[perm], 60, canonical=True),
                                      canon)


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
