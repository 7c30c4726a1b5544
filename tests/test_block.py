import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import gha3d.block as block_mod
from gha3d import attention_structure
from gha3d.attention import gha_forward
from gha3d.block import (
    LAYERNORM_EPS,
    BlockConfig,
    GhaBlockParams,
    LayerParams,
    block_forward,
    init_params,
    layer_norm,
    load_params,
    save_params,
    xavier_bound,
    _dropout,
)
from gha3d.errors import ConfigError, FormatError, InvalidInputError, UnsupportedVersionError
from gha3d.hierarchy import with_values

PAIR_POSITIONS = np.array(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [10.0, 0.0, 0.0], [11.0, 0.0, 0.0]]
)


def small_config(**kw):
    base = dict(n_layers=1, model_dim=4, ffn_dim=8, n_heads=1, seed=7,
                embedding_mode="none", dropout_enabled=False)
    base.update(kw)
    return BlockConfig(**base)


def zeroed(params):
    """All projection/FFN weights and biases zero; LayerNorm untouched."""
    zero_layers = []
    for lp in params.layers:
        repl = {
            name: np.zeros_like(getattr(lp, name))
            for name in ("w_q", "b_q", "w_k", "b_k", "w_v", "b_v", "w_o", "b_o",
                         "w1", "b1", "w2", "b2")
        }
        zero_layers.append(dataclasses.replace(lp, **repl))
    return GhaBlockParams(config=params.config, embedding=params.embedding,
                          layers=tuple(zero_layers))


# ---------------------------------------------------------------------------
# Config / init
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(n_heads=3)  # does not divide 4
    with pytest.raises(ConfigError):
        small_config(attn_dropout=1.0)
    with pytest.raises(ConfigError):
        small_config(ffn_dropout=-0.1)
    with pytest.raises(ConfigError):
        small_config(n_layers=0)
    with pytest.raises(ConfigError):
        # head width 3 is odd, cannot host cos/sin pairs
        BlockConfig(n_layers=1, model_dim=6, ffn_dim=8, n_heads=2, embedding_mode="relative")
    assert small_config(model_dim=8, n_heads=2).head_dim == 4


def test_init_deterministic_and_zero_biases():
    cfg = small_config(n_layers=3, model_dim=8, ffn_dim=16, n_heads=2,
                       embedding_mode="relative")
    p1 = init_params(cfg)
    p2 = init_params(cfg)
    for l1, l2 in zip(p1.layers, p2.layers):
        for name in ("w_q", "w_k", "w_v", "w_o", "w1", "w2"):
            np.testing.assert_array_equal(getattr(l1, name), getattr(l2, name))
        for name in ("b_q", "b_k", "b_v", "b_o", "b1", "b2", "ln1_shift", "ln2_shift"):
            assert not getattr(l1, name).any()
        np.testing.assert_array_equal(l1.ln1_gain, np.ones(8))
    np.testing.assert_array_equal(p1.embedding.frequencies, p2.embedding.frequencies)
    assert p1.embedding.output_dim == cfg.head_dim


def test_init_seed_changes_params():
    a = init_params(small_config(seed=1))
    b = init_params(small_config(seed=2))
    assert not np.array_equal(a.layers[0].w_q, b.layers[0].w_q)


def test_xavier_bound_example():
    # c=8, c_f=16: first FFN layer bound sqrt(6 / 24) = 0.5
    assert xavier_bound(8, 16) == 0.5
    cfg = small_config(model_dim=8, ffn_dim=16)
    w1 = init_params(cfg).layers[0].w1
    assert np.all(np.abs(w1) <= 0.5)
    assert np.abs(w1).max() > 0.4  # actually spans the range


# ---------------------------------------------------------------------------
# LayerNorm / dropout units
# ---------------------------------------------------------------------------

def test_layer_norm_standardizes_rows():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(20, 16)) * 3.0e3  # large variance drowns the epsilon
    out = layer_norm(x, np.ones(16), np.zeros(16))
    np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.var(axis=1), 1.0, atol=1e-10)


def test_layer_norm_gain_shift():
    x = np.array([[1.0, 2.0, 3.0, 4.0]])
    g = np.array([2.0, 2.0, 2.0, 2.0])
    s = np.array([1.0, 1.0, 1.0, 1.0])
    np.testing.assert_allclose(layer_norm(x, g, s), layer_norm(x, np.ones(4), np.zeros(4)) * 2 + 1)


def plain_layer_norm(x, gain, shift, eps=LAYERNORM_EPS):
    """LayerNorm as separate expressions, each making its own array, with
    the overflow rescue of ``layer_norm``."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=1, keepdims=True)
        var = np.mean((x - mean) ** 2, axis=1, keepdims=True)
        out = (x - mean) / np.sqrt(var + eps)
    bad = np.flatnonzero(~(np.maximum(np.abs(mean), var)[:, 0] < np.inf))
    rows = x.take(bad, axis=0)
    scaled = np.ldexp(rows, -np.frexp(np.abs(rows).max(axis=1, keepdims=True))[1])
    centred = scaled - scaled.mean(axis=1, keepdims=True)
    sd = np.sqrt(np.mean(centred**2, axis=1, keepdims=True))
    out[bad] = np.divide(centred, sd, out=np.zeros_like(centred), where=sd > 0.0)
    return out * gain + shift


def test_layer_norm_keeps_the_plain_formulas_bits():
    # One centred array serves the variance and is normalized, scaled and
    # shifted in place: the plain formula's bits, on normal rows and on
    # rows scaled by 1e200, whose variance overflows and is rescued.
    rng = np.random.default_rng(12)
    x = rng.normal(size=(500, 32)) * rng.uniform(0.1, 10.0, size=(500, 1))
    g, s = rng.normal(size=32), rng.normal(size=32)
    big = x.copy()
    big[::3] *= 1e200
    for rows in (x, big):
        assert layer_norm(rows, g, s).tobytes() == plain_layer_norm(rows, g, s).tobytes()


def test_layer_norm_rows_near_the_float_limit_keep_unbounded_bits():
    # Features of scale 2^100 drown eps, so LayerNorm is scale-free there:
    # rows scaled by 2^900, whose squares overflow, give the same bits, and
    # the normal rows beside them keep theirs.
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6, 8)) * 2.0**100
    g, s = rng.normal(size=8), rng.normal(size=8)
    mixed = x.copy()
    mixed[::2] *= 2.0**900
    out = layer_norm(mixed, g, s)
    assert np.array_equal(out, layer_norm(x, g, s))
    # Equal entries whose mean overflows leave a zero variance: the shift.
    assert np.array_equal(layer_norm(np.full((1, 2), 1.5e308), g[:2], s[:2]), s[None, :2])


@pytest.mark.parametrize("scale", [1e200, 1e300])
def test_block_forward_is_finite_on_huge_features(scale):
    # LayerNorm used to square these features to inf and zero every row.
    rng = np.random.default_rng(5)
    pos = rng.normal(size=(40, 3))
    x = rng.normal(size=(40, 4)) * scale
    out = block_forward(x, pos, init_params(small_config()),
                        structure=attention_structure(pos, k=4))
    assert np.all(np.isfinite(out))
    assert np.abs(out).max() > 0.1 * scale  # the residual carries x through


def test_dropout_mask_properties():
    cfg = small_config(dropout_enabled=True)
    x = np.ones((50, 40))
    y = _dropout(x, 0.3, cfg, layer=0, role=1)
    kept = y != 0
    # inverted dropout: survivors are scaled by 1/(1-p)
    np.testing.assert_allclose(y[kept], 1.0 / 0.7)
    assert 0.5 < kept.mean() < 0.9
    # same (seed, layer, role) -> same mask; different role -> different mask
    np.testing.assert_array_equal(y, _dropout(x, 0.3, cfg, layer=0, role=1))
    assert not np.array_equal(y, _dropout(x, 0.3, cfg, layer=0, role=2))


def test_dropout_disabled_is_identity():
    cfg = small_config(dropout_enabled=False)
    x = np.ones((4, 4))
    assert _dropout(x, 0.9, cfg, 0, 0) is x


# ---------------------------------------------------------------------------
# block_forward
# ---------------------------------------------------------------------------

def test_residual_identity_zero_weights():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(10, 4))
    pos = rng.normal(size=(10, 3))
    structure = attention_structure(pos, k=3, r=2)
    for n_layers in (1, 6):
        for dropout_enabled in (False, True):
            cfg = small_config(n_layers=n_layers, dropout_enabled=dropout_enabled,
                               attn_dropout=0.5, ffn_dropout=0.5)
            params = zeroed(init_params(cfg))
            out = block_forward(x, pos, params, structure=structure)
            np.testing.assert_array_equal(out, x)


def test_forward_composition_oracle(monkeypatch):
    """L=1, one head, LayerNorm bypassed: the block must equal the spelled
    out composition x + W_o(attn(xW_q, xW_k, xW_v)) then + FFN."""
    monkeypatch.setattr(block_mod, "layer_norm", lambda x, g, s, eps=0.0: x)
    rng = np.random.default_rng(2)
    cfg = small_config()
    params = init_params(cfg)
    lp = params.layers[0]
    x = rng.normal(size=(12, 4))
    pos = rng.normal(size=(12, 3))

    struct = attention_structure(pos, flavor="point", k=3, r=2)
    out = block_forward(x, pos, params, structure=struct)

    h = with_values(struct, q=x @ lp.w_q + lp.b_q, k=x @ lp.w_k + lp.b_k, v=x @ lp.w_v + lp.b_v)
    x1 = x + (gha_forward(h).z @ lp.w_o + lp.b_o)
    u = np.maximum(x1 @ lp.w1 + lp.b1, 0.0) @ lp.w2 + lp.b2
    np.testing.assert_allclose(out, x1 + u, atol=1e-12)


def test_multi_head_splits_and_concatenates():
    rng = np.random.default_rng(3)
    cfg = small_config(model_dim=8, ffn_dim=8, n_heads=2)
    params = init_params(cfg)
    lp = params.layers[0]
    x = rng.normal(size=(15, 8))
    pos = rng.normal(size=(15, 3))
    struct = attention_structure(pos, flavor="point", k=4, r=2)
    out = block_forward(x, pos, params, structure=struct)

    hn = layer_norm(x, lp.ln1_gain, lp.ln1_shift)
    q, k_rows, v = hn @ lp.w_q + lp.b_q, hn @ lp.w_k + lp.b_k, hn @ lp.w_v + lp.b_v
    heads = []
    for head in range(2):
        sl = slice(head * 4, (head + 1) * 4)
        heads.append(gha_forward(with_values(struct, q=q[:, sl], k=k_rows[:, sl], v=v[:, sl])).z)
    x1 = x + (np.concatenate(heads, axis=1) @ lp.w_o + lp.b_o)
    f = layer_norm(x1, lp.ln2_gain, lp.ln2_shift)
    expect = x1 + (np.maximum(f @ lp.w1 + lp.b1, 0.0) @ lp.w2 + lp.b2)
    np.testing.assert_allclose(out, expect, atol=1e-12)


def test_forward_deterministic_with_dropout():
    rng = np.random.default_rng(4)
    cfg = small_config(n_layers=2, dropout_enabled=True, seed=99)
    params = init_params(cfg)
    x = rng.normal(size=(9, 4))
    pos = rng.normal(size=(9, 3))
    structure = attention_structure(pos, k=3, r=2)
    a = block_forward(x, pos, params, structure=structure)
    b = block_forward(x, pos, params, structure=structure)
    np.testing.assert_array_equal(a, b)
    # and dropout does change the result vs eval mode
    eval_params = init_params(dataclasses.replace(cfg, dropout_enabled=False))
    c = block_forward(x, pos, eval_params, structure=structure)
    assert not np.array_equal(a, c)


def test_forward_permutation_equivariance():
    rng = np.random.default_rng(5)
    cfg = small_config(model_dim=4, n_layers=2, embedding_mode="relative")
    params = init_params(cfg)
    x = rng.normal(size=(20, 4))
    pos = rng.normal(size=(20, 3))
    out = block_forward(x, pos, params, structure=attention_structure(pos, k=4, r=2))
    perm = rng.permutation(20)
    out_p = block_forward(x[perm], pos[perm], params,
                          structure=attention_structure(pos[perm], k=4, r=2))
    np.testing.assert_array_equal(out_p, out[perm])


def test_forward_voxel_flavor():
    rng = np.random.default_rng(6)
    coords = np.unique(rng.integers(0, 10, size=(200, 3)), axis=0)
    order = np.lexsort((coords[:, 2], coords[:, 1], coords[:, 0]))
    coords = coords[order]
    n = coords.shape[0]
    cfg = small_config(model_dim=4, embedding_mode="relative")
    params = init_params(cfg)
    x = rng.normal(size=(n, 4))
    pos = coords.astype(np.float64) + 0.5
    out = block_forward(x, pos, params,
                        structure=attention_structure(pos, flavor="voxel", coords=coords))
    assert out.shape == (n, 4)
    assert np.all(np.isfinite(out))
    assert not np.array_equal(out, x)


def test_positional_every_layer_switch():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(12, 4))
    pos = rng.normal(size=(12, 3))
    cfg_all = small_config(n_layers=2, embedding_mode="relative", positional_every_layer=True)
    cfg_first = small_config(n_layers=2, embedding_mode="relative", positional_every_layer=False)
    structure = attention_structure(pos, k=3, r=2)
    a = block_forward(x, pos, init_params(cfg_all), structure=structure)
    b = block_forward(x, pos, init_params(cfg_first), structure=structure)
    assert not np.array_equal(a, b)


def test_forward_validates_shapes():
    cfg = small_config()
    params = init_params(cfg)
    with pytest.raises(InvalidInputError):
        block_forward(np.zeros((5, 3)), np.zeros((5, 3)), params)  # c mismatch
    with pytest.raises(InvalidInputError):
        block_forward(np.zeros((5, 4)), np.zeros((4, 3)), params)
    with pytest.raises(InvalidInputError):
        block_forward(np.full((5, 4), np.nan), np.zeros((5, 3)), params)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_params_round_trip_bit_exact(tmp_path):
    cfg = small_config(n_layers=2, model_dim=8, ffn_dim=12, n_heads=2,
                       embedding_mode="relative", dropout_enabled=True, seed=123)
    params = init_params(cfg)
    path = tmp_path / "p.ghab"
    save_params(params, path)
    loaded = load_params(path)
    assert loaded.config == cfg
    np.testing.assert_array_equal(loaded.embedding.frequencies, params.embedding.frequencies)
    for a, b in zip(loaded.layers, params.layers):
        for name in ("w_q", "b_q", "w_k", "b_k", "w_v", "b_v", "w_o", "b_o",
                     "w1", "b1", "w2", "b2", "ln1_gain", "ln1_shift", "ln2_gain", "ln2_shift"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_params_same_forward_after_reload(tmp_path):
    rng = np.random.default_rng(8)
    cfg = small_config(embedding_mode="relative")
    params = init_params(cfg)
    x = rng.normal(size=(10, 4))
    pos = rng.normal(size=(10, 3))
    path = tmp_path / "p.ghab"
    save_params(params, path)
    structure = attention_structure(pos, k=3, r=2)
    np.testing.assert_array_equal(
        block_forward(x, pos, params, structure=structure),
        block_forward(x, pos, load_params(path), structure=structure),
    )


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "p.ghab"
    path.write_bytes(b"NOPE" + b"\x00" * 60)
    with pytest.raises(FormatError):
        load_params(path)


def test_load_rejects_bad_version(tmp_path):
    path = tmp_path / "p.ghab"
    save_params(init_params(small_config()), path)
    data = bytearray(path.read_bytes())
    data[4:8] = (999).to_bytes(4, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(UnsupportedVersionError):
        load_params(path)


def test_load_rejects_truncation_and_trailing(tmp_path):
    path = tmp_path / "p.ghab"
    save_params(init_params(small_config()), path)
    data = path.read_bytes()
    path.write_bytes(data[:-9])
    with pytest.raises(FormatError):
        load_params(path)
    path.write_bytes(data + b"\x00")
    with pytest.raises(FormatError):
        load_params(path)


@pytest.mark.parametrize("tensor", ["frequencies", "last layer tensor"])
def test_load_rejects_a_non_finite_tensor(tmp_path, tensor):
    params = init_params(small_config(embedding_mode="relative"))
    path = tmp_path / "p.ghab"
    save_params(params, path)
    data = path.read_bytes()
    nan = np.float64(np.nan).tobytes()
    if tensor == "frequencies":
        first = params.embedding.frequencies[0, 0].tobytes()
        assert data.count(first) == 1
        data = data.replace(first, nan)
    else:
        data = data[:-8] + nan
    path.write_bytes(data)
    with pytest.raises(FormatError, match="non-finite"):
        load_params(path)


# ---------------------------------------------------------------------------
# Mechanism selection / prebuilt structure
# ---------------------------------------------------------------------------

def test_forward_local_mechanism_is_truncated_gha():
    from gha3d.hierarchy import truncate

    rng = np.random.default_rng(32)
    pos = rng.normal(size=(14, 3))
    x = rng.normal(size=(14, 4))
    params = init_params(small_config())
    structure = attention_structure(pos, flavor="point", k=3, r=2)
    got = block_forward(x, pos, params, mechanism="local", structure=structure)
    want = block_forward(x, pos, params, structure=truncate(structure, 0))
    np.testing.assert_array_equal(got, want)


def test_forward_dense_mechanism_matches_flat_hierarchy():
    rng = np.random.default_rng(33)
    n = 10
    pos = rng.normal(size=(n, 3))
    x = rng.normal(size=(n, 4))
    params = init_params(small_config())
    dense = block_forward(x, pos, params, mechanism="dense")
    # A single level over all tokens.
    flat = block_forward(x, pos, params, structure=attention_structure(pos, k=n, r=2))
    np.testing.assert_allclose(dense, flat, atol=1e-12)


def test_forward_mechanism_validation():
    rng = np.random.default_rng(34)
    pos = rng.normal(size=(8, 3))
    x = rng.normal(size=(8, 4))
    params = init_params(small_config())
    with pytest.raises(InvalidInputError):
        block_forward(x, pos, params, mechanism="sparse")
    wrong = attention_structure(pos[:5], flavor="point", k=3, r=2)
    with pytest.raises(InvalidInputError):
        block_forward(x, pos, params, structure=wrong)
    # Same token count, other positions: once attended over silently.
    moved = attention_structure(pos + 1.0, flavor="point", k=3, r=2)
    with pytest.raises(InvalidInputError, match="other positions"):
        block_forward(x, pos, params, structure=moved)
    for bad in (np.nan, np.inf):
        bad_pos = pos.copy()
        bad_pos[2, 1] = bad
        with pytest.raises(InvalidInputError, match="non-finite"):
            attention_structure(bad_pos, flavor="point", k=3, r=2)


@pytest.mark.parametrize("mechanism", ["gha", "local", "dense"])
def test_forward_takes_the_structure_its_mechanism_needs(mechanism):
    # gha and local attend over a structure the caller builds; dense over none.
    rng = np.random.default_rng(39)
    pos = rng.normal(size=(8, 3))
    x = rng.normal(size=(8, 4))
    params = init_params(small_config())
    structure = attention_structure(pos, flavor="point", k=3, r=2)
    if mechanism == "dense":
        with pytest.raises(InvalidInputError, match="no structure"):
            block_forward(x, pos, params, mechanism=mechanism, structure=structure)
        assert block_forward(x, pos, params, mechanism=mechanism).shape == x.shape
    else:
        with pytest.raises(InvalidInputError, match="needs a structure"):
            block_forward(x, pos, params, mechanism=mechanism)
        assert block_forward(x, pos, params, mechanism=mechanism,
                             structure=structure).shape == x.shape


def test_forward_frozen_regression_values():
    """Bit-frozen end-to-end fixture: seeded init, relative embeddings,
    2 layers x 2 heads over the two-pair layout. Catches any silent change
    in initialization order, coarsening, scoring, or block wiring. Recorded
    when relative scores moved to per-token rotations (2.6e-16 of the
    largest entry from the per-edge form's bits)."""
    from gha3d.seeding import substream

    config = BlockConfig(n_layers=2, model_dim=4, ffn_dim=8, n_heads=2, seed=11,
                         embedding_mode="relative")
    params = init_params(config)
    x = substream(11, "features").normal(size=(4, 4))
    out = block_forward(x, PAIR_POSITIONS, params,
                        structure=attention_structure(PAIR_POSITIONS, k=2, r=2))

    want = np.array([
        [float.fromhex(h) for h in
         ("0x1.5fba8d6b73186p+1", "-0x1.53d7e2e630ae8p-4",
          "-0x1.391f05b63ad7ap-1", "0x1.7eae693907632p-2")],
        [float.fromhex(h) for h in
         ("0x1.1f587bf2620c0p+1", "-0x1.a16dbf036513ep-2",
          "-0x1.981c2742ebb36p-2", "-0x1.d932a63cfa568p-1")],
        [float.fromhex(h) for h in
         ("0x1.255d06eae8ad5p+0", "0x1.48a862c61cdefp+0",
          "0x1.ba1ed54593a47p-2", "0x1.48c3cf945be19p+1")],
        [float.fromhex(h) for h in
         ("0x1.b9743ded0c650p+1", "0x1.266eedd39266ep+0",
          "-0x1.6168c3d9f484dp-1", "-0x1.40fdae96e1c56p+0")],
    ])
    np.testing.assert_array_equal(out, want)


# ---------------------------------------------------------------------------
# Positional terms made once per structure
# ---------------------------------------------------------------------------

def per_head_reference(x, params, structure):
    """block_forward spelled out: a gha_forward per head with no
    positional_table call, and out-of-place arithmetic."""
    config, ch = params.config, params.config.head_dim
    for layer_idx, lp in enumerate(params.layers):
        mode, emb = config.embedding_mode, params.embedding
        if mode == "none" or not (config.positional_every_layer or layer_idx == 0):
            mode, emb = "none", None
        h = layer_norm(x, lp.ln1_gain, lp.ln1_shift)
        q, k_rows, v = h @ lp.w_q + lp.b_q, h @ lp.w_k + lp.b_k, h @ lp.w_v + lp.b_v
        heads = []
        for head in range(config.n_heads):
            sl = slice(head * ch, (head + 1) * ch)
            hh = with_values(structure, q=q[:, sl], k=k_rows[:, sl], v=v[:, sl])
            heads.append(gha_forward(hh, embedding=emb, embedding_mode=mode).z)
        attn = np.concatenate(heads, axis=1) @ lp.w_o + lp.b_o
        x = x + _dropout(attn, config.attn_dropout, config, layer_idx, 0)
        f = layer_norm(x, lp.ln2_gain, lp.ln2_shift)
        u = _dropout(np.maximum(f @ lp.w1 + lp.b1, 0.0), config.ffn_dropout, config, layer_idx, 1)
        x = x + _dropout(u @ lp.w2 + lp.b2, config.ffn_dropout, config, layer_idx, 2)
    return x


@pytest.mark.parametrize("flavor", ["point", "voxel"])
@pytest.mark.parametrize("mode,every", [("none", True), ("absolute", True),
                                        ("relative", True), ("relative", False)])
def test_forward_shared_table_equals_per_head_loop(flavor, mode, every):
    rng = np.random.default_rng(35)
    if flavor == "point":
        pos, coords = rng.normal(size=(40, 3)), None
    else:
        coords = np.unique(rng.integers(0, 8, size=(150, 3)), axis=0)
        pos = coords + 0.5
    structure = attention_structure(pos, flavor=flavor, k=3, r=2, coords=coords)
    params = init_params(small_config(n_layers=2, model_dim=16, ffn_dim=8, n_heads=4,
                                      embedding_mode=mode, positional_every_layer=every))
    x = rng.normal(size=(pos.shape[0], 16))
    np.testing.assert_array_equal(block_forward(x, pos, params, structure=structure),
                                  per_head_reference(x, params, structure))


@pytest.mark.parametrize("mode", ["none", "absolute", "relative"])
def test_in_place_arithmetic_keeps_the_bits_with_dropout(mode):
    # block_forward adds biases, residuals and the ReLU in place; with
    # dropout on, its output has the bits of the out-of-place wiring, and
    # the caller's x is left as it was.
    rng = np.random.default_rng(38)
    pos = rng.normal(size=(40, 3))
    structure = attention_structure(pos, flavor="point", k=3, r=2)
    params = init_params(small_config(n_layers=2, model_dim=16, ffn_dim=8, n_heads=4,
                                      embedding_mode=mode, dropout_enabled=True))
    x = rng.normal(size=(40, 16))
    before = x.copy()
    out = block_forward(x, pos, params, structure=structure)
    assert x.tobytes() == before.tobytes()
    assert out.tobytes() == per_head_reference(x, params, structure).tobytes()


@pytest.mark.parametrize("mechanism", ["gha", "dense"])
def test_a_layer_holds_one_heads_values_at_a_time(monkeypatch, mechanism):
    # Traced memory on entry to each head's with_values (or AttentionInputs
    # for dense), after a warm-up call that leaves the positional terms kept.
    # The first head finds the three projections cut into per-head arrays,
    # 3 n c floats, with neither the LayerNorm output nor a whole projection
    # beside them (4 n c). From one head to the next, the block drops the
    # head's q, k and v and keeps its z: memory falls by 2 n d floats, less
    # a few small Python objects.
    rng = np.random.default_rng(39)
    n, c, heads = 3000 if mechanism == "gha" else 600, 16, 4
    d = c // heads
    pos = rng.normal(size=(n, 3))
    structure = attention_structure(pos, flavor="point", k=4, r=2) if mechanism == "gha" else None
    params = init_params(small_config(n_layers=2, model_dim=c, ffn_dim=8, n_heads=heads,
                                      embedding_mode="relative"))
    x = rng.normal(size=(n, c))
    block_forward(x, pos, params, mechanism=mechanism, structure=structure)
    name = "with_values" if mechanism == "gha" else "AttentionInputs"
    real, seen = getattr(block_mod, name), []
    monkeypatch.setattr(block_mod, name,
                        lambda *a, **kw: seen.append(tracemalloc.get_traced_memory()[0])
                        or real(*a, **kw))
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        block_forward(x, pos, params, mechanism=mechanism, structure=structure)
    finally:
        tracemalloc.stop()
    assert len(seen) == 2 * heads
    assert seen[0] - entry < 3.5 * n * c * 8
    for layer in (seen[:heads], seen[heads:]):
        for before, after in zip(layer, layer[1:]):
            assert before - after >= 2 * n * d * 8 - 4096


@pytest.mark.parametrize("mode,term_fn", [("relative", "embed_points"), ("absolute", "embed_points")])
def test_forward_builds_positional_terms_once_per_level(monkeypatch, mode, term_fn):
    import gha3d.attention as attention_mod
    rng = np.random.default_rng(36)
    pos = rng.normal(size=(40, 3))
    structure = attention_structure(pos, flavor="point", k=3, r=2)
    params = init_params(small_config(n_layers=2, model_dim=16, ffn_dim=8, n_heads=4,
                                      embedding_mode=mode))
    real, calls = getattr(attention_mod, term_fn), []
    monkeypatch.setattr(attention_mod, term_fn, lambda *a: calls.append(1) or real(*a))
    block_forward(rng.normal(size=(40, 16)), pos, params, structure=structure)
    # Once per level for 2 layers x 4 heads, not once per level per head.
    assert len(calls) == len(structure.levels) >= 3


@pytest.mark.parametrize("mode,term_fn", [("relative", "embed_points"), ("absolute", "embed_points")])
def test_forwards_on_one_structure_share_its_positional_terms(monkeypatch, mode, term_fn):
    import gha3d.attention as attention_mod
    rng = np.random.default_rng(37)
    pos = rng.normal(size=(40, 3))
    structure = attention_structure(pos, flavor="point", k=3, r=2)
    params = init_params(small_config(n_layers=2, model_dim=16, ffn_dim=8, n_heads=4,
                                      embedding_mode=mode))
    real, calls = getattr(attention_mod, term_fn), []
    monkeypatch.setattr(attention_mod, term_fn, lambda *a: calls.append(1) or real(*a))
    x = rng.normal(size=(40, 16))
    first = block_forward(x, pos, params, structure=structure)
    second = block_forward(x, pos, params, structure=structure)
    # The structure keeps the terms the first call made.
    assert len(calls) == len(structure.levels) >= 3
    assert first.tobytes() == second.tobytes()
