"""One contract for caller arrays: every public entry point that takes a
float array rejects a non-numeric value, the wrong number of axes, a wrong
fixed size and a non-finite entry with InvalidInputError."""

import dataclasses

import numpy as np
import pytest

from gha3d import (
    AttentionInputs,
    BlockConfig,
    FourierEmbedding,
    GhaBlockParams,
    InvalidInputError,
    PointCloud,
    attention_structure,
    block_forward,
    build_hierarchy,
    effective_attention,
    embed_points,
    fourier_embed,
    gha_backward,
    heatmap_csv,
    init_params,
    locality_ratio,
    make_fourier_embedding,
    mass_beyond_radius,
    save_point_cloud_binary,
    with_values,
)

N, D = 12, 4
_rng = np.random.default_rng(0)
POS = _rng.normal(size=(N, 3))
Q, K, V = (_rng.normal(size=(N, D)) for _ in range(3))
X = _rng.normal(size=(N, D))
EMB = make_fourier_embedding(D, np.random.default_rng(1))
H = build_hierarchy(POS, Q, K, V, k=4)
W = effective_attention(H)
PARAMS = init_params(BlockConfig(n_layers=1, model_dim=D, ffn_dim=6, n_heads=1,
                                 embedding_mode="none"))


def _params_with_w1(a):
    layer = dataclasses.replace(PARAMS.layers[0], w1=a)
    return GhaBlockParams(config=PARAMS.config, embedding=None, layers=(layer,))


# (entry point and argument, a valid value, the axis of a fixed size, call).
# Each call takes the array and a file path that only the writer uses.
ENTRIES = [
    ("PointCloud-positions", POS, 1, lambda a, _: PointCloud(positions=a)),
    ("PointCloud-features", Q, 0, lambda a, _: PointCloud(positions=POS, features=a)),
    ("save_point_cloud_binary-positions", POS, 1,
     lambda a, path: save_point_cloud_binary(path, a, None)),
    ("save_point_cloud_binary-features", Q, 0,
     lambda a, path: save_point_cloud_binary(path, POS, a)),
    ("FourierEmbedding-frequencies", EMB.frequencies, 1,
     lambda a, _: FourierEmbedding(frequencies=a)),
    ("embed_points-points", POS, 1, lambda a, _: embed_points(EMB, a)),
    ("fourier_embed-p", POS[0], 0, lambda a, _: fourier_embed(EMB, a)),
    ("AttentionInputs-q", Q, 1, lambda a, _: AttentionInputs(q=a, k=K, v=V, positions=POS)),
    ("AttentionInputs-k", K, 1, lambda a, _: AttentionInputs(q=Q, k=a, v=V, positions=POS)),
    ("AttentionInputs-v", V, 1, lambda a, _: AttentionInputs(q=Q, k=K, v=a, positions=POS)),
    ("AttentionInputs-positions", POS, 1,
     lambda a, _: AttentionInputs(q=Q, k=K, v=V, positions=a)),
    ("gha_backward-dz", V, 1, lambda a, _: gha_backward(H, a)),
    ("build_hierarchy-positions", POS, 1, lambda a, _: build_hierarchy(a, Q, K, V, k=4)),
    ("build_hierarchy-q", Q, 1, lambda a, _: build_hierarchy(POS, a, K, V, k=4)),
    ("build_hierarchy-k", K, 1, lambda a, _: build_hierarchy(POS, Q, a, V, k=4)),
    ("build_hierarchy-v", V, 0, lambda a, _: build_hierarchy(POS, Q, K, a, k=4)),
    ("attention_structure-positions", POS, 1, lambda a, _: attention_structure(a, k=4)),
    ("with_values-q", Q, 1, lambda a, _: with_values(H, q=a)),
    ("with_values-k", K, 1, lambda a, _: with_values(H, k=a)),
    ("with_values-v", V, 0, lambda a, _: with_values(H, v=a)),
    ("GhaBlockParams-w1", PARAMS.layers[0].w1, 1, lambda a, _: _params_with_w1(a)),
    ("block_forward-x", X, 1, lambda a, _: block_forward(a, POS, PARAMS, k=4)),
    ("block_forward-positions", POS, 1, lambda a, _: block_forward(X, a, PARAMS, k=4)),
    ("locality_ratio-positions", POS, 1, lambda a, _: locality_ratio(a, W)),
    ("locality_ratio-weights", W, 1, lambda a, _: locality_ratio(POS, a)),
    ("mass_beyond_radius-weights", W, 0, lambda a, _: mass_beyond_radius(POS, a, 0.5)),
    ("heatmap_csv-positions", POS, 1, lambda a, _: heatmap_csv(a, W[0])),
    ("heatmap_csv-weights", W[0], 0, lambda a, _: heatmap_csv(POS, a)),
]


def _malformed(case, good, axis):
    """The bad variants of one case, made from a valid array."""
    if case == "non-numeric":  # complex too: a cast to float64 would drop the imaginary part
        return [np.full(good.shape, "x"), object(), good + 1j]
    if case == "ndim":  # one axis fewer and one more: (N,) and (N, 3, 1) positions
        return [good.ravel() if good.ndim > 1 else good[0], good[..., None]]
    if case == "size":  # one short and one over: (N, 2) and (N, 4) positions
        return [np.delete(good, -1, axis), np.concatenate([good, good.take([0], axis)], axis)]
    out = []
    for value in (np.nan, np.inf, -np.inf):
        bad = good.copy()
        bad.flat[good.size // 2] = value
        out.append(bad)
    return out


@pytest.mark.parametrize("case", ["non-numeric", "ndim", "size", "non-finite"])
@pytest.mark.parametrize("entry", ENTRIES, ids=[e[0] for e in ENTRIES])
def test_entry_point_rejects_a_malformed_array(entry, case, tmp_path):
    _, good, axis, call = entry
    path = tmp_path / "cloud.gpc"
    call(good, path)  # the valid array passes, so only the change below is at fault
    path.unlink(missing_ok=True)
    for bad in _malformed(case, good, axis):
        with pytest.raises(InvalidInputError):
            call(bad, path)
        assert not path.exists()  # the writer checks before it opens the file
