"""One contract for caller arrays and integers: every public entry point
that takes a float array rejects a non-numeric value, the wrong number of
axes, a wrong fixed size and a non-finite entry with InvalidInputError;
every caller count and index refuses a non-integer and a value out of its
range; every caller real refuses anything but one finite number and a
value out of its range; and every index map refuses a float dtype and an
entry out of range."""

import dataclasses

import numpy as np
import pytest

from gha3d import (
    AttentionInputs,
    BlockConfig,
    ConfigError,
    FourierEmbedding,
    GhaBlockParams,
    Hierarchy,
    InvalidInputError,
    NeighborhoodTopology,
    PointCloud,
    SparseVoxelGrid,
    approximation_report,
    attention_histogram,
    attention_structure,
    block_forward,
    build_hierarchy,
    children_of,
    effective_attention,
    effective_attention_row,
    embed_points,
    farthest_point_sample,
    fourier_embed,
    gha_backward,
    heatmap_csv,
    init_params,
    interpolate,
    knn,
    local_attention,
    locality_ratio,
    make_fourier_embedding,
    mass_beyond_radius,
    mechanism_weights,
    save_point_cloud_binary,
    scaling_sweep,
    truncate,
    voxelize,
    weight_bound,
    with_values,
)
from gha3d.geometry import fps_from_positions
from gha3d.hierarchy import segment_mean

N, D = 12, 4
_rng = np.random.default_rng(0)
POS = _rng.normal(size=(N, 3))
Q, K, V = (_rng.normal(size=(N, D)) for _ in range(3))
X = _rng.normal(size=(N, D))
EMB = make_fourier_embedding(D, np.random.default_rng(1))
H = build_hierarchy(POS, Q, K, V, k=4)
STRUCTURE = attention_structure(POS, k=4)
GRID = voxelize(PointCloud(positions=POS, features=Q), 0.5)
W = effective_attention(H)
LEVEL_1_VALUES = _rng.normal(size=(H.levels[1].n_tokens, 2))
PARAMS = init_params(BlockConfig(n_layers=1, model_dim=D, ffn_dim=6, n_heads=1,
                                 embedding_mode="none"))


def _grid(**fields):
    """GRID with ``fields`` replaced, made by its constructor."""
    return dataclasses.replace(GRID, **fields)


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
    ("interpolate-values", LEVEL_1_VALUES, 0, lambda a, _: interpolate(a, 1, H)),
    ("with_values-q", Q, 1, lambda a, _: with_values(H, q=a)),
    ("with_values-k", K, 1, lambda a, _: with_values(H, k=a)),
    ("with_values-v", V, 0, lambda a, _: with_values(H, v=a)),
    ("GhaBlockParams-w1", PARAMS.layers[0].w1, 1, lambda a, _: _params_with_w1(a)),
    ("block_forward-x", X, 1, lambda a, _: block_forward(a, POS, PARAMS, structure=STRUCTURE)),
    ("block_forward-positions", POS, 1,
     lambda a, _: block_forward(X, a, PARAMS, structure=STRUCTURE)),
    ("SparseVoxelGrid-cell_features", GRID.cell_features, 0,
     lambda a, _: _grid(cell_features=a)),
    ("SparseVoxelGrid-cell_centroid", GRID.cell_centroid, 1,
     lambda a, _: _grid(cell_centroid=a)),
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


# ---------------------------------------------------------------------------
# Caller integers
# ---------------------------------------------------------------------------

CLOUD = PointCloud(positions=POS)
DEPTH = H.depth
N_PARENTS = H.levels[1].n_tokens


def _config(**kw):
    return BlockConfig(**{"n_layers": 1, "model_dim": 4, "ffn_dim": 6, "n_heads": 2,
                          "embedding_mode": "none", **kw})


# (site, call, a valid value, one below the range, one above it or None, the
# error a value out of range raises). A non-integer always raises
# InvalidInputError; a BlockConfig or embedding width out of range keeps
# raising ConfigError.
SCALARS = [
    ("knn-k", lambda v: knn(CLOUD, v), 3, 0, None, InvalidInputError),
    ("farthest_point_sample-m", lambda v: farthest_point_sample(CLOUD, v), 3, 0, N + 1,
     InvalidInputError),
    ("fps_from_positions-m", lambda v: fps_from_positions(POS, v), N, 0, N + 1,
     InvalidInputError),
    ("build_hierarchy-k", lambda v: build_hierarchy(POS, Q, K, V, k=v), 4, 0, None,
     InvalidInputError),
    ("build_hierarchy-r", lambda v: build_hierarchy(POS, Q, K, V, k=4, r=v), 3, 1, None,
     InvalidInputError),
    ("truncate-depth", lambda v: truncate(H, v), DEPTH, -1, DEPTH + 1, InvalidInputError),
    ("interpolate-from_level", lambda v: interpolate(LEVEL_1_VALUES, v, H), 1, 0, DEPTH + 1,
     InvalidInputError),
    ("children_of-level", lambda v: children_of(H, v, 0), 0, -1, DEPTH, InvalidInputError),
    ("children_of-parent", lambda v: children_of(H, 0, v), 1, -1, N_PARENTS, InvalidInputError),
    ("effective_attention_row-i", lambda v: effective_attention_row(H, v), N - 1, -1, N,
     InvalidInputError),
    ("attention_histogram-n_bins", lambda v: attention_histogram(H, "gha", n_bins=v), 3, 0,
     None, InvalidInputError),
    ("locality_ratio-n_extreme", lambda v: locality_ratio(POS, W, n_extreme=v), 2, 0, None,
     InvalidInputError),
    ("weight_bound-k", lambda v: weight_bound(v, 2, 100), 8, 0, None, InvalidInputError),
    ("weight_bound-r", lambda v: weight_bound(8, v, 100), 2, 1, None, InvalidInputError),
    ("weight_bound-n_tokens", lambda v: weight_bound(8, 2, v), 100, 0, None, InvalidInputError),
    ("scaling_sweep-size", lambda v: scaling_sweep([v], mechanism="dense", d=2), 4, 0, None,
     InvalidInputError),
    ("scaling_sweep-d", lambda v: scaling_sweep([4], mechanism="dense", d=v), 2, 0, None,
     InvalidInputError),
    ("make_fourier_embedding-d", lambda v: make_fourier_embedding(v, np.random.default_rng(2)),
     4, 0, None, ConfigError),
    ("BlockConfig-n_layers", lambda v: _config(n_layers=v), 2, 0, None, ConfigError),
    ("BlockConfig-model_dim", lambda v: _config(model_dim=v), 4, 0, None, ConfigError),
    ("BlockConfig-ffn_dim", lambda v: _config(ffn_dim=v), 6, 0, None, ConfigError),
    ("BlockConfig-n_heads", lambda v: _config(n_heads=v), 2, 0, 8, ConfigError),
    ("BlockConfig-seed", lambda v: _config(seed=v), 7, -1, 2**64, ConfigError),
    ("effective_attention-threads", lambda v: effective_attention(H, threads=v), 2, 0, None,
     InvalidInputError),
    ("mechanism_weights-threads", lambda v: mechanism_weights(H, "dense", threads=v), 2, -3,
     None, InvalidInputError),
    ("attention_histogram-threads", lambda v: attention_histogram(H, "gha", threads=v), 2, 0,
     None, InvalidInputError),
    ("approximation_report-threads", lambda v: approximation_report(H, threads=v), 2, 0, None,
     InvalidInputError),
    ("Hierarchy-neighborhood_k", lambda v: Hierarchy(H.flavor, v, H.coarsen_ratio, H.levels), 4,
     0, None, InvalidInputError),
    ("Hierarchy-coarsen_ratio", lambda v: Hierarchy(H.flavor, H.neighborhood_k, v, H.levels), 2,
     1, None, InvalidInputError),
    ("HierarchyLevel-level_index", lambda v: dataclasses.replace(H.levels[0], level_index=v), 0,
     -1, None, InvalidInputError),
]


@pytest.mark.parametrize("site", SCALARS, ids=[s[0] for s in SCALARS])
def test_entry_point_reads_an_integer_in_range(site):
    _, call, valid, below, above, out_of_range = site
    call(np.int64(valid))  # a NumPy integer is an integer
    with pytest.raises(InvalidInputError, match="must be an integer"):
        call(2.5)  # refused, not truncated
    for bad in (below, above):
        if bad is not None:
            with pytest.raises(out_of_range):
                call(bad)


# (site, call, a valid value, values out of its range, the error they raise).
# A value that is not one finite real number always raises InvalidInputError.
REALS = [
    ("voxelize-voxel_size", lambda v: voxelize(CLOUD, v), 0.5, (0.0, -0.5), InvalidInputError),
    ("SparseVoxelGrid-voxel_size", lambda v: _grid(voxel_size=v), 0.5, (0.0, -0.5),
     InvalidInputError),
    ("mass_beyond_radius-radius", lambda v: mass_beyond_radius(POS, W, v), 0.5, (-0.5,),
     InvalidInputError),
    ("BlockConfig-attn_dropout", lambda v: _config(attn_dropout=v), 0.1, (-0.1, 1.0), ConfigError),
    ("BlockConfig-ffn_dropout", lambda v: _config(ffn_dropout=v), 0.3, (-0.1, 1.0), ConfigError),
]


@pytest.mark.parametrize("site", REALS, ids=[s[0] for s in REALS])
def test_entry_point_reads_a_finite_real_in_range(site):
    _, call, valid, out, out_of_range = site
    call(valid)
    call(np.float32(valid))  # a NumPy real is a real
    for bad in ("x", None, np.inf, np.nan, [valid], 1j):
        with pytest.raises(InvalidInputError):
            call(bad)
    for bad in out:
        with pytest.raises(out_of_range):
            call(bad)


# Three tokens; a neighbor list holds the token itself and its neighbors.
TOPOLOGIES = {
    "empty-row": ([0, 2, 2, 3], [0, 2, 2]),
    "negative-neighbor": ([0, 2, 3, 4], [0, 2, -1, 2]),
    "neighbor-n": ([0, 2, 3, 4], [0, 2, 3, 2]),
    "float-indptr": ([0, 1.7, 3], [0, 1, 1]),
}


@pytest.mark.parametrize("case", TOPOLOGIES)
def test_topology_refuses_a_bad_csr_map(case):
    indptr, indices = TOPOLOGIES[case]
    with pytest.raises(InvalidInputError):
        NeighborhoodTopology(indptr=indptr, indices=indices)
    NeighborhoodTopology(indptr=[0, 2, 3, 4], indices=[0, 2, 1, 2])


@pytest.mark.parametrize("case", ["empty-row", "negative-neighbor"])
def test_no_topology_gives_one_token_another_tokens_output(case):
    """Each of these topologies used to give token 1 exactly token 2's
    local attention output (z[1] == v[2]); neither constructs now."""
    rng = np.random.default_rng(3)
    inputs = AttentionInputs(*(rng.normal(size=(3, 2)) for _ in range(3)),
                             positions=rng.normal(size=(3, 3)))
    with pytest.raises(InvalidInputError):
        local_attention(inputs, NeighborhoodTopology(*TOPOLOGIES[case]))


@pytest.mark.parametrize("name", ["parent_of", "pool_indptr"])
def test_level_refuses_a_float_map(name):
    level = H.levels[1]
    with pytest.raises(InvalidInputError, match=f"{name} must be integers"):
        dataclasses.replace(level, **{name: getattr(level, name) + 0.0})  # was truncated
    levels = (H.levels[0], dataclasses.replace(level), *H.levels[2:])
    assert Hierarchy(H.flavor, H.neighborhood_k, H.coarsen_ratio, levels).level_sizes() == \
        H.level_sizes()


# A map over segment_mean's 4 value rows that reads outside them, or that
# is not a map of non-empty integer groups. At the parent, index 7 returned
# 1.34e+200 and index -1 8.7e+40 (memory outside the values), index 1.5 was
# truncated to row 1, and an empty group raised a bare divide-by-zero warning.
SEGMENT_MAPS = {
    "index-past-end": ([0, 2, 3], [0, 1, 7]),
    "negative-index": ([0, 2, 3], [0, -1, 2]),
    "float-index": ([0, 2, 3], [0, 1.5, 2]),
    "float-indptr": ([0, 2.0, 3], [0, 1, 2]),
    "empty-group": ([0, 2, 2, 3], [0, 1, 2]),
    "indptr-short-of-the-entries": ([0, 2], [0, 1, 2]),
    "two-d-indices": ([0, 2, 3], [[0, 1, 2]]),
}
VALUES4 = np.arange(8.0).reshape(4, 2)


@pytest.mark.parametrize("case", SEGMENT_MAPS)
def test_segment_mean_refuses_a_map_outside_its_values(case):
    indptr, indices = SEGMENT_MAPS[case]
    with pytest.raises(InvalidInputError):
        segment_mean(VALUES4, indptr, indices)
    assert segment_mean(VALUES4, [0, 2, 3], [0, 1, 3]).tolist() == [[1.0, 2.0], [6.0, 7.0]]


@pytest.mark.parametrize("values", [VALUES4.ravel(), VALUES4[..., None], np.full((4, 2), "x"),
                                    np.where(VALUES4 == 3.0, np.nan, VALUES4),
                                    np.where(VALUES4 == 3.0, np.inf, VALUES4)],
                         ids=["1-D", "3-D", "non-numeric", "nan", "inf"])
def test_segment_mean_refuses_values_that_are_not_a_finite_matrix(values):
    with pytest.raises(InvalidInputError):
        segment_mean(values, [0, 2, 3], [0, 1, 3])


# Cells and counts a grid's constructor refuses, each beside GRID's other
# fields. The constructor once accepted all of them, a string voxel size
# and per-cell arrays of three different lengths included.
GRID_FIELDS = {
    "occupied-non-integer": {"occupied": GRID.occupied + 0.5},
    "occupied-2-wide": {"occupied": GRID.occupied[:, :2]},
    "occupied-out-of-range": {"occupied": GRID.occupied + (1 << 20)},
    "occupied-one-short": {"occupied": GRID.occupied[:-1]},
    "cell_count-float": {"cell_count": GRID.cell_count + 0.5},
    "cell_count-zero": {"cell_count": GRID.cell_count * 0},
    "cell_count-negative": {"cell_count": -GRID.cell_count},
    "cell_count-one-short": {"cell_count": GRID.cell_count[:-1]},
    "cell_count-2-d": {"cell_count": GRID.cell_count[:, None]},
    "all-inconsistent": {"voxel_size": "x", "occupied": np.zeros((3, 3)),
                         "cell_features": np.zeros((5, 0)), "cell_centroid": np.zeros((2, 3)),
                         "cell_count": [1.5, -1]},
}


@pytest.mark.parametrize("case", GRID_FIELDS)
def test_voxel_grid_refuses_cells_and_counts_that_do_not_match(case):
    with pytest.raises(InvalidInputError):
        _grid(**GRID_FIELDS[case])
    grid = _grid()
    assert grid.n_voxels == GRID.n_voxels and not grid.cell_count.flags.writeable
