import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from gha3d.attention import FourierEmbedding
from gha3d.errors import InvalidCoarsenError, InvalidInputError
from gha3d.geometry import (
    NeighborhoodTopology,
    PointCloud,
    SparseVoxelGrid,
    _canonical_order,
    kernel_window_topology,
    knn_from_positions,
)
from gha3d.hierarchy import (
    Hierarchy,
    HierarchyLevel,
    build_hierarchy,
    children_of,
    coarsen_point,
    coarsen_voxel,
    dump_hierarchy,
    interpolate,
    segment_mean,
    truncate,
    with_values,
)


def make_point_level(positions, q, k_mat, v, k):
    return HierarchyLevel(
        level_index=0,
        positions=positions,
        q_tilde=q,
        k_tilde=k_mat,
        v_tilde=v,
        topology=knn_from_positions(np.asarray(positions, dtype=np.float64), k),
    )


def rand_qkv(rng, n, d):
    return rng.normal(size=(n, d)), rng.normal(size=(n, d)), rng.normal(size=(n, d))


# Two well-separated pairs on the x axis: kNN(2) pairs them up, FPS keeps
# one token per pair, and each pair shares a parent.
PAIR_POSITIONS = np.array(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [10.0, 0.0, 0.0], [11.0, 0.0, 0.0]]
)


# ---------------------------------------------------------------------------
# Point coarsening
# ---------------------------------------------------------------------------

def test_coarsen_point_pairwise_means():
    rng = np.random.default_rng(0)
    q, k_mat, v = rand_qkv(rng, 4, 3)
    level = make_point_level(PAIR_POSITIONS, q, k_mat, v, k=2)
    coarse, parent_of = coarsen_point(level, r=2)
    assert coarse.n_tokens == 2
    np.testing.assert_allclose(coarse.q_tilde, [(q[0] + q[1]) / 2, (q[2] + q[3]) / 2], atol=1e-15)
    np.testing.assert_allclose(coarse.k_tilde, [(k_mat[0] + k_mat[1]) / 2, (k_mat[2] + k_mat[3]) / 2], atol=1e-15)
    np.testing.assert_allclose(coarse.v_tilde, [(v[0] + v[1]) / 2, (v[2] + v[3]) / 2], atol=1e-15)
    np.testing.assert_allclose(coarse.positions, [[0.5, 0, 0], [10.5, 0, 0]], atol=1e-15)
    assert list(parent_of) == [0, 0, 1, 1]
    assert list(coarse.selected) == [0, 3]


def test_coarsen_point_constant_rows_stay_constant():
    rng = np.random.default_rng(1)
    pos = rng.normal(size=(10, 3))
    c = np.full((10, 4), 2.5)
    level = make_point_level(pos, c, c, c, k=3)
    coarse, _ = coarsen_point(level, r=2)
    np.testing.assert_array_equal(coarse.q_tilde, np.full((5, 4), 2.5))


def brute_parent_assignment(positions, selected):
    parents = []
    for i in range(positions.shape[0]):
        d2 = [float(np.dot(positions[i] - positions[s], positions[i] - positions[s])) for s in selected]
        best = min(range(len(selected)), key=lambda j: (d2[j], j))
        parents.append(best)
    return parents


def test_coarsen_point_parent_is_nearest_selected():
    rng = np.random.default_rng(2)
    for trial in range(20):
        n = int(rng.integers(2, 24))
        pos = rng.normal(size=(n, 3))
        q, k_mat, v = rand_qkv(rng, n, 2)
        level = make_point_level(pos, q, k_mat, v, k=3)
        coarse, parent_of = coarsen_point(level, r=2)
        assert list(parent_of) == brute_parent_assignment(pos, coarse.selected)


def test_coarsen_point_smoothing_is_neighborhood_mean():
    rng = np.random.default_rng(3)
    pos = rng.normal(size=(8, 3))
    q, k_mat, v = rand_qkv(rng, 8, 5)
    level = make_point_level(pos, q, k_mat, v, k=3)
    coarse, _ = coarsen_point(level, r=2)
    topo = level.topology
    for row, s in enumerate(coarse.selected):
        nb = topo.neighbors(int(s))
        np.testing.assert_allclose(coarse.q_tilde[row], q[nb].mean(axis=0), atol=1e-14)
        np.testing.assert_allclose(coarse.positions[row], pos[nb].mean(axis=0), atol=1e-14)


def test_coarsen_point_rejects_single_token():
    level = make_point_level(np.zeros((1, 3)), np.ones((1, 2)), np.ones((1, 2)), np.ones((1, 2)), k=2)
    with pytest.raises(InvalidCoarsenError):
        coarsen_point(level, r=2)


# ---------------------------------------------------------------------------
# Voxel coarsening
# ---------------------------------------------------------------------------

def make_voxel_level(coords, q, k_mat, v, positions=None):
    coords = np.asarray(coords, dtype=np.int64)
    if positions is None:
        positions = coords.astype(np.float64) + 0.5
    return HierarchyLevel(
        level_index=0,
        positions=positions,
        q_tilde=q,
        k_tilde=k_mat,
        v_tilde=v,
        topology=kernel_window_topology(coords),
        coords=coords,
    )


def test_coarsen_voxel_two_children():
    a = np.array([[1.0, 2.0]])
    b = np.array([[3.0, 6.0]])
    level = make_voxel_level([[0, 0, 0], [1, 1, 1]], np.vstack([a, b]), np.vstack([a, b]), np.vstack([a, b]))
    coarse, parent_of = coarsen_voxel(level)
    assert coarse.n_tokens == 1
    assert tuple(coarse.coords[0]) == (0, 0, 0)
    np.testing.assert_allclose(coarse.q_tilde, (a + b) / 2)
    assert list(parent_of) == [0, 0]


def test_coarsen_voxel_skips_strides_that_copy_rows():
    # Cells 2 apart stay apart at stride 2, which would copy each row; the
    # step pools them at stride 4, the first stride that reduces.
    rows = np.array([[1.0], [2.0]])
    level = make_voxel_level([[0, 0, 0], [2, 0, 0]], rows, rows, rows)
    coarse, parent_of = coarsen_voxel(level)
    assert coarse.n_tokens == 1
    assert [tuple(c) for c in coarse.coords] == [(0, 0, 0)]
    np.testing.assert_array_equal(coarse.q_tilde, [[1.5]])
    np.testing.assert_array_equal(coarse.pool_indices, [0, 1])
    assert list(parent_of) == [0, 0]


@pytest.mark.parametrize("coords", [
    [[0, 0, 0]],
    [[-1, 0, 0], [0, 0, 0]],  # either side of the origin at every stride
    [[-(2**20 - 1), 5, -3], [2**20 - 1, 5, -3]],
])
def test_coarsen_voxel_refuses_a_level_no_stride_reduces(coords):
    n = len(coords)
    level = make_voxel_level(coords, np.ones((n, 1)), np.ones((n, 1)), np.ones((n, 1)))
    with pytest.raises(InvalidCoarsenError, match="no stride up to 2"):
        coarsen_voxel(level)


def brute_voxel_pool(coords, rows):
    groups = {}
    for i, c in enumerate(coords):
        key = tuple(int(x) // 2 for x in c)  # careful: python // floors like np
        groups.setdefault(key, []).append(i)
    keys = sorted(groups)
    pooled = np.stack([rows[groups[key]].mean(axis=0) for key in keys])
    parent = np.empty(len(coords), dtype=int)
    for j, key in enumerate(keys):
        for i in groups[key]:
            parent[i] = j
    return keys, pooled, parent


def test_coarsen_voxel_full_block():
    coords = np.array([[x, y, z] for x in range(4) for y in range(4) for z in range(4)])
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(64, 3))
    level = make_voxel_level(coords, rows, rows, rows)
    coarse, parent_of = coarsen_voxel(level)
    assert coarse.n_tokens == 8
    keys, pooled, parent = brute_voxel_pool(coords, rows)
    assert [tuple(c) for c in coarse.coords] == keys
    np.testing.assert_allclose(coarse.q_tilde, pooled, atol=1e-14)
    assert list(parent_of) == list(parent)
    assert all(len(children_of_brute) == 8 for children_of_brute in
               [np.flatnonzero(parent_of == j) for j in range(8)])


def test_coarsen_voxel_negative_coords():
    # floor(-1 / 2) = -1: negative cells pool toward -1, not 0.
    level = make_voxel_level([[-2, 0, 0], [-1, 0, 0], [0, 0, 0]], np.eye(3), np.eye(3), np.eye(3))
    coarse, parent_of = coarsen_voxel(level)
    assert [tuple(c) for c in coarse.coords] == [(-1, 0, 0), (0, 0, 0)]
    assert list(parent_of) == [0, 0, 1]


def test_coarsen_voxel_random_matches_bruteforce():
    rng = np.random.default_rng(5)
    for trial in range(10):
        coords = np.unique(rng.integers(-6, 6, size=(40, 3)), axis=0)
        order = np.lexsort((coords[:, 2], coords[:, 1], coords[:, 0]))
        coords = coords[order]
        rows = rng.normal(size=(coords.shape[0], 4))
        level = make_voxel_level(coords, rows, rows, rows)
        coarse, parent_of = coarsen_voxel(level)
        keys, pooled, parent = brute_voxel_pool(coords, rows)
        assert [tuple(c) for c in coarse.coords] == keys
        np.testing.assert_allclose(coarse.v_tilde, pooled, atol=1e-14)
        assert list(parent_of) == list(parent)


# ---------------------------------------------------------------------------
# build_hierarchy
# ---------------------------------------------------------------------------

def test_build_single_level_when_small():
    rng = np.random.default_rng(6)
    pos = rng.normal(size=(3, 3))
    q, k_mat, v = rand_qkv(rng, 3, 4)
    h = build_hierarchy(pos, q, k_mat, v, flavor="point", k=27, r=2)
    assert h.depth == 0
    assert h.level_sizes() == [3]
    np.testing.assert_array_equal(h.levels[0].q_tilde, q)


def test_build_pair_layout_two_levels():
    rng = np.random.default_rng(7)
    q, k_mat, v = rand_qkv(rng, 4, 2)
    h = build_hierarchy(PAIR_POSITIONS, q, k_mat, v, flavor="point", k=2, r=2)
    assert h.level_sizes() == [4, 2]
    assert list(h.levels[0].parent_of) == [0, 0, 1, 1]
    assert h.levels[1].parent_of is None


def test_build_level_size_arithmetic():
    rng = np.random.default_rng(8)
    pos = rng.normal(size=(1000, 3))
    q, k_mat, v = rand_qkv(rng, 1000, 2)
    h = build_hierarchy(pos, q, k_mat, v, flavor="point", k=8, r=2)
    sizes = h.level_sizes()
    expect = [1000]
    while expect[-1] > 8:
        expect.append(-(-expect[-1] // 2))
    assert sizes == expect  # 1000, 500, 250, 125, 63, 32, 16, 8
    assert all(b < a for a, b in zip(sizes, sizes[1:]))


def test_build_depth_formula():
    rng = np.random.default_rng(9)
    for n in (9, 17, 100, 333):
        for k in (4, 8):
            for r in (2, 3):
                pos = rng.normal(size=(n, 3))
                q, k_mat, v = rand_qkv(rng, n, 2)
                h = build_hierarchy(pos, q, k_mat, v, flavor="point", k=k, r=r)
                if n <= k:
                    assert h.depth == 0
                else:
                    assert h.depth == int(np.ceil(np.log(n / k) / np.log(r)))


def test_build_levels_use_level_positions_for_topology():
    rng = np.random.default_rng(10)
    pos = rng.normal(size=(40, 3))
    q, k_mat, v = rand_qkv(rng, 40, 3)
    h = build_hierarchy(pos, q, k_mat, v, flavor="point", k=4, r=2)
    for lv in h.levels:
        expect = knn_from_positions(lv.positions, 4)
        assert np.array_equal(lv.topology.indptr, expect.indptr)
        assert np.array_equal(lv.topology.indices, expect.indices)


def test_build_children_partition_every_level():
    rng = np.random.default_rng(11)
    pos = rng.normal(size=(120, 3))
    q, k_mat, v = rand_qkv(rng, 120, 2)
    h = build_hierarchy(pos, q, k_mat, v, flavor="point", k=5, r=2)
    for lev in range(h.depth):
        n_fine = h.levels[lev].n_tokens
        n_coarse = h.levels[lev + 1].n_tokens
        seen = []
        for p in range(n_coarse):
            kids = children_of(h, lev, p)
            assert kids.shape[0] >= 1
            seen.extend(kids.tolist())
        assert sorted(seen) == list(range(n_fine))


def test_build_voxel_hierarchy_basic():
    rng = np.random.default_rng(12)
    pos = rng.uniform(0, 12, size=(500, 3))
    # token set = unique occupied cells, position = cell center
    cells = np.unique(np.floor(pos).astype(np.int64), axis=0)
    order = np.lexsort((cells[:, 2], cells[:, 1], cells[:, 0]))
    cells = cells[order]
    n = cells.shape[0]
    q, k_mat, v = rand_qkv(rng, n, 4)
    centers = cells.astype(np.float64) + 0.5
    h = build_hierarchy(centers, q, k_mat, v, flavor="voxel", coords=cells)
    sizes = h.level_sizes()
    assert sizes[0] == n
    assert all(b < a for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] <= 27
    # every level's rows pool correctly from the previous one
    for lev in range(h.depth):
        fine, coarse = h.levels[lev], h.levels[lev + 1]
        for p in range(coarse.n_tokens):
            kids = children_of(h, lev, p)
            np.testing.assert_allclose(coarse.q_tilde[p], fine.q_tilde[kids].mean(axis=0), atol=1e-12)


def test_build_voxel_coalesces_non_reducing_halvings():
    # Cells 4 apart: one halving leaves 32 distinct cells, so the builder
    # must fold halvings together until the count actually drops.
    coords = np.array([[4 * i, 0, 0] for i in range(32)])
    rng = np.random.default_rng(13)
    q, k_mat, v = rand_qkv(rng, 32, 2)
    h = build_hierarchy(coords.astype(np.float64), q, k_mat, v, flavor="voxel", coords=coords)
    sizes = h.level_sizes()
    assert sizes[0] == 32
    assert sizes[1] == 16
    assert list(h.levels[0].parent_of) == [i // 2 for i in range(32)]
    np.testing.assert_allclose(
        h.levels[1].q_tilde, (q[0::2] + q[1::2]) / 2, atol=1e-15
    )


def test_build_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        build_hierarchy(np.zeros((2, 3)), np.zeros((2, 2)), np.zeros((3, 2)), np.zeros((2, 2)))
    with pytest.raises(InvalidInputError):
        build_hierarchy(np.zeros((2, 3)), np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)), flavor="voxel")
    with pytest.raises(InvalidInputError):
        build_hierarchy(np.zeros((2, 3)), np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)), flavor="mesh")


@pytest.mark.parametrize("flavor", ["point", "voxel"])
@pytest.mark.parametrize("name", ["positions", "q", "k", "v"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_values_rejected(flavor, name, bad):
    rng = np.random.default_rng(16)
    coords = np.unique(rng.integers(0, 4, size=(40, 3)), axis=0)
    n = coords.shape[0]
    args = dict(zip(("q", "k", "v"), rand_qkv(rng, n, 2)), positions=coords + 0.5)
    h = build_hierarchy(args["positions"], args["q"], args["k"], args["v"],
                        flavor=flavor, k=4, coords=coords)
    args[name] = args[name].copy()
    args[name][n // 2, 1] = bad
    with pytest.raises(InvalidInputError, match="non-finite"):
        build_hierarchy(args["positions"], args["q"], args["k"], args["v"],
                        flavor=flavor, k=4, coords=coords)
    if name != "positions":
        with pytest.raises(InvalidInputError, match="non-finite"):
            with_values(h, **{name: args[name]})


@pytest.mark.parametrize("case", ["point", "point_duplicates", "voxel"])
def test_pooling_map_reproduces_every_coarse_level(case):
    rng = np.random.default_rng(17)
    if case == "voxel":
        coords = np.unique(rng.integers(0, 8, size=(150, 3)), axis=0)
        coords = coords[rng.permutation(coords.shape[0])]
        q, k_mat, v = rand_qkv(rng, coords.shape[0], 3)
        h = build_hierarchy(coords + 0.5, q, k_mat, v, flavor="voxel", coords=coords)
    else:
        pos = rng.normal(size=(90, 3))
        if case == "point_duplicates":
            pos = pos[rng.integers(0, 12, size=90)]
        q, k_mat, v = rand_qkv(rng, 90, 3)
        h = build_hierarchy(pos, q, k_mat, v, flavor="point", k=5, r=2)
    assert h.depth >= 2
    assert h.levels[0].pool_indptr is None
    for lev in range(h.depth):
        fine, coarse = h.levels[lev], h.levels[lev + 1]
        indptr, indices = coarse.pool_indptr, coarse.pool_indices
        assert not indptr.flags.writeable and not indices.flags.writeable
        for name in ("positions", "q_tilde", "k_tilde", "v_tilde"):
            pooled = segment_mean(getattr(fine, name), indptr, indices)
            assert pooled.tobytes() == getattr(coarse, name).tobytes()
        for jc in range(coarse.n_tokens):
            group = indices[indptr[jc] : indptr[jc + 1]].tolist()
            if h.flavor == "point":
                members = fine.topology.neighbors(coarse.selected[jc])
                key = lambda i: (*fine.positions[i], i)
            else:
                members = children_of(h, lev, jc)
                key = lambda i: tuple(fine.coords[i])
            assert group == sorted(members.tolist(), key=key)
    stripped = replace(h.levels[1], pool_indptr=None, pool_indices=None)
    with pytest.raises(InvalidInputError, match="pooling map"):
        Hierarchy(flavor=h.flavor, neighborhood_k=h.neighborhood_k, coarsen_ratio=h.coarsen_ratio,
                  levels=(h.levels[0], stripped, *h.levels[2:]))


def _swap_level(h, index, **changes):
    levels = list(h.levels)
    levels[index] = replace(levels[index], **changes)
    return dict(flavor=h.flavor, neighborhood_k=h.neighborhood_k, coarsen_ratio=h.coarsen_ratio,
                levels=tuple(levels))


@pytest.fixture(scope="module")
def small_point_hierarchy():
    rng = np.random.default_rng(27)
    h = build_hierarchy(rng.uniform(size=(60, 3)), *rand_qkv(rng, 60, 2), flavor="point", k=4)
    assert h.depth >= 3
    return h


def test_hierarchy_rejects_a_level_index_out_of_place(small_point_hierarchy):
    h = small_point_hierarchy
    with pytest.raises(InvalidInputError, match="level_index"):
        Hierarchy(**_swap_level(h, 2, level_index=7))


@pytest.mark.parametrize("case", ["negative", "too_large", "short", "two_d"])
def test_hierarchy_rejects_a_bad_parent_map(small_point_hierarchy, case):
    h = small_point_hierarchy
    parent_of = h.levels[1].parent_of.copy()
    n_coarse = h.levels[2].n_tokens
    if case == "negative":
        parent_of[3] = -1  # would wrap to the last coarse token
    elif case == "too_large":
        parent_of[3] = 10**6
    elif case == "short":
        parent_of = parent_of[:-1]
    else:
        parent_of = parent_of[:, None]
    with pytest.raises(InvalidInputError, match=rf"parent in \[0, {n_coarse}\)"):
        Hierarchy(**_swap_level(h, 1, parent_of=parent_of))


@pytest.mark.parametrize("case", ["not_zero_based", "empty_group", "decreasing", "short_end",
                                  "long_end"])
def test_hierarchy_rejects_a_bad_pool_indptr(small_point_hierarchy, case):
    h = small_point_hierarchy
    indptr, indices = h.levels[2].pool_indptr.copy(), h.levels[2].pool_indices
    if case == "not_zero_based":
        indptr[0] = 1
    elif case == "empty_group":
        indptr[2] = indptr[1]  # segment_mean would divide by zero
    elif case == "decreasing":
        indptr[2] = indptr[1] - 1
    elif case == "short_end":
        indptr[-1] -= 1
    else:
        indptr[-1] += 1
    with pytest.raises(InvalidInputError, match="pool_indptr must rise"):
        Hierarchy(**_swap_level(h, 2, pool_indptr=indptr, pool_indices=indices))


@pytest.mark.parametrize("bad", [-1, "n_fine"])
def test_hierarchy_rejects_pool_indices_out_of_range(small_point_hierarchy, bad):
    h = small_point_hierarchy
    indices = h.levels[2].pool_indices.copy()
    n_fine = h.levels[1].n_tokens
    indices[4] = n_fine if bad == "n_fine" else bad
    with pytest.raises(InvalidInputError, match=rf"pool_indices must lie in \[0, {n_fine}\)"):
        Hierarchy(**_swap_level(h, 2, pool_indices=indices))
    # The untouched structure still passes every check.
    assert Hierarchy(**_swap_level(h, 2)).level_sizes() == h.level_sizes()


@pytest.mark.parametrize("r", [1, 0, -3])
def test_point_build_checks_the_ratio_up_front(r):
    """A ratio below 2 is refused even when N <= k leaves nothing to coarsen."""
    rng = np.random.default_rng(28)
    with pytest.raises(InvalidInputError, match="coarsen ratio must be >= 2"):
        build_hierarchy(rng.normal(size=(3, 3)), *rand_qkv(rng, 3, 2), flavor="point", k=8, r=r)


# ---------------------------------------------------------------------------
# with_values / truncate / interpolate
# ---------------------------------------------------------------------------

def test_callers_arrays_stay_writeable_and_detached():
    """Entry points copy what they store: the caller may keep writing to its
    own arrays, and those writes never reach the built structure."""
    rng = np.random.default_rng(12)
    pos = rng.uniform(size=(40, 3))
    q, k_mat, v = rand_qkv(rng, 40, 3)
    coords = np.unique(rng.integers(0, 6, size=(40, 3)), axis=0)
    m = coords.shape[0]
    vq, vk, vv = rand_qkv(rng, m, 2)
    vpos = coords + 0.5
    h = build_hierarchy(pos, q, k_mat, v, k=4, r=2)
    hv = build_hierarchy(vpos, vq, vk, vv, flavor="voxel", coords=coords)
    q2 = rng.normal(size=(40, 3))
    hw = with_values(h, q=q2)
    feats = rng.normal(size=(40, 2))
    cloud = PointCloud(positions=pos, features=feats)
    # The dataclass constructors store what they are given, copied only
    # when it arrives writeable.
    freqs = rng.normal(size=(2, 3))
    emb = FourierEmbedding(frequencies=freqs)
    indptr, indices = np.array([0, 2, 3]), np.array([0, 1, 1])
    topo = NeighborhoodTopology(kind="knn", indptr=indptr, indices=indices, k=2)
    occ, cn = np.array([[0, 0, 0], [1, 0, 0]]), np.array([3, 1])
    cf, cc = rng.normal(size=(2, 1)), rng.uniform(size=(2, 3))
    grid = SparseVoxelGrid(voxel_size=1.0, occupied=occ, cell_features=cf,
                           cell_centroid=cc, cell_count=cn)
    lpos, lq, lk, lv_, sel = rng.uniform(size=(2, 3)), *rand_qkv(rng, 2, 2), np.array([0, 1])
    level = HierarchyLevel(level_index=0, positions=lpos, q_tilde=lq, k_tilde=lk, v_tilde=lv_,
                           topology=topo, selected=sel)
    stored = (emb.frequencies, topo.indptr, topo.indices, grid.occupied, grid.cell_features,
              grid.cell_centroid, grid.cell_count, level.positions, level.q_tilde,
              level.k_tilde, level.v_tilde, level.selected)
    assert not any(a.flags.writeable for a in stored)
    before = [dump_hierarchy(x) for x in (h, hv, hw)]
    rows = [lv.q_tilde.copy() for lv in hw.levels] + [h.levels[0].v_tilde.copy(), hv.levels[0].k_tilde.copy()]
    cloud_before = (cloud.positions.copy(), cloud.features.copy())
    stored_before = [a.copy() for a in stored]

    callers = (pos, q, k_mat, v, coords, vpos, vq, vk, vv, q2, feats,
               freqs, indptr, indices, occ, cf, cc, cn, lpos, lq, lk, lv_, sel)
    assert all(a.flags.writeable for a in callers)
    for a in callers:
        a[...] = 7

    assert [dump_hierarchy(x) for x in (h, hv, hw)] == before
    after = [lv.q_tilde for lv in hw.levels] + [h.levels[0].v_tilde, hv.levels[0].k_tilde]
    assert all(np.array_equal(x, y) for x, y in zip(after, rows))
    assert np.array_equal(cloud.positions, cloud_before[0])
    assert np.array_equal(cloud.features, cloud_before[1])
    assert all(np.array_equal(x, y) for x, y in zip(stored, stored_before))


def test_with_values_matches_fresh_build():
    rng = np.random.default_rng(14)
    pos = rng.normal(size=(60, 3))
    q1, k1, v1 = rand_qkv(rng, 60, 4)
    q2, k2, v2 = rand_qkv(rng, 60, 4)
    h1 = build_hierarchy(pos, q1, k1, v1, flavor="point", k=4, r=2)
    h2 = with_values(h1, q=q2, k=k2, v=v2)
    fresh = build_hierarchy(pos, q2, k2, v2, flavor="point", k=4, r=2)
    assert h2.level_sizes() == fresh.level_sizes()
    for a, b in zip(h2.levels, fresh.levels):
        np.testing.assert_array_equal(a.q_tilde, b.q_tilde)
        np.testing.assert_array_equal(a.k_tilde, b.k_tilde)
        np.testing.assert_array_equal(a.v_tilde, b.v_tilde)
    # structure is shared, not rebuilt
    assert h2.levels[0].topology is h1.levels[0].topology


def test_with_values_voxel_and_partial():
    rng = np.random.default_rng(15)
    coords = np.unique(rng.integers(0, 8, size=(120, 3)), axis=0)
    order = np.lexsort((coords[:, 2], coords[:, 1], coords[:, 0]))
    coords = coords[order]
    n = coords.shape[0]
    q, k_mat, v = rand_qkv(rng, n, 3)
    h = build_hierarchy(coords.astype(np.float64) + 0.5, q, k_mat, v, flavor="voxel", coords=coords)
    probes = rng.normal(size=(n, 7))
    h2 = with_values(h, v=probes)
    fresh = build_hierarchy(coords.astype(np.float64) + 0.5, q, k_mat, probes, flavor="voxel", coords=coords)
    for a, b in zip(h2.levels, fresh.levels):
        np.testing.assert_array_equal(a.v_tilde, b.v_tilde)
        np.testing.assert_array_equal(a.q_tilde, b.q_tilde)  # untouched


def test_truncate_to_local():
    rng = np.random.default_rng(16)
    pos = rng.normal(size=(50, 3))
    q, k_mat, v = rand_qkv(rng, 50, 2)
    h = build_hierarchy(pos, q, k_mat, v, flavor="point", k=4, r=2)
    assert h.depth >= 2
    t0 = truncate(h, 0)
    assert t0.depth == 0
    assert t0.levels[0].parent_of is None
    t1 = truncate(h, 1)
    assert t1.level_sizes() == h.level_sizes()[:2]
    with pytest.raises(InvalidInputError):
        truncate(h, h.depth + 1)


def test_interpolate_copies_parent_rows():
    rng = np.random.default_rng(17)
    pos = rng.normal(size=(30, 3))
    q, k_mat, v = rand_qkv(rng, 30, 2)
    h = build_hierarchy(pos, q, k_mat, v, flavor="point", k=4, r=2)
    vals = rng.normal(size=(h.levels[1].n_tokens, 5))
    out = interpolate(vals, 1, h)
    assert out.shape == (30, 5)
    for i in range(30):
        np.testing.assert_array_equal(out[i], vals[h.levels[0].parent_of[i]])


def test_interpolate_pair_layout():
    rng = np.random.default_rng(18)
    q, k_mat, v = rand_qkv(rng, 4, 2)
    h = build_hierarchy(PAIR_POSITIONS, q, k_mat, v, flavor="point", k=2, r=2)
    vals = np.array([[1.0], [2.0]])
    np.testing.assert_array_equal(interpolate(vals, 1, h), [[1.0], [1.0], [2.0], [2.0]])


def test_interpolate_constant():
    rng = np.random.default_rng(19)
    pos = rng.normal(size=(20, 3))
    q, k_mat, v = rand_qkv(rng, 20, 2)
    h = build_hierarchy(pos, q, k_mat, v, flavor="point", k=3, r=2)
    vals = np.full((h.levels[1].n_tokens, 2), 7.0)
    np.testing.assert_array_equal(interpolate(vals, 1, h), np.full((20, 2), 7.0))


def test_interpolate_validates():
    rng = np.random.default_rng(20)
    pos = rng.normal(size=(20, 3))
    q, k_mat, v = rand_qkv(rng, 20, 2)
    h = build_hierarchy(pos, q, k_mat, v, flavor="point", k=3, r=2)
    with pytest.raises(InvalidInputError):
        interpolate(np.zeros((3, 2)), 0, h)
    with pytest.raises(InvalidInputError):
        interpolate(np.zeros((h.levels[1].n_tokens + 1, 2)), 1, h)


def test_voxel_pool_then_unpool_group_constant():
    rng = np.random.default_rng(21)
    coords = np.unique(rng.integers(0, 10, size=(200, 3)), axis=0)
    order = np.lexsort((coords[:, 2], coords[:, 1], coords[:, 0]))
    coords = coords[order]
    n = coords.shape[0]
    q, k_mat, v = rand_qkv(rng, n, 2)
    h = build_hierarchy(coords.astype(np.float64), q, k_mat, v, flavor="voxel", coords=coords)
    parent_rows = rng.normal(size=(h.levels[1].n_tokens, 3))
    group_constant = parent_rows[h.levels[0].parent_of]
    h2 = with_values(h, v=group_constant)
    np.testing.assert_allclose(h2.levels[1].v_tilde, parent_rows, atol=1e-13)
    np.testing.assert_allclose(interpolate(h2.levels[1].v_tilde, 1, h), group_constant, atol=1e-13)


# ---------------------------------------------------------------------------
# Permutation invariance and dump
# ---------------------------------------------------------------------------

def test_point_hierarchy_permutation_invariance():
    """Relabeling tokens permutes level-0 rows and leaves coarser levels
    the same set of tokens (compared here after a canonical sort)."""
    rng = np.random.default_rng(22)
    pos = rng.normal(size=(50, 3))
    q, k_mat, v = rand_qkv(rng, 50, 3)
    h = build_hierarchy(pos, q, k_mat, v, flavor="point", k=4, r=2)
    perm = rng.permutation(50)
    hp = build_hierarchy(pos[perm], q[perm], k_mat[perm], v[perm], flavor="point", k=4, r=2)
    assert h.level_sizes() == hp.level_sizes()
    for a, b in zip(h.levels[1:], hp.levels[1:]):
        oa = np.lexsort((a.positions[:, 2], a.positions[:, 1], a.positions[:, 0]))
        ob = np.lexsort((b.positions[:, 2], b.positions[:, 1], b.positions[:, 0]))
        np.testing.assert_array_equal(a.positions[oa], b.positions[ob])
        np.testing.assert_array_equal(a.q_tilde[oa], b.q_tilde[ob])
        np.testing.assert_array_equal(a.v_tilde[oa], b.v_tilde[ob])


def test_voxel_hierarchy_permutation_of_input_cells():
    # Window rows and pooling groups are ordered by cell coordinates, not
    # token numbers, so levels above 0 are bitwise identical no matter how
    # the level-0 cells were ordered.
    rng = np.random.default_rng(23)
    coords = np.unique(rng.integers(0, 6, size=(80, 3)), axis=0)
    n = coords.shape[0]
    q, k_mat, v = rand_qkv(rng, n, 2)
    pos = coords + 0.5
    perm = rng.permutation(n)
    h1 = build_hierarchy(pos, q, k_mat, v, flavor="voxel", coords=coords)
    h2 = build_hierarchy(pos[perm], q[perm], k_mat[perm], v[perm],
                         flavor="voxel", coords=coords[perm])
    assert h1.level_sizes() == h2.level_sizes()
    for a, b in zip(h1.levels[1:], h2.levels[1:]):
        np.testing.assert_array_equal(a.q_tilde, b.q_tilde)
        np.testing.assert_array_equal(a.v_tilde, b.v_tilde)
        np.testing.assert_array_equal(a.coords, b.coords)


def test_shared_neighborhood_sets_smooth_bitwise_identically():
    # Four clustered points with k=4 all have the cluster itself as their
    # neighborhood, each ordered differently by own-distance. Their smoothed
    # rows must round identically, or later levels would break exact-tie
    # rules with duplicate positions carrying slightly different features.
    rng = np.random.default_rng(91)
    pos = np.vstack([rng.normal(size=(4, 3)) * 0.01, [[50.0, 0.0, 0.0]]])
    q, k_mat, v = rand_qkv(rng, 5, 6)
    h = build_hierarchy(pos, q, k_mat, v, flavor="point", k=4, r=2)
    lv1 = h.levels[1]
    twins = np.flatnonzero(lv1.selected < 4)
    assert twins.size == 2
    a, b = (int(t) for t in twins)
    for mat in (lv1.positions, lv1.q_tilde, lv1.k_tilde, lv1.v_tilde):
        np.testing.assert_array_equal(mat[a], mat[b])


def test_dump_hierarchy_schema():
    rng = np.random.default_rng(24)
    q, k_mat, v = rand_qkv(rng, 4, 2)
    h = build_hierarchy(PAIR_POSITIONS, q, k_mat, v, flavor="point", k=2, r=2)
    text = dump_hierarchy(h)
    lines = text.strip().split("\n")
    assert lines[0] == "gha-hierarchy v1 flavor=point k=2 r=2 levels=2"
    assert lines[1] == "level 0 n=4"
    assert lines[2].startswith("tok 0 pos 0 0 0 parent 0")
    assert lines[6] == "level 1 n=2"
    assert lines[7].endswith("parent -")
    assert len(lines) == 1 + 1 + 4 + 1 + 2


def level_fields(level):
    out = {}
    for f in fields(level):
        x = getattr(level, f.name)
        if isinstance(x, NeighborhoodTopology):
            out[f.name + ".indptr"], out[f.name + ".indices"] = x.indptr, x.indices
        else:
            out[f.name] = x
    return out


def assert_same_structure(a, b):
    assert (a.flavor, a.neighborhood_k, a.coarsen_ratio) == (b.flavor, b.neighborhood_k, b.coarsen_ratio)
    assert len(a.levels) == len(b.levels)
    for la, lb in zip(a.levels, b.levels):
        for (name, x), y in zip(level_fields(la).items(), level_fields(lb).values()):
            if isinstance(x, np.ndarray):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
            else:
                assert x == y, name


@pytest.mark.parametrize("bad", [
    [[0.5, 0, 0], [1.7, 0, 0], [3.2, 0, 0]],  # used to be truncated to cells 0, 1, 3
    [[1e300, 0, 0], [1, 0, 0], [3, 0, 0]],  # used to warn in the cast
    [[np.nan, 0, 0], [1, 0, 0], [3, 0, 0]],
    [[-np.inf, 0, 0], [1, 0, 0], [3, 0, 0]],
    [[2.0 ** 20, 0, 0], [1, 0, 0], [3, 0, 0]],
    np.array([[0, 0, -(1 << 20)], [1, 0, 0], [3, 0, 0]]),
])
def test_voxel_coords_checked_before_the_cast(bad):
    rng = np.random.default_rng(18)
    q, k_mat, v = rand_qkv(rng, 3, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="voxel coordinates"):
            build_hierarchy(rng.normal(size=(3, 3)), q, k_mat, v, flavor="voxel", coords=bad)
        with pytest.raises(InvalidInputError, match="voxel coordinates"):
            kernel_window_topology(bad)


def test_non_integer_voxel_coords_are_not_duplicates():
    with pytest.raises(InvalidInputError, match="integer"):
        kernel_window_topology([[0.5, 0, 0], [0.7, 0, 0]])
    for bad_shape in ([1, 2, 3], [[1, 2], [3, 4]]):
        with pytest.raises(InvalidInputError, match="voxel coordinates"):
            kernel_window_topology(bad_shape)


def test_integer_valued_voxel_coords_build_the_same_structure():
    rng = np.random.default_rng(19)
    coords = np.unique(rng.integers(-6, 6, size=(200, 3)), axis=0)
    coords = coords[rng.permutation(coords.shape[0])]
    coords[0] = (1 << 20) - 1  # the range limit is accepted
    n = coords.shape[0]
    pos = coords + rng.uniform(0.1, 0.9, size=(n, 3))
    q, k_mat, v = rand_qkv(rng, n, 3)
    ref = build_hierarchy(pos, q, k_mat, v, flavor="voxel", coords=coords)
    assert ref.depth >= 2
    for same in (coords.astype(np.float64), coords.astype(np.int32), coords.tolist()):
        assert_same_structure(build_hierarchy(pos, q, k_mat, v, flavor="voxel", coords=same), ref)
    topo = kernel_window_topology(coords.astype(np.float32))
    want = kernel_window_topology(coords)
    assert topo.indptr.tobytes() == want.indptr.tobytes()
    assert topo.indices.tobytes() == want.indices.tobytes()


def test_q_and_k_share_one_positive_width():
    rng = np.random.default_rng(20)
    n = 30
    pos = rng.normal(size=(n, 3))
    q, k_mat, v = rand_qkv(rng, n, 8)
    for qq, kk in ((q[:, :0], k_mat[:, :0]), (q, k_mat[:, :4])):
        with pytest.raises(InvalidInputError, match="width"):
            build_hierarchy(pos, qq, kk, v, flavor="point", k=4)
    h = build_hierarchy(pos, q, k_mat, v, flavor="point", k=4)
    for kw in (dict(q=q[:, :4]), dict(k=k_mat[:, :4]), dict(q=q[:, :0], k=k_mat[:, :0]),
               dict(q=q[:, :4], k=k_mat[:, :2])):
        with pytest.raises(InvalidInputError, match="width"):
            with_values(h, **kw)
    narrow = with_values(h, q=q[:, :4], k=k_mat[:, :4], v=v[:, :2])
    assert narrow.levels[-1].q_tilde.shape[1] == 4 and narrow.levels[-1].v_tilde.shape[1] == 2
    assert with_values(narrow, q=q[:, 4:]).levels[0].q_tilde.shape == (n, 4)


# ---------------------------------------------------------------------------
# Canonical order
# ---------------------------------------------------------------------------

def test_every_level_stores_its_canonical_order():
    rng = np.random.default_rng(21)
    # 30 positions, each held by 10 tokens: ties everywhere in (x, y, z).
    pos = np.repeat(rng.uniform(size=(30, 3)), 10, axis=0)[rng.permutation(300)]
    q, k_mat, v = rand_qkv(rng, 300, 2)
    point = build_hierarchy(pos, q, k_mat, v, flavor="point", k=4, r=2)
    coords = np.unique(rng.integers(0, 10, size=(400, 3)), axis=0)[::-1]
    centers = coords + rng.uniform(size=coords.shape)
    vq, vk, vv = rand_qkv(rng, coords.shape[0], 2)
    voxel = build_hierarchy(centers, vq, vk, vv, flavor="voxel", coords=coords)
    assert point.depth >= 3 and voxel.depth >= 2
    for h in (point, voxel):
        for lv in h.levels:
            assert lv.order.dtype == np.int64 and not lv.order.flags.writeable
            np.testing.assert_array_equal(lv.order, np.lexsort(lv.positions.T[::-1]))

    # Rebuilt hierarchies carry each order on, as the same object.
    q2, k2, v2 = rand_qkv(rng, 300, 3)
    vq2 = rng.normal(size=vq.shape)
    for source, derived in ((point, with_values(point, q=q2, k=k2, v=v2)),
                            (point, with_values(point, v=v2)), (point, truncate(point, 2)),
                            (voxel, with_values(voxel, q=vq2)), (voxel, truncate(voxel, 0))):
        for a, b in zip(source.levels, derived.levels):
            assert b.order is a.order
            np.testing.assert_array_equal(b.order, _canonical_order(b.positions))


def test_build_sorts_each_level_once(monkeypatch):
    import gha3d.geometry as geometry_mod
    import gha3d.hierarchy as hierarchy_mod

    calls = []
    real = geometry_mod._canonical_order

    def counted(positions):
        calls.append(positions.shape[0])
        return real(positions)

    monkeypatch.setattr(geometry_mod, "_canonical_order", counted)
    monkeypatch.setattr(hierarchy_mod, "_canonical_order", counted)
    rng = np.random.default_rng(23)
    pos = np.repeat(rng.uniform(size=(40, 3)), 3, axis=0)
    h = build_hierarchy(pos, *rand_qkv(rng, 120, 2), flavor="point", k=4, r=2)
    assert h.depth >= 3
    # FPS reads the order each level stores instead of sorting again.
    assert calls == h.level_sizes()
    # Derived hierarchies share every level's order: nothing sorts again.
    calls.clear()
    q2, k2, v2 = rand_qkv(rng, 120, 3)
    with_values(h, q=q2, k=k2, v=v2)
    with_values(h, v=v2)
    truncate(h, 1)
    truncate(h, h.depth)
    assert calls == []


def test_voxel_build_probes_each_stride_once(monkeypatch):
    """The stride probe's ``np.unique`` also gives the pooling its parents:
    one call per probed stride, none repeated for the chosen one."""
    import gha3d.hierarchy as hierarchy_mod

    rng = np.random.default_rng(26)
    # Cells 4 apart: stride 2 does not reduce level 0, so its probe runs
    # at least twice.
    coords = np.unique(rng.integers(-12, 12, size=(500, 3)), axis=0) * 4
    n = coords.shape[0]
    calls = []
    real = np.unique

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(hierarchy_mod.np, "unique", counted)
    h = build_hierarchy(coords + 0.5, *rand_qkv(rng, n, 2), flavor="voxel", coords=coords)
    monkeypatch.undo()
    probed = 0
    for fine in h.levels[:-1]:
        stride = 2
        while True:
            probed += 1
            if len({tuple(c) for c in np.floor_divide(fine.coords, stride)}) < fine.n_tokens:
                break
            stride *= 2
    assert h.depth >= 2 and probed > h.depth
    assert len(calls) == probed


@pytest.mark.parametrize("kw", [dict(k=2.5), dict(r=2.5), dict(k="4"), dict(r=None)])
def test_point_build_rejects_non_integer_k_and_r(kw):
    rng = np.random.default_rng(24)
    with pytest.raises(InvalidInputError, match="must be an integer"):
        build_hierarchy(rng.normal(size=(20, 3)), *rand_qkv(rng, 20, 2), flavor="point", **kw)


@pytest.mark.parametrize("depth", [1.5, "1", None])
def test_truncate_rejects_a_non_integer_depth(depth):
    rng = np.random.default_rng(25)
    h = build_hierarchy(rng.normal(size=(20, 3)), *rand_qkv(rng, 20, 2), flavor="point", k=4)
    with pytest.raises(InvalidInputError, match="depth must be an integer"):
        truncate(h, depth)
    assert truncate(h, np.int64(1)).depth == 1


@pytest.mark.parametrize("order", [
    [0, 0, 2],  # a repeat, so one token is missing
    [0, 1],  # too short
    [0, 1, 3],  # out of range
    [-1, 0, 1],
    [[0, 1, 2]],
    [0.0, 2.7, 1.0],  # would truncate to the permutation [0, 2, 1]
    [2, 0, 1],  # a permutation, but not the canonical one
])
def test_level_rejects_an_order_that_is_not_a_permutation(order):
    """The order is derived from the positions, never given: the
    constructor has no such parameter, so no level holds another order."""
    rng = np.random.default_rng(22)
    pos, (q, k_mat, v) = rng.normal(size=(3, 3)), rand_qkv(rng, 3, 2)
    with pytest.raises(TypeError, match="order"):
        HierarchyLevel(level_index=0, positions=pos, q_tilde=q, k_tilde=k_mat, v_tilde=v,
                       topology=knn_from_positions(pos, 2), order=np.array(order))
    level = make_point_level(pos, q, k_mat, v, k=2)
    with pytest.raises(ValueError, match="order"):
        replace(level, order=np.array(order))
    np.testing.assert_array_equal(level.order, _canonical_order(pos))
