import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy import sparse

from gha3d.attention import AttentionInputs, FourierEmbedding
from gha3d.block import BlockConfig, init_params
from gha3d.errors import InvalidCoarsenError, InvalidInputError
from gha3d.geometry import (
    NeighborhoodTopology,
    PointCloud,
    SparseVoxelGrid,
    _canonical_order,
    _pooled,
    _product,
    _transposed_product,
    kernel_window_topology,
    knn_from_positions,
    voxelize,
)
from gha3d.hierarchy import (
    VOXEL_WINDOW_K,
    Hierarchy,
    HierarchyLevel,
    attention_structure,
    build_hierarchy,
    children_of,
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
    h = build_hierarchy(PAIR_POSITIONS, q, k_mat, v, k=2, r=2)
    coarse, parent_of = h.levels[1], h.levels[0].parent_of
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
    h = build_hierarchy(pos, c, c, c, k=3, r=2)
    np.testing.assert_array_equal(h.levels[1].q_tilde, np.full((5, 4), 2.5))


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
        h = build_hierarchy(pos, q, k_mat, v, k=3, r=2)
        for fine, coarse in zip(h.levels, h.levels[1:]):
            assert list(fine.parent_of) == brute_parent_assignment(fine.positions, coarse.selected)


def test_coarsen_point_smoothing_is_neighborhood_mean():
    rng = np.random.default_rng(3)
    pos = rng.normal(size=(8, 3))
    q, k_mat, v = rand_qkv(rng, 8, 5)
    h = build_hierarchy(pos, q, k_mat, v, k=3, r=2)
    coarse, topo = h.levels[1], h.levels[0].topology
    for row, s in enumerate(coarse.selected):
        nb = topo.neighbors(int(s))
        np.testing.assert_allclose(coarse.q_tilde[row], q[nb].mean(axis=0), atol=1e-14)
        np.testing.assert_allclose(coarse.positions[row], pos[nb].mean(axis=0), atol=1e-14)


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


def voxel_step(level, rows):
    """``coarsen_voxel``'s step on ``level``, its parent map, and the level
    over it holding ``rows`` as q, k and v pooled through ``with_values``:
    the step pools positions only, so its coarse level holds no values, and
    the two levels join as a structure, level 0 without values too."""
    coarse, parent_of = coarsen_voxel(level)
    assert coarse.q_tilde.shape == coarse.k_tilde.shape == coarse.v_tilde.shape == \
        (coarse.n_tokens, 0)
    bare = np.empty((level.n_tokens, 0))
    fine = replace(level, parent_of=parent_of, q_tilde=bare, k_tilde=bare, v_tilde=bare)
    h = Hierarchy("voxel", VOXEL_WINDOW_K, 2, (fine, coarse))
    return coarse, parent_of, with_values(h, rows, rows, rows).levels[1]


def test_coarsen_voxel_two_children():
    a = np.array([[1.0, 2.0]])
    b = np.array([[3.0, 6.0]])
    level = make_voxel_level([[0, 0, 0], [1, 1, 1]], np.vstack([a, b]), np.vstack([a, b]), np.vstack([a, b]))
    coarse, parent_of, pooled = voxel_step(level, np.vstack([a, b]))
    assert coarse.n_tokens == 1
    assert tuple(coarse.coords[0]) == (0, 0, 0)
    np.testing.assert_array_equal(coarse.positions, [[1.0, 1.0, 1.0]])
    np.testing.assert_allclose(pooled.q_tilde, (a + b) / 2)
    assert list(parent_of) == [0, 0]


def test_coarsen_voxel_skips_strides_that_copy_rows():
    # Cells 2 apart stay apart at stride 2, which would copy each row; the
    # step pools them at stride 4, the first stride that reduces.
    rows = np.array([[1.0], [2.0]])
    level = make_voxel_level([[0, 0, 0], [2, 0, 0]], rows, rows, rows)
    coarse, parent_of, pooled = voxel_step(level, rows)
    assert coarse.n_tokens == 1
    assert [tuple(c) for c in coarse.coords] == [(0, 0, 0)]
    np.testing.assert_array_equal(coarse.positions, [[1.5, 0.5, 0.5]])
    np.testing.assert_array_equal(pooled.q_tilde, [[1.5]])
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
    coarse, parent_of, got = voxel_step(level, rows)
    assert coarse.n_tokens == 8
    keys, pooled, parent = brute_voxel_pool(coords, rows)
    assert [tuple(c) for c in coarse.coords] == keys
    np.testing.assert_allclose(coarse.positions, brute_voxel_pool(coords, level.positions)[1],
                               atol=1e-14)
    np.testing.assert_allclose(got.q_tilde, pooled, atol=1e-14)
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
        coarse, parent_of, got = voxel_step(level, rows)
        keys, pooled, parent = brute_voxel_pool(coords, rows)
        assert [tuple(c) for c in coarse.coords] == keys
        np.testing.assert_allclose(coarse.positions, brute_voxel_pool(coords, level.positions)[1],
                                   atol=1e-14)
        np.testing.assert_allclose(got.v_tilde, pooled, atol=1e-14)
        assert list(parent_of) == list(parent)


THREE_CELLS = [[0, 0, 0], [1, 0, 0], [3, 0, 0]]


@pytest.mark.parametrize("coords", [
    [row[:2] for row in THREE_CELLS],  # (3, 2): coarsening raised a bare IndexError
    THREE_CELLS[:2],  # 2 of 3 rows: a 1-token coarse level over 2 tokens, no error
    THREE_CELLS + [[5, 0, 0]],
    [0, 1, 3],
    [[0.5, 0, 0], [1, 0, 0], [3, 0, 0]],
    [[1 << 20, 0, 0], [1, 0, 0], [3, 0, 0]],
])
def test_level_coords_hold_one_cell_per_token(coords):
    rows = np.ones((3, 1))
    level = make_voxel_level(THREE_CELLS, rows, rows, rows)
    with pytest.raises(InvalidInputError, match="coords must be|voxel coordinates"):
        replace(level, coords=coords)
    with pytest.raises(InvalidInputError, match="coords must be|voxel coordinates"):
        build_hierarchy(level.positions, rows, rows, rows, flavor="voxel", coords=coords)
    same = replace(level, coords=np.array(THREE_CELLS, dtype=np.float64))
    assert same.coords.dtype == np.int64 and not same.coords.flags.writeable
    assert same.coords.tolist() == THREE_CELLS
    assert coarsen_voxel(same)[0].n_tokens == 2


def test_segment_mean_sums_again_only_the_entries_that_overflow(loop_sums):
    values = np.array([[1.5e308, 1.0], [1.5e308, 2.0], [0.1, 1e308], [0.2, -1e308], [0.3, 3.0]])
    indptr, indices = np.array([0, 2, 5]), np.array([1, 0, 2, 3, 4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = segment_mean(values, indptr, indices)
    assert got[0, 0] == 1.5e308
    plain = loop_sums(indptr, indices, np.ones(5), values) / [[2], [3]]
    assert got[0, 1] == plain[0, 1] and got[1].tobytes() == plain[1].tobytes()
    # A sum from +0.0 in order stays at inf once it overflows, however the
    # later terms cancel: both groups are summed again, scaled.
    x = 1.5e308
    for group, mean in (([x, x, -x, -x, 6e307], 1.2e307), ([x] * 4 + [-x] * 5, -x / 9)):
        got = segment_mean(np.array(group)[:, None], np.array([0, len(group)]),
                           np.arange(len(group)))
        np.testing.assert_allclose(got, [[mean]], rtol=1e-15)


def test_pooled_means_near_the_float_limit_stay_finite():
    """A finite v = 1.5e308 used to overflow every coarse level's pooled
    mean, with a RuntimeWarning; the mean of equal values is that value."""
    rng = np.random.default_rng(26)
    pos = rng.normal(size=(40, 3))
    q, k_mat, _ = rand_qkv(rng, 40, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = build_hierarchy(pos, q, k_mat, np.full((40, 2), 1.5e308), flavor="point", k=4)
        fresh = with_values(h, v=np.full((40, 2), -1.5e308))
    assert h.depth >= 3
    for lv, fl in zip(h.levels, fresh.levels):
        assert np.all(lv.v_tilde == 1.5e308) and np.all(fl.v_tilde == -1.5e308)


def near_limit_voxel_cloud(rng, n):
    """n points just below the float64 limit, features near it too, in
    cells of side 1e303: most sums a voxel structure pools overflow."""
    pos = 1.7e308 - rng.uniform(0.0, 1e305, size=(n, 3))
    return PointCloud(positions=pos, features=rng.normal(size=(n, 4)) * 1e307), 1e303


def test_near_limit_voxel_cloud_pools_every_mean_by_the_one_rule(monkeypatch, loop_sums):
    # A voxelized cloud just below the float64 limit, its structure and
    # values of +-1.5e308: every pooled mean is finite, and each one whose
    # plain sum overflows is summed again over its terms scaled down by a
    # power of two, which gives the bits of an unbounded exponent.
    import gha3d.geometry as geometry_mod
    import gha3d.hierarchy as hierarchy_mod

    calls = []

    def recorded(values, indptr, indices):
        out = real(values, indptr, indices)
        calls.append((values.copy(), indptr.copy(), indices.copy(), out.copy()))
        return out

    real = geometry_mod._pooled
    for module in (geometry_mod, hierarchy_mod):
        monkeypatch.setattr(module, "_pooled", recorded)
    rng = np.random.default_rng(49)
    cloud, voxel_size = near_limit_voxel_cloud(rng, 600)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = voxelize(cloud, voxel_size)
        structure = attention_structure(grid.cell_centroid, flavor="voxel", coords=grid.occupied)
        n = grid.n_voxels
        q, k_mat, _ = rand_qkv(rng, n, 2)
        h = with_values(structure, q, k_mat, rng.choice([-1.5e308, 1.5e308], size=(n, 2)))
    assert h.depth >= 3
    for a in (grid.cell_centroid, grid.cell_features,
              *(getattr(lv, name) for lv in h.levels
                for name in ("positions", "q_tilde", "k_tilde", "v_tilde"))):
        assert np.isfinite(a).all()
    overflowed = 0
    for values, indptr, indices, got in calls:
        sums = loop_sums(indptr, indices, np.ones(indices.shape[0]), values)
        overflowed += int(np.isinf(sums).sum())
        assert got.tobytes() == loop_means(values, indptr, indices, loop_sums).tobytes()
    assert overflowed > 100


# ---------------------------------------------------------------------------
# Sums by sparse product: from +0.0 in entry order
# ---------------------------------------------------------------------------

def spread(rng, shape):
    """Normal draws over 16 decades, so a sum in another order rounds apart."""
    return rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)


@pytest.mark.parametrize("size", range(1, 9))
def test_reduceat_adds_a_small_group_as_head_plus_tail_in_order(size):
    # NumPy's order, which the package's sums no longer follow: reduceat adds
    # x0 + (x1 + ... + x_{L-1}), the tail one term at a time, in 1-D and
    # along axis 0, for L <= 8, where a product adds from +0.0. So the two
    # differ in low bits (the tests compare them within 1e-14) and in the
    # sign of an all -0.0 sum: reduceat keeps -0.0, a product gives +0.0.
    rng = np.random.default_rng(40 + size)
    for _ in range(40):
        x = spread(rng, (size, 5))
        tail = np.zeros(5)
        for row in x[1:]:
            tail = tail + row
        want = x[0] + tail
        assert np.add.reduceat(x, [0], axis=0)[0].tobytes() == want.tobytes()
        assert np.add.reduceat(x[:, 2], [0])[0] == want[2]
    assert np.signbit(np.add.reduceat(np.full((size, 2), -0.0), [0], axis=0)).all()
    assert not np.signbit(_product(np.array([0, size], np.int32), np.arange(size, dtype=np.int32),
                                   np.ones(size), np.full((size, 2), -0.0))).any()


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_product_adds_each_row_from_zero_in_entry_order(index_dtype, loop_sums):
    rng = np.random.default_rng(44)
    sizes = rng.integers(0, 12, size=200)  # empty rows read +0.0
    indptr = np.concatenate(([0], np.cumsum(sizes))).astype(index_dtype)
    indices = rng.integers(0, 50, size=indptr[-1]).astype(index_dtype)
    data, x = spread(rng, indptr[-1]), spread(rng, (50, 3))
    want = np.zeros((200, 3))
    for i in range(200):
        for e in range(indptr[i], indptr[i + 1]):
            want[i] = want[i] + data[e] * x[indices[e]]
    got = _product(indptr, indices, data, x)
    assert got.tobytes() == want.tobytes() == loop_sums(indptr, indices, data, x).tobytes()
    assert not np.signbit(got[sizes == 0]).any()


@pytest.mark.parametrize("weighted", [False, True])
def test_products_sum_signed_zero_groups_to_plus_zero(weighted, loop_sums):
    # Groups of 1 to 8 members, among them single members, groups of all
    # -0.0, groups that cancel to +0.0 and weights of 0.0 (an underflowed
    # softmax term times a negative value is -0.0). The product adds each
    # group from +0.0, so an all -0.0 group sums to +0.0 (reduceat keeps
    # -0.0); every other sum stays within 1e-14 of the gathered reduceat.
    rng = np.random.default_rng(45)
    x = spread(rng, (120, 4))
    x[:10] = -0.0
    x[10:20] = -x[20:30]
    sizes = rng.integers(1, 9, size=400)
    indptr = np.concatenate(([0], np.cumsum(sizes))).astype(np.int32)
    indices = rng.integers(0, 120, size=indptr[-1]).astype(np.int32)
    signed_zero = np.flatnonzero(sizes <= 3)[:40]  # all members -0.0 rows
    for g in signed_zero:
        indices[indptr[g]:indptr[g + 1]] = rng.integers(0, 10, size=sizes[g])
    for g in np.setdiff1d(np.flatnonzero(sizes == 2), signed_zero)[:20]:  # x and -x
        j = rng.integers(10, 20)
        indices[indptr[g]:indptr[g + 1]] = (j, j + 10)
    data = np.ones(indptr[-1])
    if weighted:
        data = rng.uniform(size=indptr[-1])
        data[rng.random(indptr[-1]) < 0.1] = 0.0
    got = _product(indptr, indices, data, x)
    assert got.tobytes() == loop_sums(indptr, indices, data, x).tobytes()
    assert (got[signed_zero] == 0.0).all() and not np.signbit(got[signed_zero]).any()
    gathered = np.add.reduceat(x.take(indices, axis=0) * data[:, None], indptr[:-1], axis=0)
    assert np.signbit(gathered[signed_zero]).all()
    assert np.abs(got - gathered).max() <= 1e-14 * np.abs(gathered).max()


@pytest.mark.parametrize("width", [0, 1, 2, 9, 25])
@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_products_keep_the_bits_of_scipys_matrix_products(index_dtype, width):
    # The two products call SciPy's compiled kernel on the map's own
    # arrays, with no matrix built: the shape, dtype and bytes of
    # csr_matrix @ x and csc_matrix @ x over the same arrays, for empty rows,
    # output columns that no entry reaches (5 and 40-49), groups of -0.0 and
    # an x that is a strided view.
    rng = np.random.default_rng(48)
    sizes = rng.integers(0, 7, size=70)
    sizes[::6] = 0
    indptr = np.concatenate(([0], np.cumsum(sizes))).astype(index_dtype)
    indices = rng.integers(0, 40, size=indptr[-1]).astype(index_dtype)
    indices[indices == 5] = 6
    for g in range(1, 70, 5):  # rows that read only the -0.0 rows 0-3 of x
        indices[indptr[g]:indptr[g + 1]] = rng.integers(0, 4, size=sizes[g])
    for g in range(0, 70, 7):  # output 40 sums only the -0.0 rows of y
        indices[indptr[g]:indptr[g + 1]] = 40
    data = spread(rng, indptr[-1])
    data[::9] = 0.0
    for step in (1, 2):  # contiguous, then strided views
        x = spread(rng, (50, step * width))[:, ::step]
        y = spread(rng, (70, step * width))[:, ::step]
        x[:4] = -0.0
        y[::7] = -0.0
        for got, want in ((_product(indptr, indices, data, x),
                           sparse.csr_matrix((data, indices, indptr), shape=(70, 50)) @ x),
                          (_transposed_product(indptr, indices, data, y, 50),
                           sparse.csc_matrix((data, indices, indptr), shape=(50, 70)) @ y)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def test_products_refuse_a_short_map_before_the_kernel_reads_it(monkeypatch):
    # SciPy's O(1) checks stay: the kernel does not bounds-check, so a map
    # whose arrays disagree in length, or an x of the wrong row count, raises
    # ValueError and the kernel is never reached.
    import gha3d.geometry as geometry_mod

    reached = []

    class Kernels:
        def __getattr__(self, name):
            reached.append(name)
            raise AssertionError(name)

    monkeypatch.setattr(geometry_mod, "_sparsetools", Kernels())
    indptr, indices = np.array([0, 2, 4], np.int32), np.array([0, 1, 1, 0], np.int32)
    x = np.ones((2, 3))
    for args, match in (
            ((indptr, indices, np.ones(3)), "same size"),  # data shorter than indices
            ((np.array([0, 2, 5], np.int32), indices, np.ones(4)), "last value"),
            ((np.array([1, 2, 4], np.int32), indices, np.ones(4)), "start with 0"),
            ((np.zeros(0, np.int32), indices, np.ones(4)), "start with 0")):
        for product in (_product, lambda *a: _transposed_product(*a, 2)):
            with pytest.raises(ValueError, match=match):
                product(*args, x)
    with pytest.raises(ValueError, match="rows"):
        _transposed_product(indptr, indices, np.ones(4), np.ones((3, 3)), 2)
    assert reached == []


def loop_means(values, indptr, indices, loop_sums):
    """The pooling means by the one rule: each group's loop sum over its
    size, and each entry whose sum overflows summed again the same way over
    its terms scaled by the fixed power 2^-64, its mean scaled back by 2^64.
    Scaling by a power of two is exact while nothing turns subnormal, so
    this is the mean an unbounded exponent would give, whatever power the
    package picks."""
    sizes = np.diff(indptr)
    sums = loop_sums(indptr, indices, np.ones(len(indices)), values)
    means = sums / sizes[:, None]
    for i, c in zip(*np.nonzero(np.isinf(sums))):
        terms = values[indices[indptr[i]:indptr[i + 1]], c]
        scaled = loop_sums([0, sizes[i]], np.arange(sizes[i]), np.ones(sizes[i]),
                           np.ldexp(terms, -64))
        means[i, c] = np.ldexp(scaled[0] / sizes[i], 64)
    return means


def _pooling_structure(case):
    rng = np.random.default_rng(46)
    if case == "voxel":
        coords = np.unique(rng.integers(0, 12, size=(700, 3)) * [1, 1, 3], axis=0)
        pos = coords + rng.uniform(0.1, 0.9, size=coords.shape)
        return build_hierarchy(pos, *rand_qkv(rng, coords.shape[0], 3), flavor="voxel",
                               coords=coords)
    k = int(case[1:])
    pos = rng.normal(size=(300, 3))
    pos[100:200] = pos[:100]  # coincident tokens
    return build_hierarchy(pos, *rand_qkv(rng, 300, 3), flavor="point", k=k, r=2)


@pytest.mark.parametrize("case", ["k1", "k4", "k8", "k12", "voxel"])
def test_pooling_product_keeps_the_gathered_sums_bits(case, loop_sums):
    # Each coarse level's pooling, one product over its int32 map, gives
    # the bits of the loop oracle over the gathered members: level rows,
    # rows of -0.0 and zeros, and rows near the float64 limit, whose
    # overflowing sums are summed again scaled. Finite means stay within
    # 1e-14 of the gathered reduceat's.
    h = _pooling_structure(case)
    assert h.depth >= 2
    rng = np.random.default_rng(47)
    for fine, coarse in zip(h.levels, h.levels[1:]):
        indptr, indices = coarse.pool_indptr, coarse.pool_indices
        assert indptr.dtype == indices.dtype == np.int32
        n = fine.n_tokens
        signed = rng.normal(size=(n, 3))
        signed[rng.random((n, 3)) < 0.5] = -0.0
        signed[rng.random((n, 3)) < 0.2] = 0.0
        huge = np.full((n, 2), 1.5e308)
        huge[::3] = -1.5e308
        for values in (fine.positions, fine.v_tilde, signed, huge):
            want = loop_means(values, indptr, indices, loop_sums)
            got = segment_mean(values, indptr, indices)
            assert got.tobytes() == want.tobytes() == _pooled(values, indptr, indices).tobytes()
            with np.errstate(over="ignore", invalid="ignore"):
                gathered = (np.add.reduceat(values.take(indices, axis=0), indptr[:-1], axis=0)
                            / np.diff(indptr)[:, None])
            finite = np.isfinite(gathered)
            assert (np.abs(got[finite] - gathered[finite]).max(initial=0.0)
                    <= 1e-14 * np.abs(gathered[finite]).max(initial=0.0))
        assert np.isfinite(got).all()


def test_level_derives_its_product_maps_once():
    # Levels copied for new values, truncation or a parent map share the
    # maps: the topology the kernels multiply by, with its width classes,
    # and the pull-back map, which lists the pooling groups in the level's
    # order.
    h = _pooling_structure("k4")
    fresh = with_values(h, v=np.ones((300, 3)))
    for lv, fl in zip(h.levels, fresh.levels):
        assert fl.topology is lv.topology
        assert fl.pull_indptr is lv.pull_indptr and fl.pull_indices is lv.pull_indices
        assert fl.pool_indices is lv.pool_indices and fl.pool_indptr is lv.pool_indptr
        # One class, rows of k or of every token, over the map itself.
        (rows, edges, cols, width), = fl.topology.classes
        assert width == min(4, lv.n_tokens) and cols is lv.topology.indices
    assert h.levels[0].pull_indptr is None and h.levels[0].pull_indices is None
    coarse = h.levels[2]
    groups = [coarse.pool_indices[coarse.pool_indptr[i]:coarse.pool_indptr[i + 1]].tolist()
              for i in coarse.order]
    indptr, indices = coarse.pull_indptr, coarse.pull_indices
    assert indptr.dtype == indices.dtype == np.int32
    assert not indptr.flags.writeable and not indices.flags.writeable
    assert [indices[indptr[i]:indptr[i + 1]].tolist() for i in range(coarse.n_tokens)] == groups
    assert truncate(h, 2).levels[2].pull_indices is coarse.pull_indices


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


def _degenerate_cloud(case, rng):
    if case == "grid":
        g = np.stack(np.meshgrid(*[np.arange(4.0)] * 3, indexing="ij"), -1).reshape(-1, 3)
        return g[rng.permutation(64)]
    if case == "collinear":
        t = np.arange(60.0)
        return np.column_stack([t, 2.0 * t, -t])[rng.permutation(60)]
    if case == "signed_zeros":
        return rng.choice([-0.0, 0.0, 1.0, -1.0], size=(60, 3))
    return np.full((40, 3), 0.25)  # identical


@pytest.mark.parametrize("case", ["point", "point_duplicates", "voxel",
                                  "grid", "collinear", "signed_zeros", "identical"])
def test_pooling_map_reproduces_every_coarse_level(case):
    rng = np.random.default_rng(17)
    if case == "voxel":
        coords = np.unique(rng.integers(0, 8, size=(150, 3)), axis=0)
        coords = coords[rng.permutation(coords.shape[0])]
        q, k_mat, v = rand_qkv(rng, coords.shape[0], 3)
        builds = [build_hierarchy(coords + 0.5, q, k_mat, v, flavor="voxel", coords=coords)]
    elif case in ("point", "point_duplicates"):
        pos = rng.normal(size=(90, 3))
        if case == "point_duplicates":
            pos = pos[rng.integers(0, 12, size=90)]
        q, k_mat, v = rand_qkv(rng, 90, 3)
        builds = [build_hierarchy(pos, q, k_mat, v, flavor="point", k=5, r=2)]
    else:
        pos = _degenerate_cloud(case, rng)
        q, k_mat, v = rand_qkv(rng, pos.shape[0], 3)
        builds = [build_hierarchy(pos, q, k_mat, v, flavor="point", k=k, r=r)
                  for k, r in ((1, 2), (4, 3))]
    for h in builds:
        assert h.depth >= 2
        assert h.levels[0].pool_indptr is None
        for lev in range(h.depth):
            fine, coarse = h.levels[lev], h.levels[lev + 1]
            indptr, indices = coarse.pool_indptr, coarse.pool_indices
            assert not indptr.flags.writeable and not indices.flags.writeable
            if h.flavor == "point":  # one whole kNN row per group
                k = h.neighborhood_k
                assert np.array_equal(indptr, np.arange(coarse.n_tokens + 1) * k)
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


@pytest.mark.parametrize("case", ["bare_coarse", "wider_q", "wider_v"])
def test_hierarchy_rejects_levels_of_other_value_widths(small_point_hierarchy, case):
    # Every level holds level 0's q, k and v widths: a level with values
    # joined to a bare structure's coarse levels, or a coarse level of
    # other widths, is refused as it is made, not by numpy in a pass.
    h = small_point_hierarchy
    if case == "bare_coarse":
        bare = attention_structure(h.levels[0].positions, flavor="point", k=4)
        levels = dict(flavor=h.flavor, neighborhood_k=h.neighborhood_k,
                      coarsen_ratio=h.coarsen_ratio, levels=(h.levels[0], *bare.levels[1:]))
    else:
        lv = h.levels[2]
        name = "q_tilde" if case == "wider_q" else "v_tilde"
        wider = {name: np.hstack([getattr(lv, name)] * 2)}
        if case == "wider_q":
            wider["k_tilde"] = np.hstack([lv.k_tilde] * 2)
        levels = _swap_level(h, 2, **wider)
    with pytest.raises(InvalidInputError, match="level 0 holds 2 and 2"):
        Hierarchy(**levels)


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
    topo = NeighborhoodTopology(indptr=indptr, indices=indices)
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


def test_read_only_views_of_writeable_memory_are_copied():
    """A read-only view of a writeable array or buffer is copied, so writes
    through the base never reach the structure, its coarse levels or the
    embedding."""
    rng = np.random.default_rng(31)
    base, fbase = rng.uniform(size=(40, 3)), rng.normal(size=(2, 3))
    buffer = bytearray(rng.uniform(size=(40, 3)).tobytes())
    ro, fro = base.view(), fbase[:]
    ro.flags.writeable = fro.flags.writeable = False
    through_buffer = np.frombuffer(buffer).reshape(40, 3)
    through_buffer.flags.writeable = False
    q, k_mat, v = rand_qkv(rng, 40, 3)
    h = build_hierarchy(ro, q, k_mat, v, k=4, r=2)
    hb = build_hierarchy(through_buffer, q, k_mat, v, k=4, r=2)
    emb = FourierEmbedding(frequencies=fro)
    assert not np.shares_memory(h.levels[0].positions, base)
    assert not np.shares_memory(hb.levels[0].positions, through_buffer)
    assert not np.shares_memory(emb.frequencies, fbase)
    before = [dump_hierarchy(x) for x in (h, hb)]
    base[:] = 0.5
    buffer[:] = bytes(len(buffer))
    fbase[:] = 0.25
    assert [dump_hierarchy(x) for x in (h, hb)] == before
    assert not np.any(emb.frequencies == 0.25)


def test_a_callers_read_only_owner_is_copied():
    """A caller's array marked read-only is still writeable through a view
    made before it was marked (or once its owner's flag is set back), so it
    is copied: writes through such views never reach a structure, its
    values or an embedding."""
    rng = np.random.default_rng(49)
    owners = [rng.uniform(size=(40, 3)), *rand_qkv(rng, 40, 3), rng.normal(size=(40, 2)),
              rng.normal(size=(2, 3))]
    views = [a[:] for a in owners]
    for a in owners:
        a.flags.writeable = False
    pos, q, k_mat, v, v2, freqs = owners
    h = build_hierarchy(pos, q, k_mat, v, k=4, r=2)
    hw = with_values(h, v=v2)
    emb = FourierEmbedding(frequencies=freqs)
    stored = [h.levels[0].positions, h.levels[0].q_tilde, h.levels[0].k_tilde,
              h.levels[0].v_tilde, hw.levels[0].v_tilde, emb.frequencies]
    assert not any(np.shares_memory(a, b) for a, b in zip(stored, owners))
    before = [dump_hierarchy(h), *(a.copy() for a in stored),
              *(lv.v_tilde.copy() for lv in hw.levels)]
    for view in views:
        view[...] = 0.5
    owners[0].flags.writeable = True
    owners[0][...] = 0.25
    after = [dump_hierarchy(h), *stored, *(lv.v_tilde for lv in hw.levels)]
    assert before[0] == after[0]
    assert all(np.array_equal(a, b) for a, b in zip(before[1:], after[1:], strict=True))


def test_every_constructor_stores_read_only_copies_of_its_arrays():
    """Each constructor, and with_values for its new rows, stores a read-only
    copy of every array it is given, the package's own arrays too: nothing
    it stores shares memory with an argument."""
    rng = np.random.default_rng(50)
    h = build_hierarchy(rng.uniform(size=(300, 3)), *rand_qkv(rng, 300, 4), k=4, r=2)
    grid = voxelize(PointCloud(positions=h.levels[0].positions, features=h.levels[0].v_tilde),
                    0.1)
    hv = build_hierarchy(grid.cell_centroid, *rand_qkv(rng, grid.n_voxels, 4), flavor="voxel",
                         coords=grid.occupied)
    assert h.depth >= 2 and hv.depth >= 2
    cloud = PointCloud(positions=grid.cell_centroid, features=grid.cell_features)
    topology, emb = h.levels[1].topology, FourierEmbedding(frequencies=rng.normal(size=(2, 3)))
    level_0 = h.levels[0]
    inputs = AttentionInputs(level_0.q_tilde, level_0.k_tilde, level_0.v_tilde, level_0.positions)
    layer = init_params(BlockConfig(n_layers=1, model_dim=4, ffn_dim=6, n_heads=1)).layers[0]
    rows = ("q_tilde", "k_tilde", "v_tilde")
    level = ("positions", *rows, "parent_of", "pool_indptr", "pool_indices")
    cases = [
        (cloud, PointCloud(positions=cloud.positions, features=cloud.features),
         ("positions", "features")),
        (grid, SparseVoxelGrid(grid.voxel_size, grid.occupied, grid.cell_features,
                               grid.cell_centroid, grid.cell_count),
         ("occupied", "cell_features", "cell_centroid", "cell_count")),
        (topology, NeighborhoodTopology(indptr=topology.indptr, indices=topology.indices),
         ("indptr", "indices")),
        (h.levels[1], replace(h.levels[1]), (*level, "selected")),
        (hv.levels[1], replace(hv.levels[1]), (*level, "coords")),
        (emb, FourierEmbedding(frequencies=emb.frequencies), ("frequencies",)),
        (inputs, replace(inputs), ("q", "k", "v", "positions")),
        (layer, replace(layer), tuple(f.name for f in fields(layer))),
        (h.levels[0], with_values(h, *(getattr(h.levels[0], name) for name in rows)).levels[0],
         rows),
    ]
    for given, made, names in cases:
        for name in names:
            a, b = getattr(given, name), getattr(made, name)
            assert np.array_equal(a, b) and not b.flags.writeable, name
            assert not np.shares_memory(a, b), name


@pytest.mark.parametrize("flavor", ["point", "voxel"])
def test_a_structure_is_geometry_and_with_values_gives_it_values(flavor):
    """attention_structure's levels hold q, k and v of width 0, and
    build_hierarchy is with_values over it: the same arrays, bit for bit."""
    rng = np.random.default_rng(51)
    if flavor == "point":
        pos, coords = rng.uniform(size=(300, 3)), None
    else:
        coords = np.unique(rng.integers(0, 12, size=(400, 3)), axis=0)
        pos = coords + 0.5
    structure = attention_structure(pos, flavor=flavor, k=4, r=2, coords=coords)
    assert structure.depth >= 2
    for lv in structure.levels:
        assert lv.q_tilde.shape == lv.k_tilde.shape == lv.v_tilde.shape == (lv.n_tokens, 0)
    q, k_mat, v = rand_qkv(rng, pos.shape[0], 4)
    built = build_hierarchy(pos, q, k_mat, v, flavor=flavor, k=4, r=2, coords=coords)
    given = with_values(structure, q, k_mat, v)
    assert built.level_sizes() == given.level_sizes()
    for a, b in zip(built.levels, given.levels):
        for name in ("positions", "q_tilde", "k_tilde", "v_tilde", "parent_of", "selected",
                     "coords", "pool_indptr", "pool_indices", "order"):
            x, y = getattr(a, name), getattr(b, name)
            assert (x is None and y is None) or (
                x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()), name
        assert a.topology.indices.tobytes() == b.topology.indices.tobytes()
    # q and k share one width, so a structure's first values hold both.
    with pytest.raises(InvalidInputError):
        with_values(structure, q=q)


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
        elif isinstance(x, tuple):  # a derived sparse map: its arrays and flag
            out.update({f"{f.name}.{key}": a for key, a in x._asdict().items()})
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
    grid = voxelize(PointCloud(positions=np.array([[0.5, 0.5, 0.5], [1.5, 0.5, 0.5]])), 1.0)
    for bad_shape in ([1, 2, 3], [[1, 2], [3, 4]], grid):  # a grid is not its coordinates
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
