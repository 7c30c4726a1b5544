import itertools

import numpy as np
import pytest
import scipy.spatial
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from gha3d import geometry
from gha3d.errors import CapacityError, FormatError, InvalidInputError
from gha3d.geometry import (
    NeighborhoodTopology,
    PointCloud,
    deterministic_knn,
    farthest_point_sample,
    fps_from_positions,
    kernel_window_topology,
    knn,
    load_point_cloud,
    save_point_cloud_binary,
    voxelize,
)
from gha3d.hierarchy import build_hierarchy, segment_mean


# ---------------------------------------------------------------------------
# Brute-force oracles. These deliberately avoid kd-trees and vectorized
# shortcuts used by the implementation.
#
# Ties are defined on computed float64 squared distances, so the oracles use
# the package's squared-distance formula (an einsum over the coordinate
# differences). A BLAS dot product may round differently, for instance by
# fusing multiply-adds, and then splits ties the package keeps.
# ---------------------------------------------------------------------------

def _sq_dist(points, p):
    d = points - p
    return np.einsum("ij,ij->i", d, d)


def brute_knn(positions, k):
    """All-pairs squared distances, sorted by (d2, index), first k."""
    n = positions.shape[0]
    k = min(k, n)
    out = []
    for i in range(n):
        d2 = _sq_dist(positions, positions[i]).tolist()
        order = sorted(range(n), key=lambda j: (d2[j], j))
        out.append(order[:k])
    return out


def brute_fps(positions, m):
    n = positions.shape[0]
    # The start point is defined against the centroid summed in
    # lexicographic coordinate order, so it does not depend on input order.
    centroid = positions[np.lexsort(positions.T[::-1])].mean(axis=0)

    def d2(a, b):
        return float(_sq_dist(a[None, :], b)[0])

    def pick(scores, available):
        best = max(scores[i] for i in available)
        cands = [i for i in available if scores[i] == best]
        cands.sort(key=lambda i: (tuple(positions[i]), i))
        return cands[0]

    available = set(range(n))
    scores = {i: d2(positions[i], centroid) for i in range(n)}
    first = pick(scores, available)
    chosen = [first]
    available.discard(first)
    mind = {i: d2(positions[i], positions[first]) for i in range(n)}
    while len(chosen) < m:
        nxt = pick(mind, available)
        chosen.append(nxt)
        available.discard(nxt)
        for i in range(n):
            mind[i] = min(mind[i], d2(positions[i], positions[nxt]))
    return sorted(chosen)


def topo_as_lists(topo):
    return [list(topo.neighbors(i)) for i in range(topo.n_tokens)]


# ---------------------------------------------------------------------------
# kNN
# ---------------------------------------------------------------------------

def test_knn_collinear_example():
    # Five points on a line; ties at equal distance resolve to lower index.
    pos = np.array([[float(x), 0.0, 0.0] for x in range(5)])
    topo = knn(PointCloud(positions=pos), k=3)
    lists = topo_as_lists(topo)
    assert lists[0] == [0, 1, 2]
    assert lists[2] == [2, 1, 3]
    assert lists[4] == [4, 3, 2]


def test_knn_matches_bruteforce_random():
    rng = np.random.default_rng(2024)
    for trial in range(30):
        n = int(rng.integers(1, 40))
        k = int(rng.integers(1, 12))
        pos = rng.normal(size=(n, 3))
        topo = knn(PointCloud(positions=pos), k=k)
        assert topo_as_lists(topo) == brute_knn(pos, k)


def test_knn_matches_bruteforce_with_ties():
    # Grid data creates many exactly-equal distances.
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(2, 30))
        k = int(rng.integers(1, 10))
        pos = rng.integers(0, 3, size=(n, 3)).astype(np.float64)
        topo = knn(PointCloud(positions=pos), k=k)
        assert topo_as_lists(topo) == brute_knn(pos, k)


def test_knn_includes_self_and_caps_at_n():
    pos = np.random.default_rng(1).normal(size=(4, 3))
    topo = knn(PointCloud(positions=pos), k=9)
    for i in range(4):
        nb = list(topo.neighbors(i))
        assert nb[0] == i  # self is at distance zero
        assert sorted(nb) == [0, 1, 2, 3]


def test_knn_duplicate_points():
    pos = np.zeros((5, 3))
    topo = knn(PointCloud(positions=pos), k=3)
    assert topo_as_lists(topo) == brute_knn(pos, 3)
    assert list(topo.neighbors(4)) == [0, 1, 2]


@pytest.mark.parametrize("cloud", ["identical", "grouped"])
def test_knn_answers_each_position_once(cloud, monkeypatch):
    """8192 points at one position (or at 64 grid positions, 128 points
    each): every point of a group ties at the k-th place, and fetching the
    whole group as its ball made the kNN quadratic in the group size. Each
    distinct position is now queried once and stands for its first k
    points, so the ball candidates stay within N * k."""
    n, k = 8192, 8
    pos = np.zeros((n, 3))
    if cloud == "grouped":
        pos = np.random.default_rng(9).integers(0, 4, size=(64, 3)).astype(float)[np.arange(n) % 64]
    candidates = []

    class CountingTree(cKDTree):
        def query_ball_point(self, x, r, **kwargs):
            balls = super().query_ball_point(x, r, **kwargs)
            candidates.append(sum(map(len, balls)))
            return balls

    monkeypatch.setattr(scipy.spatial, "cKDTree", CountingTree)
    got = deterministic_knn(pos, pos, k)
    assert sum(candidates) <= n * k
    sample = np.random.default_rng(10).choice(n, size=32, replace=False)
    assert np.array_equal(got[sample], loop_knn(pos, pos[sample], k))
    assert np.array_equal(got, knn(PointCloud(positions=pos), k).indices.reshape(n, k))


def test_knn_rejects_bad_k():
    pc = PointCloud(positions=np.zeros((2, 3)))
    with pytest.raises(InvalidInputError):
        knn(pc, 0)


def test_knn_permutation_equivariance():
    """Relabeling the points relabels the neighbor lists, bit for bit."""
    rng = np.random.default_rng(99)
    pos = rng.normal(size=(25, 3))
    topo = knn(PointCloud(positions=pos), k=5)
    perm = rng.permutation(25)
    inv = np.argsort(perm)
    topo_p = knn(PointCloud(positions=pos[perm]), k=5)
    for i in range(25):
        orig = inv[np.asarray(topo.neighbors(perm[i]))]
        assert list(topo_p.neighbors(i)) == list(orig)


# ---------------------------------------------------------------------------
# Farthest point sampling
# ---------------------------------------------------------------------------

def test_fps_unit_square():
    pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    idx = farthest_point_sample(PointCloud(positions=pos), 2)
    # All four corners tie for the first pick; lexicographic order chooses
    # (0,0,0), and the opposite corner is then farthest.
    assert list(idx) == [0, 3]


def test_fps_matches_bruteforce_random():
    rng = np.random.default_rng(11)
    for trial in range(25):
        n = int(rng.integers(1, 30))
        m = int(rng.integers(1, n + 1))
        pos = rng.normal(size=(n, 3))
        got = farthest_point_sample(PointCloud(positions=pos), m)
        assert list(got) == brute_fps(pos, m)


def test_fps_matches_bruteforce_ties():
    rng = np.random.default_rng(13)
    for trial in range(15):
        n = int(rng.integers(2, 20))
        m = int(rng.integers(1, n + 1))
        pos = rng.integers(0, 2, size=(n, 3)).astype(np.float64)
        got = farthest_point_sample(PointCloud(positions=pos), m)
        assert list(got) == brute_fps(pos, m)


def test_fps_full_sample_is_identity_set():
    pos = np.random.default_rng(3).normal(size=(12, 3))
    idx = farthest_point_sample(PointCloud(positions=pos), 12)
    assert list(idx) == list(range(12))


def test_fps_output_sorted_and_unique():
    pos = np.random.default_rng(4).normal(size=(40, 3))
    idx = farthest_point_sample(PointCloud(positions=pos), 17)
    assert len(set(idx.tolist())) == 17
    assert list(idx) == sorted(idx.tolist())


def test_fps_rejects_bad_m():
    pc = PointCloud(positions=np.zeros((3, 3)))
    with pytest.raises(InvalidInputError):
        farthest_point_sample(pc, 0)
    with pytest.raises(InvalidInputError):
        farthest_point_sample(pc, 4)


# ---------------------------------------------------------------------------
# Loop oracles: the plain O(N*m) farthest-point loop and the per-query kNN
# loop that the kd-tree-pruned implementations replaced. Same arithmetic, so
# the outputs must match bit for bit.
# ---------------------------------------------------------------------------

def loop_fps(positions, m):
    """Every pick updates every point; ties go to the lexicographically
    smallest coordinates, then the lowest index."""

    def pick(values):
        best = values.max()
        cand = np.flatnonzero(values == best)
        p = positions[cand]
        return int(cand[np.lexsort((cand, p[:, 2], p[:, 1], p[:, 0]))[0]])

    canon = np.lexsort((positions[:, 2], positions[:, 1], positions[:, 0]))
    centroid = positions[canon].mean(axis=0)
    selected = [pick(_sq_dist(positions, centroid))]
    min_d2 = _sq_dist(positions, positions[selected[0]])
    min_d2[selected[0]] = -1.0
    for _ in range(m - 1):
        nxt = pick(min_d2)
        selected.append(nxt)
        np.minimum(min_d2, _sq_dist(positions, positions[nxt]), out=min_d2)
        min_d2[nxt] = -1.0
    return np.array(sorted(selected), dtype=np.int64)


def loop_knn(points, queries, k):
    """Per query: the kd-tree's k nearest, or every point in the ball of the
    k-th distance when a tie may straddle the k-th place; then the first k
    by (squared distance, index)."""
    n = points.shape[0]
    k = min(k, n)
    tree = cKDTree(points)
    kq = min(k + 1, n)
    dist, idx = tree.query(queries, k=kq)
    if kq == 1:
        dist, idx = dist[:, None], idx[:, None]
    rows = []
    for qi, q in enumerate(queries):
        if kq > k and dist[qi, k] <= dist[qi, k - 1] * (1.0 + 1e-12):
            cand = np.asarray(tree.query_ball_point(q, dist[qi, k - 1] * (1.0 + 1e-9)), dtype=np.int64)
        else:
            cand = idx[qi, :k].astype(np.int64)
        rows.append(cand[np.lexsort((cand, _sq_dist(points[cand], q)))[:k]])
    return np.array(rows, dtype=np.int64).reshape(len(queries), k)


def loop_parent_of(positions, selected):
    parent = loop_knn(positions[selected], positions, 1)[:, 0]
    parent[selected] = np.arange(selected.shape[0])
    return parent


def _scene(rng, n):
    """Floor z=0 and wall x=0 over the unit square plus a sphere, stored as
    float32 values: planar ties and repeated coordinates, as in scans."""
    part = rng.choice(3, size=n, p=[0.4, 0.4, 0.2])
    uv = rng.uniform(0.0, 1.0, size=(n, 2))
    out = np.empty((n, 3))
    floor, wall, ball = part == 0, part == 1, part == 2
    out[floor] = np.column_stack([uv[floor], np.zeros(floor.sum())])
    out[wall] = np.column_stack([np.zeros(wall.sum()), uv[wall]])
    d = rng.normal(size=(int(ball.sum()), 3))
    out[ball] = np.array([0.55, 0.5, 0.3]) + 0.2 * d / np.linalg.norm(d, axis=1, keepdims=True)
    return out.astype(np.float32).astype(np.float64)


def _oracle_cloud(name):
    rng = np.random.default_rng(20231)
    if name == "uniform":
        return rng.uniform(size=(4096, 3))
    if name == "scene":
        return _scene(rng, 4096)
    if name == "distinct10":
        base = _scene(rng, 410)
        return base[rng.integers(0, base.shape[0], size=4096)]
    if name == "near_duplicates":
        # Clusters 1e-12 wide in a unit cloud: late FPS balls are tiny next
        # to the kd-tree's extent.
        base = rng.uniform(size=(200, 3))
        return base[rng.integers(0, 200, size=2000)] + rng.normal(size=(2000, 3)) * 1e-12
    if name == "identical":
        return np.full((300, 3), 0.25)
    if name == "collinear":
        t = np.arange(600, dtype=np.float64)
        return np.column_stack([t, 2.0 * t, -t])[rng.permutation(600)]
    if name == "coplanar_grid":
        g = np.stack(np.meshgrid(np.arange(24.0), np.arange(24.0), [3.0], indexing="ij"), -1)
        return g.reshape(-1, 3)[rng.permutation(576)]
    if name == "signed_zeros":
        return rng.choice([-0.0, 0.0, 1.0, -1.0], size=(500, 3))
    if name == "cubic_grid":
        # Whole runs of equal min-distances: the batches' tie runs at the
        # candidate threshold are capped.
        g = np.stack(np.meshgrid(*[np.arange(12.0)] * 3, indexing="ij"), -1)
        return g.reshape(-1, 3)[rng.permutation(1728)]
    if name == "small":  # fewer tokens than one batch weighs
        return rng.normal(size=(40, 3))
    raise ValueError(name)


ORACLE_CLOUDS = [
    "uniform", "scene", "distinct10", "near_duplicates",
    "identical", "collinear", "coplanar_grid", "signed_zeros", "cubic_grid", "small",
]


def _assert_matches_loop_oracles(pos):
    n = pos.shape[0]
    for m in sorted({1, 2, n}):  # the builds below cover m = n/2 and n/3
        assert np.array_equal(fps_from_positions(pos, m), loop_fps(pos, m)), m
    for k in (1, 8):
        got = deterministic_knn(pos, pos, k)
        assert got.dtype == np.int64 and got.shape == (n, min(k, n))
        assert np.array_equal(got, loop_knn(pos, pos, k)), k
    # The point hierarchies' samples, parent maps and topologies, level by
    # level; the sample of FPS on its own equals the build's.
    for k, r in ((8, 2), (4, 3)):
        h = build_hierarchy(pos, np.zeros((n, 1)), np.zeros((n, 1)), np.zeros((n, 1)), k=k, r=r)
        for fine, coarse in zip(h.levels[:-1], h.levels[1:]):
            m = coarse.n_tokens
            assert np.array_equal(coarse.selected, loop_fps(fine.positions, m)), (k, r)
            assert np.array_equal(fps_from_positions(fine.positions, m), coarse.selected)
            assert np.array_equal(fine.parent_of, loop_parent_of(fine.positions, coarse.selected))
        for lv in h.levels:
            want = loop_knn(lv.positions, lv.positions, k).ravel()
            assert np.array_equal(lv.topology.indices, want), (k, r)


@pytest.mark.parametrize("name", ORACLE_CLOUDS)
def test_fps_knn_parents_match_loop_oracles(name):
    _assert_matches_loop_oracles(_oracle_cloud(name))


@pytest.mark.parametrize("name", ["uniform", "distinct10", "cubic_grid", "small"])
def test_fps_batches_match_loop_oracles_with_small_blocks(name, monkeypatch):
    """Blocks of 4 entries and batches of 8 candidates: levels of a few
    thousand tokens then take candidates from the top block maxima, whose
    ties at the cut leave later blocks out, as 128 x 64 does past 8192
    distinct positions."""
    monkeypatch.setattr(geometry, "_FPS_BLOCK", 4)
    monkeypatch.setattr(geometry, "_FPS_BATCH", 8)
    _assert_matches_loop_oracles(_oracle_cloud(name))


@pytest.mark.parametrize("name, block, batch", [
    ("uniform", 4, 8), ("scene", 128, 64), ("distinct10", 4, 8), ("cubic_grid", 128, 64),
    ("signed_zeros", 4, 8), ("small", 4, 8),
])
def test_fps_dense_updates_in_chunks_match_loop_oracles(name, block, batch, monkeypatch):
    """A batch's dense picks update every position in one pass per chunk.
    With chunks of 3 picks on the cloud's own positions (coarser levels
    take more), samples and parent maps still equal the per-pick loop's."""
    pos = _oracle_cloud(name)
    distinct = np.unique(pos, axis=0).shape[0]
    monkeypatch.setattr(geometry, "_FPS_DENSE_CHUNK", 3 * distinct)
    monkeypatch.setattr(geometry, "_FPS_BLOCK", block)
    monkeypatch.setattr(geometry, "_FPS_BATCH", batch)
    chunks = []
    update = geometry._fps_dense_update

    def spy(cols, picks, *args):
        if cols.shape[1] == distinct:
            chunks.append(picks.shape[0])
        return update(cols, picks, *args)

    monkeypatch.setattr(geometry, "_fps_dense_update", spy)
    _assert_matches_loop_oracles(pos)
    assert max(chunks) > 3  # some batch had more dense picks than one chunk


@pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e-150, 1e-100, 1.0, 1e100, 1e150])
def test_squared_distances_equal_the_einsum_bitwise(scale):
    """The explicit (dx*dx + dz*dz) + dy*dy is einsum's sum of a row of
    three, bit for bit, from underflow to near overflow, on the shapes FPS
    and the kNN use: one point against many, 64 x 64 candidates, (rows, k)
    candidates per query, and (picks, positions) on coordinate columns."""
    rng = np.random.default_rng(81)
    pts = rng.normal(size=(2000, 3)) * rng.uniform(0.5, 2.0, size=(2000, 1)) * scale

    def einsum(a, b):
        d = a - b
        return _sq_dist(d.reshape(-1, 3), 0.0).reshape(d.shape[:-1])

    cand = pts[rng.integers(0, 2000, size=(300, 8))]
    for a, b, shape in ((pts, pts[7], (2000,)), (pts[:64, None], pts[:64], (64, 64)),
                        (cand, pts[:300, None], (300, 8))):
        got = geometry._squared_dist_to(a, b)
        assert got.shape == shape
        assert got.tobytes() == einsum(a, b).tobytes()
    cols = np.ascontiguousarray(pts.T)
    got = geometry._squared_dist_cols(cols[:, None], cols[:, :40, None])
    assert got.shape == (40, 2000)
    assert got.tobytes() == einsum(pts, pts[:40, None]).tobytes()


@pytest.mark.parametrize("seed", range(30))
def test_fps_candidates_are_the_top_entries_and_bound_the_rest(seed, monkeypatch):
    """A batch's candidates are the top entries by (-value, index), picked
    (-1) ones left out, and every other entry lies below the bound or at it
    from ``first_out`` on, also where a block tied at the cut is left out."""
    monkeypatch.setattr(geometry, "_FPS_BATCH", 5)
    rng = np.random.default_rng(seed)
    blocks = rng.integers(-1, 4, size=(12, 4)).astype(float)
    cand, bound, first_out = geometry._fps_candidates(blocks, blocks.max(axis=1))
    flat = blocks.ravel().tolist()
    top = sorted(range(len(flat)), key=lambda i: (-flat[i], i))[:5]
    assert cand.tolist() == sorted(i for i in top if flat[i] >= 0)
    for i, value in enumerate(flat):
        if i not in top and value >= 0:
            assert value < bound or (value == bound and i >= first_out), (i, value)


@pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e-155, 1e-150, 1e-100, 1e-10, 1e10, 1e100, 1e150])
def test_fps_knn_parents_match_loop_oracles_at_extreme_scales(scale):
    # Near 1e-160 every squared-distance term is subnormal, at 1e-170 they
    # all underflow to 0; at 1e150 they approach the float64 maximum.
    pos = np.random.default_rng(77).uniform(-1.0, 1.0, size=(1000, 3)) * scale
    _assert_matches_loop_oracles(pos)


def test_fps_updates_points_just_inside_the_pick_radius():
    # Picks go F (far outlier), S, then P: P and X tie at squared distance
    # 65^2 from S and P is lexicographically smaller. X lies 0.992*65 from
    # P, so P's update must lower X to 4160, below Y's 4200, and Y comes
    # next. A ball even 1% too small would leave X at 4225 and pick it.
    pos = np.array([
        [-10000.0, 0.0, 0.0],  # F
        [0.0, 0.0, 0.0],  # S
        [-65.0, 0.0, 0.0],  # P
        [-33.0, 56.0, 0.0],  # X
        [-30.0, -np.sqrt(3300.0), 0.0],  # Y
    ])
    assert list(fps_from_positions(pos, 4)) == [0, 1, 2, 4] == brute_fps(pos, 4)


@pytest.mark.parametrize("name", ["uniform", "scene", "coplanar_grid"])
def test_fps_relabels_under_permutation(name):
    # Distinct positions: the tie rule never reaches the index, so the
    # sample of a permuted cloud is exactly the relabeled sample.
    pos = _oracle_cloud(name)
    n = pos.shape[0]
    perm = np.random.default_rng(5).permutation(n)
    inv = np.argsort(perm)
    for m in (1, 2, n // 3, n // 2):
        want = np.sort(inv[fps_from_positions(pos, m)])
        assert np.array_equal(fps_from_positions(pos[perm], m), want)


@pytest.mark.parametrize("scale", [1e154, 1e160])
def test_huge_coordinates_rejected(scale):
    pos = np.random.default_rng(3).uniform(size=(50, 3)) * scale
    cloud = PointCloud(positions=pos)
    with pytest.raises(InvalidInputError):
        knn(cloud, 4)
    with pytest.raises(InvalidInputError):
        farthest_point_sample(cloud, 10)
    with pytest.raises(InvalidInputError):
        build_hierarchy(pos, np.zeros((50, 1)), np.zeros((50, 1)), np.zeros((50, 1)), k=4)


def test_far_translated_cloud_accepted():
    # The limit is on squared distances, not on coordinates: a small cloud
    # far from the origin is fine.
    pos = np.random.default_rng(4).uniform(size=(200, 3)) + 1e200
    assert np.array_equal(fps_from_positions(pos, 50), loop_fps(pos, 50))
    assert np.array_equal(deterministic_knn(pos, pos, 8), loop_knn(pos, pos, 8))


_coordinate = st.one_of(
    st.integers(-3, 3).map(float),
    st.sampled_from([-0.0, 0.0, 0.5, -0.5, 1e-3, 2.0**-30]),
)


@st.composite
def degenerate_clouds(draw):
    """Small clouds with duplicates, integer grids and mixed scales: rows are
    drawn from a handful of grid points, some rows scaled by a power of ten,
    then the whole cloud by one of 1, 1e-160 (subnormal products) or 1e100."""
    n = draw(st.integers(1, 24))
    pool = draw(st.lists(st.tuples(_coordinate, _coordinate, _coordinate), min_size=1, max_size=n))
    rows = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    scales = draw(st.lists(st.sampled_from([1.0, 1.0, 1e-8, 1e3, 1e-150]), min_size=n, max_size=n))
    return np.array(rows, dtype=np.float64) * np.array(scales)[:, None] * draw(
        st.sampled_from([1.0, 1e-160, 1e100])
    )


@settings(max_examples=200, deadline=None)
@given(pos=degenerate_clouds(), data=st.data())
def test_fps_and_knn_match_brute_force_on_degenerate_clouds(pos, data):
    n = pos.shape[0]
    m = data.draw(st.integers(1, n), label="m")
    k = data.draw(st.integers(1, n + 1), label="k")
    assert list(fps_from_positions(pos, m)) == brute_fps(pos, m)
    assert deterministic_knn(pos, pos, k).tolist() == brute_knn(pos, k)


# ---------------------------------------------------------------------------
# Voxelization
# ---------------------------------------------------------------------------

def brute_voxel_cells(positions, voxel_size):
    cells = {}
    for i in range(positions.shape[0]):
        c = tuple(int(np.floor(positions[i, a] / voxel_size)) for a in range(3))
        cells.setdefault(c, []).append(i)
    return cells


def test_voxelize_octants():
    # 1000 points spread over the 8 octants of [-1,1)^3 with voxel size 1.
    rng = np.random.default_rng(42)
    pos = rng.uniform(-1.0, 1.0, size=(1000, 3))
    grid = voxelize(PointCloud(positions=pos), 1.0)
    cells = brute_voxel_cells(pos, 1.0)
    assert grid.n_voxels == len(cells)
    assert int(grid.cell_count.sum()) == 1000
    key_order = sorted(cells.keys())
    assert [tuple(v) for v in grid.occupied] == key_order
    for row, c in enumerate(key_order):
        members = cells[c]
        assert grid.cell_count[row] == len(members)
        np.testing.assert_allclose(grid.cell_centroid[row], pos[members].mean(axis=0), atol=1e-12)


def test_voxelize_means_and_features():
    pos = np.array([[0.1, 0.1, 0.1], [0.4, 0.2, 0.3], [1.5, 0.0, 0.0]])
    feats = np.array([[1.0, 0.0], [3.0, 2.0], [5.0, 5.0]])
    grid = voxelize(PointCloud(positions=pos, features=feats), 1.0)
    assert grid.n_voxels == 2
    assert tuple(grid.occupied[0]) == (0, 0, 0)
    np.testing.assert_allclose(grid.cell_features[0], [2.0, 1.0])
    np.testing.assert_allclose(grid.cell_centroid[0], [0.25, 0.15, 0.2])
    assert tuple(grid.occupied[1]) == (1, 0, 0)


def test_voxelize_negative_coords_floor():
    # floor(-0.5 / 1) = -1, not 0: the cell boundary behavior must be floor.
    pos = np.array([[-0.5, 0.0, 0.0], [0.5, 0.0, 0.0]])
    grid = voxelize(PointCloud(positions=pos), 1.0)
    assert [tuple(v) for v in grid.occupied] == [(-1, 0, 0), (0, 0, 0)]


def test_voxelize_permutation_invariant_bits():
    rng = np.random.default_rng(8)
    pos = rng.normal(size=(200, 3))
    feats = rng.normal(size=(200, 4))
    g1 = voxelize(PointCloud(positions=pos, features=feats), 0.7)
    perm = rng.permutation(200)
    g2 = voxelize(PointCloud(positions=pos[perm], features=feats[perm]), 0.7)
    assert np.array_equal(g1.occupied, g2.occupied)
    assert np.array_equal(g1.cell_features, g2.cell_features)  # bitwise
    assert np.array_equal(g1.cell_centroid, g2.cell_centroid)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("width", [0, 5])
def test_voxelize_means_are_segment_means_over_its_cells(seed, width):
    """Each cell's centroid and features are ``segment_mean`` over its
    points in (x, y, z, index) order, bit for bit: the package's one pooling
    mean, for sorted and shuffled input. Features spread over 16 decades and
    coincident points with different features make any other order show."""
    rng = np.random.default_rng(900 + seed)
    n = int(rng.integers(1, 400))
    pos = rng.uniform(-2.0, 2.0, size=(n, 3)) * 10.0 ** rng.integers(-3, 4)
    pos[rng.random(n) < 0.2] = pos[0]  # coincident points: ties go by index
    feats = rng.normal(size=(n, width)) * 10.0 ** rng.integers(-8, 9, size=(n, width))
    voxel_size = float(np.abs(pos).max() or 1.0) / rng.integers(1, 5)
    for order in (np.lexsort(pos.T[::-1]), rng.permutation(n)):
        p, f = pos[order], feats[order]
        grid = voxelize(PointCloud(positions=p, features=f if width else None), voxel_size)
        cells = brute_voxel_cells(p, voxel_size)
        members = [sorted(cells[tuple(c)], key=lambda i: (*p[i], i)) for c in grid.occupied]
        indptr = np.cumsum([0] + [len(m) for m in members])
        indices = np.concatenate(members)
        assert grid.cell_centroid.tobytes() == segment_mean(p, indptr, indices).tobytes()
        assert grid.cell_features.shape == (grid.n_voxels, width)
        assert grid.cell_features.tobytes() == segment_mean(f, indptr, indices).tobytes()


def test_voxelize_averages_finite_points_near_the_float_limit():
    # Two finite points of one cell used to overflow the cell's sum, and
    # voxelize raised InvalidInputError on its own non-finite centroid.
    pos = np.array([[1.75000002e308, -1.75000002e308, 1.0],
                    [1.75000005e308, -1.75000005e308, 2.0]])
    feats = np.full((2, 3), 1.7e308)
    grid = voxelize(PointCloud(positions=pos, features=feats), 1e303)
    assert grid.n_voxels == 1 and grid.cell_count.tolist() == [2]
    np.testing.assert_allclose(grid.cell_centroid, [[1.750000035e308, -1.750000035e308, 1.5]],
                               rtol=1e-15)
    assert grid.cell_features.tolist() == [[1.7e308] * 3]


def test_voxelize_averages_a_cell_of_negative_zeros_to_plus_zero():
    # Each cell sums from +0.0, as every pooling does; reduceat kept -0.0.
    pos = np.array([[-0.0, -0.0, -0.0], [-0.0, -0.0, -0.0], [1.5, -0.0, 0.5]])
    feats = np.array([[-0.0, 1.0], [-0.0, -1.0], [-0.0, -0.0]])
    grid = voxelize(PointCloud(positions=pos, features=feats), 1.0)
    assert grid.cell_centroid.tolist() == [[0.0, 0.0, 0.0], [1.5, 0.0, 0.5]]
    assert not np.signbit(grid.cell_centroid).any()
    assert not np.signbit(grid.cell_features).any()


def test_voxelize_rejects_bad_size():
    pc = PointCloud(positions=np.zeros((1, 3)))
    with pytest.raises(InvalidInputError):
        voxelize(pc, 0.0)


def test_voxelize_rejects_out_of_range():
    pc = PointCloud(positions=np.array([[3.0e6, 0.0, 0.0]]))
    with pytest.raises(InvalidInputError):
        voxelize(pc, 1.0)


@pytest.mark.parametrize("x", [1e300, -1e300, 2.0**63, -(2.0**63), 2.0**20, -(2.0**20)])
def test_voxelize_rejects_coordinates_past_the_range_before_casting(x):
    # floor(x / size) past int64 used to wrap in the cast: 1e300 landed in
    # cell (0, 0, 0) and -1e300 became coordinate -2^63.
    pc = PointCloud(positions=np.array([[0.0, 0.0, 0.0], [x, 0.0, 0.0]]))
    with pytest.raises(InvalidInputError):
        voxelize(pc, 1.0)
    with pytest.raises(InvalidInputError):  # quotients far past int64, or inf
        voxelize(PointCloud(positions=np.array([[0.0, x, 1.0]])), 1e-300)


@pytest.mark.parametrize("c", [2**20 - 1, -(2**20 - 1)])
def test_voxel_range_limits_stay_accepted(c):
    grid = voxelize(PointCloud(positions=np.array([[c + 0.5, 0.0, c + 0.5]])), 1.0)
    np.testing.assert_array_equal(grid.occupied, [[c, 0, c]])
    topo = kernel_window_topology(np.array([[c, 0, 0], [c, 0, 1], [0, c, 0]]))
    assert topo_as_lists(topo) == [[0, 1], [0, 1], [2]]
    # Window steps from these cells carry z into y, carry y into x, or push x
    # past the sign bit of the packed key; each pair sits next to the other
    # in key order without being window neighbors.
    s = 1 if c > 0 else -1
    coords = np.array([[0, 0, c], [0, s, -c], [0, s, -c + s], [5, c, 5], [5 + s, -c, 5],
                       [c, c, c], [c, c, c - s], [-c, -c, -c], [c, -c, 0], [c - s, -c, 0]])
    for cells in (coords, coords[::-1], coords[np.random.default_rng(3).permutation(10)]):
        assert topo_as_lists(kernel_window_topology(cells)) == brute_window(cells)


@pytest.mark.parametrize("c", [2**20, -(2**20), 2**63 - 1, -(2**63)])
def test_window_rejects_coordinates_past_the_range(c):
    # np.abs(-2^63) wraps to -2^63, which used to pass the range check and
    # yield a topology without the cell's self edge.
    with pytest.raises(InvalidInputError):
        kernel_window_topology(np.array([[c, 0, 0]], dtype=np.int64))
    with pytest.raises(InvalidInputError):
        kernel_window_topology(np.array([[0, 0, 0], [0, 0, c]], dtype=np.int64))


# ---------------------------------------------------------------------------
# 3x3x3 kernel window
# ---------------------------------------------------------------------------

def brute_window(coords):
    """Each cell's window neighbors, listed by ascending cell coordinates."""
    cells = [tuple(int(x) for x in c) for c in coords]
    out = []
    for c in cells:
        nb = [j for j, other in enumerate(cells) if max(abs(a - b) for a, b in zip(c, other)) <= 1]
        out.append(sorted(nb, key=lambda j: cells[j]))
    return out


def test_window_full_block():
    coords = np.array([[x, y, z] for x in range(3) for y in range(3) for z in range(3)])
    topo = kernel_window_topology(coords)
    sizes = topo.sizes
    # center voxel (1,1,1) sees all 27, corners see 8
    center = [i for i, c in enumerate(coords) if tuple(c) == (1, 1, 1)][0]
    assert sizes[center] == 27
    corner = [i for i, c in enumerate(coords) if tuple(c) == (0, 0, 0)][0]
    assert sizes[corner] == 8
    assert topo_as_lists(topo) == brute_window(coords)


def test_window_matches_bruteforce_random():
    rng, shuffle = np.random.default_rng(55), np.random.default_rng(57)
    for trial in range(15):
        n = int(rng.integers(1, 60))
        coords = np.unique(rng.integers(-4, 4, size=(n, 3)), axis=0)
        # sort lexicographically as voxelize would produce them
        order = np.lexsort((coords[:, 2], coords[:, 1], coords[:, 0]))
        coords = coords[order]
        topo = kernel_window_topology(coords)
        assert topo_as_lists(topo) == brute_window(coords)
        shuffled = coords[shuffle.permutation(coords.shape[0])]
        assert topo_as_lists(kernel_window_topology(shuffled)) == brute_window(shuffled)


@pytest.mark.parametrize("seed", range(4))
def test_window_matches_bruteforce_at_the_range_limits(seed):
    """Seeded grids in shuffled cell order around corners, edges and faces
    of the +/-(2^20 - 1) range, where window steps leave a packed field."""
    rng = np.random.default_rng(seed)
    b = 2**20 - 1
    around = rng.choice([-b, -b + 1, 0, b - 1, b], size=(8, 3))
    coords = np.unique(np.clip(around[:, None] + rng.integers(-2, 3, size=(8, 20, 3)), -b, b)
                       .reshape(-1, 3), axis=0)
    coords = coords[rng.permutation(coords.shape[0])]
    assert topo_as_lists(kernel_window_topology(coords)) == brute_window(coords)


def probe_window(keys, order=None):
    """The 27-probe window rule: every cell's key plus each (dx, dy, dz)
    step, in lexicographic step order, searched for among the sorted keys."""
    steps = np.array([(dx << 42) + (dy << 21) + dz
                      for dx, dy, dz in itertools.product((-1, 0, 1), repeat=3)], dtype=np.int64)
    sorted_keys = keys if order is None else keys[order]
    probe = keys[:, None] + steps
    loc = np.minimum(np.searchsorted(sorted_keys, probe), keys.shape[0] - 1)
    hit = sorted_keys[loc] == probe
    indptr = np.concatenate(([0], np.cumsum(hit.sum(axis=1), dtype=np.int64)))
    return indptr, loc[hit] if order is None else order[loc[hit]]


@pytest.mark.parametrize("seed", range(8))
def test_window_column_search_equals_the_27_probe_rule(seed):
    # One search per (dx, dy) column, none for the cell's own, gives the
    # probes' rows in their order: on dense small grids, on grids around the
    # +/-(2^20 - 1) corners (where steps carry between packed fields or pass
    # the sign bit) and on sparse grids over the whole range, with the cells
    # in key order (as coarse levels pass them) and shuffled.
    rng = np.random.default_rng(seed)
    b = 2**20 - 1
    for trial in range(50):
        n = int(rng.integers(1, 300))
        kind = trial % 3
        if kind == 0:
            cells = rng.integers(-3, 4, size=(n, 3))
        elif kind == 1:
            cells = rng.choice([-b, -b + 1, -1, 0, 1, b - 1, b], size=(n, 3))
            cells += rng.integers(-1, 2, size=(n, 3))
        else:
            cells = rng.integers(-b, b + 1, size=(n, 3))
        cells = np.unique(np.clip(cells, -b, b), axis=0)
        keys = geometry.pack_voxel_coords(cells)
        sorted_keys = np.sort(keys)
        shuffled = keys[rng.permutation(keys.shape[0])]
        for got, want in ((geometry._window_topology(sorted_keys), probe_window(sorted_keys)),
                          (kernel_window_topology(cells), probe_window(keys, np.argsort(keys))),
                          (geometry._window_topology(shuffled, np.argsort(shuffled)),
                           probe_window(shuffled, np.argsort(shuffled)))):
            np.testing.assert_array_equal(got.indptr, want[0])
            np.testing.assert_array_equal(got.indices, want[1])


def test_window_isolated_voxels():
    coords = np.array([[0, 0, 0], [10, 10, 10]])
    topo = kernel_window_topology(coords)
    assert topo_as_lists(topo) == [[0], [1]]


def test_window_accepts_unsorted_cells():
    # Same sets as on sorted input; rows ordered by neighbor cell coords.
    rng = np.random.default_rng(56)
    for _ in range(10):
        coords = np.unique(rng.integers(-4, 4, size=(40, 3)), axis=0)
        shuffled = coords[rng.permutation(coords.shape[0])]
        got = topo_as_lists(kernel_window_topology(shuffled))
        assert got == brute_window(shuffled)
        assert all(i in row for i, row in enumerate(got))


def test_window_rejects_duplicate_cells():
    dup = np.array([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    with pytest.raises(InvalidInputError):
        kernel_window_topology(dup)


def test_topology_rows_name_each_edges_token(every_width_cells):
    # A topology holds its map once, as read-only int32 arrays, and its rows
    # in width classes that split the rows and the edges exactly: a class's
    # rows (ascending) each hold its width of entries, at its edges, in
    # entry order, and its cols are those entries. One width is one class of
    # slices over the map itself, so nothing is copied.
    rng = np.random.default_rng(6)
    coords = np.unique(rng.integers(0, 4, size=(30, 3)), axis=0)
    cases = ((kernel_window_topology(coords), None),
             (kernel_window_topology(every_width_cells), list(range(1, 28))),
             (knn(PointCloud(rng.normal(size=(40, 3))), 5), [5]),
             (NeighborhoodTopology(indptr=[0, 2, 3, 4], indices=[0, 2, 2, 1]), [1, 2]),
             (NeighborhoodTopology(indptr=[0, 2, 4], indices=[0, 1, 1, 0]), [2]),
             (NeighborhoodTopology(indptr=[0], indices=np.zeros(0, np.int64)), []))
    for topo, widths in cases:
        for a in (topo.indptr, topo.indices):
            assert a.dtype == np.int32 and not a.flags.writeable
        got = [width for *_, width in topo.classes]
        assert got == sorted(set(topo.sizes.tolist())) == (got if widths is None else widths)
        if len(topo.classes) == 1:
            rows, edges, cols, width = topo.classes[0]
            assert (rows, edges) == (slice(0, topo.n_tokens), slice(0, topo.total_edges))
            assert cols is topo.indices
            continue
        want_edges = []
        for rows, edges, cols, width in topo.classes:
            for a in (rows, edges, cols):
                assert a.dtype == np.int32 and not a.flags.writeable
            assert np.all(np.diff(rows) > 0) and np.all(topo.sizes[rows] == width)
            rows_edges = [e for i in rows for e in range(topo.indptr[i], topo.indptr[i + 1])]
            assert edges.tolist() == rows_edges
            assert np.array_equal(cols, topo.indices[edges])
            want_edges += rows_edges
        all_rows = [i for rows, *_ in topo.classes for i in rows.tolist()]
        assert sorted(all_rows) == list(range(topo.n_tokens))
        assert sorted(want_edges) == list(range(topo.total_edges))


def test_sparse_maps_of_2_31_entries_or_tokens_are_refused():
    # int32 maps hold fewer than 2^31 entries and tokens: zero-stride views
    # stand in for the large maps, and the check reads none of their entries.
    big = np.broadcast_to(np.int32(0), (2**31,))
    with pytest.raises(CapacityError, match="fewer than 2"):
        NeighborhoodTopology(indptr=[0, 2**31], indices=big)
    with pytest.raises(CapacityError):
        NeighborhoodTopology(indptr=np.broadcast_to(np.int64(1), (2**31 + 1,)), indices=[0])
    with pytest.raises(CapacityError):
        segment_mean(np.ones((2, 1)), [0, 2**31], big)
    NeighborhoodTopology(indptr=[0, 1], indices=big[:1])


def test_window_from_grid():
    rng = np.random.default_rng(5)
    pos = rng.uniform(0, 3, size=(50, 3))
    grid = voxelize(PointCloud(positions=pos), 1.0)
    topo = kernel_window_topology(grid.occupied)
    assert topo.n_tokens == grid.n_voxels
    assert topo_as_lists(topo) == brute_window(grid.occupied)


# ---------------------------------------------------------------------------
# Point cloud I/O
# ---------------------------------------------------------------------------

def test_text_round_trip(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text(
        "# a comment line\n"
        "0 0 0 1.5 2.5\n"
        "1.0 2.0 3.0 -1 0.25  # trailing comment\n"
        "\n"
    )
    pc = load_point_cloud(p)
    np.testing.assert_allclose(pc.positions, [[0, 0, 0], [1, 2, 3]])
    np.testing.assert_allclose(pc.features, [[1.5, 2.5], [-1, 0.25]])


def test_text_positions_only(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("1 2 3\n4 5 6\n")
    pc = load_point_cloud(p)
    assert pc.features is None
    assert pc.n_points == 2


def test_text_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1 2\n")
    with pytest.raises(FormatError):
        load_point_cloud(p)
    p.write_text("1 2 3\n1 2 3 4\n")
    with pytest.raises(FormatError):
        load_point_cloud(p)
    p.write_text("# only comments\n")
    with pytest.raises(FormatError):
        load_point_cloud(p)


def test_binary_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    pos = rng.normal(size=(17, 3)).astype(np.float32).astype(np.float64)
    feats = rng.normal(size=(17, 5)).astype(np.float32).astype(np.float64)
    p = tmp_path / "c.gpc"
    save_point_cloud_binary(p, pos, feats)
    pc = load_point_cloud(p)
    np.testing.assert_array_equal(pc.positions, pos)
    np.testing.assert_array_equal(pc.features, feats)


def test_binary_no_features(tmp_path):
    p = tmp_path / "c.gpc"
    save_point_cloud_binary(p, np.zeros((3, 3)), None)
    pc = load_point_cloud(p)
    assert pc.features is None


@pytest.mark.parametrize("where", ["positions", "features"])
def test_binary_writer_refuses_values_beyond_float32(tmp_path, where):
    """Such a value would be written as inf, which the reader refuses."""
    top = float(np.finfo(np.float32).max)
    pos, feats = np.zeros((3, 3)), np.zeros((3, 2))
    p = tmp_path / "c.gpc"
    pos[1, 2] = feats[2, 0] = -top  # the extreme itself is written as is
    save_point_cloud_binary(p, pos, feats)
    assert load_point_cloud(p).features[2, 0] == -top
    p.unlink()
    (pos if where == "positions" else feats)[0, 1] = 1e300
    with pytest.raises(InvalidInputError, match="float32"):
        save_point_cloud_binary(p, pos, feats)
    assert not p.exists()


def test_binary_truncated(tmp_path):
    p = tmp_path / "c.gpc"
    save_point_cloud_binary(p, np.zeros((3, 3)), None)
    data = p.read_bytes()
    p.write_bytes(data[:-4])
    with pytest.raises(FormatError):
        load_point_cloud(p)


def test_cloud_validation():
    with pytest.raises(InvalidInputError):
        PointCloud(positions=np.zeros((0, 3)))
    with pytest.raises(InvalidInputError):
        PointCloud(positions=np.array([[np.nan, 0, 0]]))
    with pytest.raises(InvalidInputError):
        PointCloud(positions=np.zeros((2, 3)), features=np.zeros((3, 1)))
