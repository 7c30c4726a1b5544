"""Spatial primitives: point clouds, kNN, farthest point sampling, voxel grids.

All geometry is computed in float64. Results are deterministic: every
distance tie is broken by an explicit rule (lower index, or lexicographic
coordinates where stated), and every neighbor list is stored in a canonical
order so downstream floating-point reductions are reproducible.
"""

import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import InvalidInputError

# Packed voxel keys use 21 bits per axis.
_VOXEL_COORD_BOUND = 1 << 20


def _integer(value, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """A caller's count or index as an int of at least ``lo`` and at most
    ``hi``, where given (``hi`` only with ``lo``); ``operator.index`` refuses
    2.5, not truncates it. Anything else raises InvalidInputError."""
    try:
        value = operator.index(value)
    except TypeError:
        raise InvalidInputError(f"{name} must be an integer, got {value!r}") from None
    if hi is not None and not lo <= value <= hi:
        raise InvalidInputError(f"{name} must be in [{lo}, {hi}], got {value}")
    if lo is not None and value < lo:
        raise InvalidInputError(f"{name} must be >= {lo}, got {value}")
    return value


def _freeze(a, dtype=None) -> np.ndarray:
    """Read-only C-contiguous array holding ``a``.

    An array that arrives writeable is copied, so the caller's own array
    stays writeable and never reaches the stored one. One that already is
    read-only is stored as is: the package marks the arrays it makes with
    ``_readonly`` before passing them on, and pays no copy.
    """
    out = np.ascontiguousarray(a, dtype=dtype)
    if out.flags.writeable and (out is a or not out.flags.owndata):
        out = out.copy()
    out.flags.writeable = False
    return out


def _checked(a, name: str, shape: tuple) -> np.ndarray:
    """A caller's array as float64, checked: it must be real and numeric,
    ``shape`` gives the size of each axis (an int that must match, or None
    for any size), and every entry must be finite. Anything else raises
    InvalidInputError. Every public entry point reads its caller's float
    arrays through here; a float64 array comes back as is."""
    try:
        out = np.asarray(a)
        if out.dtype.kind == "c":  # the cast would drop the imaginary parts
            raise TypeError(f"complex dtype {out.dtype}")
        out = out.astype(np.float64, copy=False)
    except (TypeError, ValueError) as e:
        raise InvalidInputError(f"{name} must be a real numeric array: {e}") from None
    if out.ndim != len(shape):
        raise InvalidInputError(f"{name} must be {len(shape)}-D, got shape {out.shape}")
    for axis, (want, got) in enumerate(zip(shape, out.shape)):
        if want is not None and want != got:
            what = "length" if len(shape) == 1 else ("row count" if axis == 0 else "width")
            raise InvalidInputError(f"{name} must have {what} {want}, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise InvalidInputError(f"{name} contains non-finite values")
    return out


def _index_map(a, rule: str, n: int | None = None, length: int | None = None) -> np.ndarray:
    """A caller's integer map as read-only int64: a float map is refused, not
    truncated, and with ``n`` it must be 1-D, ``length`` long if given, with
    entries in [0, n) (-1 is refused, not wrapped). The error leads with ``rule``."""
    out = np.asarray(a)
    if out.dtype.kind not in "iu":
        got = f"dtype {out.dtype}"
    elif n is not None and (out.ndim != 1 or length not in (None, out.shape[0])):
        got = f"shape {out.shape}"
    elif n is not None and out.size and not (out.min() >= 0 and out.max() < n):
        got = f"entries from {out.min()} to {out.max()}"
    else:
        return _freeze(out, np.int64)
    raise InvalidInputError(f"{rule}{'' if n is None else f' in [0, {n})'}, got {got}")


def _csr(indptr, indices, name: str, n: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """A caller's CSR map (row i is ``indices[indptr[i]:indptr[i + 1]]``) as
    read-only int64: every index lies in [0, n) and ``indptr`` rises from 0 to
    len(indices) in ``rows`` rows, none empty (a row's mean divides by its size)."""
    indices = _index_map(indices, f"{name}indices must lie", n)
    indptr = _index_map(indptr, f"{name}indptr must be integers")
    nnz = indices.shape[0]
    if not (indptr.shape == (rows + 1,) and indptr[0] == 0 and indptr[-1] == nnz
            and np.all(np.diff(indptr) >= 1)):
        raise InvalidInputError(f"{name}indptr must rise from 0 to {nnz} in {rows} non-empty rows")
    return indptr, indices


def _csr_rows(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries of CSR ``rows``, concatenated in that order, as positions
    into the map's indices, and each row's size."""
    sizes = indptr[rows + 1] - indptr[rows]
    ends = np.cumsum(sizes)
    return np.repeat(indptr[rows] - ends + sizes, sizes) + np.arange(ends[-1]), sizes


def _readonly(a: np.ndarray) -> np.ndarray:
    """Mark an array the package just made read-only, in place."""
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class PointCloud:
    """N points in meters with optional per-point feature rows."""

    positions: np.ndarray  # (N, 3) float64
    features: np.ndarray | None = None  # (N, d) float64

    def __post_init__(self):
        pos = _freeze(_checked(self.positions, "positions", (None, 3)))
        if pos.shape[0] < 1:
            raise InvalidInputError("positions must hold at least one point")
        object.__setattr__(self, "positions", pos)
        if self.features is not None:
            feats = _checked(self.features, "features", (pos.shape[0], None))
            object.__setattr__(self, "features", _freeze(feats))

    @property
    def n_points(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class NeighborhoodTopology:
    """Per-token neighbor lists in CSR layout.

    ``indices[indptr[i]:indptr[i + 1]]`` lists the neighbors of token i,
    self included, ordered by (squared distance, index) so that summation
    order is canonical. ``rows`` is made once at construction: the token
    each edge belongs to, i.e. ``indices[e]`` is a neighbor of ``rows[e]``.
    """

    kind: str  # "knn" or "kernel_window"
    indptr: np.ndarray  # (n_tokens + 1,) int64
    indices: np.ndarray  # (nnz,) int64
    k: int | None = None  # neighborhood size for kind == "knn"
    rows: np.ndarray = field(init=False, repr=False, compare=False)  # (nnz,) int64

    def __post_init__(self):
        if self.kind not in ("knn", "kernel_window"):
            raise InvalidInputError(f"unknown topology kind {self.kind!r}")
        if self.k is not None:
            object.__setattr__(self, "k", _integer(self.k, "k", 1))
        n = np.size(self.indptr) - 1  # each neighbor is a token of the topology
        indptr, indices = _csr(self.indptr, self.indices, "", n, n)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        rows = np.repeat(np.arange(self.n_tokens, dtype=np.int64), self.sizes)
        object.__setattr__(self, "rows", _readonly(rows))

    @property
    def n_tokens(self) -> int:
        return self.indptr.shape[0] - 1

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def total_edges(self) -> int:
        return int(self.indices.shape[0])

    def neighbors(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i] : self.indptr[i + 1]]


@dataclass(frozen=True)
class SparseVoxelGrid:
    """Occupied cells of a uniform grid, lexicographically sorted by (x, y, z)."""

    voxel_size: float
    occupied: np.ndarray  # (M, 3) int64 voxel coordinates
    cell_features: np.ndarray  # (M, d) float64, d may be 0
    cell_centroid: np.ndarray  # (M, 3) float64 mean position of contained points
    cell_count: np.ndarray  # (M,) int64 number of source points

    def __post_init__(self):
        object.__setattr__(self, "occupied", _freeze(self.occupied, np.int64))
        object.__setattr__(self, "cell_features", _freeze(self.cell_features, np.float64))
        object.__setattr__(self, "cell_centroid", _freeze(self.cell_centroid, np.float64))
        object.__setattr__(self, "cell_count", _freeze(self.cell_count, np.int64))

    @property
    def n_voxels(self) -> int:
        return self.occupied.shape[0]


def _squared_dist_to(points: np.ndarray, p: np.ndarray) -> np.ndarray:
    d = points - p
    return np.einsum("ij,ij->i", d, d)


# Squared distances are formed as dx*dx + dy*dy + dz*dz. Bounding the
# squared diagonal of the bounding box well below the float64 maximum keeps
# every squared distance (and the kd-tree's own bounds) finite.
_MAX_SQUARED_EXTENT = np.finfo(np.float64).max / 16

# Relative radius margin of the FPS ball update. Computed squared distances
# carry a relative error of a few ulp (about 1e-15) wherever no term is
# subnormal, so a 1e-9 margin makes the kd-tree ball a strict superset of
# the points whose computed squared distance can fall below the radius.
_BALL_MARGIN = 1e-9
# Below this, terms of a squared distance may be subnormal and the relative
# error bound no longer holds; the FPS update then visits every point.
_BALL_MIN_D2 = 1e-250

# Candidates ordered per batch on the tied-boundary kNN path.
_KNN_CANDIDATE_BUDGET = 1 << 20


def _check_extent(*point_sets: np.ndarray) -> None:
    """Reject point sets whose squared distances could overflow."""
    lo = np.min([p.min(axis=0) for p in point_sets], axis=0)
    hi = np.max([p.max(axis=0) for p in point_sets], axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        span = hi - lo
        sq_extent = span @ span
    if not sq_extent <= _MAX_SQUARED_EXTENT:
        raise InvalidInputError(
            "positions must be finite and span a bounding box whose squared "
            f"diagonal is at most {_MAX_SQUARED_EXTENT:.3g} (got {sq_extent:.3g})"
        )


def deterministic_knn(points: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """Exact k nearest neighbors of each query among ``points``.

    Returns an ``(n_queries, min(k, n))`` int64 array whose rows are sorted
    by (squared distance, index). A kd-tree provides candidates; selection
    and ordering always use the direct per-pair squared distance so results
    do not depend on tree internals or input order (beyond index
    relabeling). Rows are ordered in one batched sort; only queries whose
    distance tie straddles the k-th place fetch a full ball of candidates.
    """
    n = points.shape[0]
    k = min(k, n)
    _check_extent(points, queries)
    tree = cKDTree(points)
    # One extra neighbor tells us whether a tie straddles the k-th place.
    kq = min(k + 1, n)
    dist, idx = tree.query(queries, k=kq)
    if kq == 1:  # scipy squeezes the neighbor axis for k=1
        dist = dist[:, None]
        idx = idx[:, None]

    every_row = np.repeat(np.arange(queries.shape[0]), k)
    out = _order_rows(points, queries, every_row, np.sort(idx[:, :k], axis=1).ravel(), k)
    if kq > k:
        ambiguous = np.flatnonzero(dist[:, k] <= dist[:, k - 1] * (1.0 + 1e-12))
        radii = dist[ambiguous, k - 1] * (1.0 + 1e-9)
        # A ball holds up to n candidates, so bound the batch by its total.
        step = max(1, _KNN_CANDIDATE_BUDGET // n)
        for lo in range(0, ambiguous.shape[0], step):
            rows = ambiguous[lo : lo + step]
            balls = tree.query_ball_point(queries[rows], radii[lo : lo + step], return_sorted=True)
            sizes = np.fromiter(map(len, balls), dtype=np.int64, count=rows.shape[0])
            cand = np.fromiter(itertools.chain.from_iterable(balls), dtype=np.int64, count=int(sizes.sum()))
            out[rows] = _order_rows(points, queries, np.repeat(rows, sizes), cand, k)
    return out


def _order_rows(
    points: np.ndarray, queries: np.ndarray, rows: np.ndarray, cand: np.ndarray, k: int
) -> np.ndarray:
    """First k candidates of each row by (squared distance, index).

    ``rows`` (non-decreasing) names the query of each entry of ``cand``;
    every row must hold at least k candidates, in ascending index order.
    """
    d2 = _squared_dist_to(points.take(cand, axis=0), queries.take(rows, axis=0))
    # lexsort is stable, so equal distances keep the ascending index order.
    order = np.lexsort((d2, rows))
    starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    return cand.take(order).take(starts[:, None] + np.arange(k))


def knn(cloud: PointCloud, k: int) -> NeighborhoodTopology:
    """kNN topology: T_i holds i plus the k-1 nearest other points.

    |T_i| = min(k, N); distance ties are broken by lower point index.
    """
    return knn_from_positions(cloud.positions, _integer(k, "k", 1))


def knn_from_positions(positions: np.ndarray, k: int) -> NeighborhoodTopology:
    n = positions.shape[0]
    if n < 1:
        raise InvalidInputError("empty point set")
    nbrs = deterministic_knn(positions, positions, k)
    indptr = np.arange(n + 1, dtype=np.int64) * nbrs.shape[1]
    return NeighborhoodTopology(kind="knn", indptr=_readonly(indptr),
                                indices=_readonly(nbrs.ravel()), k=k)


def _canonical_order(positions: np.ndarray) -> np.ndarray:
    """Token indices sorted by (x, y, z), ties by index: the one order,
    fixed by the geometry, in which FPS scans a level, pooling groups sum
    their members and the backward sums its pooled groups."""
    return np.lexsort(positions.T[::-1])


def farthest_point_sample(cloud: PointCloud, m: int) -> np.ndarray:
    """Greedy min-distance-maximizing subsample of m point indices.

    The first pick maximizes distance to the centroid; each later pick
    maximizes the minimum distance to the already-selected set. Ties go to
    the lexicographically smallest coordinates, then the lowest index.
    Returns indices sorted ascending.
    """
    return fps_from_positions(cloud.positions, m)


def fps_from_positions(positions: np.ndarray, m: int) -> np.ndarray:
    """Farthest point sampling (see ``farthest_point_sample``), run in the
    points' canonical order (see ``_fps_in_order``)."""
    return _fps_in_order(positions, m, _canonical_order(positions))


def _fps_in_order(positions: np.ndarray, m: int, canon: np.ndarray) -> np.ndarray:
    """Farthest point sampling given the points' canonical (x, y, z, index)
    order ``canon`` (a hierarchy level stores it, so a build sorts each level
    once). The whole sample runs in that order. There, ``np.argmax`` returning
    the first of several equal maxima *is* the tie rule: the first
    candidate has the lexicographically smallest coordinates, then the
    lowest index. Output is mapped back to input indices.

    After a pick at min-distance ``best``, a point's min-distance can only
    drop if its squared distance to the pick is below ``best``, so only the
    points in a kd-tree ball of radius sqrt(best) (plus a margin) are
    updated; each squared distance is the same ``_squared_dist_to``
    arithmetic as a full update, so the sample is exactly that of the
    plain O(N*m) loop.
    """
    m = _integer(m, "m", 1, positions.shape[0])
    _check_extent(positions)
    pts = positions.take(canon, axis=0)

    # Summing rows in canonical order keeps the start pick (and thus the
    # whole sample) independent of how the caller ordered the points.
    centroid = pts.mean(axis=0)
    picks = np.empty(m, dtype=np.int64)
    picks[0] = np.argmax(_squared_dist_to(pts, centroid))
    min_d2 = _squared_dist_to(pts, pts[picks[0]])
    # Selected entries are parked at -1, below any real squared distance, so
    # the argmax below never revisits them and no separate mask is needed.
    min_d2[picks[0]] = -1.0

    tree = cKDTree(pts)
    for j in range(1, m):
        nxt = int(min_d2.argmax())
        best = float(min_d2[nxt])
        picks[j] = nxt
        if best >= _BALL_MIN_D2:
            radius = math.sqrt(best) * (1.0 + _BALL_MARGIN)
            ball = np.asarray(tree.query_ball_point(pts[nxt], radius), dtype=np.intp)
            min_d2[ball] = np.minimum(min_d2.take(ball),
                                      _squared_dist_to(pts.take(ball, axis=0), pts[nxt]))
        elif best > 0.0:
            np.minimum(min_d2, _squared_dist_to(pts, pts[nxt]), out=min_d2)
        # best == 0: every remaining min-distance is already 0.
        min_d2[nxt] = -1.0
    return np.sort(canon[picks])


def _check_voxel_range(coords: np.ndarray) -> None:
    """Reject coordinates outside +/-(2^20 - 1), integer or float. No abs:
    it wraps for the most negative int64."""
    if np.any((coords <= -_VOXEL_COORD_BOUND) | (coords >= _VOXEL_COORD_BOUND)):
        raise InvalidInputError(
            f"voxel coordinates exceed supported range +/-{_VOXEL_COORD_BOUND - 1}"
        )


def _voxel_coords(coords) -> np.ndarray:
    """Caller-given (n, 3) voxel coordinates as int64, checked before the
    cast: finite, integer-valued and within +/-(2^20 - 1). An int64 array
    comes back as is."""
    c = np.asarray(coords)
    if c.ndim != 2 or c.shape[1] != 3:
        raise InvalidInputError(f"voxel coordinates must be (n, 3), got shape {c.shape}")
    if c.dtype.kind not in "iuf":
        raise InvalidInputError(f"voxel coordinates must be integers, got dtype {c.dtype}")
    if c.dtype.kind == "f" and not np.all(np.isfinite(c) & (c == np.floor(c))):
        raise InvalidInputError("voxel coordinates must be finite integer values")
    _check_voxel_range(c)
    return c.astype(np.int64, copy=False)


def pack_voxel_coords(coords: np.ndarray) -> np.ndarray:
    """Pack integer (x, y, z) voxel coordinates into one int64 key whose
    natural order equals lexicographic order on (x, y, z)."""
    _check_voxel_range(coords)
    c = coords + _VOXEL_COORD_BOUND
    return (c[:, 0] << 42) | (c[:, 1] << 21) | c[:, 2]


def voxelize(cloud: PointCloud, voxel_size: float) -> SparseVoxelGrid:
    """Bin points into cells of side ``voxel_size``; voxel coordinate of a
    point is floor(p / voxel_size) per axis. Cell features and centroid are
    the mean over contained points."""
    if not voxel_size > 0:
        raise InvalidInputError(f"voxel_size must be positive, got {voxel_size}")
    pos = cloud.positions
    with np.errstate(over="ignore"):  # a quotient past float64 is inf, rejected below
        cells = np.floor(pos / voxel_size)
    _check_voxel_range(cells)  # before the cast, which would wrap
    coords = cells.astype(np.int64)
    keys = pack_voxel_coords(coords)

    # Canonical in-cell aggregation order: position-lex, then index (lexsort
    # is stable). This keeps cell means bit-reproducible under input permutation.
    order = np.lexsort((pos[:, 2], pos[:, 1], pos[:, 0], keys))
    keys_s = keys[order]
    uniq_keys, starts, counts = np.unique(keys_s, return_index=True, return_counts=True)

    occ = coords[order[starts]]
    centroid = np.add.reduceat(pos.take(order, axis=0), starts) / counts[:, None]
    if cloud.features is not None:
        feats = np.add.reduceat(cloud.features.take(order, axis=0), starts) / counts[:, None]
    else:
        feats = np.empty((uniq_keys.shape[0], 0), dtype=np.float64)
    return SparseVoxelGrid(
        voxel_size=float(voxel_size),
        occupied=_readonly(occ),
        cell_features=_readonly(feats),
        cell_centroid=_readonly(centroid),
        cell_count=_readonly(counts.astype(np.int64)),
    )


def kernel_window_topology(occupied: np.ndarray | SparseVoxelGrid) -> NeighborhoodTopology:
    """3x3x3 window topology on occupied voxels: T_i holds every occupied
    voxel within Chebyshev distance 1 of voxel i, self included."""
    if isinstance(occupied, SparseVoxelGrid):
        coords = occupied.occupied
    else:
        coords = _voxel_coords(occupied)
    if coords.shape[0] < 1:
        raise InvalidInputError("empty voxel grid")
    keys = pack_voxel_coords(coords)
    # Cells may arrive in any order; search against a sorted view and map
    # matches back to the caller's token indices.
    order = np.argsort(keys)
    if np.any(np.diff(keys[order]) == 0):
        raise InvalidInputError("duplicate voxel coordinates")
    return _window_topology(keys, order)


# The step from a cell's packed key to each window neighbor's, in
# lexicographic (dx, dy, dz) order, so the steps ascend.
_WINDOW_STEPS = np.array([(dx << 42) + (dy << 21) + dz for dx, dy, dz
                          in itertools.product((-1, 0, 1), repeat=3)], dtype=np.int64)


def _window_topology(keys: np.ndarray, order: np.ndarray | None = None) -> NeighborhoodTopology:
    """Window topology of the cells with unique packed ``keys``, which
    ``order`` sorts (None: ascending already). A neighbor's key is the
    cell's key plus its step, exactly: each packed field holds coordinate +
    2^20, in [1, 2^21 - 1], so a +/-1 step stays in its field or leaves
    that field 0, which no key holds (x past 2^21 - 1 turns the key negative).
    Rows list hits in step order, by ascending cell coordinates."""
    sorted_keys = keys if order is None else keys[order]
    probe = keys[:, None] + _WINDOW_STEPS
    loc = np.minimum(np.searchsorted(sorted_keys, probe), keys.shape[0] - 1)
    hit = sorted_keys[loc] == probe
    indptr = np.concatenate(([0], np.cumsum(hit.sum(axis=1), dtype=np.int64)))
    indices = loc[hit] if order is None else order[loc[hit]]
    return NeighborhoodTopology(kind="kernel_window", indptr=_readonly(indptr),
                                indices=_readonly(indices))


# ---------------------------------------------------------------------------
# Point-cloud file formats.
#
# Text: one point per line, whitespace-separated `x y z [f1 ... fd]`,
# `#` starts a comment. Binary: magic `GPC1`, little-endian u32 N, u32 d,
# then N*(3+d) little-endian f32 values, row-major.
# ---------------------------------------------------------------------------

GPC_MAGIC = b"GPC1"


def load_point_cloud(path) -> PointCloud:
    """Load a point cloud, sniffing binary (`GPC1` magic) vs text."""
    with open(path, "rb") as f:
        head = f.read(4)
    if head == GPC_MAGIC:
        return load_point_cloud_binary(path)
    return load_point_cloud_text(path)


def load_point_cloud_text(path) -> PointCloud:
    from .errors import FormatError

    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if len(parts) < 3:
                raise FormatError(f"{path}:{lineno}: expected at least x y z")
            if width is None:
                width = len(parts)
            elif len(parts) != width:
                raise FormatError(
                    f"{path}:{lineno}: inconsistent column count ({len(parts)} vs {width})"
                )
            try:
                rows.append([float(p) for p in parts])
            except ValueError as e:
                raise FormatError(f"{path}:{lineno}: {e}") from None
    if not rows:
        raise FormatError(f"{path}: no points")
    arr = np.asarray(rows, dtype=np.float64)
    feats = arr[:, 3:] if arr.shape[1] > 3 else None
    return PointCloud(positions=arr[:, :3], features=feats)


def load_point_cloud_binary(path) -> PointCloud:
    from .errors import FormatError

    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 12 or data[:4] != GPC_MAGIC:
        raise FormatError(f"{path}: bad magic (expected GPC1)")
    n = int(np.frombuffer(data, dtype="<u4", count=1, offset=4)[0])
    d = int(np.frombuffer(data, dtype="<u4", count=1, offset=8)[0])
    need = 12 + 4 * n * (3 + d)
    if len(data) != need:
        raise FormatError(f"{path}: expected {need} bytes for N={n} d={d}, got {len(data)}")
    vals = np.frombuffer(data, dtype="<f4", count=n * (3 + d), offset=12)
    arr = vals.reshape(n, 3 + d).astype(np.float64)
    feats = arr[:, 3:] if d > 0 else None
    return PointCloud(positions=arr[:, :3], features=feats)


def save_point_cloud_binary(path, positions: np.ndarray, features: np.ndarray | None) -> None:
    """Write a GPC1 file. The points are checked as a ``PointCloud`` and
    against the float32 range of the format first, so bad input raises
    InvalidInputError before the file is opened."""
    cloud = PointCloud(positions=positions, features=features)
    n = cloud.n_points
    features = np.empty((n, 0)) if cloud.features is None else cloud.features
    d = features.shape[1]
    rows = np.hstack([cloud.positions, features])
    if np.any(np.abs(rows) > np.finfo(np.float32).max):  # the cast would write inf
        raise InvalidInputError("positions and features must lie in the float32 range")
    rows = rows.astype("<f4")
    with open(path, "wb") as f:
        f.write(GPC_MAGIC)
        f.write(np.asarray([n, d], dtype="<u4").tobytes())
        f.write(rows.tobytes())
