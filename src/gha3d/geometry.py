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
from scipy.sparse import _sparsetools

from .errors import CapacityError, FormatError, InvalidInputError

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
    """A read-only C-contiguous copy of ``a``: what every constructor stores
    of each array it is given. A copy, never a view, even of a read-only
    array: a writeable view made before its flag was cleared, or its
    owner's flag set back, would still reach it."""
    out = np.array(a, dtype=dtype, order="C")
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


def _index_map(a, rule: str, n: int | None = None, length: int | None = None,
               dtype=np.int64) -> np.ndarray:
    """A caller's integer map, checked, as ``dtype``: a float map is refused,
    not truncated, and with ``n`` it must be 1-D, ``length`` long if given,
    with entries in [0, n) (-1 is refused, not wrapped). Without ``n`` its
    entries need only fit ``dtype``, else CapacityError. The error leads
    with ``rule``. A map of ``dtype`` comes back as is: a constructor
    stores it through ``_freeze``, and a check that stores nothing copies
    nothing."""
    out = np.asarray(a)
    if out.dtype.kind not in "iu":
        got = f"dtype {out.dtype}"
    elif n is not None and (out.ndim != 1 or length not in (None, out.shape[0])):
        got = f"shape {out.shape}"
    elif n is not None and out.size and not (out.min() >= 0 and out.max() < n):
        got = f"entries from {out.min()} to {out.max()}"
    else:
        info = np.iinfo(dtype)
        if (n is None and out.size and not np.can_cast(out.dtype, dtype)
                and not (info.min <= out.min() and out.max() <= info.max)):
            raise CapacityError(f"{rule}, got entries from {out.min()} to {out.max()},"
                                f" past {info.dtype}")
        return out.astype(dtype, copy=False)
    raise InvalidInputError(f"{rule}{'' if n is None else f' in [0, {n})'}, got {got}")


# Sparse maps are int32, one index dtype for both arrays, which SciPy's
# kernel reads as they are (it would convert a mixed pair on every product)
# at half an int64 map's bytes: fewer than 2^31 entries and tokens.
_INDEX_LIMIT = 1 << 31


def _csr(indptr, indices, name: str, n: int | None, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """A caller's CSR map (row i is ``indices[indptr[i]:indptr[i + 1]]``) as
    int32 arrays, checked and not copied, as by ``_index_map``: every index
    lies in [0, n) (any int32, with n None) and ``indptr`` rises from 0 to
    len(indices) in ``rows`` rows, none empty (a row's mean divides by its
    size). A map of 2^31 or more entries, rows or tokens raises
    CapacityError before its entries are read."""
    indptr, indices = np.asarray(indptr), np.asarray(indices)
    if max(indices.size, rows, n or 0) >= _INDEX_LIMIT:
        raise CapacityError(f"{name}map of {indices.size} entries in {rows} rows over {n} tokens:"
                            f" int32 maps hold fewer than 2^31 of each")
    indices = _index_map(indices, f"{name}indices must lie", n, dtype=np.int32)
    indptr = _index_map(indptr, f"{name}indptr must be integers", dtype=np.int32)
    nnz = indices.shape[0]
    if not (indptr.shape == (rows + 1,) and indptr[0] == 0 and indptr[-1] == nnz
            and np.all(np.diff(indptr) >= 1)):
        raise InvalidInputError(f"{name}indptr must rise from 0 to {nnz} in {rows} non-empty rows")
    return indptr, indices


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The integer ranges [starts[i], starts[i] + sizes[i]), concatenated."""
    ends = np.cumsum(sizes)
    return np.repeat(starts - ends + sizes, sizes) + np.arange(ends[-1] if ends.size else 0)


# ---------------------------------------------------------------------------
# Sums over sparse maps
# ---------------------------------------------------------------------------

def _kernel_product(kind: str, indptr, indices, data, x, n_out: int) -> np.ndarray:
    """The (n_out, x.shape[1]) product of the ``kind`` ("csr" or "csc") matrix
    over the map's own arrays with a 2-D x, by the compiled kernel that
    ``csr_matrix @ x`` / ``csc_matrix @ x`` runs, called with the arguments
    SciPy passes it: ``*_matvec`` for one column, ``*_matvecs`` for any other
    width, into fresh zeros, so every bit is that product's. No matrix is
    built. The kernel does not bounds-check, so SciPy's O(1) checks of the
    arrays' lengths and of x's rows stay, as ValueError; the index ranges
    are ``_csr``'s to check, as they are for SciPy."""
    rows = indptr.shape[0] - 1  # the rows of the map, the compressed axis
    n_in = x.shape[0] if kind == "csr" else rows
    if indptr.ndim != 1 or indices.ndim != 1 or data.ndim != 1:
        raise ValueError("data, indices, and indptr should be 1-D")
    if rows < 0 or indptr[0] != 0:
        raise ValueError("index pointer should start with 0")
    if indices.shape[0] != data.shape[0]:
        raise ValueError("indices and data should have the same size")
    if indptr[-1] > indices.shape[0]:
        raise ValueError("last value of index pointer should not pass the size of indices")
    if x.ndim != 2 or x.shape[0] != n_in:
        raise ValueError(f"x must have {n_in} rows, got shape {x.shape}")
    width = x.shape[1]
    out = np.zeros((n_out, width))
    arrays = (indptr, indices, data, x.ravel(), out.ravel())
    if width == 1:
        getattr(_sparsetools, kind + "_matvec")(n_out, n_in, *arrays)
    else:
        getattr(_sparsetools, kind + "_matvecs")(n_out, n_in, width, *arrays)
    return out


def _product(indptr, indices, data, x) -> np.ndarray:
    """A x for the CSR map A = (data, indices, indptr): row i adds data[e] *
    x[indices[e]] over its entries e from +0.0 in entry order, with no rows
    gathered, so a row of -0.0 terms sums to +0.0; a column's sums do not
    depend on the width. Every sum over a map in the package is this
    product or its transpose."""
    return _kernel_product("csr", indptr, indices, data, x, indptr.shape[0] - 1)


def _transposed_product(indptr, indices, data, x, n_out: int) -> np.ndarray:
    """A^T x for the CSR map A = (data, indices, indptr) with ``n_out`` columns,
    as the CSC kernel over the same arrays: out[indices[e]] += data[e] * x[row
    of e] from +0.0 in edge order, as ``np.add.at`` sums, with no edge rows
    gathered; a column's sums do not depend on the width."""
    return _kernel_product("csc", indptr, indices, data, x, n_out)


def _value_exponents(values: list, terms: int) -> np.ndarray | None:
    """Per column of the value arrays ``values``, the power of two that scales
    it down so that no output sum of at most ``terms`` terms can overflow, or
    None where no column needs one.

    Each term is a v entry times a weight of at most 1, so an output's
    partial sums stay below the column's largest magnitude times ``terms``.
    Scaling by a power of two is exact, and the output is linear in v, so
    scaling it back gives the bits an unbounded exponent would; a column that
    cannot overflow is not touched. Every sum that finite terms near the
    float64 limit could overflow follows this rule: a pooled mean
    (``_pooled``) sums one group, and in the attention kernels a gha row sums
    at most one neighborhood per level, a local row one neighborhood and a
    dense row every token.
    """
    bound = np.finfo(np.float64).max / 4 / terms  # the largest magnitude that is safe
    # Whole-array extremes first: far cheaper than per-column ones.
    if max(max(v.max(initial=0.0), -v.min(initial=0.0)) for v in values) <= bound:
        return None
    top = np.max([np.maximum(v.max(axis=0), -v.min(axis=0)) for v in values], axis=0)
    # top * terms < 2^(exponent of top + bit length of terms); keep it below 2^1022.
    return np.where(top > bound, np.frexp(top)[1] + terms.bit_length() - 1022, 0)


def _pooled(values: np.ndarray, indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Each group's mean over a checked int32 map, the package's one pooled
    mean: one ``_product``, then each sum divided by its group's size. Where
    finite terms overflow a sum (to +-inf: a sum from +0.0 in order cannot
    reach NaN), the entry is taken from the same product over the values
    scaled down by ``_value_exponents``' power of two, divided by the size
    and scaled back: exact, so it holds the bits of an unbounded exponent."""
    ones, sizes = np.ones(indices.shape[0]), np.diff(indptr)[:, None]
    with np.errstate(over="ignore"):  # mended below
        means = _product(indptr, indices, ones, values)
    means /= sizes  # a sum that overflowed stays inf
    if -np.inf < means.min(initial=0.0) and means.max(initial=0.0) < np.inf:
        return means
    bad = np.isinf(means)
    exponents = _value_exponents([values], int(sizes.max()))
    scaled = _product(indptr, indices, ones, np.ldexp(values, -exponents))
    scaled /= sizes
    means[bad] = np.ldexp(scaled, exponents)[bad]
    return means


def _readonly(a: np.ndarray) -> np.ndarray:
    """Clear the write flag of an array the package just made and stores
    without a constructor, in place, with that of every array whose memory
    it views (the package made those too)."""
    base = a
    while isinstance(base, np.ndarray):
        base.flags.writeable = False
        base = base.base
    return a


def _width_classes(indptr: np.ndarray, indices: np.ndarray) -> tuple:
    """A CSR topology's ``classes`` (see ``NeighborhoodTopology``): one stable
    argsort of the row sizes and one ``_ranges`` over every row, cut at the
    class bounds."""
    sizes = np.diff(indptr)
    if not sizes.size:
        return ()
    if (sizes == sizes[0]).all():
        return ((slice(0, sizes.size), slice(0, indices.size), indices, int(sizes[0])),)
    rows = np.argsort(sizes, kind="stable").astype(np.int32)
    widths = sizes.take(rows)
    edges = _ranges(indptr.take(rows), widths).astype(np.int32)
    bounds = np.flatnonzero(np.diff(widths)) + 1
    edge_bounds = np.cumsum(widths)[bounds - 1]
    return tuple(zip(np.split(_readonly(rows), bounds), np.split(_readonly(edges), edge_bounds),
                     np.split(_readonly(indices.take(edges)), edge_bounds),
                     widths.take(np.concatenate(([0], bounds))).tolist()))


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
    order is canonical. Both arrays are held once, read-only and int32 (see
    ``_csr``), and the attention kernels multiply by them as they are.

    ``classes`` groups the rows by width, derived here and never passed
    in: one ``(rows, edges, cols, width)`` per distinct row size, ascending,
    whose ``rows`` hold ``width`` entries each, at positions ``edges`` of
    ``indices``, row by row in entry order, and ``cols`` are those entries.
    In a topology of one width (every kNN level) its one class is the
    slices ``rows`` and ``edges`` and ``cols`` is ``indices`` itself; ragged
    rows (voxel windows) hold read-only int32 arrays, ``rows`` ascending. Over
    a class the kernels broadcast each query's rows across its edges.
    """

    indptr: np.ndarray  # (n_tokens + 1,) int32
    indices: np.ndarray  # (nnz,) int32
    classes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = np.size(self.indptr) - 1  # each neighbor is a token of the topology
        indptr, indices = map(_freeze, _csr(self.indptr, self.indices, "", n, n))
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "classes", _width_classes(indptr, indices))

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
        object.__setattr__(self, "voxel_size", _voxel_size(self.voxel_size))
        occupied = _voxel_coords(self.occupied)
        m = occupied.shape[0]
        count = _index_map(self.cell_count, "cell_count must be integers")
        if count.shape != (m,) or count.min(initial=1) < 1:
            raise InvalidInputError(f"cell_count must hold {m} counts, each at least 1")
        for name, a in (("occupied", occupied),
                        ("cell_features", _checked(self.cell_features, "cell_features", (m, None))),
                        ("cell_centroid", _checked(self.cell_centroid, "cell_centroid", (m, 3))),
                        ("cell_count", count)):
            object.__setattr__(self, name, _freeze(a))

    @property
    def n_voxels(self) -> int:
        return self.occupied.shape[0]


def _squared_dist_to(points: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Squared distances between ``points`` and ``p``, which broadcast
    against each other over a last axis of (x, y, z)."""
    return _squared_dist_cols(np.moveaxis(points, -1, 0), np.moveaxis(p, -1, 0))


def _squared_dist_cols(cols: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Squared distances between ``cols`` and ``p``, which broadcast against
    each other over a first axis of (x, y, z) columns.

    The one arithmetic of every squared distance here: dx*dx + dy*dy +
    dz*dz, summed as (dx*dx + dz*dz) + dy*dy. That is the order in which
    ``np.einsum("ij,ij->i", d, d)`` sums a row of three, so the two agree
    bit for bit. It makes two arrays of the result's shape and no array of
    (x, y, z) differences.
    """
    out = cols[0] - p[0]
    out *= out
    square = cols[2] - p[2]
    square *= square
    out += square
    np.subtract(cols[1], p[1], out=square)
    square *= square
    out += square
    return out


# Squared distances are formed as (dx*dx + dz*dz) + dy*dy. Bounding the
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


# Odd multipliers that spread each coordinate's bits over the grouping key.
_GROUP_KEY = np.array([0xBF58476D1CE4E5B9, 0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F],
                      dtype=np.uint64)


def _position_groups(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Points that share one exact position, as groups: group g is
    ``order[starts[g]:starts[g] + counts[g]]``, members in ascending index.

    Points are grouped by one key hashed from their coordinates' bits and
    sorted stably, not by a sort of the positions: a group is a run of one
    key and one position, so its members keep their index order. Equal
    bits share a key; positions whose keys collide only split a group, and
    so do -0.0 and 0.0, so one position may span several groups."""
    n = points.shape[0]
    bits = np.ascontiguousarray(points).view(np.uint64)
    bits = bits ^ (bits >> np.uint64(31))  # fold exponents into the low bits, then spread
    key = np.bitwise_xor.reduce(bits * _GROUP_KEY, axis=1)
    key ^= key >> np.uint64(29)
    order = np.argsort(key, kind="stable")
    key, ordered = key.take(order), points.take(order, axis=0)
    new = np.ones(n, dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=new[1:])
    new[1:] |= key[1:] != key[:-1]  # a group is one key's run of one position
    starts = np.flatnonzero(new)
    return order, starts, np.diff(np.append(starts, n))


def deterministic_knn(points: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """Exact k nearest neighbors of each query among ``points``.

    Returns an ``(n_queries, min(k, n))`` int64 array whose rows are sorted
    by (squared distance, index). A kd-tree provides candidates; selection
    and ordering always use the direct per-pair squared distance so results
    do not depend on tree internals or input order (beyond index
    relabeling).

    Exact duplicates are collapsed first: the tree holds each distinct
    position once, each distinct query position is answered once, and a
    position stands for its first k points in index order, so a group of
    points at one position costs O(k) per query, not O(group). Rows whose k
    nearest positions hold one point each and no further position ties the
    k-th are ordered in one row-wise sort; only the others are ordered by
    position groups, and only queries whose distance tie straddles the k-th
    place fetch a ball of candidate positions.
    """
    n = points.shape[0]
    k = min(k, n)
    from scipy.spatial import cKDTree  # only point builds load it
    _check_extent(points, queries)
    groups = _position_groups(points)
    order, starts, counts = groups
    first = order.take(starts)
    tree = cKDTree(points.take(first, axis=0))
    q_order, q_starts, q_counts = groups if queries is points else _position_groups(queries)
    distinct = queries.take(q_order.take(q_starts), axis=0)
    n_q = distinct.shape[0]

    # One extra position tells us whether a tie straddles the k-th place.
    kq = min(k + 1, starts.shape[0])
    dist, idx = tree.query(distinct, k=kq)
    if kq == 1:  # scipy squeezes the neighbor axis for k=1
        dist = dist[:, None]
        idx = idx[:, None]
    cum = np.cumsum(counts.take(idx), axis=1, dtype=np.int32)
    last = (cum < k).sum(axis=1)  # the column of the position holding the k-th point
    row = np.arange(n_q)
    after = np.minimum(last + 1, kq - 1)
    tied = (last + 1 < kq) & (dist[row, after] <= dist[row, last] * (1.0 + 1e-12))
    plain = ~tied & (last == k - 1) & (cum[row, last] == k)
    del cum

    out = np.empty((n_q, k), dtype=np.int64)
    rows = np.flatnonzero(plain)
    if rows.size:  # then every row has k positions
        cand = first.take(idx[rows, :k])
        cand.sort(axis=1)
        d2 = _squared_dist_to(points.take(cand, axis=0), distinct.take(rows, axis=0)[:, None])
        # A stable sort keeps equal distances in the ascending index order.
        out[rows] = np.take_along_axis(cand, d2.argsort(axis=1, kind="stable"), axis=1)

    # Rows with duplicates among their nearest positions: those positions.
    rest = np.flatnonzero(~plain & ~tied)
    step = max(1, _KNN_CANDIDATE_BUDGET // (k * k))
    for lo in range(0, rest.shape[0], step):
        rows = rest[lo : lo + step]
        near = idx.take(rows, axis=0)[np.arange(kq) <= last.take(rows)[:, None]]
        out[rows] = _order_by_position(points, distinct, rows.repeat(last.take(rows) + 1), near,
                                       groups, k)
    # Rows with a tie at the k-th place: every position in the ball.
    rest = np.flatnonzero(tied)
    radii = dist[rest, last.take(rest)] * (1.0 + 1e-9)
    # A ball holds up to n candidates, so bound the batch by its total.
    step = max(1, _KNN_CANDIDATE_BUDGET // n)
    for lo in range(0, rest.shape[0], step):
        rows = rest[lo : lo + step]
        balls = tree.query_ball_point(distinct.take(rows, axis=0), radii[lo : lo + step],
                                      return_sorted=False)
        sizes = np.fromiter(map(len, balls), dtype=np.int64, count=rows.shape[0])
        near = np.fromiter(itertools.chain.from_iterable(balls), dtype=np.int64, count=int(sizes.sum()))
        out[rows] = _order_by_position(points, distinct, rows.repeat(sizes), near, groups, k)

    # Each query takes the row of its distinct position.
    position = np.empty(queries.shape[0], dtype=np.int64)
    position[q_order] = np.arange(n_q).repeat(q_counts)
    return out.take(position, axis=0)


def _order_by_position(points: np.ndarray, queries: np.ndarray, rows: np.ndarray,
                       positions: np.ndarray, groups: tuple, k: int) -> np.ndarray:
    """First k points of each row by (squared distance, index), given each
    row's candidate ``positions`` (indices into the ``groups`` of
    ``_position_groups``; ``rows``, non-decreasing, names each one's query).
    A row never takes more than k points of one position, so each position
    stands for its first k members."""
    order, starts, counts = groups
    sizes = np.minimum(counts.take(positions), k)
    cand = order.take(_ranges(starts.take(positions), sizes))
    owner = rows.repeat(sizes)
    d2 = _squared_dist_to(points.take(cand, axis=0), queries.take(owner, axis=0))
    # Sorted by (row, squared distance, index); each row keeps its first k.
    ordered = np.lexsort((cand, d2, owner))
    row_starts = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
    return cand.take(ordered).take(row_starts[:, None] + np.arange(k))


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
    # The topology holds them as int32; past 2^31 entries it refuses the map.
    indptr = np.arange(n + 1, dtype=np.int64) * nbrs.shape[1]
    return NeighborhoodTopology(indptr=indptr, indices=nbrs.ravel())


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
    return _fps_in_order(positions, m, _canonical_order(positions))[0]


# FPS keeps the maxima of its min-distances over blocks of this many
# entries of the canonical order, and each batch weighs this many candidates.
_FPS_BLOCK = 128
_FPS_BATCH = 64


def _fps_in_order(positions: np.ndarray, m: int, canon: np.ndarray,
                  rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Farthest point sampling given the points' canonical (x, y, z, index)
    order ``canon`` (a hierarchy level stores it, so a build sorts each level
    once) and, from a build, each point's exact kNN ``rows`` as ranks in
    ``canon``. Returns the sample (input indices, ascending) and the parent
    map: each point's nearest sampled point by (squared distance, index), as
    a position in the sample; a sampled point is its own parent.

    The sample is exactly that of the plain O(N*m) loop, run in canonical
    order, where the first of several equal maxima *is* the tie rule (the
    lexicographically smallest coordinates, then the lowest index):

    - Points at one position share every distance and sit together in
      canonical order, lowest index first, so the first of them is picked
      before the others, which then lie at 0. The loop runs over distinct
      positions until the largest min-distance is 0; from there it would
      take the remaining points in canonical order and update nothing.
    - Picks come in batches. A batch weighs the top candidates by
      (-min-distance, canonical index) and accepts the best one while it
      still beats every other position; each acceptance lowers the
      candidates' values with the same ``_squared_dist_cols`` arithmetic
      as a full update, so the batch picks what the loop would. The
      positions are kept as (x, y, z) columns, from which the candidates'
      distances and every update are computed.
    - After a pick at min-distance ``best``, a min-distance can only drop
      (or tie) where the squared distance to the pick is at most ``best``.
      So one update per batch visits, for each pick, a kd-tree ball of
      radius sqrt(best) (plus a margin) or, when ``best`` is below the
      squared distance to the pick's k-th neighbor, the pick's row of
      ``rows``: no point off an exact kNN row is nearer. A minimum does
      not depend on the order of its terms, so the update is exact.
      While balls hold over an eighth of the positions, and where squared
      distances may be subnormal, picks update every position instead: a
      batch's dense picks in one pass (``_fps_dense_update``), where each
      position takes the minimum over the picks, then the lowest input
      index among the picks at it, as updates in turn would leave.
    - Block maxima of the min-distances make the candidates' selection
      cost O(blocks + candidates); a batch recomputes only the blocks it
      touched.
    """
    from scipy.spatial import cKDTree  # only point builds load it
    n = positions.shape[0]
    m = _integer(m, "m", 1, n)
    _check_extent(positions)
    pts = positions.take(canon, axis=0)
    lead = np.ones(n, dtype=bool)  # the first point at each distinct position
    np.any(pts[1:] != pts[:-1], axis=1, out=lead[1:])
    group = np.cumsum(lead) - 1  # each point's position, in canonical order
    lead = np.flatnonzero(lead)
    upts = pts.take(lead, axis=0)
    cols = np.ascontiguousarray(upts.T)  # the positions as (x, y, z) columns
    lead_index = canon.take(lead)

    # Summing rows in canonical order keeps the start pick (and thus the
    # whole sample) independent of how the caller ordered the points. On a
    # far, flat cloud the centroid may drift far enough to overflow to inf.
    with np.errstate(over="ignore"):
        picks = [int(np.argmax(_squared_dist_cols(cols, pts.mean(axis=0))))]
    # Min-distances of the positions, padded to whole blocks with -inf.
    # Picked entries are parked at -1, below any real squared distance, so
    # no candidate search revisits them and no separate mask is needed.
    blocks = np.full((-(-lead.shape[0] // _FPS_BLOCK), _FPS_BLOCK), -np.inf)
    min_d2 = blocks.reshape(-1)[: lead.shape[0]]
    min_d2[:] = _squared_dist_cols(cols, cols[:, picks[0]])
    min_d2[picks[0]] = -1.0
    block_max = blocks.max(axis=1)
    # The input index of each position's nearest pick so far, ties to the lower.
    nearest = np.full(lead.shape[0], lead_index[picks[0]], dtype=np.int64)
    if rows is not None:  # as positions, with the squared distance each row reaches
        rows = group.take(rows.take(lead_index, axis=0))
        reach = _squared_dist_cols(cols.take(rows[:, -1], axis=1), cols)
    tree, wide = None, True  # the first picks' balls hold most positions

    while len(picks) < m and block_max.max() > 0.0:
        cand, bound, first_out = _fps_candidates(blocks, block_max)
        values = min_d2.take(cand)
        # Squared distances between the candidates, row i from candidate i.
        cand_cols = cols.take(cand, axis=1)
        between = _squared_dist_cols(cand_cols[:, :, None], cand_cols[:, None])
        batch, best = [], []
        while len(picks) + len(batch) < m:
            i = int(values.argmax())
            top = values[i]
            if not (top > bound or (top == bound and cand[i] < first_out)) or top <= 0.0:
                break
            batch.append(cand[i])
            best.append(top)
            np.minimum(values, between[i], out=values)
            values[i] = -1.0
        batch, best = np.array(batch), np.array(best)

        # The positions each pick can lower: every one while the balls are
        # wide or squared distances may be subnormal, else the pick's kNN row
        # or a kd-tree ball.
        dense = wide | (best < _BALL_MIN_D2)
        widest = 0
        if dense.any():
            widest = _fps_dense_update(cols, batch[dense], best[dense], min_d2, nearest,
                                       lead_index)
        visit, owner = [], []
        by_row = ~dense & (best < reach.take(batch)) if rows is not None else np.zeros_like(dense)
        if by_row.any():
            visit.append(rows.take(batch[by_row], axis=0).ravel())
            owner.append(batch[by_row].repeat(rows.shape[1]))
        by_ball = ~dense & ~by_row
        if by_ball.any():
            tree = cKDTree(upts) if tree is None else tree
            radii = np.sqrt(best[by_ball]) * (1.0 + _BALL_MARGIN)
            balls = tree.query_ball_point(upts.take(batch[by_ball], axis=0), radii,
                                          return_sorted=False)
            sizes = np.fromiter(map(len, balls), dtype=np.int64, count=radii.shape[0])
            widest = max(widest, int(sizes.max()))
            visit.append(np.fromiter(itertools.chain.from_iterable(balls), dtype=np.int64,
                                     count=int(sizes.sum())))
            owner.append(batch[by_ball].repeat(sizes))
        touched = np.full(block_max.shape[0], dense.any())
        touched[batch // _FPS_BLOCK] = True
        if visit:
            visit, owner = np.concatenate(visit), np.concatenate(owner)
            d2 = _squared_dist_cols(cols.take(visit, axis=1), cols.take(owner, axis=1))
            before = min_d2.take(visit)
            near = d2 <= before  # the visits that lower or tie a min-distance
            visit, owner, d2, before = visit[near], owner[near], d2[near], before[near]
            np.minimum.at(min_d2, visit, d2)
            after = min_d2.take(visit)
            # A position whose min-distance dropped forgets its old nearest
            # pick; then every pick at the new minimum offers its input index.
            nearest[visit[after < before]] = n
            tie = d2 == after
            np.minimum.at(nearest, visit[tie], lead_index.take(owner[tie]))
            touched[visit // _FPS_BLOCK] = True
        min_d2[batch] = -1.0
        block_max[touched] = blocks[touched].max(axis=1)
        # A ball over an eighth of the positions costs more than a full pass.
        wide = widest * 8 > lead.shape[0]
        picks.extend(batch.tolist())

    # The other points at a picked position lie at 0 from it, their nearest.
    min_d2[picks] = 0.0
    nearest[picks] = lead_index.take(picks)
    sampled = np.zeros(n, dtype=bool)
    sampled[lead.take(picks)] = True
    sampled[np.flatnonzero(~sampled)[: m - len(picks)]] = True  # the points taken at 0
    selected = np.sort(canon.take(np.flatnonzero(sampled)))
    parent_of = np.empty(n, dtype=np.int64)
    parent_of[canon] = np.searchsorted(selected, nearest.take(group))
    # A point at 0 from its nearest pick may tie with a pick taken at 0,
    # which updated nothing. That pick shares its position, and so comes
    # after the position's first point in index order, unless distinct
    # positions can lie at 0: that needs a nonzero coordinate whose square
    # is below _BALL_MIN_D2 (two distinct coordinates differ by more than
    # 2^-53 times the smaller nonzero magnitude, which then squares to far
    # above 0). There, those points ask the kNN.
    zero = canon.take(np.flatnonzero((min_d2.take(group) == 0.0) & ~sampled))
    if zero.size and (np.min(np.abs(pts), where=pts != 0.0, initial=np.inf)
                      < math.sqrt(_BALL_MIN_D2)):
        parent_of[zero] = deterministic_knn(positions.take(selected, axis=0),
                                            positions.take(zero, axis=0), 1)[:, 0]
    parent_of[selected] = np.arange(m, dtype=np.int64)
    return selected, parent_of


# A dense FPS update weighs at most this many (pick, position) pairs at once.
_FPS_DENSE_CHUNK = 1 << 17


def _fps_dense_update(cols: np.ndarray, picks: np.ndarray, tops: np.ndarray,
                      min_d2: np.ndarray, nearest: np.ndarray, lead_index: np.ndarray) -> int:
    """Lower every position's min-distance ``min_d2`` and nearest pick
    ``nearest`` (input indices of ``lead_index``), in place, by its squared
    distance to each of ``picks``, whose columns ``cols`` holds. Returns the
    most positions that lie within its ``tops`` entry of one pick.

    This is what an update per pick in turn leaves. Each position takes the
    minimum over the picks and its old min-distance, and then the lowest
    input index among the picks at that minimum, its old nearest pick
    included where the old min-distance ties it. Neither depends on the
    order of the picks, so chunks of picks are weighed in one pass each.
    """
    # Picks by input index: the first of equal minima is then the lowest.
    order = np.argsort(lead_index.take(picks))
    picks, tops = picks.take(order), tops.take(order)
    n = cols.shape[1]
    step = max(1, _FPS_DENSE_CHUNK // n)
    widest = 0
    for lo in range(0, picks.shape[0], step):
        chunk = picks[lo : lo + step]
        d2 = _squared_dist_cols(cols[:, None], cols.take(chunk, axis=1)[:, :, None])
        widest = max(widest, int(np.count_nonzero(d2 <= tops[lo : lo + step, None],
                                                  axis=1).max()))
        first = d2.argmin(axis=0)
        low = d2[first, np.arange(n)]
        at = np.flatnonzero(low <= min_d2)
        offer = lead_index.take(chunk.take(first.take(at)))
        tie = low.take(at) == min_d2.take(at)
        nearest[at] = np.where(tie, np.minimum(nearest.take(at), offer), offer)
        np.minimum(min_d2, low, out=min_d2)
    return widest


def _fps_candidates(blocks: np.ndarray, block_max: np.ndarray) -> tuple[np.ndarray, float, int]:
    """The top ``_FPS_BATCH`` entries of ``blocks`` (flattened: canonical
    order) by (-value, index), as ascending indices, less those below 0
    (picked or padding), and a bound that every other entry of at least 0
    meets: its value is below ``bound``, or equals it at an index of at
    least ``first_out``.

    The candidates lie in the blocks whose maxima rank in the top
    ``_FPS_BATCH``, ties at the last rank going to the lower blocks: a later
    block tied there holds that value at no lower index than the gathered
    ones, so its first index bounds every entry left out there.
    """
    nb, width = blocks.shape
    gathered, cut, left_out = np.arange(nb), -np.inf, blocks.size
    if nb > _FPS_BATCH:
        cut = np.partition(block_max, nb - _FPS_BATCH)[nb - _FPS_BATCH]
        above = np.flatnonzero(block_max > cut)
        at = np.flatnonzero(block_max == cut)
        keep = _FPS_BATCH - above.shape[0]
        if at.shape[0] > keep:  # the first block tied at the cut and left out
            left_out = int(at[keep]) * width
        gathered = np.sort(np.concatenate((above, at[:keep])))
    index = (gathered[:, None] * width + np.arange(width)).ravel()
    values = blocks.take(gathered, axis=0).ravel()
    bound = -np.inf
    if values.shape[0] > _FPS_BATCH:
        bound = np.partition(values, values.shape[0] - _FPS_BATCH)[values.shape[0] - _FPS_BATCH]
    over = np.flatnonzero(values > bound)
    ties = np.flatnonzero(values == bound)
    keep = _FPS_BATCH - over.shape[0]
    first_out = left_out if bound == cut else blocks.size
    if ties.shape[0] > keep:
        first_out = min(first_out, int(index[ties[keep]]))
    chosen = np.sort(np.concatenate((over, ties[:keep])))
    chosen = chosen[values.take(chosen) >= 0.0]  # neither picked nor padding
    return index.take(chosen), float(bound), first_out


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


def _voxel_size(value) -> float:
    """A caller's voxel side: one finite real > 0, else InvalidInputError."""
    size = float(_checked(value, "voxel_size", ()))
    if not size > 0:
        raise InvalidInputError(f"voxel_size must be positive, got {size}")
    return size


def pack_voxel_coords(coords: np.ndarray) -> np.ndarray:
    """Pack integer (x, y, z) voxel coordinates into one int64 key whose
    natural order equals lexicographic order on (x, y, z)."""
    _check_voxel_range(coords)
    c = coords + _VOXEL_COORD_BOUND
    return (c[:, 0] << 42) | (c[:, 1] << 21) | c[:, 2]


def voxelize(cloud: PointCloud, voxel_size: float) -> SparseVoxelGrid:
    """Bin points into cells of side ``voxel_size``; voxel coordinate of a
    point is floor(p / voxel_size) per axis. Cell features and centroid are
    the mean over contained points, by ``_pooled``: each cell sums its
    points from +0.0 in (x, y, z, index) order, so the centroids do not
    depend on the input order, a cell of -0.0 points averages to +0.0, and
    the means of finite points are finite."""
    voxel_size = _voxel_size(voxel_size)
    pos = cloud.positions
    with np.errstate(over="ignore"):  # a quotient past float64 is inf, rejected below
        cells = np.floor(pos / voxel_size)
    _check_voxel_range(cells)  # before the cast, which would wrap
    coords = cells.astype(np.int64)
    keys = pack_voxel_coords(coords)

    # Each cell's points in (x, y, z, index) order (lexsort is stable).
    order = np.lexsort((pos[:, 2], pos[:, 1], pos[:, 0], keys))
    _, starts, counts = np.unique(keys.take(order), return_index=True, return_counts=True)
    indptr, indices = _csr(np.append(starts, order.shape[0]), order, "voxel ", None,
                           starts.shape[0])
    features = np.empty((pos.shape[0], 0)) if cloud.features is None else cloud.features
    return SparseVoxelGrid(
        voxel_size=voxel_size,
        occupied=coords.take(order.take(starts), axis=0),
        cell_features=_pooled(features, indptr, indices),
        cell_centroid=_pooled(pos, indptr, indices),
        cell_count=counts,
    )


def kernel_window_topology(occupied: np.ndarray) -> NeighborhoodTopology:
    """3x3x3 window topology on occupied voxels, given by their (n, 3) voxel
    coordinates: T_i holds every occupied voxel within Chebyshev distance 1
    of voxel i, self included."""
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


# The step from a cell's packed key to the first key of each window column
# (dz = -1) in lexicographic (dx, dy) order, so the steps ascend. The cell's
# own column, (0, 0), is the fifth.
_COLUMN_STEPS = np.array([(dx << 42) + (dy << 21) - 1 for dx, dy
                          in itertools.product((-1, 0, 1), repeat=2)], dtype=np.int64)
_OWN_COLUMN = 4


def _window_topology(keys: np.ndarray, order: np.ndarray | None = None) -> NeighborhoodTopology:
    """Window topology of the cells with unique packed ``keys``, which
    ``order`` sorts (None: ascending already). A neighbor's key is the
    cell's key plus its step, exactly: each packed field holds coordinate +
    2^20, in [1, 2^21 - 1], so a +/-1 step stays in its field or leaves
    that field 0, which no key holds (x past 2^21 - 1 turns the key
    negative). Rows list hits in step order, by ascending cell coordinates.

    A window is 9 (dx, dy) columns of three consecutive keys (dz = -1, 0,
    +1), so a column's present keys sit side by side among the sorted keys:
    one search for its first key finds them all. The cell's own column
    needs none: key - 1, when present, sits just before the cell."""
    n = keys.shape[0]
    sorted_keys = keys if order is None else keys[order]
    first = keys + _COLUMN_STEPS[:, None]  # (9, n): each column's dz = -1 key
    at = np.empty_like(first)  # where each column's first present key would sit
    for j in range(first.shape[0]):
        if j != _OWN_COLUMN:
            at[j] = np.searchsorted(sorted_keys, first[j])
    own = np.arange(n)  # each cell's place among the sorted keys
    if order is not None:
        own[order] = own.copy()
    # The first cell's look below reads its own key, never key - 1.
    at[_OWN_COLUMN] = own - (sorted_keys[np.maximum(own - 1, 0)] == first[_OWN_COLUMN])
    # (9, 3, n): a hit is a sorted key that is one of its column's three,
    # compared by the difference's bits, which wrap as the steps do.
    loc = at[:, None, :] + np.arange(3)[:, None]
    hit = loc < n
    np.minimum(loc, n - 1, out=loc)
    hit &= (sorted_keys[loc] - first[:, None, :]).view(np.uint64) <= 2
    loc, hit = loc.reshape(27, n).T, hit.reshape(27, n).T
    indptr = np.concatenate(([0], np.cumsum(hit.sum(axis=1), dtype=np.int64)))
    indices = loc[hit] if order is None else order[loc[hit]]
    # The topology holds them as int32; past 2^31 entries it refuses the map.
    return NeighborhoodTopology(indptr=indptr, indices=indices)


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


def _check_float32(rows: np.ndarray, what: str) -> None:
    """Refuse ``rows`` past the float32 range: GPC1's cast would write inf."""
    if np.any(np.abs(rows) > np.finfo(np.float32).max):
        raise InvalidInputError(f"{what} must lie in the float32 range")


def save_point_cloud_binary(path, positions: np.ndarray, features: np.ndarray | None) -> None:
    """Write a GPC1 file. The points are checked as a ``PointCloud`` and
    against the float32 range of the format first, so bad input raises
    InvalidInputError before the file is opened."""
    cloud = PointCloud(positions=positions, features=features)
    n = cloud.n_points
    features = np.empty((n, 0)) if cloud.features is None else cloud.features
    d = features.shape[1]
    rows = np.hstack([cloud.positions, features])
    _check_float32(rows, "positions and features")
    rows = rows.astype("<f4")
    with open(path, "wb") as f:
        f.write(GPC_MAGIC)
        f.write(np.asarray([n, d], dtype="<u4").tobytes())
        f.write(rows.tobytes())
