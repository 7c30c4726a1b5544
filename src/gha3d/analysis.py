"""Introspection and evaluation of attention mechanisms.

The output z is linear in the values with value-independent weights, so
the effective weight matrix W (z = W v, coarsening included) is read
through the exact adjoint: row i, the vector W^T e_i, is the value
gradient for a one-hot output cotangent at query i, O(N k) after one
shared forward pass. A single row has no token cap; the full N x N
matrix, a stack of row blocks, is capped at ``PROBE_CAP`` tokens.
On top of that sit distance histograms (where does attention mass go?),
an approximation report against the dense reference, and a scaling sweep
that measures weight counts against the guaranteed linear bound.
"""

import csv
import io
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .attention import (
    MECHANISMS,
    AttentionInputs,
    _bounded_spans,
    _dense_softmax_chunks,
    _edge_weights,
    _fold,
    _pull_back,
    _value_cotangent,
    dense_attention,
    gha_forward,
)
from .errors import CapacityError, InvalidInputError, InvariantViolation
from .geometry import PointCloud, _checked, _integer, _squared_dist_to, voxelize
from .hierarchy import VOXEL_WINDOW_K, Hierarchy, build_hierarchy, truncate
from .seeding import substream

# An N x N weight matrix costs O(N^2) time and memory; beyond this many
# tokens it is refused rather than silently paid.
PROBE_CAP = 4096


def _map_ordered(fn, items, threads: int):
    """Apply fn to items, optionally on a thread pool; order is preserved.

    Each item is computed independently, so the results are identical for
    any thread count.
    """
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# Effective attention weights: rows of W from the exact adjoint
# ---------------------------------------------------------------------------

def _check_matrix_cap(n: int, mechanism: str = "gha") -> None:
    if n > PROBE_CAP:  # single rows exist for gha and local weights, not dense ones
        hint = "" if mechanism == "dense" else "; effective_attention_row reads rows at any size"
        raise CapacityError(f"refusing a {n} x {n} weight matrix, above the cap of "
                            f"{PROBE_CAP} tokens{hint}")


def _effective_rows(hierarchy: Hierarchy, weights, queries: np.ndarray) -> np.ndarray:
    """Rows ``queries`` of W from ``_edge_weights``'s pass and per-level edge
    ``weights``: the adjoint's value gradients for one one-hot output
    cotangent per query."""
    held, ts = weights
    c = np.zeros((hierarchy.levels[0].n_tokens, queries.shape[0]))
    c[queries, np.arange(queries.shape[0])] = 1.0 / held.d_hat.take(queries)  # dz = e_q, scaled
    folds = zip(hierarchy.levels, ts, _fold(hierarchy, held.mu, held.m_q, c))
    return _pull_back(hierarchy, [_value_cotangent(lv, t, fold) for lv, t, fold in folds]).T


def _weight_matrix(hierarchy: Hierarchy, weights, threads: int) -> np.ndarray:
    """Every row of W from one ``_edge_weights``, in row blocks whose
    heights bound the level-0 edges-by-rows temporaries; blocks are
    independent, so threads never change a bit."""
    n = hierarchy.levels[0].n_tokens
    out = np.empty((n, n), dtype=np.float64)

    def rows(span):
        out[span[0]:span[1]] = _effective_rows(hierarchy, weights, np.arange(*span))

    _map_ordered(rows, _bounded_spans(n, hierarchy.levels[0].topology.total_edges), threads)
    return out


def effective_attention(hierarchy: Hierarchy, embedding=None, embedding_mode: str = "none",
                        *, threads: int = 1) -> np.ndarray:
    """(N, N) matrix of effective weights each query puts on each token.

    Row i lists the convex weights behind z_i: nonnegative, summing to 1,
    and bitwise ``effective_attention_row(hierarchy, i)``. One forward pass
    serves every row; it keeps every level's edge weights and leaves its
    pass on ``hierarchy`` for a later ``gha_backward``. ``threads`` never
    changes a bit.
    """
    threads = _integer(threads, "threads", 1)
    _check_matrix_cap(hierarchy.levels[0].n_tokens)
    return _weight_matrix(hierarchy, _edge_weights(hierarchy, embedding, embedding_mode), threads)


def effective_attention_row(hierarchy: Hierarchy, i: int, embedding=None,
                            embedding_mode: str = "none") -> np.ndarray:
    """Effective weights of query i over all N tokens (nonnegative, sum 1).

    Row i of ``effective_attention``, read as the value gradient of the
    exact adjoint for a one-hot output cotangent at query i: one forward
    (which leaves its pass, as in ``effective_attention``) and one
    single-column backward pass, O(N k) for any N and any embedding mode.
    The row is bitwise permutation-equivariant.
    """
    i = _integer(i, "query index", 0, hierarchy.levels[0].n_tokens - 1)
    weights = _edge_weights(hierarchy, embedding, embedding_mode)
    return _effective_rows(hierarchy, weights, np.array([i]))[0]


def mechanism_weights(hierarchy: Hierarchy, mechanism: str, embedding=None,
                      embedding_mode: str = "none", *, threads: int = 1) -> np.ndarray:
    """Effective (N, N) weights of one mechanism over the level-0 tokens.

    gha reads the full hierarchy's rows, local reads them from the
    hierarchy truncated to level 0 (weights outside the neighborhood are
    structurally zero), and dense evaluates the reference softmax directly.
    """
    threads = _integer(threads, "threads", 1)
    if mechanism not in MECHANISMS:
        raise InvalidInputError(f"mechanism must be one of {MECHANISMS}, got {mechanism!r}")
    if mechanism == "dense":
        lv = hierarchy.levels[0]
        _check_matrix_cap(lv.n_tokens, mechanism)
        out = np.empty((lv.n_tokens, lv.n_tokens), dtype=np.float64)
        for start, stop, a, denom, _ in _dense_softmax_chunks(
            lv.q_tilde, lv.k_tilde, lv.positions, embedding, embedding_mode
        ):
            out[start:stop] = a / denom[:, None]
        return out
    h = truncate(hierarchy, 0) if mechanism == "local" else hierarchy
    return effective_attention(h, embedding, embedding_mode, threads=threads)


# ---------------------------------------------------------------------------
# Distance histograms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistanceHistogram:
    """Attention mass binned by query-to-token distance.

    Mass in bin b is the sum of effective weights w_ij over pairs whose
    distance (measured between the original level-0 token positions, even
    for weight routed through coarse levels) falls in
    [bin_edges[b], bin_edges[b+1]); the last bin is closed on the right.
    Every row sums to 1, so the total mass equals the number of queries.
    """

    mechanism: str
    bin_edges: np.ndarray  # (n_bins + 1,)
    mass: np.ndarray  # (n_bins,)

    @property
    def n_bins(self) -> int:
        return self.mass.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.mass.sum())


def _pairwise_distances(queries: np.ndarray, tokens: np.ndarray | None = None) -> np.ndarray:
    """Distances from each query row to each token row (default: the
    queries) by the one squared distance; one past float64 reads inf."""
    tokens = queries if tokens is None else tokens
    out = np.empty((queries.shape[0], tokens.shape[0]), dtype=np.float64)
    # Row chunks whose two temporaries of rows x tokens stay within the bound.
    for lo, hi in _bounded_spans(queries.shape[0], 2 * tokens.shape[0]):
        with np.errstate(over="ignore"):
            np.sqrt(_squared_dist_to(tokens[None], queries[lo:hi, None]), out=out[lo:hi])
    return out


def neighborhood_radius(hierarchy: Hierarchy) -> float:
    """Longest level-0 neighborhood edge; local attention cannot move mass
    between tokens farther apart than this."""
    lv = hierarchy.levels[0]
    pos, topo = lv.positions, lv.topology
    rows = np.repeat(np.arange(topo.n_tokens), topo.sizes)  # each edge's query
    with np.errstate(over="ignore"):
        d2 = _squared_dist_to(pos.take(topo.indices, axis=0), pos.take(rows, axis=0))
    return float(np.sqrt(d2.max()))


def _pair_inputs(positions, weights) -> tuple:
    """Finite (n, 3) positions and finite (n, n) weights as float64 arrays;
    anything else raises InvalidInputError."""
    positions = _checked(positions, "positions", (None, 3))
    n = positions.shape[0]
    return positions, _checked(weights, "weights", (n, n))


def mass_beyond_radius(positions: np.ndarray, weights: np.ndarray, radius: float) -> float:
    """Total weight on pairs strictly farther apart than ``radius``."""
    positions, weights = _pair_inputs(positions, weights)
    radius = float(_checked(radius, "radius", ()))
    if not radius >= 0.0:
        raise InvalidInputError(f"radius must be non-negative, got {radius!r}")
    d = _pairwise_distances(positions)
    return float(weights[d > radius].sum())


def attention_histogram(hierarchy: Hierarchy, mechanism: str = "gha", n_bins: int = 64,
                        embedding=None, embedding_mode: str = "none",
                        *, threads: int = 1) -> DistanceHistogram:
    """Histogram of a mechanism's attention mass over pair distances.

    Bins are uniform over [0, max pairwise distance] between the level-0
    token positions.
    """
    n_bins = _integer(n_bins, "n_bins", 1)
    pos = hierarchy.levels[0].positions
    weights = mechanism_weights(hierarchy, mechanism, embedding, embedding_mode,
                                threads=threads)
    dist = _pairwise_distances(pos)
    span = float(dist.max())
    if span == 0.0:  # all tokens coincide; any positive span bins the zero
        span = 1.0
    edges = np.linspace(0.0, span, n_bins + 1)
    mass, _ = np.histogram(dist.ravel(), bins=edges, weights=weights.ravel())
    return DistanceHistogram(mechanism=mechanism, bin_edges=edges, mass=mass)


# ---------------------------------------------------------------------------
# Approximation quality vs the dense reference
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ApproximationReport:
    """How closely hierarchical attention tracks the dense softmax.

    Row errors are relative L2 distances between gha and dense output
    rows. The locality ratio divides the mean effective weight a query
    puts on its 5 nearest other tokens by the mean weight on its 5
    farthest (ratio of means over all queries, self excluded); values
    above 1 mean attention concentrates on nearby geometry.
    """

    n_tokens: int
    flavor: str
    k: int
    r: int
    embedding_mode: str
    max_rel_err: float
    mean_rel_err: float
    locality_ratio: float
    weight_count: int
    dense_weight_count: int


def _ranked_columns(d: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Per row of ``d``, the columns at ranks lo..hi-1 of its (value, column)
    order, in that order: the slice [lo:hi] of a stable argsort, found by
    partial selection in O(width) per row instead of a full sort.

    Values strictly between the rank-lo and rank-(hi-1) values are in the
    slice; an entry equal to either bound is in it when its rank, the count
    of smaller values plus its place among the equal ones, falls in range."""
    bounds = np.partition(d, (lo, hi - 1), axis=1)
    keep = (d > bounds[:, lo, None]) & (d < bounds[:, hi - 1, None])
    for bound in (bounds[:, lo, None], bounds[:, hi - 1, None]):
        equal = d == bound
        rank = np.cumsum(equal, axis=1, dtype=np.int32)
        rank += (d < bound).sum(axis=1, keepdims=True, dtype=np.int32) - 1
        keep |= equal & (rank >= lo) & (rank < hi)
        del equal, rank
    cols = np.nonzero(keep)[1].reshape(d.shape[0], hi - lo)  # ascending per row
    order = np.take_along_axis(d, cols, axis=1).argsort(axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1)


def locality_ratio(positions: np.ndarray, weights: np.ndarray, n_extreme: int = 5) -> float:
    """Mean weight on each query's nearest tokens over mean weight on its
    farthest (self excluded, ties broken by index)."""
    positions, weights = _pair_inputs(positions, weights)
    n_extreme = _integer(n_extreme, "n_extreme", 1)
    n = positions.shape[0]
    if n < 2:
        raise InvalidInputError("locality ratio needs at least 2 tokens")
    m = min(n_extreme, n - 1)
    near, far = np.empty((n, m)), np.empty((n, m))
    for lo, hi in _bounded_spans(n, 3 * n):  # row chunks: no N x N distances
        d = _pairwise_distances(positions[lo:hi], positions)
        d[np.arange(hi - lo), np.arange(lo, hi)] = np.inf  # excludes self from "nearest"
        near[lo:hi] = np.take_along_axis(weights[lo:hi], _ranked_columns(d, 0, m), axis=1)
        far[lo:hi] = np.take_along_axis(weights[lo:hi], _ranked_columns(d, n - 1 - m, n - 1),
                                        axis=1)
        del d  # else it is alive while the next chunk is made
    near_mean = float(near.mean())
    far_mean = float(far.mean())
    if far_mean == 0.0:
        return math.inf
    return near_mean / far_mean


def _relative_errors(z: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Row i is |z_i - ref_i| / |ref_i| (the denominator at least the
    smallest normal float). Where values near the float64 limit overflow
    the difference or a norm, both rows are scaled by one power of two,
    2^-e with e the exponent of their largest magnitude, which leaves the
    ratio as an unbounded exponent would give it; other rows keep their
    bits."""
    tiny = np.finfo(np.float64).tiny
    with np.errstate(over="ignore", invalid="ignore"):  # mended below
        diff = np.linalg.norm(z - ref, axis=1)
        norm = np.linalg.norm(ref, axis=1)
        rel = diff / np.maximum(norm, tiny)
    bad = np.flatnonzero(~(np.maximum(diff, norm) < np.inf))  # inf or NaN
    if bad.size:
        a, b = z.take(bad, axis=0), ref.take(bad, axis=0)
        e = np.frexp(np.maximum(np.abs(a).max(axis=1), np.abs(b).max(axis=1)))[1][:, None]
        a, b = np.ldexp(a, -e), np.ldexp(b, -e)
        with np.errstate(over="ignore", divide="ignore"):  # beyond float64: inf
            rel[bad] = (np.linalg.norm(a - b, axis=1)
                        / np.maximum(np.linalg.norm(b, axis=1), np.ldexp(tiny, -e[:, 0])))
    return rel


def approximation_report(hierarchy: Hierarchy, embedding=None, embedding_mode: str = "none",
                         *, threads: int = 1) -> ApproximationReport:
    """gha vs the dense reference; raises InvariantViolation if the
    effective weights are not row-stochastic."""
    threads = _integer(threads, "threads", 1)
    lv = hierarchy.levels[0]
    n = lv.n_tokens
    _check_matrix_cap(n)
    edge_weights = _edge_weights(hierarchy, embedding, embedding_mode)
    dense = dense_attention(AttentionInputs(
        q=lv.q_tilde, k=lv.k_tilde, v=lv.v_tilde, positions=lv.positions,
        embedding=embedding, embedding_mode=embedding_mode,
    ))
    # The one pass serves z here and the weights below.
    rel = _relative_errors(edge_weights[0].z, dense.z)
    weights = _weight_matrix(hierarchy, edge_weights, threads)
    worst = np.max(np.abs(weights.sum(axis=1) - 1.0))
    if weights.min() < 0.0 or worst > 1e-10:
        raise InvariantViolation(
            "effective attention rows are not a probability distribution "
            f"(min weight {weights.min():.3e}, worst row sum deviation {worst:.3e})"
        )
    return ApproximationReport(
        n_tokens=n,
        flavor=hierarchy.flavor,
        k=hierarchy.neighborhood_k,
        r=hierarchy.coarsen_ratio,
        embedding_mode=embedding_mode,
        max_rel_err=float(rel.max()),
        mean_rel_err=float(rel.mean()),
        locality_ratio=locality_ratio(lv.positions, weights),
        weight_count=sum(level.topology.total_edges for level in hierarchy.levels),
        dense_weight_count=n * n,
    )


# ---------------------------------------------------------------------------
# Scaling sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingRow:
    n_points: int
    n_tokens: int
    flavor: str
    k: int
    r: int
    mechanism: str
    weight_count: int
    weight_bound: float  # k * r / (r - 1) * n_tokens; NaN for non-gha rows
    peak_bytes_estimate: int  # nominal: 8 * (2 + d) bytes for every edge, not a measured peak
    wall_time: float  # seconds, hierarchy build + forward


@dataclass(frozen=True)
class ScalingReport:
    """Weight counts over a sweep of sizes with a linear least-squares fit.

    slope/intercept/r_squared fit weight_count against n_tokens; for the
    gha mechanism the count is provably linear, so r_squared approaches 1.
    """

    rows: tuple
    slope: float
    intercept: float
    r_squared: float


def weight_bound(k: int, r: int, n_tokens: int) -> float:
    """Guaranteed cap on total attention weights: the level sizes shrink
    at least geometrically by r, so sum_h k * n_h <= k * n * r / (r - 1)."""
    k, r = _integer(k, "k", 1), _integer(r, "coarsening ratio", 2)
    return k * r / (r - 1) * _integer(n_tokens, "n_tokens", 1)


def _check_weight_bound(row: ScalingRow) -> None:
    if row.weight_count > row.weight_bound:
        raise InvariantViolation(
            f"weight count {row.weight_count} exceeds the linear bound "
            f"{row.weight_bound:.1f} at n={row.n_tokens} (k={row.k}, r={row.r})"
        )


def _fit_line(xs: np.ndarray, ys: np.ndarray) -> tuple:
    if xs.shape[0] < 2:
        return math.nan, math.nan, math.nan
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    ss_res = float(resid @ resid)
    centered = ys - ys.mean()
    ss_tot = float(centered @ centered)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def scaling_sweep(sizes, *, flavor: str = "point", k: int = 8, r: int = 2,
                  mechanism: str = "gha", seed: int = 0, d: int = 8,
                  voxel_size: float = 0.05) -> ScalingReport:
    """Run one mechanism over seeded uniform clouds of the given sizes.

    Each size draws a fresh uniform cloud in the unit cube and N(0, 1)
    q/k/v. gha rows are checked against the linear weight bound and the
    report fits weight_count ~ n_tokens. peak_bytes_estimate is a nominal
    all-edges figure: 8 bytes each for every edge's score, weight, and d
    value lanes, as if all were held at once. No path does that (the gha
    and local kernels stream row spans of a level, the dense one row
    blocks), so measured peaks sit well below it.
    """
    if mechanism not in MECHANISMS:
        raise InvalidInputError(f"mechanism must be one of {MECHANISMS}, got {mechanism!r}")
    # Voxel hierarchies always use the 3x3x3 window and power-of-two strides (r = 2),
    # so their rows report those instead of the point-flavor k/r arguments.
    eff_k, eff_r = (VOXEL_WINDOW_K, 2) if flavor == "voxel" else (k, r)
    sizes = [_integer(n, "size", 1) for n in sizes]
    d = _integer(d, "d", 1)
    rows = []
    for n in sizes:
        pts = substream(seed, "cloud-gen", n).uniform(0.0, 1.0, size=(n, 3))
        if flavor == "voxel":
            grid = voxelize(PointCloud(positions=pts), voxel_size)
            token_pos, coords = grid.cell_centroid, grid.occupied
        else:
            token_pos, coords = pts, None
        n_tok = token_pos.shape[0]
        qkv_rng = substream(seed, "qkv", n)
        q, k_mat, v = (qkv_rng.normal(size=(n_tok, d)) for _ in range(3))

        t0 = time.perf_counter()
        if mechanism == "dense":
            res = dense_attention(AttentionInputs(q=q, k=k_mat, v=v, positions=token_pos))
        else:
            h = build_hierarchy(token_pos, q, k_mat, v, flavor=flavor, k=k, r=r, coords=coords)
            if mechanism == "local":
                h = truncate(h, 0)
            res = gha_forward(h)
        wall = time.perf_counter() - t0

        row = ScalingRow(
            n_points=n,
            n_tokens=n_tok,
            flavor=flavor,
            k=eff_k,
            r=eff_r,
            mechanism=mechanism,
            weight_count=res.weight_count,
            weight_bound=weight_bound(eff_k, eff_r, n_tok) if mechanism == "gha" else math.nan,
            peak_bytes_estimate=res.weight_count * 8 * (2 + d),
            wall_time=wall,
        )
        if mechanism == "gha":
            _check_weight_bound(row)
        rows.append(row)

    xs = np.array([row.n_tokens for row in rows], dtype=np.float64)
    ys = np.array([row.weight_count for row in rows], dtype=np.float64)
    slope, intercept, r2 = _fit_line(xs, ys)
    return ScalingReport(rows=tuple(rows), slope=slope, intercept=intercept, r_squared=r2)


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def _writer():
    buf = io.StringIO(newline="")
    return buf, csv.writer(buf, lineterminator="\n")


def histogram_csv(hist: DistanceHistogram) -> str:
    """CSV rows (mechanism, bin_lo, bin_hi, mass); mass is the summed
    row-stochastic weight on pairs in [bin_lo, bin_hi), so the column
    totals the number of query tokens."""
    buf, w = _writer()
    buf.write("# attention mass per distance bin; total mass = number of queries\n")
    w.writerow(["mechanism", "bin_lo", "bin_hi", "mass"])
    for b in range(hist.n_bins):
        w.writerow([hist.mechanism, repr(float(hist.bin_edges[b])),
                    repr(float(hist.bin_edges[b + 1])), repr(float(hist.mass[b]))])
    return buf.getvalue()


def approximation_csv(report: ApproximationReport) -> str:
    """One CSV row of approximation metrics; rel errors are row-wise
    relative L2 against the dense reference, locality_ratio is mean
    near-5 weight over mean far-5 weight (self excluded)."""
    buf, w = _writer()
    buf.write("# gha vs dense on one cloud; errors are row-relative L2\n")
    w.writerow(["n_tokens", "flavor", "k", "r", "embedding_mode", "max_rel_err",
                "mean_rel_err", "locality_ratio", "weight_count", "dense_weight_count"])
    w.writerow([report.n_tokens, report.flavor, report.k, report.r, report.embedding_mode,
                repr(report.max_rel_err), repr(report.mean_rel_err),
                repr(report.locality_ratio), report.weight_count, report.dense_weight_count])
    return buf.getvalue()


def scaling_csv(report: ScalingReport) -> str:
    """One CSV row per sweep size.

    weight_count sums attention edges over all levels; weight_bound is
    the guaranteed k*r/(r-1)*n_tokens cap (empty for non-gha rows);
    peak_bytes_estimate = 8*(2+d)*weight_count is a nominal all-edges
    figure (every edge's score, weight, and value lanes, as if held at once;
    the kernels stream, so measured peaks sit below it); wall_time covers
    hierarchy build plus forward in seconds.
    """
    buf, w = _writer()
    buf.write("# weight_count = attention edges summed over levels; "
              "peak_bytes_estimate = 8*(2+d)*weight_count; wall_time = build+forward seconds\n")
    w.writerow(["n_points", "n_tokens", "flavor", "k", "r", "mechanism", "weight_count",
                "weight_bound", "peak_bytes_estimate", "wall_time"])
    for row in report.rows:
        w.writerow([row.n_points, row.n_tokens, row.flavor, row.k, row.r, row.mechanism,
                    row.weight_count,
                    "" if math.isnan(row.weight_bound) else repr(row.weight_bound),
                    row.peak_bytes_estimate, repr(row.wall_time)])
    buf.write(f"# fit: weight_count ~ {report.slope!r} * n_tokens + {report.intercept!r}, "
              f"r_squared = {report.r_squared!r}\n")
    return buf.getvalue()


def heatmap_csv(positions: np.ndarray, weights: np.ndarray) -> str:
    """CSV rows (x, y, z, weight): one query's effective weight per token."""
    positions = _checked(positions, "positions", (None, 3))
    weights = _checked(weights, "weights", (positions.shape[0],))
    rows = np.column_stack([positions, weights]).tolist()
    return "x,y,z,weight\n" + "".join(f"{x!r},{y!r},{z!r},{w!r}\n" for x, y, z, w in rows)
