"""Attention kernels.

``dense_attention`` is the exact softmax reference, ``local_attention``
restricts it to a neighborhood topology, and ``gha_forward`` runs the
hierarchical approximation: every level contributes local attention over
its own topology, and unnormalized results flow down the hierarchy by
parent copy, with a single normalization at the finest level.

All kernels accumulate exponentials under a per-query running maximum so
results cannot overflow, while staying mathematically identical to the
unshifted sums. ``gha_backward`` is the exact adjoint of the forward map
(including the coarsening averages) with respect to level-0 q/k/v.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InvalidInputError
from .geometry import _freeze
from .hierarchy import Hierarchy


# ---------------------------------------------------------------------------
# Random Fourier positional features
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FourierEmbedding:
    """gamma(p) = [cos(2 pi b_1.p), sin(2 pi b_1.p), cos(2 pi b_2.p), ...].

    ``frequencies`` rows are the b_i, sampled once and then fixed.
    """

    frequencies: np.ndarray  # (m, 3) float64

    def __post_init__(self):
        f = _freeze(self.frequencies, np.float64)
        if f.ndim != 2 or f.shape[1] != 3 or f.shape[0] < 1:
            raise InvalidInputError(f"frequencies must be (m, 3) with m >= 1, got {f.shape}")
        if not np.all(np.isfinite(f)):
            raise InvalidInputError("frequencies contain non-finite values")
        object.__setattr__(self, "frequencies", f)

    @property
    def m(self) -> int:
        return self.frequencies.shape[0]

    @property
    def output_dim(self) -> int:
        return 2 * self.m


def make_fourier_embedding(d: int, rng: np.random.Generator) -> FourierEmbedding:
    """Sample b_i ~ N(0, 1) for an embedding that adds to d-wide rows.

    d must be even (m = d/2 cos/sin pairs).
    """
    if d < 2 or d % 2 != 0:
        raise ConfigError(f"positional embedding needs an even feature width >= 2, got {d}")
    return FourierEmbedding(frequencies=rng.normal(size=(d // 2, 3)))


def fourier_embed(emb: FourierEmbedding, p) -> np.ndarray:
    """Embed a single 3-vector; components interleave cos, sin per frequency."""
    p = np.asarray(p, dtype=np.float64).reshape(3)
    return embed_points(emb, p[None, :])[0]


def embed_points(emb: FourierEmbedding, pts: np.ndarray) -> np.ndarray:
    """Vectorized gamma over rows of an (n, 3) array -> (n, 2m)."""
    pts = np.asarray(pts, dtype=np.float64)
    if not np.all(np.isfinite(pts)):
        raise InvalidInputError("positions contain non-finite values")
    angles = (2.0 * np.pi) * (pts @ emb.frequencies.T)
    out = np.empty((angles.shape[0], 2 * emb.m), dtype=np.float64)
    out[:, 0::2] = np.cos(angles)
    out[:, 1::2] = np.sin(angles)
    return out


_MODES = ("none", "absolute", "relative")


def _check_mode(embedding, embedding_mode: str, d: int) -> None:
    if embedding_mode not in _MODES:
        raise ConfigError(f"embedding_mode must be one of {_MODES}, got {embedding_mode!r}")
    if embedding_mode != "none":
        if embedding is None:
            raise ConfigError(f"embedding_mode {embedding_mode!r} requires an embedding")
        if embedding.output_dim != d:
            raise ConfigError(
                f"embedding width {embedding.output_dim} does not match feature width {d}"
            )


# ---------------------------------------------------------------------------
# Inputs / results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttentionInputs:
    q: np.ndarray  # (N, d)
    k: np.ndarray  # (N, d)
    v: np.ndarray  # (N, d)
    positions: np.ndarray  # (N, 3)
    embedding: FourierEmbedding | None = None
    embedding_mode: str = "none"

    def __post_init__(self):
        arrs = {}
        for name in ("q", "k", "v", "positions"):
            a = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=np.float64))
            if not np.all(np.isfinite(a)):
                raise InvalidInputError(f"{name} contains non-finite values")
            arrs[name] = a
            object.__setattr__(self, name, a)
        q, k, v, pos = arrs["q"], arrs["k"], arrs["v"], arrs["positions"]
        if q.ndim != 2 or q.shape[1] < 1 or q.shape[0] < 1:
            raise InvalidInputError(f"q must be (N, d) with N, d >= 1, got {q.shape}")
        if k.shape != q.shape or v.shape != q.shape:
            raise InvalidInputError(
                f"q, k, v shapes must agree, got {q.shape}, {k.shape}, {v.shape}"
            )
        if pos.shape != (q.shape[0], 3):
            raise InvalidInputError(f"positions must be ({q.shape[0]}, 3), got {pos.shape}")
        _check_mode(self.embedding, self.embedding_mode, q.shape[1])

    @property
    def n_tokens(self) -> int:
        return self.q.shape[0]

    @property
    def d(self) -> int:
        return self.q.shape[1]


@dataclass(frozen=True)
class AttentionResult:
    """z rows with their softmax denominators and weight instrumentation.

    Normalizers are reported in linear space: strictly positive and finite
    whenever the true denominator fits f64 (score magnitudes below ~709),
    saturating to +inf / underflowing to 0 outside that range. z itself is
    computed from max-shifted accumulators and is exact either way.
    """

    z: np.ndarray  # (N, d_v)
    normalizers: np.ndarray  # (N,) the softmax denominators
    weight_count: int
    per_level_weight_count: tuple

    def __post_init__(self):
        norm = np.asarray(self.normalizers, dtype=np.float64)
        if np.any(np.isnan(norm)) or np.any(norm < 0):
            raise InvalidInputError("normalizers must be non-negative")
        object.__setattr__(self, "normalizers", norm)
        object.__setattr__(self, "per_level_weight_count", tuple(int(c) for c in self.per_level_weight_count))
        if self.weight_count != sum(self.per_level_weight_count):
            raise InvalidInputError("weight_count must equal the sum over levels")


# ---------------------------------------------------------------------------
# Score helpers
# ---------------------------------------------------------------------------

def _interleaved_dot(q_rows: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Per-row dot of q_rows (..., 2m) with the interleaved vector of cos and
    sin (..., m each), without materializing gamma itself."""
    return np.einsum("...m,...m->...", q_rows[..., 0::2], cos) + np.einsum(
        "...m,...m->...", q_rows[..., 1::2], sin
    )


def _scored(q, k, positions, embedding, mode):
    """q and k as the scores see them: q + gamma and k + gamma in absolute
    mode, unchanged in the others."""
    if mode == "absolute":
        gamma = embed_points(embedding, positions)
        return q + gamma, k + gamma
    return q, k


def _rotation(p_query, p_key, embedding):
    """The relative mode's (cos, sin) of 2 pi b . (p_query - p_key): the
    score adds q . gamma(p_query - p_key)."""
    angles = (2.0 * np.pi) * ((p_query - p_key) @ embedding.frequencies.T)
    return np.cos(angles), np.sin(angles, out=angles)


# ---------------------------------------------------------------------------
# Dense and local references
# ---------------------------------------------------------------------------

def _bounded_spans(n: int, width: int) -> list:
    """Pieces of range(n) that keep a rows-by-width temporary within 2^22
    elements; every N x N-scale product here and in the analysis is cut so."""
    step = max(1, min(n, (1 << 22) // max(1, width)))
    return [(lo, min(n, lo + step)) for lo in range(0, n, step)]


def _dense_softmax_chunks(q, k, pos, emb, mode):
    """Row chunks (start, stop, a, denom, mu) of the dense reference softmax:
    a = exp(s - mu) for query rows start:stop against all keys, with row
    maxima mu and row sums denom, so the weights are a / denom."""
    n, d = q.shape
    _check_mode(emb, mode, d)
    scale = math.sqrt(d)
    q, k = _scored(q, k, pos, emb, mode)
    # Rows-by-keys (by-frequencies in relative mode) temporaries.
    for start, stop in _bounded_spans(n, n * (emb.m if mode == "relative" else 1)):
        s = q[start:stop] @ k.T
        if mode == "relative":
            s += _interleaved_dot(q[start:stop, None, :],
                                  *_rotation(pos[start:stop, None, :], pos[None, :, :], emb))
        s /= scale
        mu = s.max(axis=1)
        a = np.exp(s - mu[:, None])
        yield start, stop, a, a.sum(axis=1), mu


def dense_attention(inputs: AttentionInputs) -> AttentionResult:
    """Exact softmax(q k^T / sqrt(d)) v with per-row max subtraction."""
    n = inputs.n_tokens
    z = np.empty_like(inputs.v)
    normalizers = np.empty(n, dtype=np.float64)
    for start, stop, a, denom, mu in _dense_softmax_chunks(
        inputs.q, inputs.k, inputs.positions, inputs.embedding, inputs.embedding_mode
    ):
        z[start:stop] = (a @ inputs.v) / denom[:, None]
        with np.errstate(over="ignore"):  # extreme scores saturate to inf
            normalizers[start:stop] = denom * np.exp(mu)
    return AttentionResult(
        z=z, normalizers=normalizers, weight_count=n * n, per_level_weight_count=(n * n,)
    )


class _LevelCache(NamedTuple):
    q: np.ndarray  # q as the scores saw it (with gamma in absolute mode)
    k: np.ndarray  # k likewise
    rel: tuple | None  # per-edge relative (cos, sin); None in other modes
    t: np.ndarray  # exp(s - mu[row]) per edge
    mu: np.ndarray  # per-token local max score


def _level_softmax(q, k, v, positions, topology, embedding, mode, scale):
    """Max-shifted softmax sums over one topology.

    Returns the per-edge cache, the shifted denominators and the shifted
    unnormalized outputs: denom_i * exp(mu_i) and y_i * exp(mu_i) are the
    true local sums."""
    rows, cols, starts = topology.rows, topology.indices, topology.indptr[:-1]
    q, k = _scored(q, k, positions, embedding, mode)
    s = np.einsum("ed,ed->e", q[rows], k[cols])
    rel = None
    if mode == "relative":
        rel = _rotation(positions[rows], positions[cols], embedding)
        s += _interleaved_dot(q[rows], *rel)
    s /= scale
    mu = np.maximum.reduceat(s, starts)
    t = np.exp(s - mu[rows])
    denom = np.add.reduceat(t, starts)
    weighted = v[cols]
    weighted *= t[:, None]  # in place: one edge-by-column temporary, not two
    y = np.add.reduceat(weighted, starts, axis=0)
    return _LevelCache(q=q, k=k, rel=rel, t=t, mu=mu), denom, y


def local_attention(inputs: AttentionInputs, topology) -> AttentionResult:
    """Softmax attention restricted to j in T_i."""
    if topology.n_tokens != inputs.n_tokens:
        raise InvalidInputError("topology token count does not match inputs")
    cache, denom, y = _level_softmax(
        inputs.q, inputs.k, inputs.v, inputs.positions, topology,
        inputs.embedding, inputs.embedding_mode, math.sqrt(inputs.d),
    )
    e = topology.total_edges
    with np.errstate(over="ignore"):
        normalizers = denom * np.exp(cache.mu)
    return AttentionResult(
        z=y / denom[:, None],
        normalizers=normalizers,
        weight_count=e,
        per_level_weight_count=(e,),
    )


# ---------------------------------------------------------------------------
# Hierarchical forward
# ---------------------------------------------------------------------------

def _forward_core(hierarchy: Hierarchy, embedding, mode: str, want_cache: bool):
    d = hierarchy.levels[0].q_tilde.shape[1]
    _check_mode(embedding, mode, d)
    scale = math.sqrt(d)
    depth = hierarchy.depth

    caches: list = [None] * (depth + 1)
    per_level = [0] * (depth + 1)
    carry_y = carry_d = carry_m = None
    for h in range(depth, -1, -1):
        lv = hierarchy.levels[h]
        cache, d_loc, y_loc = _level_softmax(
            lv.q_tilde, lv.k_tilde, lv.v_tilde, lv.positions, lv.topology, embedding, mode, scale
        )
        mu = cache.mu
        per_level[h] = lv.topology.total_edges
        caches[h] = cache if want_cache else None
        del cache  # else its edge terms would stay alive through the next level

        if carry_y is None:  # top level: nothing above contributes
            carry_y, carry_d, carry_m = y_loc, d_loc, mu
        else:
            p = lv.parent_of
            pm = carry_m[p]
            m = np.maximum(mu, pm)
            w_loc = np.exp(mu - m)
            w_par = np.exp(pm - m)
            carry_y = w_loc[:, None] * y_loc + w_par[:, None] * carry_y[p]
            carry_d = w_loc * d_loc + w_par * carry_d[p]
            carry_m = m

    with np.errstate(over="ignore"):
        normalizers = carry_d * np.exp(carry_m)
    result = AttentionResult(
        z=carry_y / carry_d[:, None],
        normalizers=normalizers,
        weight_count=int(sum(per_level)),
        per_level_weight_count=tuple(per_level),
    )
    return result, caches, carry_d, carry_m


def gha_forward(hierarchy: Hierarchy, embedding: FourierEmbedding | None = None,
                embedding_mode: str = "none") -> AttentionResult:
    """Hierarchical attention over a built hierarchy.

    Each level h adds local attention within its own topology (scores use
    level-h rows and positions); unnormalized sums are copied down to
    children and normalized once at level 0. A per-query running maximum
    rescales the accumulators, which leaves the result unchanged in exact
    arithmetic but keeps the exponentials bounded.
    """
    result, _, _, _ = _forward_core(hierarchy, embedding, embedding_mode, want_cache=False)
    return result


class Gradients(NamedTuple):
    dq: np.ndarray
    dk: np.ndarray
    dv: np.ndarray


def _scatter_add(index: np.ndarray, values: np.ndarray, n_out: int,
                 canonical: bool = False) -> np.ndarray:
    """out[index[e]] += values[e] for rows e of a 1-D or 2-D array, through
    one ``np.bincount`` over the flattened key index * width + column.

    Each output sums its terms in input order, as ``np.add.at`` does, or
    with ``canonical`` in ascending order of value, which depends only on
    the terms themselves and not on the order the tokens are numbered in.
    """
    width = 1 if values.ndim == 1 else values.shape[1]
    key = (index[:, None] * width + np.arange(width)).ravel()
    vals = values.ravel()
    if canonical:
        order = np.lexsort((vals, key))
        key, vals = key[order], vals[order]
    out = np.bincount(key, weights=vals, minlength=n_out * width)
    return out if values.ndim == 1 else out.reshape(n_out, width)


def _pull_back(hierarchy: Hierarchy, per_level: list, canonical: bool = False) -> np.ndarray:
    """Sum per-level gradients onto level 0 through the transposed pooling
    maps. A token occurs at most once per group; its sum runs over groups
    in ascending group order, or in the ``canonical`` order of
    ``_scatter_add``."""
    g = per_level[-1]
    for h in range(hierarchy.depth - 1, -1, -1):
        coarse = hierarchy.levels[h + 1]
        sizes = np.diff(coarse.pool_indptr)
        g = _scatter_add(coarse.pool_indices, np.repeat(g / sizes[:, None], sizes, axis=0),
                         hierarchy.levels[h].n_tokens, canonical)
        g += per_level[h]
    return g


def _adjoint_core(hierarchy: Hierarchy, caches: list, m_q: np.ndarray, c: np.ndarray,
                  b: np.ndarray | None = None, canonical: bool = False):
    """Exact adjoint of the forward map w.r.t. the level-0 values.

    c holds the per-query scaled output cotangents dz_q / d_hat_q. Each level
    folds them onto the queries' level-h ancestors (a_bar), carrying the
    exponent gap between the level's local max and the query's running max
    (always <= 0, so the weights stay in (0, 1]), scatters t * a_bar[rows]
    onto cols, and the per-level results are pulled back to level 0. Only the
    forward's t, mu and m_q enter, so this holds in every embedding mode.
    The optional per-query normalizer cotangents b are folded the same way.
    Point-flavor coarse tokens are numbered in input order and their pooling
    groups overlap, so input-order sums follow the token numbering; with
    ``canonical`` every sum runs in ascending order of its terms, which
    makes dv bitwise permutation-equivariant.
    Returns dv and the per-level (a_bar, b_bar) folds (b_bar None without b).
    """
    depth = hierarchy.depth
    anc = np.arange(c.shape[0], dtype=np.int64)
    folds, dv_levels = [], []
    for h, (lv, cache) in enumerate(zip(hierarchy.levels, caches)):
        w = np.exp(cache.mu[anc] - m_q)
        a_bar = _scatter_add(anc, w[:, None] * c, lv.n_tokens, canonical)
        b_bar = None if b is None else _scatter_add(anc, w * b, lv.n_tokens, canonical)
        folds.append((a_bar, b_bar))
        topo = lv.topology
        dv_levels.append(_scatter_add(topo.indices, cache.t[:, None] * a_bar[topo.rows],
                                      lv.n_tokens, canonical))
        if h < depth:
            anc = lv.parent_of[anc]
    return _pull_back(hierarchy, dv_levels, canonical), folds


def gha_backward(hierarchy: Hierarchy, dz: np.ndarray,
                 embedding: FourierEmbedding | None = None,
                 embedding_mode: str = "none") -> Gradients:
    """Exact gradients of ``gha_forward`` w.r.t. the level-0 q, k, v.

    Differentiates through the per-level softmax terms, the parent-copy
    accumulation, the final normalization, and the coarsening averages, in
    every embedding mode. Positions and frequencies are constants, so each
    edge's score is a bilinear form in the q and k the forward scored with:
    dq takes the key side (k, plus gamma in absolute mode, plus the edge's
    relative (cos, sin) in relative mode) and dk the query side (q, plus
    gamma in absolute mode). Both sides are read from the forward's cache.
    """
    level0 = hierarchy.levels[0]
    n, d = level0.q_tilde.shape
    d_v = level0.v_tilde.shape[1]
    dz = np.asarray(dz, dtype=np.float64)
    if dz.shape != (n, d_v):
        raise InvalidInputError(f"dz must be ({n}, {d_v}), got {dz.shape}")
    if not np.all(np.isfinite(dz)):
        raise InvalidInputError("dz contains non-finite values")
    scale = math.sqrt(d)

    result, caches, d_hat, m_q = _forward_core(hierarchy, embedding, embedding_mode,
                                               want_cache=True)

    # Per-query scaled cotangents: dY_q = dz_q / D_q and dD_q = -(dz_q.z_q)/D_q,
    # with D_q = d_hat_q * exp(m_q) kept in the shifted form.
    c = dz / d_hat[:, None]  # (N, d_v)
    b = np.einsum("qd,qd->q", dz, result.z) / d_hat  # (N,)
    dv, folds = _adjoint_core(hierarchy, caches, m_q, c, b)

    dq_levels, dk_levels = [], []
    for lv, cache, (a_bar, b_bar) in zip(hierarchy.levels, caches, folds):
        rows, cols = lv.topology.rows, lv.topology.indices
        ds = cache.t * (np.einsum("ed,ed->e", a_bar[rows], lv.v_tilde[cols]) - b_bar[rows])
        ds = (ds / scale)[:, None]
        k_eff = cache.k[cols]
        if cache.rel is not None:
            k_eff[:, 0::2] += cache.rel[0]
            k_eff[:, 1::2] += cache.rel[1]
        k_eff *= ds
        dq_levels.append(np.add.reduceat(k_eff, lv.topology.indptr[:-1], axis=0))
        dk_levels.append(_scatter_add(cols, cache.q[rows] * ds, lv.n_tokens))

    return Gradients(dq=_pull_back(hierarchy, dq_levels), dk=_pull_back(hierarchy, dk_levels),
                     dv=dv)
