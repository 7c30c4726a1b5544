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

def _interleaved_dot(q_rows: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Per-row dot of q with the interleaved cos/sin vector of ``angles``.

    q_rows: (..., 2m), angles: (..., m); saves materializing gamma itself.
    """
    return np.einsum("...m,...m->...", q_rows[..., 0::2], np.cos(angles)) + np.einsum(
        "...m,...m->...", q_rows[..., 1::2], np.sin(angles)
    )


def _edge_scores(q, k, positions, rows, cols, embedding, mode, scale) -> np.ndarray:
    """Scores for an explicit edge list (rows[i] attends to cols[i])."""
    if mode == "absolute":
        gamma = embed_points(embedding, positions)
        q = q + gamma
        k = k + gamma
    s = np.einsum("ed,ed->e", q[rows], k[cols])
    if mode == "relative":
        angles = (2.0 * np.pi) * ((positions[rows] - positions[cols]) @ embedding.frequencies.T)
        s = s + _interleaved_dot(q[rows], angles)
    return s / scale


# ---------------------------------------------------------------------------
# Dense and local references
# ---------------------------------------------------------------------------

def _dense_softmax_chunks(q, k, pos, emb, mode):
    """Row chunks (start, stop, a, denom, mu) of the dense reference softmax:
    a = exp(s - mu) for query rows start:stop against all keys, with row
    maxima mu and row sums denom, so the weights are a / denom."""
    n, d = q.shape
    _check_mode(emb, mode, d)
    scale = math.sqrt(d)
    if mode == "absolute":
        gamma = embed_points(emb, pos)
        q = q + gamma
        k = k + gamma
    # Row chunks keep the relative-mode pair tensor bounded.
    if mode == "relative":
        chunk = max(1, min(n, (1 << 22) // max(1, n * emb.m)))
    else:
        chunk = max(1, min(n, (1 << 24) // max(1, n)))
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        s = q[start:stop] @ k.T
        if mode == "relative":
            diffs = pos[start:stop, None, :] - pos[None, :, :]
            angles = (2.0 * np.pi) * (diffs @ emb.frequencies.T)
            s = s + _interleaved_dot(q[start:stop, None, :], angles)
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
    rows: np.ndarray
    cols: np.ndarray
    indptr: np.ndarray
    t: np.ndarray  # exp(s - mu[row]) per edge
    mu: np.ndarray  # per-token local max score


def _level_softmax(q, k, v, positions, topology, embedding, mode, scale):
    """Max-shifted softmax sums over one topology.

    Returns the per-edge cache, the shifted denominators and the shifted
    unnormalized outputs: denom_i * exp(mu_i) and y_i * exp(mu_i) are the
    true local sums."""
    indptr, cols = topology.indptr, topology.indices
    rows = np.repeat(np.arange(topology.n_tokens), topology.sizes)
    s = _edge_scores(q, k, positions, rows, cols, embedding, mode, scale)
    mu = np.maximum.reduceat(s, indptr[:-1])
    t = np.exp(s - mu[rows])
    denom = np.add.reduceat(t, indptr[:-1])
    weighted = v[cols]
    weighted *= t[:, None]  # in place: one edge-by-column temporary, not two
    y = np.add.reduceat(weighted, indptr[:-1], axis=0)
    return _LevelCache(rows=rows, cols=cols, indptr=indptr, t=t, mu=mu), denom, y


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
        if want_cache:
            caches[h] = cache

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

    z = carry_y / carry_d[:, None]
    with np.errstate(over="ignore"):
        normalizers = carry_d * np.exp(carry_m)
    result = AttentionResult(
        z=z,
        normalizers=normalizers,
        weight_count=int(sum(per_level)),
        per_level_weight_count=tuple(per_level),
    )
    return result, caches, carry_d, carry_m, z


def gha_forward(hierarchy: Hierarchy, embedding: FourierEmbedding | None = None,
                embedding_mode: str = "none") -> AttentionResult:
    """Hierarchical attention over a built hierarchy.

    Each level h adds local attention within its own topology (scores use
    level-h rows and positions); unnormalized sums are copied down to
    children and normalized once at level 0. A per-query running maximum
    rescales the accumulators, which leaves the result unchanged in exact
    arithmetic but keeps the exponentials bounded.
    """
    result, _, _, _, _ = _forward_core(hierarchy, embedding, embedding_mode, want_cache=False)
    return result


class Gradients(NamedTuple):
    dq: np.ndarray
    dk: np.ndarray
    dv: np.ndarray


def gha_backward(hierarchy: Hierarchy, dz: np.ndarray,
                 embedding: FourierEmbedding | None = None,
                 embedding_mode: str = "none") -> Gradients:
    """Exact gradients of ``gha_forward`` w.r.t. the level-0 q, k, v.

    Differentiates through the per-level softmax terms, the parent-copy
    accumulation, the final normalization, and the coarsening averages.
    Positional frequencies are constants, so only modes without a gamma
    term attached to q (none, relative) are supported.
    """
    if embedding_mode not in ("none", "relative"):
        raise ConfigError(f"backward supports modes ('none', 'relative'), got {embedding_mode!r}")
    level0 = hierarchy.levels[0]
    n, d = level0.q_tilde.shape
    d_v = level0.v_tilde.shape[1]
    dz = np.asarray(dz, dtype=np.float64)
    if dz.shape != (n, d_v):
        raise InvalidInputError(f"dz must be ({n}, {d_v}), got {dz.shape}")
    if not np.all(np.isfinite(dz)):
        raise InvalidInputError("dz contains non-finite values")
    scale = math.sqrt(d)

    _, caches, d_hat, m_q, z = _forward_core(hierarchy, embedding, embedding_mode, want_cache=True)

    # Per-query scaled cotangents: dY_q = dz_q / D_q and dD_q = -(dz_q.z_q)/D_q,
    # with D_q = d_hat_q * exp(m_q) kept in the shifted form.
    c = dz / d_hat[:, None]  # (N, d_v)
    b = np.einsum("qd,qd->q", dz, z) / d_hat  # (N,)

    depth = hierarchy.depth
    dq_levels = [None] * (depth + 1)
    dk_levels = [None] * (depth + 1)
    dv_levels = [None] * (depth + 1)

    anc = np.arange(n, dtype=np.int64)
    for h in range(depth + 1):
        lv = hierarchy.levels[h]
        cache = caches[h]
        n_h = lv.n_tokens
        # Fold each query's cotangent onto its level-h ancestor, carrying the
        # exponent gap between the level's local max and the query's running
        # max (always <= 0, so the weights stay in (0, 1]).
        w = np.exp(cache.mu[anc] - m_q)
        a_bar = np.zeros((n_h, d_v))
        np.add.at(a_bar, anc, w[:, None] * c)
        b_bar = np.zeros(n_h)
        np.add.at(b_bar, anc, w * b)

        rows, cols, t = cache.rows, cache.cols, cache.t
        ds = t * (np.einsum("ed,ed->e", a_bar[rows], lv.v_tilde[cols]) - b_bar[rows])

        dv_h = np.zeros((n_h, d_v))
        np.add.at(dv_h, cols, t[:, None] * a_bar[rows])

        if embedding_mode == "relative":
            angles = (2.0 * np.pi) * (
                (lv.positions[rows] - lv.positions[cols]) @ embedding.frequencies.T
            )
            k_eff = lv.k_tilde[cols].copy()
            k_eff[:, 0::2] += np.cos(angles)
            k_eff[:, 1::2] += np.sin(angles)
        else:
            k_eff = lv.k_tilde[cols]
        dq_h = np.add.reduceat((ds[:, None] / scale) * k_eff, cache.indptr[:-1], axis=0)
        dk_h = np.zeros((n_h, d))
        np.add.at(dk_h, cols, (ds[:, None] / scale) * lv.q_tilde[rows])

        dq_levels[h], dk_levels[h], dv_levels[h] = dq_h, dk_h, dv_h
        if h < depth:
            anc = lv.parent_of[anc]

    # Pull per-level gradients back to level 0 through the transposed
    # pooling maps. A token occurs at most once per group, so its sum runs
    # over groups in ascending order whatever the order within each group.
    def fold(per_level):
        g = per_level[depth]
        for h in range(depth - 1, -1, -1):
            coarse = hierarchy.levels[h + 1]
            sizes = np.diff(coarse.pool_indptr)
            out = np.zeros((hierarchy.levels[h].n_tokens, g.shape[1]))
            np.add.at(out, coarse.pool_indices, np.repeat(g / sizes[:, None], sizes, axis=0))
            out += per_level[h]
            g = out
        return g

    return Gradients(dq=fold(dq_levels), dk=fold(dk_levels), dv=fold(dv_levels))
