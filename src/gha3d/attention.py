"""Attention kernels.

``dense_attention`` is the exact softmax reference, ``local_attention``
restricts it to a neighborhood topology, and ``gha_forward`` runs the
hierarchical approximation: every level contributes local attention over
its own topology, and unnormalized results flow down the hierarchy by
parent copy, with a single normalization at the finest level.
A structure's positional terms depend only on its positions, so each
level keeps them once made (``_kept_term``) and repeated passes over one
structure share them; ``positional_table`` returns them.

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
from .geometry import _checked, _freeze, _integer, _readonly
from .hierarchy import Hierarchy, _group_sums, _sparse_map, _transposed_product


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
        f = _freeze(_checked(self.frequencies, "frequencies", (None, 3)))
        if f.shape[0] < 1:
            raise InvalidInputError("frequencies must hold at least one row")
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
    d = _integer(d, "d")
    if d < 2 or d % 2 != 0:
        raise ConfigError(f"positional embedding needs an even feature width >= 2, got {d}")
    return FourierEmbedding(frequencies=rng.normal(size=(d // 2, 3)))


def fourier_embed(emb: FourierEmbedding, p) -> np.ndarray:
    """Embed a single 3-vector; components interleave cos, sin per frequency."""
    return embed_points(emb, _checked(p, "p", (3,))[None, :])[0]


def embed_points(emb: FourierEmbedding, pts: np.ndarray) -> np.ndarray:
    """Vectorized gamma over rows of an (n, 3) array -> (n, 2m)."""
    pts = _checked(pts, "points", (None, 3))
    angles = (2.0 * np.pi) * (pts @ emb.frequencies.T)
    out = np.empty((angles.shape[0], 2 * emb.m), dtype=np.float64)
    out[:, 0::2] = np.cos(angles)
    out[:, 1::2] = np.sin(angles)
    return out


# A mode's index here is its code in the GHAB parameter file.
_MODES = ("none", "absolute", "relative")

# The kernels a block or an analysis selects by name: the hierarchical
# forward, its level-0 truncation, and the dense reference.
MECHANISMS = ("gha", "local", "dense")


def _check_mode(embedding, embedding_mode: str, d: int | None) -> None:
    """A known mode with the embedding it needs; with d, also the width."""
    if embedding_mode not in _MODES:
        raise ConfigError(f"embedding_mode must be one of {_MODES}, got {embedding_mode!r}")
    if embedding_mode != "none":
        if embedding is None:
            raise ConfigError(f"embedding_mode {embedding_mode!r} requires an embedding")
        if d is not None and embedding.output_dim != d:
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
        q = _checked(self.q, "q", (None, None))
        n, d = q.shape
        if n < 1 or d < 1:
            raise InvalidInputError(f"q must be (N, d) with N, d >= 1, got {q.shape}")
        checked = {"q": q, "k": _checked(self.k, "k", q.shape), "v": _checked(self.v, "v", q.shape),
                   "positions": _checked(self.positions, "positions", (n, 3))}
        for name, a in checked.items():
            object.__setattr__(self, name, np.ascontiguousarray(a))
        _check_mode(self.embedding, self.embedding_mode, d)

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


def _rotation(p_query, p_key, embedding):
    """The relative mode's (cos, sin) of 2 pi b . (p_query - p_key): the
    score adds q . gamma(p_query - p_key)."""
    angles = (2.0 * np.pi) * ((p_query - p_key) @ embedding.frequencies.T)
    return np.cos(angles), np.sin(angles, out=angles)


def _level_term(positions, topology, embedding, mode):
    """One level's positional term, read-only: the relative (cos, sin) of
    every edge, the absolute gamma of every token, or None in mode "none"."""
    if mode == "relative":
        cos, sin = _rotation(positions.take(topology.rows, axis=0),
                             positions.take(topology.indices, axis=0), embedding)
        return _readonly(cos), _readonly(sin)
    if mode == "absolute":
        return _readonly(embed_points(embedding, positions))
    return None


def _same_frequencies(frequencies: np.ndarray, embedding: FourierEmbedding) -> bool:
    """Whether ``embedding`` has these frequencies, now: the one rule by which
    a kept term or a table serves an embedding. It compares values, so an
    embedding whose frequencies changed in place (through a writeable base
    its read-only view shares) is no longer served."""
    return np.array_equal(frequencies, embedding.frequencies)


def _kept_term(level, embedding, mode: str, keep: bool):
    """``level``'s positional term for (embedding, mode): the one its
    ``positional`` memo holds, when made for equal frequencies, else a new
    one, which ``keep`` stores in the mode's slot with a private copy of the
    frequencies it was made for."""
    if mode == "none":
        return None
    held = level.positional.get(mode)
    if held is not None and _same_frequencies(held[0], embedding):
        return held[1]
    term = _level_term(level.positions, level.topology, embedding, mode)
    if keep:
        level.positional[mode] = (_readonly(embedding.frequencies.copy()), term)
    return term


@dataclass(frozen=True)
class PositionalTable:
    """The positional terms of one structure for one (embedding, mode), one
    read-only entry per level (see ``_level_term``). Returned by
    ``positional_table``, it serves every hierarchy whose levels hold the
    same topology objects, as ``with_values`` keeps them."""

    embedding: FourierEmbedding | None  # None in mode "none"
    mode: str
    topologies: tuple  # the levels' topologies, checked by identity
    terms: tuple


def positional_table(hierarchy: Hierarchy, embedding: FourierEmbedding | None = None,
                     embedding_mode: str = "none") -> PositionalTable:
    """Every level's positional term, made once per structure.

    The levels keep the terms (and every ``with_values`` copy shares them),
    so later ``gha_forward``/``gha_backward`` calls on the structure read
    them with or without the table; they compute the same bits either way.
    """
    _check_mode(embedding, embedding_mode, None)
    if embedding_mode == "none":
        embedding = None
    levels = hierarchy.levels
    return PositionalTable(
        embedding=embedding, mode=embedding_mode,
        topologies=tuple(lv.topology for lv in levels),
        terms=tuple(_kept_term(lv, embedding, embedding_mode, keep=True) for lv in levels),
    )


def _check_table(table: PositionalTable, hierarchy: Hierarchy, embedding, mode: str) -> None:
    if table.mode != mode:
        raise InvalidInputError(f"positional table is for mode {table.mode!r}, not {mode!r}")
    if mode != "none" and not _same_frequencies(table.embedding.frequencies, embedding):
        raise InvalidInputError("positional table was built with another embedding")
    if len(table.topologies) != len(hierarchy.levels) or any(
            t is not lv.topology for t, lv in zip(table.topologies, hierarchy.levels)):
        raise InvalidInputError("positional table was built for another structure")


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
    if mode == "absolute":
        gamma = embed_points(emb, pos)
        q, k = q + gamma, k + gamma
    # Rows-by-keys (by-frequencies in relative mode) temporaries.
    for start, stop in _bounded_spans(n, n * (emb.m if mode == "relative" else 1)):
        s = np.einsum("id,jd->ij", q[start:stop], k)  # no BLAS: same bits on any thread count
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
    exponents = _value_exponents([inputs.v], n)
    v = inputs.v if exponents is None else np.ldexp(inputs.v, -exponents)
    z = np.empty_like(v)
    normalizers = np.empty(n, dtype=np.float64)
    for start, stop, a, denom, mu in _dense_softmax_chunks(
        inputs.q, inputs.k, inputs.positions, inputs.embedding, inputs.embedding_mode
    ):
        z[start:stop] = np.einsum("ij,jd->id", a, v) / denom[:, None]
        with np.errstate(over="ignore"):  # extreme scores saturate to inf
            normalizers[start:stop] = denom * np.exp(mu)
    return AttentionResult(
        z=z if exponents is None else np.ldexp(z, exponents), normalizers=normalizers,
        weight_count=n * n, per_level_weight_count=(n * n,)
    )


class _LevelCache(NamedTuple):
    q: np.ndarray  # q as the scores saw it (with gamma in absolute mode)
    k: np.ndarray  # k likewise
    rel: tuple | None  # per-edge relative (cos, sin); None in other modes
    t: np.ndarray | None  # exp(s - mu[row]) per edge, when the caller keeps it
    mu: np.ndarray  # per-token local max score


# Edge-by-column elements that one span of a level kernel holds per
# temporary: 1 MiB of float64, so a span's gathers stay in cache.
_SPAN_ELEMENTS = 1 << 17


def _row_spans(indptr: np.ndarray, width: int):
    """Row-aligned pieces (r0, r1) of a CSR topology whose edges-by-``width``
    temporaries hold at most ``_SPAN_ELEMENTS``; a row with more edges than
    that is a piece by itself."""
    step = max(1, _SPAN_ELEMENTS // max(1, width))
    n = indptr.shape[0] - 1
    r0 = 0
    while r0 < n:
        r1 = max(r0 + 1, int(np.searchsorted(indptr, indptr[r0] + step, side="right")) - 1)
        yield r0, r1
        r0 = r1


def _level_softmax(q, k, v, topology, neighbors, term, mode, scale, want_t):
    """Max-shifted softmax sums over one topology, whose ``_sparse_map`` is
    ``neighbors``, with the level's positional ``term`` from ``_level_term``.

    Returns the per-edge cache, the shifted denominators and the shifted
    unnormalized outputs: denom_i * exp(mu_i) and y_i * exp(mu_i) are the
    true local sums. The edges run in ``_row_spans``; every per-row
    reduction and per-edge product sees the operands it would see over the
    whole level, so the bits do not depend on the cut. Only the cache's
    ``t`` (when ``want_t``) is per-edge past its span. With at most 8
    neighbors a row, y sums by one product per span (``_group_sums``) with
    t as its data, gathering no edge rows of v."""
    rows, cols, indptr = topology.rows, topology.indices, topology.indptr
    if mode == "absolute":
        q, k = q + term, k + term
    rel = term if mode == "relative" else None
    n = topology.n_tokens
    mu, denom = np.empty(n), np.empty(n)
    y = np.empty((n, v.shape[1]))
    t_all = np.empty(topology.total_edges) if want_t else None
    for r0, r1 in _row_spans(indptr, max(q.shape[1], v.shape[1])):
        e0, e1 = indptr[r0], indptr[r1]
        starts = indptr[r0:r1] - e0
        span_rows = rows[e0:e1]
        q_rows = q.take(span_rows, axis=0)
        s = np.einsum("ed,ed->e", q_rows, k.take(cols[e0:e1], axis=0))
        if rel is not None:
            s += _interleaved_dot(q_rows, rel[0][e0:e1], rel[1][e0:e1])
        del q_rows  # else it is alive next to v's edge rows
        s /= scale
        np.maximum.reduceat(s, starts, out=mu[r0:r1])
        s -= mu.take(span_rows)
        t = np.exp(s, out=None if t_all is None else t_all[e0:e1])
        np.add.reduceat(t, starts, out=denom[r0:r1])
        if neighbors.sequential:  # the span's own CSR: offsets from its first edge
            y[r0:r1] = _group_sums(v, neighbors.indptr[r0:r1 + 1] - neighbors.indptr[r0],
                                   neighbors.indices[e0:e1], t)
        else:
            weighted = v.take(cols[e0:e1], axis=0)
            weighted *= t[:, None]  # in place: one edge-by-column temporary, not two
            np.add.reduceat(weighted, starts, axis=0, out=y[r0:r1])
            del weighted  # else it is alive next to the next span's gathers
    return _LevelCache(q=q, k=k, rel=rel, t=t_all, mu=mu), denom, y


def local_attention(inputs: AttentionInputs, topology) -> AttentionResult:
    """Softmax attention restricted to j in T_i."""
    if topology.n_tokens != inputs.n_tokens:
        raise InvalidInputError("topology token count does not match inputs")
    mode = inputs.embedding_mode
    term = _level_term(inputs.positions, topology, inputs.embedding, mode)
    exponents = _value_exponents([inputs.v], int(topology.sizes.max()))
    v = inputs.v if exponents is None else np.ldexp(inputs.v, -exponents)
    cache, denom, y = _level_softmax(inputs.q, inputs.k, v, topology,
                                     _sparse_map(topology.indptr, topology.indices), term, mode,
                                     math.sqrt(inputs.d), want_t=False)
    e = topology.total_edges
    with np.errstate(over="ignore"):
        normalizers = denom * np.exp(cache.mu)
    z = y / denom[:, None]
    return AttentionResult(
        z=z if exponents is None else np.ldexp(z, exponents),
        normalizers=normalizers,
        weight_count=e,
        per_level_weight_count=(e,),
    )


# ---------------------------------------------------------------------------
# Hierarchical forward
# ---------------------------------------------------------------------------

def _value_exponents(values: list, terms: int) -> np.ndarray | None:
    """Per column of the value arrays ``values``, the power of two that scales
    it down so that no output sum of at most ``terms`` terms can overflow, or
    None where no column needs one.

    Each term is a v entry times a weight of at most 1, so an output's
    partial sums stay below the column's largest magnitude times ``terms``.
    Scaling by a power of two is exact, and the output is linear in v, so
    scaling it back gives the bits an unbounded exponent would; a column that
    cannot overflow is not touched. The kernels share this rule: a gha row
    sums at most one neighborhood per level, a local row one neighborhood and
    a dense row every token.
    """
    bound = np.finfo(np.float64).max / 4 / terms  # the largest magnitude that is safe
    # Whole-array extremes first: far cheaper than per-column ones.
    if max(max(v.max(initial=0.0), -v.min(initial=0.0)) for v in values) <= bound:
        return None
    top = np.max([np.maximum(v.max(axis=0), -v.min(axis=0)) for v in values], axis=0)
    # top * terms < 2^(exponent of top + bit length of terms); keep it below 2^1022.
    return np.where(top > bound, np.frexp(top)[1] + terms.bit_length() - 1022, 0)


def _forward_core(hierarchy: Hierarchy, embedding, mode: str, want_cache: bool,
                  table: PositionalTable | None = None):
    d = hierarchy.levels[0].q_tilde.shape[1]
    _check_mode(embedding, mode, d)
    if table is not None:
        _check_table(table, hierarchy, embedding, mode)
    scale = math.sqrt(d)
    depth = hierarchy.depth
    exponents = _value_exponents([lv.v_tilde for lv in hierarchy.levels],
                                 sum(int(lv.topology.sizes.max()) for lv in hierarchy.levels))

    caches: list = [None] * (depth + 1)
    per_level = [0] * (depth + 1)
    carry_y = carry_d = carry_m = None
    for h in range(depth, -1, -1):
        lv = hierarchy.levels[h]
        # A cached pass holds every level's term anyway, so it keeps them;
        # a one-off forward that finds none holds one level's at a time.
        term = (table.terms[h] if table is not None
                else _kept_term(lv, embedding, mode, keep=want_cache))
        v = lv.v_tilde if exponents is None else np.ldexp(lv.v_tilde, -exponents)
        cache, d_loc, y_loc = _level_softmax(lv.q_tilde, lv.k_tilde, v, lv.topology, lv.neighbors,
                                             term, mode, scale, want_t=want_cache)
        mu = cache.mu
        per_level[h] = lv.topology.total_edges
        caches[h] = cache if want_cache else None

        if carry_y is None:  # top level: nothing above contributes
            carry_y, carry_d, carry_m = y_loc, d_loc, mu
        else:
            p = lv.parent_of
            pm = carry_m.take(p)
            m = np.maximum(mu, pm)
            w_loc = np.exp(mu - m)
            w_par = np.exp(pm - m)
            carry_y = carry_y.take(p, axis=0)  # in place below: the same bits, fewer N-row temporaries
            carry_y *= w_par[:, None]
            y_loc *= w_loc[:, None]
            carry_y += y_loc
            carry_d = w_loc * d_loc + w_par * carry_d.take(p)
            carry_m = m
        del cache, term, y_loc, d_loc, v  # else alive through the next level's softmax

    with np.errstate(over="ignore"):
        normalizers = carry_d * np.exp(carry_m)
    z = carry_y
    z /= carry_d[:, None]
    result = AttentionResult(
        z=z if exponents is None else np.ldexp(z, exponents),
        normalizers=normalizers,
        weight_count=int(sum(per_level)),
        per_level_weight_count=tuple(per_level),
    )
    return result, caches, carry_d, carry_m, exponents


def gha_forward(hierarchy: Hierarchy, embedding: FourierEmbedding | None = None,
                embedding_mode: str = "none",
                table: PositionalTable | None = None) -> AttentionResult:
    """Hierarchical attention over a built hierarchy.

    Each level h adds local attention within its own topology (scores use
    level-h rows and positions); unnormalized sums are copied down to
    children and normalized once at level 0. A per-query running maximum
    rescales the accumulators, which leaves the result unchanged in exact
    arithmetic but keeps the exponentials bounded.

    ``table`` is this structure's ``positional_table`` for the same
    embedding and mode. Without one, the call reads the terms the structure
    keeps (see ``positional_table``), or makes each level's term as it
    reaches that level and keeps none. A table of another structure,
    embedding or mode raises InvalidInputError.
    """
    result, _, _, _, _ = _forward_core(hierarchy, embedding, embedding_mode, want_cache=False,
                                       table=table)
    return result


class Gradients(NamedTuple):
    dq: np.ndarray
    dk: np.ndarray
    dv: np.ndarray


def _pull_back(hierarchy: Hierarchy, per_level: list) -> np.ndarray:
    """Sum per-level gradients onto level 0 through the transposed pooling
    maps. A token sums its groups (one entry in each) in the coarse level's
    ``order``, fixed by the geometry, not by the input numbering: the level's
    ``pull`` map holds its groups in that order. (Voxel groups are disjoint,
    so no order matters.)"""
    g = per_level[-1]
    for h in range(hierarchy.depth - 1, -1, -1):
        coarse = hierarchy.levels[h + 1]
        pull = coarse.pull
        g = _transposed_product(pull.indptr, pull.indices, np.ones(pull.indices.shape[0]),
                                g.take(coarse.order, axis=0) / np.diff(pull.indptr)[:, None],
                                hierarchy.levels[h].n_tokens)
        g += per_level[h]
    return g


def _fold(hierarchy: Hierarchy, caches: list, m_q: np.ndarray, c: np.ndarray) -> list:
    """Per level, the per-query cotangent rows c summed onto each query's
    level-h ancestor with weight exp(mu_h[ancestor] - m_q): the transpose of
    the forward's parent copy, one transposed product per level for every
    column. The exponent gap is <= 0, so the weights stay in (0, 1].
    With one-hot columns of c (effective-weight rows), the fold and each
    level's value product get at most one nonzero term per output: a query
    has one ancestor per level and a neighbor list holds each token once.
    Such sums are exact in any order, and ``_pull_back`` fixes its own order
    by geometry, so those columns of dv are bitwise permutation-equivariant
    and do not depend on which other columns share c.
    """
    depth = hierarchy.depth
    anc = np.arange(c.shape[0], dtype=np.int64)
    folds = []
    for h, (lv, cache) in enumerate(zip(hierarchy.levels, caches)):
        w = np.exp(cache.mu.take(anc) - m_q)
        folds.append(_transposed_product(np.arange(c.shape[0] + 1), anc, w, c, lv.n_tokens))
        if h < depth:
            anc = lv.parent_of.take(anc)
    return folds


def _value_cotangent(level, cache: _LevelCache, fold: np.ndarray) -> np.ndarray:
    """One level's dv: each edge's t times its query's ``fold`` row, onto its key."""
    neighbors = level.neighbors
    return _transposed_product(neighbors.indptr, neighbors.indices, cache.t, fold, level.n_tokens)


def gha_backward(hierarchy: Hierarchy, dz: np.ndarray,
                 embedding: FourierEmbedding | None = None,
                 embedding_mode: str = "none",
                 table: PositionalTable | None = None) -> Gradients:
    """Exact gradients of ``gha_forward`` w.r.t. the level-0 q, k, v.

    Differentiates through the per-level softmax terms, the parent-copy
    accumulation, the final normalization, and the coarsening averages, in
    every embedding mode. Positions and frequencies are constants, so each
    edge's score is a bilinear form in the q and k the forward scored with:
    dq takes the key side (k, plus gamma in absolute mode, plus the edge's
    relative (cos, sin) in relative mode) and dk the query side (q, plus
    gamma in absolute mode). Both sides are read from the forward's cache.
    ``table`` is as in ``gha_forward``; without one, the structure keeps
    the terms this call makes.
    """
    level0 = hierarchy.levels[0]
    n, d = level0.q_tilde.shape
    d_v = level0.v_tilde.shape[1]
    dz = _checked(dz, "dz", (n, d_v))
    scale = math.sqrt(d)

    result, caches, d_hat, m_q, exponents = _forward_core(hierarchy, embedding, embedding_mode,
                                                          want_cache=True, table=table)
    # dq and dk are linear in v (dv does not depend on it). Where the forward
    # scales v's columns down, their v terms (v in ds, z in the b column) run
    # on v scaled by the largest of those powers of two, and dq and dk are
    # scaled back: exact, as in the forward, and no edge sum overflows.
    shift = None if exponents is None else int(exponents.max())
    z = result.z if shift is None else np.ldexp(result.z, -shift)

    # Per-query scaled cotangents: dY_q = dz_q / D_q, then -dD_q = (dz_q.z_q)/D_q,
    # with D_q = d_hat_q * exp(m_q) kept in the shifted form.
    c = np.column_stack([dz / d_hat[:, None], np.einsum("qd,qd->q", dz, z) / d_hat])
    folds = _fold(hierarchy, caches, m_q, c)

    per_level = []
    for lv, cache, fold in zip(hierarchy.levels, caches, folds):
        rows, cols, indptr = lv.topology.rows, lv.topology.indices, lv.topology.indptr
        v = lv.v_tilde if shift is None else np.ldexp(lv.v_tilde, -shift)
        # ds and dq edge by edge in the forward's row spans: only dk reads the
        # level's whole ds, through a product.
        ds, dq = np.empty(lv.topology.total_edges), np.empty((lv.n_tokens, d))
        for r0, r1 in _row_spans(indptr, max(d, d_v + 1)):
            e0, e1 = indptr[r0], indptr[r1]
            # Each edge's query's folded output and normalizer cotangents.
            ab = fold.take(rows[e0:e1], axis=0)
            s = np.einsum("ed,ed->e", ab[:, :d_v], v.take(cols[e0:e1], axis=0))
            s -= ab[:, d_v]
            del ab  # else it is alive next to the dq temporaries
            np.multiply(cache.t[e0:e1], s, out=ds[e0:e1])
            ds[e0:e1] /= scale
            k_eff = cache.k.take(cols[e0:e1], axis=0)
            if cache.rel is not None:
                k_eff[:, 0::2] += cache.rel[0][e0:e1]
                k_eff[:, 1::2] += cache.rel[1][e0:e1]
            k_eff *= ds[e0:e1, None]
            np.add.reduceat(k_eff, indptr[r0:r1] - e0, axis=0, out=dq[r0:r1])
        dk = _transposed_product(lv.neighbors.indptr, lv.neighbors.indices, ds, cache.q,
                                 lv.n_tokens)
        dv = _value_cotangent(lv, cache, fold)[:, :d_v]  # b's column dropped
        per_level.append(np.hstack([dq, dk, dv]))
    del caches, folds, cache, fold  # frees the per-edge terms before the pull-back's temporaries
    g = _pull_back(hierarchy, per_level)
    if shift is not None:
        g[:, :2 * d] = np.ldexp(g[:, :2 * d], shift)
    return Gradients(*np.hsplit(g, [d, 2 * d]))
