"""Attention kernels.

``dense_attention`` is the exact softmax reference, ``local_attention``
restricts it to a neighborhood topology, and ``gha_forward`` runs the
hierarchical approximation: every level contributes local attention over
its own topology, and unnormalized results flow down the hierarchy by
parent copy, with a single normalization at the finest level.

A positional term is per token: gamma(p) in absolute mode, and in relative
mode K', the interleaved (cos a, sin a) of a = 2 pi B (p - c), c the
level's bounding-box centre. By the rotary identity q . gamma(p_q - p_k) =
Q' . K', with Q' the query's rotated row (``_rotated``), a relative score
is q . k + Q' . K' and no per-edge term exists. A structure's terms depend
only on its positions, so each level keeps every term a pass makes
(``_kept_term``, the one writer of its memo) and repeated passes over one
structure share them; ``positional_table`` returns them.

All kernels accumulate exponentials under a per-query running maximum so
results cannot overflow, while staying mathematically identical to the
unshifted sums. ``gha_backward`` is the exact adjoint of the forward map
(including the coarsening averages) with respect to level-0 q/k/v.

Every forward (``_forward``, the one writer of a pass) leaves its pass on
the hierarchy object (``_Pass``): each level's row maxima and, in relative
mode, each level's Q', level 0's edge weights (scored last, so still alive
when the forward ends), the level-0 denominators and maxima, the value
scaling and a private copy of z, with a reference to the level-0 term it
scored with, which decides what it serves. The backward reads it: level 0's weights
as they are, and each coarser level's made again from the same span helper
(``_span_weights``) and the same maxima, so they are bitwise the
forward's; without a pass it runs the forward first. Effective weights
run a forward of their own, which also hands back every level's edge
weights.

The kernels walk a level's ``NeighborhoodTopology`` as it is: its width
classes in row spans (``_spans``), each query's rows broadcast over its
edges, and its int32 CSR arrays in every sum.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InvalidInputError
from .geometry import (_checked, _freeze, _integer, _product, _readonly, _transposed_product,
                       _value_exponents)
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
    """Vectorized gamma over rows of an (n, 3) array -> (n, 2m). Points so
    far out that an angle 2 pi b.p is not finite raise InvalidInputError."""
    pts = _checked(pts, "points", (None, 3))
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        angles = (2.0 * np.pi) * (pts @ emb.frequencies.T)
    angles = _checked(angles, "angle array 2 pi B p of points", (None, emb.m))
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
    """A known mode with the embedding it needs; with d, the width of the q
    and k a pass scores, also the embedding's width. A structure's q and k
    are 0 wide: a pass refuses it."""
    if d == 0:
        raise InvalidInputError("a pass needs values: give the structure q, k, v by with_values")
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
            object.__setattr__(self, name, _freeze(a))
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
# Positional terms
# ---------------------------------------------------------------------------

def _level_term(positions, embedding, mode):
    """One level's positional term, read-only: each token's gamma(p) in
    absolute mode, its K' = gamma(p - c) in relative mode, or None in mode
    "none". Any c cancels in a relative score; the bounding-box centre
    keeps the angles small on a cloud far from the origin (halves summed,
    so even one near the float limit has a finite centre) and does not
    depend on token order."""
    if mode == "none":
        return None
    if mode == "relative":  # column by column: 10x faster than min(axis=0) on (n, 3)
        positions = positions - np.array([p.min() / 2 + p.max() / 2 for p in positions.T])
    return _readonly(embed_points(embedding, positions))


def _rotated(x, term):
    """Each row of x times its token's rotation R, which per frequency pair
    is [[cos a, sin a], [sin a, -cos a]] for the token's (cos a, sin a) in
    ``term`` (K'): Q' = R q gives q . gamma(p_q - p_k) = Q' . K'. R is
    symmetric, so dq's relative half is R times the sum of ds K'."""
    cos, sin = term[:, 0::2], term[:, 1::2]
    even, odd = x[:, 0::2], x[:, 1::2]
    out = np.empty(x.shape)
    out[:, 0::2] = even * cos + odd * sin
    out[:, 1::2] = even * sin - odd * cos
    return out


def _kept_term(level, embedding, mode: str):
    """``level``'s positional term for (embedding, mode): the one its
    ``positional`` memo holds, when made for equal frequencies, else a new
    one, which it stores in the mode's slot with a private copy of the
    frequencies. The one rule by which kept state (a term, or a pass through
    level 0's) serves an embedding: by value, so frequencies changed in place
    (their owner's write flag set back) are no longer served."""
    if mode == "none":
        return None
    held = level.positional.get(mode)
    if held is not None and np.array_equal(held[0], embedding.frequencies):
        return held[1]
    term = _level_term(level.positions, embedding, mode)
    level.positional[mode] = (_readonly(embedding.frequencies.copy()), term)
    return term


def positional_table(hierarchy: Hierarchy, embedding: FourierEmbedding | None = None,
                     embedding_mode: str = "none") -> tuple:
    """Every level's positional term, finest first (None in mode "none"):
    per token, gamma(p) in absolute mode and K' in relative mode.

    The levels keep the read-only terms this returns, as they keep those
    any pass makes, and every ``with_values`` copy shares them, so later
    ``gha_forward`` and ``gha_backward`` calls on the structure read them
    instead of making them; the bits are the same either way.
    """
    _check_mode(embedding, embedding_mode, None)
    return tuple(_kept_term(lv, embedding, embedding_mode) for lv in hierarchy.levels)


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
    maxima mu and row sums denom, so the weights are a / denom. The scores
    are those of ``_scored``'s sides: relative mode scores [q | Q'] against
    [k | K'] on the path of mode "none"."""
    n, d = q.shape
    _check_mode(emb, mode, d)
    scale = math.sqrt(d)
    sides = _scored(q, k, _level_term(pos, emb, mode), mode)
    q, k = sides.q, sides.k
    if sides.q_rot is not None:
        q, k = np.hstack([q, sides.q_rot]), np.hstack([k, sides.k_rot])
    for start, stop in _bounded_spans(n, n):  # rows-by-keys temporaries
        s = np.einsum("id,jd->ij", q[start:stop], k)  # no BLAS: same bits on any thread count
        s /= scale
        mu = s.max(axis=1)
        s -= mu[:, None]
        a = np.exp(s, out=s)
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


# Edge-by-column elements that one span of a level kernel holds per
# temporary: 1 MiB of float64, so a span's gathers stay in cache.
_SPAN_ELEMENTS = 1 << 17


def _rows(x, at):
    """Rows ``at`` of x: the view x[at] at a slice, else ``x.take(at)`` at an
    int32 array. The one place a width class's slices (a one-width
    topology's, which start at row 0) and arrays differ: it also cuts them,
    so part ``at`` of a slice is that slice."""
    if isinstance(at, slice):
        return at if isinstance(x, slice) else x[at]
    return x.take(at, axis=0)


def _spans(topology, columns: int):
    """Pieces (rows, edges, cols, width) of ``topology``'s width classes whose
    edges-by-``columns`` temporaries hold at most ``_SPAN_ELEMENTS``; a row
    with more edges than that is a piece by itself."""
    for rows, edges, cols, width in topology.classes:
        step = max(1, _SPAN_ELEMENTS // (max(1, columns) * width))
        for lo in range(0, cols.shape[0] // width, step):
            part = slice(lo * width, (lo + step) * width)
            yield _rows(rows, slice(lo, lo + step)), _rows(edges, part), cols[part], width


class _Sides(NamedTuple):
    """What a level's scores read: s = (q . k + q_rot . k_rot) / scale over
    each edge, the second term (Q' . K') in relative mode only, where
    ``q_rot`` and ``k_rot`` are not None. Absolute mode adds gamma to q and k."""

    q: np.ndarray
    k: np.ndarray
    q_rot: np.ndarray | None
    k_rot: np.ndarray | None


def _scored(q, k, term, mode, q_rot=None) -> _Sides:
    """A level's ``_Sides`` from its q and k rows and positional ``term``;
    a relative pass that kept the level's Q' passes it as ``q_rot``."""
    if mode == "absolute":
        return _Sides(q + term, k + term, None, None)
    if mode == "relative":
        return _Sides(q, k, _rotated(q, term) if q_rot is None else q_rot, term)
    return _Sides(q, k, None, None)


def _query_dot(x_rows, y_rows, width):
    """Per edge of a span, its query's row of x (``x_rows``, one per row of
    the span) dotted with the edge's row of ``y_rows``: every row of a span
    holds ``width`` edges, so each query's row broadcasts over them."""
    return np.einsum("rd,rwd->rw", x_rows, y_rows.reshape(x_rows.shape[0], width, -1)).reshape(-1)


def _span_weights(sides, rows, cols, width, scale, mu, fresh=False):
    """The softmax weights t = exp(s - mu[row]) of the edges of one span
    (``_spans``): the one place a level's score s = (q . k, plus Q' . K' in
    relative mode) / scale is formed, from its ``_Sides``. A ``fresh`` pass
    (the forward's) first writes the span's row maxima into ``mu`` (a max is
    exact in any order); later passes read them, so their t is bitwise the
    forward's."""
    s = _query_dot(_rows(sides.q, rows), sides.k.take(cols, axis=0), width)
    if sides.k_rot is not None:
        s += _query_dot(_rows(sides.q_rot, rows), sides.k_rot.take(cols, axis=0), width)
    s /= scale
    if fresh:
        mu[rows] = np.maximum.reduceat(s, np.arange(0, s.shape[0], width))
    by_row = s.reshape(-1, width)
    by_row -= _rows(mu, rows)[:, None]
    return np.exp(s, out=s)


def _level_softmax(sides, v, topology, scale):
    """Max-shifted softmax sums over one ``topology``, of the scores of
    ``sides`` (``_scored``).

    Returns the per-token local max scores mu, the shifted denominators, the
    shifted unnormalized outputs (denom_i * exp(mu_i) and y_i * exp(mu_i)
    are the true local sums) and every edge's softmax weight t. The scores
    run in ``_spans``, each writing its t into the level's; y and the
    denominators are then one ``_product`` of the topology's CSR, t as data,
    with [v | 1], so every row adds its terms from +0.0 in entry order and
    no edge rows of v are gathered."""
    indptr, cols = topology.indptr, topology.indices
    n, d_v = indptr.shape[0] - 1, v.shape[1]
    mu, t = np.empty(n), np.empty(cols.shape[0])
    for rows, edges, span_cols, width in _spans(topology, max(sides.q.shape[1], d_v)):
        t[edges] = _span_weights(sides, rows, span_cols, width, scale, mu, fresh=True)
    sums = _product(indptr, cols, t, np.hstack([v, np.ones((n, 1))]))
    return mu, sums[:, d_v].copy(), sums[:, :d_v].copy(), t


def local_attention(inputs: AttentionInputs, topology) -> AttentionResult:
    """Softmax attention restricted to j in T_i."""
    if topology.n_tokens != inputs.n_tokens:
        raise InvalidInputError("topology token count does not match inputs")
    mode = inputs.embedding_mode
    sides = _scored(inputs.q, inputs.k, _level_term(inputs.positions, inputs.embedding, mode), mode)
    exponents = _value_exponents([inputs.v], int(topology.sizes.max()))
    v = inputs.v if exponents is None else np.ldexp(inputs.v, -exponents)
    mu, denom, y, _ = _level_softmax(sides, v, topology, math.sqrt(inputs.d))
    e = topology.total_edges
    with np.errstate(over="ignore"):
        normalizers = denom * np.exp(mu)
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

class _Pass(NamedTuple):
    """What a forward leaves on its hierarchy for the adjoint over the same
    values: O(N d_v + sum of n_h d) floats and one per-edge array, level 0's
    weights (E_0 floats, N k on a point structure); coarser levels' weights
    are scored again. It serves only the embedding and mode whose level-0
    term (``_kept_term``) it scored with: ``term`` is that very object,
    which level 0's memo owns."""

    term: np.ndarray | None  # level 0's positional term; None in mode "none"
    mu: tuple  # each level's per-token local max scores
    q_rot: tuple  # each level's Q' in relative mode, else Nones
    t0: np.ndarray  # level 0's edge weights, read-only
    d_hat: np.ndarray  # the level-0 denominators, shifted by m_q
    m_q: np.ndarray  # the level-0 running maxima
    exponents: np.ndarray | None  # the value columns' scaling (see _value_exponents)
    z: np.ndarray  # a private read-only copy of the output


def _forward(hierarchy: Hierarchy, embedding, mode: str, weights=None) -> AttentionResult:
    """The hierarchical forward of checked arguments, and the one writer of
    ``hierarchy.forward_pass``: it leaves its ``_Pass`` there, with a
    private read-only copy of z and level 0's edge weights, made read-only,
    and returns its result. A list ``weights`` receives every level's edge
    weights t, finest level first; its level-0 entry is the pass's array."""
    scale = math.sqrt(hierarchy.levels[0].q_tilde.shape[1])
    depth = hierarchy.depth
    exponents = _value_exponents([lv.v_tilde for lv in hierarchy.levels],
                                 sum(int(lv.topology.sizes.max()) for lv in hierarchy.levels))

    mus: list = [None] * (depth + 1)
    q_rots: list = [None] * (depth + 1)
    per_level = [0] * (depth + 1)
    carry_y = carry_d = carry_m = None
    for h in range(depth, -1, -1):
        lv = hierarchy.levels[h]
        term = _kept_term(lv, embedding, mode)  # at h = 0, the one the pass keeps
        sides = _scored(lv.q_tilde, lv.k_tilde, term, mode)
        v = lv.v_tilde if exponents is None else np.ldexp(lv.v_tilde, -exponents)
        mu, d_loc, y_loc, t = _level_softmax(sides, v, lv.topology, scale)
        if weights is not None:
            weights.insert(0, t)
        if h == 0:  # scored last: the pass keeps it for the backward
            t0 = _readonly(t)
        del t  # else alive through the parent copy below
        mus[h] = mu
        q_rots[h] = None if sides.q_rot is None else _readonly(sides.q_rot)
        per_level[h] = lv.topology.total_edges

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
        del sides, y_loc, d_loc, v  # else alive through the next level's softmax

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
    object.__setattr__(hierarchy, "forward_pass", _Pass(
        term, tuple(mus), tuple(q_rots), t0, carry_d, carry_m, exponents,
        _readonly(result.z.copy())))
    return result


def _held_pass(hierarchy: Hierarchy, embedding, mode: str) -> _Pass:
    """The pass the structure holds for (embedding, mode) when level 0's kept
    term for them is the very one it scored with, else the one a new forward
    leaves (also after the slot was filled again by a copy sharing the memo);
    the arguments are checked."""
    held = hierarchy.forward_pass
    if held is None or _kept_term(hierarchy.levels[0], embedding, mode) is not held.term:
        _forward(hierarchy, embedding, mode)
    return hierarchy.forward_pass


def gha_forward(hierarchy: Hierarchy, embedding: FourierEmbedding | None = None,
                embedding_mode: str = "none") -> AttentionResult:
    """Hierarchical attention over a built hierarchy.

    Each level h adds local attention within its own topology (scores use
    level-h rows and positions); unnormalized sums are copied down to
    children and normalized once at level 0. A per-query running maximum
    rescales the accumulators, which leaves the result unchanged in exact
    arithmetic but keeps the exponentials bounded.

    The call reads the positional terms the structure keeps (per token:
    gamma(p) in absolute mode, K' in relative mode; see
    ``positional_table``), or makes each level's term as it reaches that
    level, and the structure keeps it: 2m float64 per token over all
    levels, for as long as the structure lives.

    The call leaves its pass on ``hierarchy`` (replacing any earlier one):
    each level's row maxima and, in relative mode, its Q' (the rotated q
    rows), level 0's edge weights, the level-0 denominators and maxima, the
    value scaling and a private read-only copy of z, O(N d_v + sum of n_h d)
    floats plus one per level-0 edge, that live as long as the hierarchy
    object. A ``gha_backward`` whose level-0 kept term is the one this pass
    scored with (same mode, equal frequencies, the term not made again
    since) reads it instead of running this forward again; ``with_values`` and ``truncate``
    copies start without one.
    """
    _check_mode(embedding, embedding_mode, hierarchy.levels[0].q_tilde.shape[1])
    return _forward(hierarchy, embedding, embedding_mode)


class Gradients(NamedTuple):
    dq: np.ndarray
    dk: np.ndarray
    dv: np.ndarray


def _pull_back(hierarchy: Hierarchy, per_level: list) -> np.ndarray:
    """Sum per-level gradients onto level 0 through the transposed pooling
    maps, emptying the list as it goes, so a level's rows are freed once
    summed. A token sums its groups (one entry in each) in the coarse level's
    ``order``, fixed by the geometry, not by the input numbering: the level's
    pull-back map (``pull_indptr``/``pull_indices``) holds its groups in that
    order. (Voxel groups are disjoint, so no order matters.)"""
    g = per_level.pop()
    for h in range(hierarchy.depth - 1, -1, -1):
        coarse = hierarchy.levels[h + 1]
        indptr, indices = coarse.pull_indptr, coarse.pull_indices
        g = g.take(coarse.order, axis=0)
        g /= np.diff(indptr)[:, None]
        g = _transposed_product(indptr, indices, np.ones(indices.shape[0]), g,
                                hierarchy.levels[h].n_tokens)
        g += per_level.pop()
    return g


def _fold(hierarchy: Hierarchy, mus: tuple, m_q: np.ndarray, c: np.ndarray) -> list:
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
    n = c.shape[0]
    # int32 maps, which SciPy multiplies in without converting them; a
    # structure holds fewer than 2^31 tokens (see ``geometry._csr``).
    indptr, anc = np.arange(n + 1, dtype=np.int32), np.arange(n, dtype=np.int32)
    folds = []
    for h, (lv, mu) in enumerate(zip(hierarchy.levels, mus)):
        w = np.exp(mu.take(anc) - m_q)
        folds.append(_transposed_product(indptr, anc, w, c, lv.n_tokens))
        if h < depth:
            anc = lv.parent_of.take(anc).astype(np.int32)
    return folds


def _value_cotangent(level, t: np.ndarray, fold: np.ndarray) -> np.ndarray:
    """One level's dv: each edge's t times its query's ``fold`` row, onto its key."""
    topology = level.topology
    return _transposed_product(topology.indptr, topology.indices, t, fold, level.n_tokens)


def _edge_weights(hierarchy: Hierarchy, embedding, mode: str):
    """A forward's pass and every level's edge weights t, what effective
    weights read. The forward keeps each t as it makes it, since every
    level's are alive together here anyway, and leaves its pass for a later
    backward; level 0's t is the read-only array that pass holds."""
    _check_mode(embedding, mode, hierarchy.levels[0].q_tilde.shape[1])
    weights = []
    _forward(hierarchy, embedding, mode, weights)
    return hierarchy.forward_pass, weights


def gha_backward(hierarchy: Hierarchy, dz: np.ndarray,
                 embedding: FourierEmbedding | None = None,
                 embedding_mode: str = "none") -> Gradients:
    """Exact gradients of ``gha_forward`` w.r.t. the level-0 q, k, v.

    Differentiates through the per-level softmax terms, the parent-copy
    accumulation, the final normalization, and the coarsening averages, in
    every embedding mode. Positions and frequencies are constants, so each
    edge's score is a bilinear form in the q and k the forward scored with:
    dq takes the key side (k, plus gamma in absolute mode) and, in relative
    mode, R_q times the sum of ds K' over the query's edges (``_rotated``),
    and dk takes the query side (q, plus gamma in absolute mode).

    The call reads the pass the last forward on this hierarchy left (a
    ``gha_forward``, or one an earlier backward or effective-weight call
    ran) when it scored with the structure's level-0 term for this
    embedding and mode (``_held_pass``), and runs no forward; in
    relative mode the pass's Q' serves the scores. Without one it runs the
    forward itself first and leaves its pass: a backward alone costs about
    one forward more than a backward after a forward. Level 0's edge
    weights are the pass's; each coarser level's are made again from the
    pass's row maxima inside the backward's own row spans, so besides level
    0's only one level's per-edge weights and ds are alive at a time, and
    every bit equals a pass that kept them all. The structure keeps the
    terms this call makes.
    """
    level0 = hierarchy.levels[0]
    n, d = level0.q_tilde.shape
    _check_mode(embedding, embedding_mode, d)
    d_v = level0.v_tilde.shape[1]
    dz = _checked(dz, "dz", (n, d_v))
    held = _held_pass(hierarchy, embedding, embedding_mode)
    scale = math.sqrt(d)
    # dq and dk are linear in v (dv does not depend on it). Where the forward
    # scales v's columns down, their v terms (v in ds, z in the b column) run
    # on v scaled by the largest of those powers of two, and dq and dk are
    # scaled back: exact, as in the forward, and no edge sum overflows.
    shift = None if held.exponents is None else int(held.exponents.max())
    z = held.z if shift is None else np.ldexp(held.z, -shift)

    # Per-query scaled cotangents: dY_q = dz_q / D_q, then -dD_q = (dz_q.z_q)/D_q,
    # with D_q = d_hat_q * exp(m_q) kept in the shifted form.
    c = np.column_stack([dz / held.d_hat[:, None], np.einsum("qd,qd->q", dz, z) / held.d_hat])
    folds = _fold(hierarchy, held.mu, held.m_q, c)
    del c, z

    per_level = []
    for h, (lv, mu) in enumerate(zip(hierarchy.levels, held.mu)):
        fold, folds[h] = folds[h], None
        sides = _scored(lv.q_tilde, lv.k_tilde, _kept_term(lv, embedding, embedding_mode),
                        embedding_mode, held.q_rot[h])
        indptr, cols = lv.topology.indptr, lv.topology.indices
        v = lv.v_tilde if shift is None else np.ldexp(lv.v_tilde, -shift)
        # t (at level 0, the pass's) and ds edge by edge in row spans; every
        # sum over the level's edges is then one product over its whole t or
        # ds. The level's [dq | dk | dv] rows are written in place.
        t = held.t0 if h == 0 else np.empty(cols.shape[0])
        ds = np.empty(cols.shape[0])
        for rows, edges, span_cols, width in _spans(lv.topology, max(d, d_v + 1)):
            if h == 0:
                t_span = _rows(held.t0, edges)
            else:
                t[edges] = t_span = _span_weights(sides, rows, span_cols, width, scale, mu)
            # Each edge's query's folded output and normalizer cotangents.
            f = _rows(fold, rows)
            s = _query_dot(f[:, :d_v], v.take(span_cols, axis=0), width)
            by_row = s.reshape(-1, width)
            by_row -= f[:, d_v, None]
            s *= t_span
            s /= scale
            ds[edges] = s
            del s, by_row, t_span, f  # else alive next to the next span's gathers
        g = np.empty((lv.n_tokens, 2 * d + d_v))
        dq = g[:, :d]
        dq[:] = _product(indptr, cols, ds, sides.k)  # the key side
        g[:, 2 * d:] = _value_cotangent(lv, t, fold)[:, :d_v]  # b's column dropped
        del t, fold
        if sides.k_rot is not None:  # R_q (sum of ds K'): one product, then the rotation
            dq += _rotated(_product(indptr, cols, ds, sides.k_rot), sides.k_rot)
        g[:, d:2 * d] = _transposed_product(indptr, cols, ds, sides.q, lv.n_tokens)
        per_level.append(g)
        del g, dq, ds, sides  # else alive next to the next level's
    g = _pull_back(hierarchy, per_level)
    if shift is not None:
        g[:, :2 * d] = np.ldexp(g[:, :2 * d], shift)
    return Gradients(*np.hsplit(g, [d, 2 * d]))
