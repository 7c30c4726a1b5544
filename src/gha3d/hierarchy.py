"""Multi-level coarsening hierarchies.

A hierarchy carries, per level, token positions, the local neighborhood
topology, the parent map that links each token to the next-coarser level,
the pooling map that averaged the finer level into this one, and the
coarsened q/k/v rows. The structure (everything but q/k/v) depends only on
geometry: ``attention_structure`` builds it once, with levels that hold q,
k and v of width 0, and ``with_values`` gives it values, re-coarsened
through the same structure as one mean over each level's pooling map
(``segment_mean``'s arithmetic) per new array.
``build_hierarchy`` is the two in turn.
"""

import copy
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import InvalidCoarsenError, InvalidInputError
from .geometry import (
    NeighborhoodTopology,
    _canonical_order,
    _check_extent,
    _checked,
    _csr,
    _fps_in_order,
    _freeze,
    _index_map,
    _integer,
    _knn_topology,
    _point_set,
    _pooled,
    _ranges,
    _readonly,
    _voxel_coords,
    _window_topology,
    kernel_window_topology,
    pack_voxel_coords,
)

# Max occupancy of the 3x3x3 voxel window; doubles as the voxel-flavor
# stopping threshold (a level this small fits one neighborhood).
VOXEL_WINDOW_K = 27


def segment_mean(values: np.ndarray, indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Row i of the result is the mean of ``values[indices[indptr[i]:indptr[i+1]]]``.

    ``values`` must be a finite 2-D array and the map a CSR map over its
    rows with every segment non-empty; anything else raises
    InvalidInputError (CapacityError from 2^31 entries or rows on). Each
    group sums its members from +0.0 in member order, by one sparse
    product, so a group of -0.0 members sums to +0.0. Where finite terms
    near the float64 limit overflow that sum, the entry is summed again in
    the same order over its column scaled down by a power of two, then
    scaled back (the attention kernels' rule for their value columns), so
    the mean of finite values is finite and holds the bits of an unbounded
    exponent; every other entry keeps the plain sum's bits.
    """
    values = _checked(values, "values", (None, None))
    return _pooled(values, *_csr(indptr, indices, "", values.shape[0], np.size(indptr) - 1))


@dataclass(frozen=True)
class HierarchyLevel:
    """One resolution of the hierarchy.

    ``q_tilde``/``k_tilde``/``v_tilde`` are its values, k as wide as q; a
    structure's levels hold them at width 0 (see ``attention_structure``).

    ``parent_of`` maps this level's tokens to the next-coarser level and is
    None at the top. ``selected`` (point flavor) lists the finer-level
    indices this level was subsampled from; ``coords`` (voxel flavor) are
    this level's integer cell coordinates.

    ``pool_indptr``/``pool_indices`` (None at level 0) are the pooling map
    from the finer level, in CSR form, held once as read-only int32 arrays
    (see ``geometry._csr``): row i of this level is the mean of the finer
    rows ``pool_indices[pool_indptr[i]:pool_indptr[i+1]]``, summed from
    +0.0 in that order by one sparse product. Point flavor stores the kNN
    row of ``selected[i]`` (k tokens, so ``pool_indptr`` steps by k) sorted
    in the finer level's ``order``; voxel flavor stores the children of
    cell i in child-cell-coordinate order. Either order is independent of token
    numbering, so equal groups round identically.

    ``order`` is the level's canonical token order, ``_canonical_order``
    of ``positions``. It is derived here and never passed in, so no level
    holds another order; levels that share this one's positions are made
    with ``_shared`` and keep it without sorting again. So is
    ``pull_indptr``/``pull_indices`` (None at level 0): the pooling groups
    in ``order``, which the backward's pull-back sums in, the one reordered
    copy of a map. The kernels multiply by the topology's own arrays.

    ``positional`` is the level's memo of positional terms, which depend
    only on its positions: one slot per embedding mode, each holding a copy
    of the frequencies a term was made for and the term, one row per token
    (see ``attention._kept_term``). It starts empty, every attention pass
    fills the slot of its mode, and every ``_shared`` copy shares the one
    dict.
    """

    level_index: int
    positions: np.ndarray  # (n_h, 3) float64
    q_tilde: np.ndarray  # (n_h, d)
    k_tilde: np.ndarray  # (n_h, d)
    v_tilde: np.ndarray  # (n_h, d_v)
    topology: NeighborhoodTopology
    parent_of: np.ndarray | None = None  # (n_h,) int64 into level h+1
    selected: np.ndarray | None = None
    coords: np.ndarray | None = None  # (n_h, 3) int64
    pool_indptr: np.ndarray | None = None  # (n_h + 1,) int32
    pool_indices: np.ndarray | None = None  # int32 into level h-1
    order: np.ndarray = field(init=False)  # (n_h,) int64
    pull_indptr: np.ndarray | None = field(init=False, repr=False, compare=False)  # int32
    pull_indices: np.ndarray | None = field(init=False, repr=False, compare=False)  # int32
    positional: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "level_index", _integer(self.level_index, "level_index", 0))
        positions = _checked(self.positions, "positions", (None, 3))
        n = positions.shape[0]
        q = _checked(self.q_tilde, "q_tilde", (n, None))
        k = _checked(self.k_tilde, "k_tilde", (n, q.shape[1]))
        for name, a in (("positions", positions), ("q_tilde", q), ("k_tilde", k),
                        ("v_tilde", _checked(self.v_tilde, "v_tilde", (n, None)))):
            object.__setattr__(self, name, _freeze(a))
        # A level refuses float maps; its hierarchy, which knows the
        # neighboring levels' sizes, checks the maps' shapes and ranges. The
        # level checks its pooling map's rows itself, once, as it derives
        # the pull-back map from them, and keeps the int32 arrays it checked.
        for name in ("parent_of", "selected"):
            val = getattr(self, name)
            if val is not None:
                object.__setattr__(self, name, _freeze(_index_map(val, f"{name} must be integers")))
        if self.coords is not None:  # one cell per token, as ``build_hierarchy`` reads them
            coords = _voxel_coords(self.coords)
            if coords.shape[0] != n:
                raise InvalidInputError(f"coords must be ({n}, 3), got {coords.shape}")
            object.__setattr__(self, "coords", _freeze(coords))
        if self.topology.n_tokens != n:
            raise InvalidInputError("topology token count does not match level size")
        object.__setattr__(self, "order", _readonly(_canonical_order(self.positions)))
        pull_indptr = pull_indices = None
        if self.pool_indptr is not None:
            indptr, indices = map(_freeze, _csr(self.pool_indptr, self.pool_indices, "pool_",
                                                None, n))
            object.__setattr__(self, "pool_indptr", indptr)
            object.__setattr__(self, "pool_indices", indices)
            sizes = np.diff(indptr).take(self.order)
            pull_indptr = _readonly(np.concatenate((np.zeros(1, np.int32),
                                                    np.cumsum(sizes, dtype=np.int32))))
            pull_indices = _readonly(indices.take(_ranges(indptr.take(self.order), sizes)))
        object.__setattr__(self, "pull_indptr", pull_indptr)
        object.__setattr__(self, "pull_indices", pull_indices)
        object.__setattr__(self, "positional", {})

    @property
    def n_tokens(self) -> int:
        return self.positions.shape[0]


def _shared(obj, **changes):
    """A copy of a level or hierarchy with already checked, read-only
    ``changes`` swapped in: nothing is validated or sorted again, and every
    other field stays the same object, a level's ``positional`` memo too.
    So the changes never touch a level's positions or topology. A hierarchy
    copy starts without a forward pass, which its new values would not fit."""
    out = copy.copy(obj)
    if isinstance(out, Hierarchy):
        object.__setattr__(out, "forward_pass", None)
    for name, value in changes.items():
        object.__setattr__(out, name, value)
    return out


def _structure_level(level_index: int, positions: np.ndarray, topology: NeighborhoodTopology,
                     **fields) -> HierarchyLevel:
    """A structure level (q, k and v of width 0) over ``positions`` and
    ``topology``, with the flavor's and the pooling map's ``fields``. A
    coarse level checks the flavor's int32 pooling map, once, and stores a
    copy of it, as of every array here."""
    no_values = np.empty((positions.shape[0], 0))
    return HierarchyLevel(level_index=level_index, positions=positions, q_tilde=no_values,
                          k_tilde=no_values, v_tilde=no_values, topology=topology, **fields)


@dataclass(frozen=True)
class Hierarchy:
    """A stack of levels, finest first.

    ``forward_pass`` is the record the last forward on this object left for
    its backward (see ``attention._Pass``), or None.
    It starts empty, and ``_shared`` copies (``with_values``, ``truncate``)
    start without one.
    """

    flavor: str  # "point" | "voxel"
    neighborhood_k: int
    coarsen_ratio: int
    levels: tuple[HierarchyLevel, ...]
    forward_pass: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "forward_pass", None)
        if self.flavor not in ("point", "voxel"):
            raise InvalidInputError(f"unknown flavor {self.flavor!r}")
        for name, lo in (("neighborhood_k", 1), ("coarsen_ratio", 2)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, lo))
        if not self.levels:
            raise InvalidInputError("hierarchy has no levels")
        widths = self.levels[0].q_tilde.shape[1], self.levels[0].v_tilde.shape[1]
        for h, lv in enumerate(self.levels):
            if lv.level_index != h:
                raise InvalidInputError(f"level {h} has level_index {lv.level_index}")
            if (lv.q_tilde.shape[1], lv.v_tilde.shape[1]) != widths:  # k is as wide as q
                raise InvalidInputError(
                    f"level {h} holds q, k of width {lv.q_tilde.shape[1]} and v of width"
                    f" {lv.v_tilde.shape[1]}; level 0 holds {widths[0]} and {widths[1]}")
        for h in range(len(self.levels) - 1):
            fine, coarse = self.levels[h], self.levels[h + 1]
            if coarse.n_tokens >= fine.n_tokens:
                raise InvalidInputError("levels must be strictly coarsening")
            if fine.parent_of is None:
                raise InvalidInputError(f"level {h} is missing its parent map")
            _index_map(fine.parent_of, f"level {h} parent map must give each of its"
                       f" {fine.n_tokens} tokens a parent", coarse.n_tokens, fine.n_tokens)
            if coarse.pool_indptr is None:
                raise InvalidInputError(f"level {h + 1} is missing its pooling map")
            # The level checked its map's rows; only the range is left.
            _index_map(coarse.pool_indices, f"level {h + 1} pool_indices must lie", fine.n_tokens,
                       dtype=np.int32)

    @property
    def depth(self) -> int:
        """H: index of the top level."""
        return len(self.levels) - 1

    @property
    def n_tokens(self) -> int:
        return self.levels[0].n_tokens

    def level_sizes(self) -> list[int]:
        return [lv.n_tokens for lv in self.levels]


def children_of(hierarchy: Hierarchy, level: int, parent: int) -> np.ndarray:
    """Tokens at ``level`` whose parent at ``level + 1`` is ``parent``, ascending."""
    level = _integer(level, "level", 0, hierarchy.depth - 1)
    parent = _integer(parent, "parent", 0, hierarchy.levels[level + 1].n_tokens - 1)
    return np.flatnonzero(hierarchy.levels[level].parent_of == parent)


# ---------------------------------------------------------------------------
# Coarsening
# ---------------------------------------------------------------------------

def _coarsen_point(level: HierarchyLevel, tree: tuple, k: int,
                   r: int) -> tuple[HierarchyLevel, np.ndarray, tuple]:
    """The build's point step on a level of more than k tokens, whose
    topology is the exact kNN topology with rows of k tokens and whose kNN
    built ``tree`` (see ``geometry._knn_rows``).

    Keeps the ceil(n/r) farthest-point-sampled tokens, pools positions
    over each one's kNN row, and assigns every token to its nearest
    selected token (ties to the lower selected index; a selected token is
    always its own parent). Returns the coarse level, which holds no
    values, the parent map and the coarse level's kd-tree. No extent is
    checked: the build checked level 0's, whose bounding box holds every
    pooled mean.
    """
    n = level.n_tokens
    m = -(-n // r)  # ceil
    # The kNN rows as ranks in the level's canonical order.
    rank = np.empty(n, dtype=np.int64)
    rank[level.order] = np.arange(n)
    ranks = rank.take(level.topology.indices.reshape(n, k))
    # FPS also gives the parent map: each token's nearest selected token.
    selected, parent_of = _fps_in_order(level.positions, m, level.order, ranks, tree)

    # Only the selected tokens' smoothed rows survive, so only their rows
    # become pooling groups. Each sums in the level's order, not in its
    # query's distance order, so tokens with the same neighborhood set round
    # to bitwise identical rows, as the exact-tie rules need.
    pool_indices = level.order.take(
        np.sort(ranks.take(selected, axis=0), axis=1).ravel()).astype(np.int32)
    pool_indptr = np.arange(m + 1, dtype=np.int32) * k  # m k < n k, the level's edge count
    positions = _pooled(level.positions, pool_indptr, pool_indices)
    topology, tree = _knn_topology(positions, k)
    coarse = _structure_level(level.level_index + 1, positions, topology,
                              pool_indptr=pool_indptr, pool_indices=pool_indices,
                              selected=selected)
    return coarse, parent_of, tree


def coarsen_voxel(level: HierarchyLevel) -> tuple[HierarchyLevel, np.ndarray]:
    """One voxel pooling step at the smallest power-of-two stride s that
    reduces the cell count: parent cell = floor(child / s) per axis, parent
    positions = unweighted means over children, parents sorted
    lexicographically. Returns the coarse level, which holds no values
    (``with_values`` pools them), and the fine parent map.

    Strides run from 2 to 2^20; from there on every parent is one of the 8
    cells around the origin, so a level that no stride in that range
    reduces raises InvalidCoarsenError.
    """
    coords = level.coords
    if coords is None:
        raise InvalidInputError("voxel coarsening requires cell coordinates")
    for shift in range(1, 21):
        parent_coords = coords >> shift  # floor(coords / 2^shift)
        uniq_keys, first_idx, parent_of, counts = np.unique(
            pack_voxel_coords(parent_coords), return_index=True, return_inverse=True,
            return_counts=True,
        )
        if uniq_keys.shape[0] < level.n_tokens:
            break
    else:
        raise InvalidCoarsenError(f"no stride up to 2^20 reduces {level.n_tokens} voxel cell(s)")
    parent_of = parent_of.astype(np.int64)
    m = uniq_keys.shape[0]

    # Children grouped by parent, each group in child-cell order: cell keys
    # are unique, so the order is total and independent of token numbering.
    pool_indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
    pool_indices = np.lexsort((pack_voxel_coords(coords), parent_of)).astype(np.int32)
    # The parents' keys are unique and sorted already: the window neither
    # re-checks nor re-sorts them.
    coarse = _structure_level(level.level_index + 1,
                              _pooled(level.positions, pool_indptr, pool_indices),
                              _window_topology(uniq_keys), pool_indptr=pool_indptr,
                              pool_indices=pool_indices, coords=parent_coords[first_idx])
    return coarse, parent_of


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def attention_structure(
    positions: np.ndarray,
    *,
    flavor: str = "point",
    k: int = 8,
    r: int = 2,
    coords: np.ndarray | None = None,
) -> Hierarchy:
    """The hierarchy's structure over ``positions``: every level's positions,
    topology, parent and pooling maps, with q, k and v of width 0.

    Level 0 holds the positions unchanged; coarsening repeats until the top
    level has at most ``k`` tokens (N <= k gives a single level). Point
    flavor uses kNN topologies and ratio-r farthest-point subsampling;
    voxel flavor (pass occupied-cell ``coords``) uses 3x3x3 window
    topologies and pools each level at the smallest power-of-two stride
    that reduces its cell count (``coarsen_voxel``), so every recorded
    level strictly shrinks. Passes need values: ``with_values`` gives each
    call's to the one structure, which keeps its positional terms.
    """
    positions = _point_set(positions, "positions")

    # Each flavor fixes its neighborhood size, ratio, level-0 topology and
    # coarsening step, which takes the level and its kd-tree (None for
    # voxels) and returns the next level's; one loop then coarsens until a
    # level fits k tokens.
    if flavor == "point":
        k, r = _integer(k, "k", 1), _integer(r, "coarsen ratio", 2)
        coords = None  # point levels carry no cells
        _check_extent(positions)  # level 0's box holds every coarser level
        topology, tree = _knn_topology(positions, k)
        step = partial(_coarsen_point, k=k, r=r)
    elif flavor == "voxel":
        if coords is None:
            raise InvalidInputError("voxel flavor requires occupied-cell coords")
        k, r = VOXEL_WINDOW_K, 2  # level 0 checks that coords hold one cell per point
        topology, tree = kernel_window_topology(coords), None
        step = lambda level, _: (*coarsen_voxel(level), None)
    else:
        raise InvalidInputError(f"unknown flavor {flavor!r}")

    level = _structure_level(0, positions, topology, coords=coords)
    levels = []
    while level.n_tokens > k:
        coarse, parent_of, tree = step(level, tree)
        levels.append(_shared(level, parent_of=_readonly(parent_of)))
        level = coarse
    levels.append(level)
    return Hierarchy(flavor=flavor, neighborhood_k=k, coarsen_ratio=r, levels=tuple(levels))


def build_hierarchy(
    positions: np.ndarray,
    q: np.ndarray,
    k_mat: np.ndarray,
    v: np.ndarray,
    *,
    flavor: str = "point",
    k: int = 8,
    r: int = 2,
    coords: np.ndarray | None = None,
) -> Hierarchy:
    """The hierarchy for one attention call: ``attention_structure`` over
    ``positions``, given the level-0 q, k and v by ``with_values``."""
    return with_values(attention_structure(positions, flavor=flavor, k=k, r=r, coords=coords),
                       q, k_mat, v)


def with_values(
    hierarchy: Hierarchy,
    q: np.ndarray | None = None,
    k: np.ndarray | None = None,
    v: np.ndarray | None = None,
) -> Hierarchy:
    """New level-0 values, coarsened through the existing structure: the
    one place that checks and pools q, k and v.

    Only the matrices passed are replaced; geometry, topologies, parent
    and pooling maps, and the positional terms the levels keep, are shared
    with the input hierarchy. q and k share one width of at least 1, so a
    structure's first values include both.
    """
    n, d = hierarchy.levels[0].q_tilde.shape
    new_rows = {}
    # Each is stored as a read-only copy (see _freeze).
    if q is not None:  # a new q keeps the stored width, or sets the one a new k shares
        q = _checked(q, "q", (n, d if k is None else None))
        d = q.shape[1]
        if d < 1:  # scored against k
            raise InvalidInputError(f"q and k need one shared width >= 1, got q of shape {q.shape}")
        new_rows["q_tilde"] = _freeze(q)
    if k is not None:
        new_rows["k_tilde"] = _freeze(_checked(k, "k", (n, d)))
    if v is not None:
        new_rows["v_tilde"] = _freeze(_checked(v, "v", (n, None)))

    if not new_rows:
        return hierarchy
    levels = [_shared(hierarchy.levels[0], **new_rows)]
    for lv in hierarchy.levels[1:]:  # each coarser level pools the one below, array by array
        new_rows = {name: _readonly(_pooled(a, lv.pool_indptr, lv.pool_indices))
                    for name, a in new_rows.items()}
        levels.append(_shared(lv, **new_rows))
    return _shared(hierarchy, levels=tuple(levels))


def truncate(hierarchy: Hierarchy, depth: int) -> Hierarchy:
    """Drop every level above ``depth``; depth 0 keeps only local attention."""
    depth = _integer(depth, "depth", 0, hierarchy.depth)
    top = _shared(hierarchy.levels[depth], parent_of=None)
    return _shared(hierarchy, levels=(*hierarchy.levels[:depth], top))


def interpolate(values: np.ndarray, from_level: int, hierarchy: Hierarchy) -> np.ndarray:
    """Copy each fine token its parent's row from level ``from_level``."""
    from_level = _integer(from_level, "from_level", 1, hierarchy.depth)
    values = _checked(values, "values", (hierarchy.levels[from_level].n_tokens, None))
    return values.take(hierarchy.levels[from_level - 1].parent_of, axis=0)


# ---------------------------------------------------------------------------
# Text dump (debugging / golden files)
# ---------------------------------------------------------------------------

def dump_hierarchy(hierarchy: Hierarchy) -> str:
    """Render the hierarchy structure as text.

    Header line, then per level a ``level <h> n=<n_h>`` line followed by one
    token line each: ``tok <i> pos <x> <y> <z> [cell <cx> <cy> <cz>] parent <p>``
    with ``parent -`` at the top level. Floats use repr-exact %.17g.
    """
    out = [
        f"gha-hierarchy v1 flavor={hierarchy.flavor} k={hierarchy.neighborhood_k}"
        f" r={hierarchy.coarsen_ratio} levels={len(hierarchy.levels)}"
    ]
    for lv in hierarchy.levels:
        out.append(f"level {lv.level_index} n={lv.n_tokens}")
        for i in range(lv.n_tokens):
            x, y, z = lv.positions[i]
            line = f"tok {i} pos {x:.17g} {y:.17g} {z:.17g}"
            if lv.coords is not None:
                cx, cy, cz = lv.coords[i]
                line += f" cell {cx} {cy} {cz}"
            parent = "-" if lv.parent_of is None else str(int(lv.parent_of[i]))
            line += f" parent {parent}"
            out.append(line)
    return "\n".join(out) + "\n"
