"""Multi-level coarsening hierarchies.

A hierarchy carries, per level, the coarsened q/k/v rows, token positions,
the local neighborhood topology, the parent map that links each token to
the next-coarser level, and the pooling map that averaged the finer level
into this one. Structure (topologies, parent and pooling maps, positions)
depends only on geometry and is built once; values can be swapped out and
re-coarsened through the same structure with ``with_values``, which is one
``segment_mean`` over each level's pooling map.
"""

import copy
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import InvalidCoarsenError, InvalidInputError
from .geometry import (
    NeighborhoodTopology,
    _canonical_order,
    _checked,
    _csr,
    _csr_rows,
    _fps_in_order,
    _freeze,
    _index_map,
    _integer,
    _readonly,
    _voxel_coords,
    _window_topology,
    deterministic_knn,
    kernel_window_topology,
    knn_from_positions,
    pack_voxel_coords,
)

# Max occupancy of the 3x3x3 voxel window; doubles as the voxel-flavor
# stopping threshold (a level this small fits one neighborhood).
VOXEL_WINDOW_K = 27


def segment_mean(values: np.ndarray, indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Row i of the result is the mean of ``values[indices[indptr[i]:indptr[i+1]]]``.

    Every segment must be non-empty.
    """
    gathered = values[indices]
    sums = np.add.reduceat(gathered, indptr[:-1], axis=0)
    sizes = np.diff(indptr)
    return sums / sizes[:, None]


@dataclass(frozen=True)
class HierarchyLevel:
    """One resolution of the hierarchy.

    ``parent_of`` maps this level's tokens to the next-coarser level and is
    None at the top. ``selected`` (point flavor) lists the finer-level
    indices this level was subsampled from; ``coords`` (voxel flavor) are
    this level's integer cell coordinates.

    ``pool_indptr``/``pool_indices`` (None at level 0) are the pooling map
    from the finer level, in CSR form: row i of this level is the mean of
    the finer rows ``pool_indices[pool_indptr[i]:pool_indptr[i+1]]``,
    summed in that order. Point flavor stores the neighborhood of
    ``selected[i]`` in the finer level's ``order``; voxel flavor stores the
    children of cell i in child-cell-coordinate order. Either order is
    independent of token numbering, so equal groups round identically.

    ``order`` is the level's canonical token order, ``_canonical_order``
    of ``positions``. It is derived here and never passed in, so no level
    holds another order; levels that share this one's positions are made
    with ``_shared`` and keep it without sorting again.
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
    pool_indptr: np.ndarray | None = None  # (n_h + 1,) int64
    pool_indices: np.ndarray | None = None  # int64 into level h-1
    order: np.ndarray = field(init=False)  # (n_h,) int64

    def __post_init__(self):
        object.__setattr__(self, "level_index", _integer(self.level_index, "level_index", 0))
        positions = _checked(self.positions, "positions", (None, 3))
        n = positions.shape[0]
        q = _checked(self.q_tilde, "q_tilde", (n, None))
        k = _checked(self.k_tilde, "k_tilde", (n, _qk_width(q)))  # scored against q
        for name, a in (("positions", positions), ("q_tilde", q), ("k_tilde", k),
                        ("v_tilde", _checked(self.v_tilde, "v_tilde", (n, None)))):
            object.__setattr__(self, name, _freeze(a))
        # A level refuses float maps and cells; its hierarchy, which knows the
        # neighboring levels' sizes, checks the maps' shapes and ranges.
        for name in ("parent_of", "selected", "coords", "pool_indptr", "pool_indices"):
            val = getattr(self, name)
            if val is not None:
                object.__setattr__(self, name, _index_map(val, f"{name} must be integers"))
        if self.topology.n_tokens != n:
            raise InvalidInputError("topology token count does not match level size")
        object.__setattr__(self, "order", _readonly(_canonical_order(self.positions)))

    @property
    def n_tokens(self) -> int:
        return self.positions.shape[0]


def _shared(obj, **changes):
    """A copy of a level or hierarchy with already checked, read-only
    ``changes`` swapped in: nothing is validated or sorted again, and every
    other field stays the same object."""
    out = copy.copy(obj)
    for name, value in changes.items():
        object.__setattr__(out, name, value)
    return out


def _pooled_level(level: HierarchyLevel, pool_indptr: np.ndarray, pool_indices: np.ndarray,
                  make_topology, **fields) -> HierarchyLevel:
    """The next-coarser level pooled from ``level``: positions and q/k/v are
    the means over the pooling map, ``make_topology(positions)`` gives its
    neighborhoods and ``fields`` the flavor's own arrays. Every array made
    here is marked read-only, so the level stores it without a copy."""
    fields.update(
        {name: segment_mean(getattr(level, name), pool_indptr, pool_indices)
         for name in ("positions", "q_tilde", "k_tilde", "v_tilde")},
        pool_indptr=pool_indptr, pool_indices=pool_indices,
    )
    for a in fields.values():
        _readonly(a)
    return HierarchyLevel(level_index=level.level_index + 1,
                          topology=make_topology(fields["positions"]), **fields)


@dataclass(frozen=True)
class Hierarchy:
    flavor: str  # "point" | "voxel"
    neighborhood_k: int
    coarsen_ratio: int
    levels: tuple[HierarchyLevel, ...]

    def __post_init__(self):
        if self.flavor not in ("point", "voxel"):
            raise InvalidInputError(f"unknown flavor {self.flavor!r}")
        for name, lo in (("neighborhood_k", 1), ("coarsen_ratio", 2)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, lo))
        if not self.levels:
            raise InvalidInputError("hierarchy has no levels")
        for h, lv in enumerate(self.levels):
            if lv.level_index != h:
                raise InvalidInputError(f"level {h} has level_index {lv.level_index}")
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
            _csr(coarse.pool_indptr, coarse.pool_indices, f"level {h + 1} pool_", fine.n_tokens,
                 coarse.n_tokens)

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

def coarsen_point(level: HierarchyLevel, r: int) -> tuple[HierarchyLevel, np.ndarray]:
    """One point-flavor coarsening step.

    Smooths q/k/v and positions by the neighborhood mean, keeps the
    ceil(n/r) farthest-point-sampled tokens, and assigns every fine token
    to its nearest selected token (ties to the lower selected index; a
    selected token is always its own parent). Returns the coarse level and
    the fine level's parent map.
    """
    n = level.n_tokens
    if n < 2:
        raise InvalidCoarsenError(f"cannot coarsen a level with {n} token(s)")
    r = _integer(r, "coarsen ratio", 2)
    topo = level.topology
    m = -(-n // r)  # ceil
    selected = _fps_in_order(level.positions, m, level.order)

    parent_of = deterministic_knn(level.positions[selected], level.positions, 1)[:, 0]
    # Keep every parent non-empty even when duplicate positions make several
    # selected tokens equidistant: a selected token parents itself.
    parent_of[selected] = np.arange(m, dtype=np.int64)

    # Only the selected tokens' smoothed rows survive, so only their
    # neighborhoods become pooling groups. Each sums in the level's order,
    # not in its query's distance order, so tokens with the same neighborhood
    # set round to bitwise identical rows, as the exact-tie rules need.
    flat, sizes = _csr_rows(topo.indptr, selected)
    pool_indptr = np.concatenate(([0], np.cumsum(sizes)))
    members = topo.indices[flat]
    rank = np.empty(n, dtype=np.int64)
    rank[level.order] = np.arange(n)
    pool_indices = members[np.lexsort((rank[members], np.repeat(np.arange(m), sizes)))]

    k = topo.k if topo.k is not None else n
    coarse = _pooled_level(level, pool_indptr, pool_indices,
                           lambda positions: knn_from_positions(positions, k), selected=selected)
    return coarse, parent_of


def coarsen_voxel(level: HierarchyLevel) -> tuple[HierarchyLevel, np.ndarray]:
    """One voxel pooling step at the smallest power-of-two stride s that
    reduces the cell count: parent cell = floor(child / s) per axis, parent
    rows/positions = unweighted means over children, parents sorted
    lexicographically. Returns the coarse level and the fine parent map.

    Strides run from 2 to 2^20; from there on every parent is one of the 8
    cells around the origin, so a level that no stride in that range
    reduces raises InvalidCoarsenError.
    """
    coords = level.coords
    if coords is None:
        raise InvalidInputError("voxel coarsening requires cell coordinates")
    for shift in range(1, 21):
        parent_coords = coords >> shift  # floor(coords / 2^shift)
        uniq_keys, first_idx, parent_of = np.unique(
            pack_voxel_coords(parent_coords), return_index=True, return_inverse=True
        )
        if uniq_keys.shape[0] < level.n_tokens:
            break
    else:
        raise InvalidCoarsenError(f"no stride up to 2^20 reduces {level.n_tokens} voxel cell(s)")
    parent_of = parent_of.astype(np.int64)
    m = uniq_keys.shape[0]

    # Children grouped by parent, each group in child-cell order: cell keys
    # are unique, so the order is total and independent of token numbering.
    pool_indptr = np.concatenate(([0], np.cumsum(np.bincount(parent_of, minlength=m))))
    pool_indices = np.lexsort((pack_voxel_coords(coords), parent_of))
    # The parents' keys are unique and sorted already: the window neither
    # re-checks nor re-sorts them.
    coarse = _pooled_level(level, pool_indptr, pool_indices, lambda _: _window_topology(uniq_keys),
                           coords=parent_coords[first_idx])
    return coarse, parent_of


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def _qk_width(q: np.ndarray) -> int:
    """The width of a checked q, which k must share: q and k are scored
    against each other, so it is at least 1."""
    if q.shape[1] < 1:
        raise InvalidInputError(f"q and k need one shared width >= 1, got q of shape {q.shape}")
    return q.shape[1]


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
    """Build the full hierarchy for one attention call.

    Level 0 holds the inputs unchanged; coarsening repeats until the top
    level has at most ``k`` tokens (N <= k gives a single level). Point
    flavor uses kNN topologies and ratio-r farthest-point subsampling;
    voxel flavor (pass occupied-cell ``coords``) uses 3x3x3 window
    topologies and pools each level at the smallest power-of-two stride
    that reduces its cell count (``coarsen_voxel``), so every recorded
    level strictly shrinks.
    """
    positions = _checked(positions, "positions", (None, 3))
    n = positions.shape[0]  # an empty set is refused by either flavor's topology

    # Each flavor fixes its neighborhood size, ratio, level-0 topology and
    # coarsening step; one loop then coarsens until a level fits k tokens.
    if flavor == "point":
        k, r = _integer(k, "k", 1), _integer(r, "coarsen ratio", 2)
        coords = None  # point levels carry no cells
        topology = knn_from_positions(positions, k)
        step = partial(coarsen_point, r=r)
    elif flavor == "voxel":
        if coords is None:
            raise InvalidInputError("voxel flavor requires occupied-cell coords")
        coords = _freeze(_voxel_coords(coords))
        if coords.shape != (n, 3):
            raise InvalidInputError(f"coords must be ({n}, 3), got {coords.shape}")
        k, r = VOXEL_WINDOW_K, 2
        topology = kernel_window_topology(coords)
        step = coarsen_voxel
    else:
        raise InvalidInputError(f"unknown flavor {flavor!r}")

    level = HierarchyLevel(level_index=0, positions=positions, q_tilde=q, k_tilde=k_mat,
                           v_tilde=v, topology=topology, coords=coords)
    levels = []
    while level.n_tokens > k:
        coarse, parent_of = step(level)
        levels.append(_shared(level, parent_of=_readonly(parent_of)))
        level = coarse
    levels.append(level)
    return Hierarchy(flavor=flavor, neighborhood_k=k, coarsen_ratio=r, levels=tuple(levels))


def with_values(
    hierarchy: Hierarchy,
    q: np.ndarray | None = None,
    k: np.ndarray | None = None,
    v: np.ndarray | None = None,
) -> Hierarchy:
    """Re-coarsen new level-0 values through the existing structure.

    Only the matrices passed are replaced; geometry, topologies, parent
    and pooling maps are shared with the input hierarchy.
    """
    n, d = hierarchy.levels[0].q_tilde.shape
    new_rows = {}
    # Each is stored as a read-only copy unless already read-only.
    if q is not None:  # a new q keeps the stored width, or sets the one a new k shares
        q = _checked(q, "q", (n, d if k is None else None))
        d = _qk_width(q)
        new_rows["q_tilde"] = _freeze(q)
    if k is not None:
        new_rows["k_tilde"] = _freeze(_checked(k, "k", (n, d)))
    if v is not None:
        new_rows["v_tilde"] = _freeze(_checked(v, "v", (n, None)))

    if not new_rows:
        return hierarchy
    levels = [_shared(hierarchy.levels[0], **new_rows)]
    for lv in hierarchy.levels[1:]:  # each coarser level pools the one below
        new_rows = {name: _readonly(segment_mean(mat, lv.pool_indptr, lv.pool_indices))
                    for name, mat in new_rows.items()}
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
    return values[hierarchy.levels[from_level - 1].parent_of]


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
