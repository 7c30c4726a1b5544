"""Multi-level coarsening hierarchies.

A hierarchy carries, per level, the coarsened q/k/v rows, token positions,
the local neighborhood topology, the parent map that links each token to
the next-coarser level, and the pooling map that averaged the finer level
into this one. Structure (topologies, parent and pooling maps, positions)
depends only on geometry and is built once; values can be swapped out and
re-coarsened through the same structure with ``with_values``, which is one
``segment_mean`` over each level's pooling map.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidCoarsenError, InvalidInputError
from .geometry import (
    NeighborhoodTopology,
    _canonical_order,
    _fps_in_order,
    _freeze,
    _integer,
    _readonly,
    _voxel_coords,
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

    ``order`` is the level's canonical token order (``_canonical_order``
    of ``positions``), computed here when not given. It is an init field
    only so that ``dataclasses.replace`` passes it on without sorting
    again; a given value must be a permutation of the level's tokens.
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
    order: np.ndarray | None = None  # (n_h,) int64, a permutation

    def __post_init__(self):
        for name in ("positions", "q_tilde", "k_tilde", "v_tilde"):
            object.__setattr__(self, name, _freeze(getattr(self, name), np.float64))
        if self.order is None:
            object.__setattr__(self, "order", _readonly(_canonical_order(self.positions)))
        elif np.asarray(self.order).dtype.kind not in "iu":  # the cast would truncate
            raise InvalidInputError("order must be a permutation given as integers")
        for name in ("parent_of", "selected", "coords", "pool_indptr", "pool_indices", "order"):
            val = getattr(self, name)
            if val is not None:
                object.__setattr__(self, name, _freeze(val, np.int64))
        n = self.positions.shape[0]
        for name in ("q_tilde", "k_tilde", "v_tilde"):
            if getattr(self, name).shape[0] != n:
                raise InvalidInputError(f"{name} must have {n} rows")
        if self.topology.n_tokens != n:
            raise InvalidInputError("topology token count does not match level size")
        if (self.pool_indptr is None) != (self.pool_indices is None):
            raise InvalidInputError("pool_indptr and pool_indices must be given together")
        if self.pool_indptr is not None and self.pool_indptr.shape != (n + 1,):
            raise InvalidInputError(f"pool_indptr must have {n + 1} entries")
        seen = np.zeros(n, dtype=bool)
        if self.order.shape == (n,) and np.all((self.order >= 0) & (self.order < n)):
            seen[self.order] = True
        if self.order.shape != (n,) or not seen.all():
            raise InvalidInputError(f"order must be a permutation of {n} tokens")

    @property
    def n_tokens(self) -> int:
        return self.positions.shape[0]


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
        if not self.levels:
            raise InvalidInputError("hierarchy has no levels")
        for h in range(len(self.levels) - 1):
            if self.levels[h + 1].n_tokens >= self.levels[h].n_tokens:
                raise InvalidInputError("levels must be strictly coarsening")
            if self.levels[h].parent_of is None:
                raise InvalidInputError(f"level {h} is missing its parent map")
            if self.levels[h + 1].pool_indptr is None:
                raise InvalidInputError(f"level {h + 1} is missing its pooling map")

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
    if not 0 <= level < hierarchy.depth:
        raise InvalidInputError(f"level {level} has no parent level")
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
    if r < 2:
        raise InvalidInputError(f"coarsen ratio must be >= 2, got {r}")
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
    sizes = topo.sizes[selected]
    pool_indptr = np.concatenate(([0], np.cumsum(sizes)))
    flat = np.repeat(topo.indptr[selected] - pool_indptr[:-1], sizes) + np.arange(pool_indptr[-1])
    members = topo.indices[flat]
    rank = np.empty(n, dtype=np.int64)
    rank[level.order] = np.arange(n)
    pool_indices = members[np.lexsort((rank[members], np.repeat(np.arange(m), sizes)))]

    k = topo.k if topo.k is not None else n
    coarse = _pooled_level(level, pool_indptr, pool_indices,
                           lambda positions: knn_from_positions(positions, k), selected=selected)
    return coarse, parent_of


def _coarsen_voxel_by(level: HierarchyLevel, halvings: int) -> tuple[HierarchyLevel, np.ndarray]:
    coords = level.coords
    if coords is None:
        raise InvalidInputError("voxel coarsening requires cell coordinates")
    parent_coords_all = np.floor_divide(coords, 2**halvings)
    keys = pack_voxel_coords(parent_coords_all)
    uniq_keys, first_idx, parent_of = np.unique(keys, return_index=True, return_inverse=True)
    parent_of = parent_of.astype(np.int64)
    m = uniq_keys.shape[0]

    # Children grouped by parent, each group in child-cell order: cell keys
    # are unique, so the order is total and independent of token numbering.
    pool_indptr = np.concatenate(([0], np.cumsum(np.bincount(parent_of, minlength=m))))
    pool_indices = np.lexsort((pack_voxel_coords(coords), parent_of))
    coarse_coords = parent_coords_all[first_idx]
    coarse = _pooled_level(level, pool_indptr, pool_indices,
                           lambda _: kernel_window_topology(coarse_coords), coords=coarse_coords)
    return coarse, parent_of


def coarsen_voxel(level: HierarchyLevel) -> tuple[HierarchyLevel, np.ndarray]:
    """One stride-2 pooling step: parent cell = floor(child / 2) per axis,
    parent rows/positions = unweighted means over children, parents sorted
    lexicographically. Returns the coarse level and the fine parent map.
    May leave the count unchanged when no cells share a parent.
    """
    return _coarsen_voxel_by(level, 1)


def _coarsen_voxel_reducing(level: HierarchyLevel) -> tuple[HierarchyLevel, np.ndarray]:
    """Smallest power-of-two pooling that strictly reduces the cell count.

    Equivalent to repeated ``coarsen_voxel``: a non-reducing step maps each
    cell to its own parent (rows copied unchanged, lex order preserved), so
    composing those steps with the first reducing one equals pooling once
    at the combined stride.
    """
    n = level.n_tokens
    halvings = 1
    while True:
        parents = np.floor_divide(level.coords, 2**halvings)
        if np.unique(pack_voxel_coords(parents)).shape[0] < n:
            break
        halvings += 1
    return _coarsen_voxel_by(level, halvings)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def _check_qk_width(q: np.ndarray, k: np.ndarray) -> None:
    """q and k are scored against each other: one shared width of at least 1."""
    if q.ndim != 2 or k.ndim != 2 or q.shape[1] != k.shape[1] or q.shape[1] < 1:
        raise InvalidInputError(
            f"q and k need one shared width >= 1, got shapes {q.shape} and {k.shape}"
        )


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
    topologies and stride-2 pooling, folding consecutive non-reducing
    halvings into one level so every recorded level strictly shrinks.
    """
    # Read-only copies of writeable inputs: the caller's own arrays stay
    # writeable without reaching into the built structure.
    positions = _freeze(positions, np.float64)
    q = _freeze(q, np.float64)
    k_mat = _freeze(k_mat, np.float64)
    v = _freeze(v, np.float64)
    n = positions.shape[0]
    if n < 1:
        raise InvalidInputError("need at least one token")
    _check_qk_width(q, k_mat)
    if q.shape[0] != n or k_mat.shape[0] != n or v.shape[0] != n:
        raise InvalidInputError("q/k/v row counts must match positions")
    for name, mat in (("positions", positions), ("q", q), ("k", k_mat), ("v", v)):
        if not np.all(np.isfinite(mat)):
            raise InvalidInputError(f"{name} contains non-finite values")

    if flavor == "point":
        k, r = _integer(k, "k"), _integer(r, "r")
        if k < 1:
            raise InvalidInputError(f"k must be >= 1, got {k}")
        stop_k = k
        topo = knn_from_positions(positions, k)
        level = HierarchyLevel(
            level_index=0, positions=positions, q_tilde=q, k_tilde=k_mat, v_tilde=v, topology=topo
        )
    elif flavor == "voxel":
        if coords is None:
            raise InvalidInputError("voxel flavor requires occupied-cell coords")
        coords = _freeze(_voxel_coords(coords))
        if coords.shape != (n, 3):
            raise InvalidInputError(f"coords must be ({n}, 3), got {coords.shape}")
        stop_k = VOXEL_WINDOW_K
        k = VOXEL_WINDOW_K
        r = 2
        level = HierarchyLevel(
            level_index=0,
            positions=positions,
            q_tilde=q,
            k_tilde=k_mat,
            v_tilde=v,
            topology=kernel_window_topology(coords),
            coords=coords,
        )
    else:
        raise InvalidInputError(f"unknown flavor {flavor!r}")

    levels = []
    while level.n_tokens > stop_k:
        if flavor == "point":
            coarse, parent_of = coarsen_point(level, r)
        else:
            coarse, parent_of = _coarsen_voxel_reducing(level)
        levels.append(replace(level, parent_of=_readonly(parent_of)))
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
    n = hierarchy.n_tokens
    new_rows = {}
    for name, mat in (("q_tilde", q), ("k_tilde", k), ("v_tilde", v)):
        if mat is not None:
            mat = _freeze(mat, np.float64)  # a read-only copy unless already read-only
            if mat.ndim != 2 or mat.shape[0] != n:
                raise InvalidInputError(f"replacement {name} must have {n} rows")
            if not np.all(np.isfinite(mat)):
                raise InvalidInputError(f"replacement {name} contains non-finite values")
            new_rows[name] = mat
    if "q_tilde" in new_rows or "k_tilde" in new_rows:
        base = hierarchy.levels[0]
        _check_qk_width(new_rows.get("q_tilde", base.q_tilde), new_rows.get("k_tilde", base.k_tilde))

    levels = []
    current = dict(new_rows)
    for h, lv in enumerate(hierarchy.levels):
        levels.append(replace(lv, **current) if current else lv)
        if h == hierarchy.depth or not current:
            # Coarser values are unchanged when nothing is replaced.
            levels.extend(hierarchy.levels[h + 1 :])
            break
        nxt = hierarchy.levels[h + 1]
        current = {
            name: _readonly(segment_mean(mat, nxt.pool_indptr, nxt.pool_indices))
            for name, mat in current.items()
        }
    return replace(hierarchy, levels=tuple(levels))


def truncate(hierarchy: Hierarchy, depth: int) -> Hierarchy:
    """Drop every level above ``depth``; depth 0 keeps only local attention."""
    depth = _integer(depth, "depth")
    if not 0 <= depth <= hierarchy.depth:
        raise InvalidInputError(f"depth must be in [0, {hierarchy.depth}], got {depth}")
    kept = list(hierarchy.levels[: depth + 1])
    kept[-1] = replace(kept[-1], parent_of=None)
    return replace(hierarchy, levels=tuple(kept))


def interpolate(values: np.ndarray, from_level: int, hierarchy: Hierarchy) -> np.ndarray:
    """Copy each fine token its parent's row from level ``from_level``."""
    if not 1 <= from_level <= hierarchy.depth:
        raise InvalidInputError(f"from_level must be in [1, {hierarchy.depth}], got {from_level}")
    values = np.asarray(values)
    coarse = hierarchy.levels[from_level]
    fine = hierarchy.levels[from_level - 1]
    if values.shape[0] != coarse.n_tokens:
        raise InvalidInputError(
            f"values has {values.shape[0]} rows, level {from_level} has {coarse.n_tokens}"
        )
    return values[fine.parent_of]


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
