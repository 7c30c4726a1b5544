"""What several test modules share, as fixtures: the summation oracle of
the sum tests, and voxel cells whose windows take every width."""

import numpy as np
import pytest


def _loop_sums(indptr, indices, data, x) -> np.ndarray:
    """A x for the CSR map A = (data, indices, indptr), by the one rule every
    sum over a map in the package follows: row i adds data[e] *
    x[indices[e]] over its entries e from +0.0, one term at a time in entry
    order. The loop runs over entry positions, each step one IEEE multiply
    and one add for every row that still has an entry there."""
    indptr, indices = np.asarray(indptr, dtype=np.int64), np.asarray(indices, dtype=np.int64)
    x = np.asarray(x)
    cols = x.reshape(x.shape[0], -1)
    sizes = np.diff(indptr)
    out = np.zeros((sizes.shape[0], cols.shape[1]))
    for j in range(int(sizes.max(initial=0))):
        rows = np.flatnonzero(sizes > j)
        e = indptr[rows] + j
        with np.errstate(over="ignore"):  # a product overflows to inf silently too
            out[rows] = out[rows] + data[e, None] * cols[indices[e]]
    return out.reshape((sizes.shape[0], *x.shape[1:]))


def _loop_transposed_sums(indptr, indices, data, x, n_out: int) -> np.ndarray:
    """A^T x by the same rule: output o adds the terms of the entries that
    name it, in entry order."""
    indptr, indices = np.asarray(indptr, dtype=np.int64), np.asarray(indices, dtype=np.int64)
    row_of = np.repeat(np.arange(indptr.shape[0] - 1), np.diff(indptr))
    by_output = np.argsort(indices, kind="stable")
    t_indptr = np.concatenate(([0], np.cumsum(np.bincount(indices, minlength=n_out))))
    return _loop_sums(t_indptr, row_of[by_output], np.asarray(data)[by_output], x)


@pytest.fixture
def loop_sums():
    return _loop_sums


@pytest.fixture
def loop_transposed_sums():
    return _loop_transposed_sums


@pytest.fixture
def every_width_cells():
    """Voxel cells, shuffled, whose 3 x 3 x 3 windows take every width from
    1 to 27: group w is a centre cell and w - 1 cells around it, 6 cells
    from the next group, so the centre's window holds w cells."""
    block = np.stack(np.meshgrid(*[np.arange(3)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    around = block[~(block == 1).all(axis=1)]
    cells = np.vstack([np.vstack([[1, 1, 1], around[:w - 1]]) + [6 * w, 0, 0]
                       for w in range(1, 28)])
    return cells[np.random.default_rng(40).permutation(cells.shape[0])]
