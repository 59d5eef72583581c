"""Tests for the sparse Cholesky factorisation and its RCM ordering."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NumericalError
from repro.numerics import SparseCholesky, elimination_tree


def random_sparse_spd(n: int, seed: int, density: float = 0.15) -> np.ndarray:
    rng = np.random.default_rng(seed)
    b = (rng.random((n, n)) < density) * rng.standard_normal((n, n))
    a = b @ b.T + n * np.eye(n)
    a[np.abs(a) < 1e-12] = 0.0
    return a


def test_elimination_tree_known_example():
    # Arrow matrix: every column couples to the last; etree is a path into n-1.
    n = 5
    a = np.eye(n)
    a[:, -1] = 1.0
    a[-1, :] = 1.0
    parent = elimination_tree(sp.csc_matrix(a))
    assert parent[-1] == -1
    assert all(parent[i] == n - 1 for i in range(n - 1))


def test_elimination_tree_tridiagonal():
    n = 6
    a = 2 * np.eye(n) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    parent = elimination_tree(sp.csc_matrix(a))
    assert parent.tolist() == [1, 2, 3, 4, 5, -1]


def test_rcm_is_permutation_and_reduces_bandwidth():
    rng = np.random.default_rng(5)
    n = 30
    # A path graph with shuffled labels has bandwidth ~n unordered, 1 ordered.
    labels = rng.permutation(n)
    a = np.eye(n) * 2.0
    for i in range(n - 1):
        a[labels[i], labels[i + 1]] = 1.0
        a[labels[i + 1], labels[i]] = 1.0
    chol = SparseCholesky(sp.csc_matrix(a))
    assert sorted(chol.perm.tolist()) == list(range(n))
    rows, cols = np.nonzero(a[np.ix_(chol.perm, chol.perm)])
    assert np.abs(rows - cols).max() <= 2
    assert chol.nnz <= 2 * n  # a path's factor has no fill


@pytest.mark.parametrize("seed", range(5))
def test_solve_matches_dense(seed):
    n = 25
    a = random_sparse_spd(n, seed)
    rng = np.random.default_rng(seed + 100)
    b = rng.standard_normal(n)
    x = SparseCholesky(sp.csc_matrix(a)).solve(b)
    assert np.allclose(a @ x, b, atol=1e-8 * n)
    assert np.allclose(x, np.linalg.solve(a, b), atol=1e-8)


def test_factor_matches_numpy_cholesky():
    a = random_sparse_spd(12, 42)
    chol = SparseCholesky(sp.csc_matrix(a))
    lower = np.diag(chol._diag)
    for j, (rows, vals) in enumerate(zip(chol._col_rows, chol._col_vals)):
        lower[rows, j] = vals
    expected = np.linalg.cholesky(a[np.ix_(chol.perm, chol.perm)])
    assert np.allclose(lower, expected, atol=1e-10)


def test_rejects_bad_inputs():
    with pytest.raises(NumericalError):
        SparseCholesky(sp.csc_matrix(np.ones((2, 3))))
    with pytest.raises(NumericalError):
        SparseCholesky(sp.csc_matrix(-np.eye(3)))


def test_solve_shape_check():
    a = random_sparse_spd(4, 1)
    chol = SparseCholesky(sp.csc_matrix(a))
    with pytest.raises(NumericalError):
        chol.solve(np.zeros(5))


def test_diagonal_matrix_fast_path():
    d = np.diag([4.0, 9.0, 16.0])
    chol = SparseCholesky(sp.csc_matrix(d))
    assert chol.nnz == 3
    assert np.allclose(chol.solve(np.array([4.0, 9.0, 16.0])), np.ones(3))


@given(st.integers(0, 500), st.integers(2, 20))
@settings(max_examples=20, deadline=None)
def test_solve_property(seed, n):
    a = random_sparse_spd(n, seed, density=0.3)
    rng = np.random.default_rng(seed + 1)
    b = rng.standard_normal(n)
    x = SparseCholesky(sp.csc_matrix(a)).solve(b)
    assert np.allclose(a @ x, b, atol=1e-7 * n)


def test_sparsity_preserved_on_banded():
    """RCM + sparse factorisation keeps a banded problem's fill small."""
    n = 200
    a = 4 * np.eye(n) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    chol = SparseCholesky(sp.csc_matrix(a))
    assert chol.nnz <= 2 * n  # tridiagonal factor: <= 2n entries
