"""Numerical kernels: compensated summation, reproducibility metrics,
and dense and sparse Cholesky factorisations."""

from .cholesky import (
    back_substitution,
    cholesky,
    forward_substitution,
    ldlt,
    solve_cholesky,
)
from .reproducibility import (
    BITWISE_RI,
    RIStats,
    matched_digits,
    matrix_matched_digits,
    reproducibility_indices,
)
from .sparse import CSCMatrix, csc_from_coo, csc_from_dense, csc_permute_symmetric
from .sparse_cholesky import SparseCholesky, elimination_tree, rcm_ordering
from .summation import KahanVector, NaiveVector

__all__ = [
    "BITWISE_RI",
    "CSCMatrix",
    "KahanVector",
    "NaiveVector",
    "RIStats",
    "SparseCholesky",
    "back_substitution",
    "cholesky",
    "csc_from_coo",
    "csc_from_dense",
    "csc_permute_symmetric",
    "elimination_tree",
    "forward_substitution",
    "ldlt",
    "matched_digits",
    "matrix_matched_digits",
    "rcm_ordering",
    "reproducibility_indices",
    "solve_cholesky",
]
