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
from .summation import (
    KahanScalar,
    KahanVector,
    NaiveVector,
    exact_sum,
    kahan_sum,
    naive_sum,
    pairwise_sum,
)

__all__ = [
    "BITWISE_RI",
    "CSCMatrix",
    "KahanScalar",
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
    "exact_sum",
    "forward_substitution",
    "kahan_sum",
    "ldlt",
    "matched_digits",
    "matrix_matched_digits",
    "naive_sum",
    "pairwise_sum",
    "rcm_ordering",
    "reproducibility_indices",
    "solve_cholesky",
]
