"""Numerical kernels: compensated summation, reproducibility metrics,
and the sparse Cholesky factorisation behind Alg. 3."""

from .reproducibility import (
    BITWISE_RI,
    RIStats,
    matched_digits,
    matrix_matched_digits,
    reproducibility_indices,
)
from .sparse_cholesky import SparseCholesky, elimination_tree
from .summation import KahanVector, NaiveVector

__all__ = [
    "BITWISE_RI",
    "KahanVector",
    "NaiveVector",
    "RIStats",
    "SparseCholesky",
    "elimination_tree",
    "matched_digits",
    "matrix_matched_digits",
    "reproducibility_indices",
]
