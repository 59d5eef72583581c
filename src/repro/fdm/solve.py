"""Linear solvers for the FDM system: own preconditioned CG plus SciPy.

The FDM operator is symmetric positive definite on the free nodes, so
Jacobi-preconditioned conjugate gradients converges reliably; a from-scratch
implementation keeps the substrate self-contained, and the SciPy direct
solver is available for small systems and cross-checks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import ConvergenceError

if TYPE_CHECKING:
    import scipy.sparse as sp


def conjugate_gradient(
    a: sp.spmatrix,
    b: np.ndarray,
    tol: float = 1e-9,
    max_iter: int | None = None,
    precondition: bool = True,
) -> np.ndarray:
    """Jacobi-preconditioned conjugate gradients for SPD sparse systems.

    Converges to ``||r|| <= tol * ||b||``; raises
    :class:`~repro.errors.ConvergenceError` if the iteration budget runs out.
    """
    a = a.tocsr()
    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]
    if max_iter is None:
        max_iter = max(1000, 20 * int(np.sqrt(n)) + n // 10)
    inv_diag = None
    if precondition:
        diag = a.diagonal()
        if np.any(diag <= 0):
            raise ConvergenceError("CG requires positive diagonal")
        inv_diag = 1.0 / diag

    x = np.zeros(n, dtype=np.float64)
    r = b.copy()
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return x
    z = inv_diag * r if inv_diag is not None else r.copy()
    p = z.copy()
    rz = float(r @ z)
    for _ in range(max_iter):
        ap = a @ p
        alpha = rz / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        if np.linalg.norm(r) <= tol * b_norm:
            return x
        z = inv_diag * r if inv_diag is not None else r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise ConvergenceError(
        f"CG did not reach tol={tol} within {max_iter} iterations "
        f"(residual {np.linalg.norm(r) / b_norm:.2e})"
    )


def solve_sparse(
    a: sp.spmatrix,
    b: np.ndarray,
    method: str = "auto",
    tol: float = 1e-9,
) -> np.ndarray:
    """Solve ``a x = b`` by direct factorisation or CG.

    ``method``: ``"direct"`` (SciPy splu), ``"cg"`` (own PCG), or ``"auto"``
    (direct below 40k unknowns, CG above).
    """
    n = b.shape[0]
    if method == "auto":
        method = "direct" if n <= 40_000 else "cg"
    if method == "direct":
        import scipy.sparse.linalg as spla  # on first use, like all of SciPy

        return spla.spsolve(a.tocsc(), b)
    if method == "cg":
        return conjugate_gradient(a, b, tol=tol)
    raise ValueError(f"unknown method {method!r}")
