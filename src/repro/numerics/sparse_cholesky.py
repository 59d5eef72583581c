"""Sparse Cholesky factorisation (up-looking) with RCM ordering.

The regularization system ``A~ z = b`` (Eq. 16) is SPD with a sparsity
pattern given by the master-to-master coupling graph; for the large cases
(Table I case 6 has ``Nm`` ~ 48k masters) a dense factorisation is
impossible, and the paper's ``O(Nm^2)`` cost bound assumes sparse direct
solution [28].  This module implements:

* :func:`elimination_tree` — the etree of a symmetric sparse matrix,
* :class:`SparseCholesky` — an up-looking row-by-row Cholesky (CSparse-style
  reach + sparse triangular solve) with forward/backward solves, on a SciPy
  CSC matrix reordered by SciPy's reverse Cuthill-McKee.

Everything is validated against NumPy's dense Cholesky and solve in the
tests.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from ..errors import NumericalError

if TYPE_CHECKING:
    import scipy.sparse as sp


def elimination_tree(a: sp.csc_matrix) -> np.ndarray:
    """Elimination tree of a symmetric CSC matrix (parent array, -1 = root).

    Uses the classic Liu algorithm with path compression via virtual
    ancestors.
    """
    n = a.shape[1]
    indptr, indices = a.indptr.tolist(), a.indices.tolist()
    parent = [-1] * n
    ancestor = [-1] * n
    for k in range(n):
        for i in indices[indptr[k] : indptr[k + 1]]:
            while i != -1 and i < k:
                next_anc = ancestor[i]
                ancestor[i] = k
                if next_anc == -1:
                    parent[i] = k
                i = next_anc
    return np.array(parent, dtype=np.int64)


class SparseCholesky:
    """Up-looking sparse Cholesky factorisation of an SPD matrix.

    Parameters
    ----------
    a:
        SPD matrix with full symmetric storage, as a ``scipy.sparse`` CSC
        matrix (anything ``scipy.sparse.csc_matrix`` accepts works).  It is
        factorised in reverse Cuthill-McKee order to bound the fill.
    """

    def __init__(self, a: sp.csc_matrix):
        # Imported on first use: loading SciPy takes about 0.15 s and
        # 25 MB, which every ``import repro`` and service boot would pay.
        import scipy.sparse as sp
        from scipy.sparse.csgraph import reverse_cuthill_mckee

        a = sp.csc_matrix(a, dtype=np.float64)
        if a.shape[0] != a.shape[1]:
            raise NumericalError("SparseCholesky needs a square matrix")
        perm = reverse_cuthill_mckee(a, symmetric_mode=True).astype(np.int64)
        self.perm = perm
        self.n = a.shape[0]
        permuted = sp.csc_matrix(a[perm][:, perm])
        permuted.sum_duplicates()
        self._factorize(permuted)

    def _factorize(self, a: sp.csc_matrix) -> None:
        n = self.n
        parent = elimination_tree(a).tolist()
        # Plain lists: the loops below visit every entry in Python.
        indptr, indices = a.indptr.tolist(), a.indices.tolist()
        data = a.data.tolist()
        # Column lists of L: rows strictly below the diagonal, plus diagonal.
        col_rows: list[list[int]] = [[] for _ in range(n)]
        col_vals: list[list[float]] = [[] for _ in range(n)]
        diag = [0.0] * n
        x = [0.0] * n
        mark = [-1] * n
        for k in range(n):
            lo, hi = indptr[k], indptr[k + 1]
            # Scatter the upper-triangular part of column k (rows <= k)
            # and find the row-k pattern as the etree reach of those rows.
            pattern: list[int] = []
            akk = 0.0
            for i, v in zip(indices[lo:hi], data[lo:hi]):
                if i > k:
                    continue
                if i == k:
                    akk = v
                    continue
                x[i] = v
                # Walk up the etree marking the path to k.
                path = []
                node = i
                while node != -1 and node < k and mark[node] != k:
                    path.append(node)
                    mark[node] = k
                    node = parent[node]
                pattern.extend(path)
            pattern.sort()
            d = akk
            for i in pattern:
                lki = x[i] / diag[i]
                # Update pending entries of row k using column i of L.
                for r, lv in zip(col_rows[i], col_vals[i]):
                    if r < k and mark[r] == k:
                        x[r] -= lv * lki
                    elif r < k and mark[r] != k:
                        # Entry outside the reach cannot be touched: the
                        # etree reach is exactly the row pattern, so any
                        # update lands inside it.  Guard for safety.
                        raise NumericalError(
                            "internal error: update outside etree reach"
                        )
                    # r >= k entries belong to later rows; skip.
                x[i] = lki
                d -= lki * lki
            if d <= 0.0 or not math.isfinite(d):
                raise NumericalError(
                    f"matrix is not positive definite (pivot {d!r} at row {k})"
                )
            diag[k] = math.sqrt(d)
            for i in pattern:
                col_rows[i].append(k)
                col_vals[i].append(x[i])
                x[i] = 0.0
        self._diag = np.array(diag)
        self._col_rows = [np.array(r, dtype=np.int64) for r in col_rows]
        self._col_vals = [np.array(v, dtype=np.float64) for v in col_vals]

    @property
    def nnz(self) -> int:
        """Stored entries of L (including the diagonal)."""
        return self.n + sum(r.shape[0] for r in self._col_rows)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` using the stored factor."""
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (self.n,):
            raise NumericalError(f"rhs has shape {b.shape}, expected ({self.n},)")
        y = b[self.perm].copy()
        # Forward solve L y' = y (column-oriented).
        for j in range(self.n):
            y[j] /= self._diag[j]
            rows = self._col_rows[j]
            if rows.shape[0]:
                y[rows] -= self._col_vals[j] * y[j]
        # Backward solve L^T x = y'.
        for j in range(self.n - 1, -1, -1):
            rows = self._col_rows[j]
            if rows.shape[0]:
                y[j] -= float(np.dot(self._col_vals[j], y[rows]))
            y[j] /= self._diag[j]
        out = np.empty_like(y)
        out[self.perm] = y
        return out
