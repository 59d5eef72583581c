"""Alg. 3 — reliable regularization via constrained multi-parameter MLE.

Given the raw FRW observation ``C-hat`` with per-entry variances
``sigma^2`` (Eq. 9), the constrained maximum-likelihood estimate under
symmetry and zero row-sum is the solution of the weighted least squares
problem (Eq. 12).  Following Sec. IV-B we work on the list of present
(hit) entries only, in one vectorised pass:

1. drop never-hit entries (and their symmetric positions) — they are known
   zeros;
2. fuse each symmetric observation pair into a single variable on the lower
   master's row with the inverse-variance-weighted mean and variance
   (Eq. 13); a one-sided pair is dropped like a never-hit one;
3. change variables to whitened deviations ``y`` so the problem becomes the
   least-norm problem ``min ||y|| s.t. A y = b`` (Eq. 14), whose closed form
   is ``y* = A^T (A A^T)^{-1} b`` (Eq. 15);
4. build ``A~ = A A^T`` and ``b`` directly from Eq. (16) *without forming
   A* — each variable touches one or two constraint rows, so the diagonal
   and ``b`` are bin counts and each fused pair adds one off-diagonal
   entry — solve the ``Nm x Nm`` SPD system by sparse Cholesky, and
   recover ``C*``;
5. fold the (rare) positive couplings into their row's diagonal (Alg. 3
   line 6), which preserves both row sums and symmetry.

Total cost is ``O(Nc + nnz(L))``, within the paper's ``O(Nm^2 + Nc)``.  The
estimator is linear in the observations with weights independent of their
values, so it remains unbiased; the Sec. IV-C diagonal weighting is
available through ``diagonal_weight``.
"""

from __future__ import annotations

import numpy as np

from ..analysis.capmatrix import CapacitanceMatrix
from ..errors import RegularizationError
from ..numerics.sparse_cholesky import SparseCholesky

#: Lower bound applied to variances (guards degenerate single-sample
#: estimates whose sample variance is zero).
VARIANCE_FLOOR = 1e-300


def regularize(
    cap: CapacitanceMatrix, diagonal_weight: float = 1.0
) -> CapacitanceMatrix:
    """Apply the Alg. 3 constrained-MLE regularization to an FRW result.

    Parameters
    ----------
    cap:
        Raw extraction with ``sigma2`` and ``hits`` populated; any distinct
        master subset is supported.  Every hit entry must have a finite
        value and variance.
    diagonal_weight:
        Sec. IV-C robustness knob: scales the least-squares weight of the
        self-capacitances (> 1 pins them closer to their raw values; the
        result is then no longer the exact MLE but keeps all properties).

    Returns
    -------
    A new :class:`CapacitanceMatrix` satisfying Properties 1-3 exactly
    (symmetry and row sums to machine precision, signs by construction).
    """
    if cap.sigma2 is None or cap.hits is None:
        raise RegularizationError(
            "regularization needs per-entry variances and hit counts"
        )
    nm, n = cap.values.shape
    masters = np.asarray(cap.masters, dtype=np.int64)
    if np.unique(masters).size != nm or np.any((masters < 0) | (masters >= n)):
        raise RegularizationError("masters must be distinct conductor indices")
    if diagonal_weight <= 0:
        raise RegularizationError(
            f"diagonal_weight must be positive, got {diagonal_weight}"
        )
    values = np.asarray(cap.values, dtype=np.float64)
    sigma2 = np.asarray(cap.sigma2, dtype=np.float64)
    hits = np.asarray(cap.hits, dtype=np.int64)
    if np.any(hits[np.arange(nm), masters] == 0):
        raise RegularizationError(
            "a master conductor has no self-capacitance samples; extract "
            "longer before regularizing"
        )

    # ------------------------------------------------------------------
    # Step 1-2: present observations and fused pair variables (Eq. 13),
    # fused in place on the lower observation of each pair.
    # ------------------------------------------------------------------
    rows, cols = np.nonzero(hits > 0)
    c_bar = values[rows, cols]
    v_bar = sigma2[rows, cols]
    bad = ~(np.isfinite(c_bar) & np.isfinite(v_bar))
    if bad.any():
        k = int(np.argmax(bad))
        raise RegularizationError(
            f"non-finite raw entry at (master {masters[rows[k]]}, column "
            f"{cols[k]}): value {float(c_bar[k])}, variance {float(v_bar[k])}"
        )
    v_bar = np.maximum(v_bar, VARIANCE_FLOOR)
    #: constraint row of each column's master conductor, -1 for non-masters.
    row_of = np.full(n, -1, dtype=np.int64)
    row_of[masters] = np.arange(nm)
    other = row_of[cols]
    self_term = other == rows
    v_bar[self_term] /= diagonal_weight
    # A master-master observation becomes a variable on the lower row,
    # and only when its mirror (other, masters[rows]) was hit as well.
    pair = (other >= 0) & ~self_term
    lower = pair & (rows < other)
    keep = ~pair
    keep[lower] = hits[other[lower], masters[rows[lower]]] > 0
    fused = keep & pair
    mirror = (other[fused], masters[rows[fused]])
    s_ij = v_bar[fused]
    s_ji = np.maximum(sigma2[mirror], VARIANCE_FLOOR)
    denom = s_ij + s_ji
    c_bar[fused] = (s_ji * c_bar[fused] + s_ij * values[mirror]) / denom
    v_bar[fused] = s_ij * s_ji / denom
    rows, cols, other = rows[keep], cols[keep], other[keep]
    c_bar, v_bar, pair = c_bar[keep], v_bar[keep], pair[keep]

    # ------------------------------------------------------------------
    # Step 3: build A~ and b (Eq. 16) without forming A.  Variable k sits
    # in constraint rows[k] and, for a fused pair, also in other[k].
    # ------------------------------------------------------------------
    r1, r2 = rows[pair], other[pair]
    v2 = v_bar[pair]
    a_diag = np.bincount(rows, v_bar, nm) + np.bincount(r2, v2, nm)
    b = -(np.bincount(rows, c_bar, nm) + np.bincount(r2, c_bar[pair], nm))
    diag = np.arange(nm)
    # Imported on first use, so ``import repro`` loads no SciPy: only
    # Alg. 3 and the FDM reference need it.
    import scipy.sparse as sp

    a_tilde = sp.csc_matrix(
        (
            np.concatenate([a_diag, v2, v2]),
            (np.concatenate([diag, r1, r2]), np.concatenate([diag, r2, r1])),
        ),
        shape=(nm, nm),
    )

    # ------------------------------------------------------------------
    # Step 4: solve A~ z = b by Cholesky (Eq. 15 / Alg. 3 line 4).
    # ------------------------------------------------------------------
    z = SparseCholesky(a_tilde).solve(b)

    # ------------------------------------------------------------------
    # Step 5: recover C* = C-bar + sigma-bar^2 * (z_i [+ z_j]) (line 5).
    # ------------------------------------------------------------------
    zsum = z[rows]
    zsum[pair] += z[r2]
    recovered = c_bar + v_bar * zsum
    out = np.zeros((nm, n), dtype=np.float64)
    out[rows, cols] = recovered
    out[r2, masters[r1]] = recovered[pair]

    # ------------------------------------------------------------------
    # Step 6: delete rare positive couplings, compensating the diagonal.
    # A positive fused pair shows on both its rows; it counts once.
    # ------------------------------------------------------------------
    pos_r, pos_c = np.nonzero(out > 0.0)
    off = pos_c != masters[pos_r]
    pos_r, pos_c = pos_r[off], pos_c[off]
    np.add.at(out, (pos_r, masters[pos_r]), out[pos_r, pos_c])
    out[pos_r, pos_c] = 0.0
    moved = int(np.count_nonzero((row_of[pos_c] < 0) | (row_of[pos_c] > pos_r)))

    result = cap.copy()
    result.values = out
    result.meta = dict(cap.meta)
    result.meta.update(
        {
            "regularized": True,
            "diagonal_weight": diagonal_weight,
            "positive_couplings_folded": moved,
            "n_variables": int(rows.shape[0]),
        }
    )
    return result
