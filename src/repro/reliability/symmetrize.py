"""Sec. IV-C variants: symmetrization-only and the naive straw man.

For applications (e.g. touchscreen design) where specific couplings matter
and the row-sum property is not required, the paper notes that dropping
Property 3 from Eq. (12) makes the MLE exactly the inverse-variance-weighted
symmetrization of Eq. (13) — a purely local fix.  The naive
diagonal-replacement adjustment is also provided because Sec. IV discusses
(and warns against) it: off-diagonal errors accumulate into the diagonal.
"""

from __future__ import annotations

import numpy as np

from ..analysis.capmatrix import CapacitanceMatrix
from ..errors import RegularizationError
from .regularize import VARIANCE_FLOOR


def symmetrize(cap: CapacitanceMatrix) -> CapacitanceMatrix:
    """Inverse-variance-weighted symmetrization (Property 2 only).

    Each master-master pair is replaced by the Eq. (13) fused value — the
    exact constrained MLE without the row-sum constraint.  Diagonals and
    non-master couplings are untouched; never-hit pairs become zero.
    """
    if cap.sigma2 is None or cap.hits is None:
        raise RegularizationError("symmetrization needs variances and hit counts")
    nm = cap.n_masters
    masters = list(cap.masters)
    if len(set(masters)) != nm:
        raise RegularizationError("masters must be distinct conductor indices")
    out = cap.values.copy()
    for r in range(nm):
        for s in range(r + 1, nm):
            j = masters[s]
            i = masters[r]
            if cap.hits[r, j] == 0 or cap.hits[s, i] == 0:
                out[r, j] = 0.0
                out[s, i] = 0.0
                continue
            s_ij = max(float(cap.sigma2[r, j]), VARIANCE_FLOOR)
            s_ji = max(float(cap.sigma2[s, i]), VARIANCE_FLOOR)
            fused = (s_ji * cap.values[r, j] + s_ij * cap.values[s, i]) / (
                s_ij + s_ji
            )
            out[r, j] = fused
            out[s, i] = fused
    result = cap.copy()
    result.values = out
    result.meta = dict(cap.meta)
    result.meta["symmetrized"] = True
    return result


def naive_adjustment(cap: CapacitanceMatrix) -> CapacitanceMatrix:
    """The naive fix Sec. IV warns about: average symmetric pairs, then
    *replace* each diagonal with minus the sum of its off-diagonals.

    Satisfies Properties 2-3 but lets off-diagonal errors accumulate into
    the self-capacitances (the effect the Table III ablation quantifies
    against Alg. 3).
    """
    nm, n = cap.values.shape
    masters = list(cap.masters)
    if len(set(masters)) != nm:
        raise RegularizationError("masters must be distinct conductor indices")
    out = cap.values.copy()
    for r in range(nm):
        for s in range(r + 1, nm):
            mean = 0.5 * (out[r, masters[s]] + out[s, masters[r]])
            out[r, masters[s]] = mean
            out[s, masters[r]] = mean
    for r in range(nm):
        i = masters[r]
        off = out[r].sum() - out[r, i]
        out[r, i] = -off
    result = cap.copy()
    result.values = out
    result.meta = dict(cap.meta)
    result.meta["naive_adjustment"] = True
    return result
