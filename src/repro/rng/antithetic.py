"""Antithetic sampling as a view over the counter streams.

The antithetic scheme of "Faster Random Walk-based Capacitance Extraction
with Generalized Antithetic Sampling" (PAPERS.md) pairs every primary walk
with a partner walk whose first-hop direction draws are the reflection of
the primary's draws.  Because the reflection is a measure-preserving
bijection of ``[0, 1)``, the partner is *marginally* an exact FRW walk —
the pair mean is an unbiased capacitance sample — while its mirrored
first hop is negatively correlated with the primary's, so the variance of
the pair mean drops below half the per-walk variance and fewer walks
reach a given ``Err_cap``.

Reproducibility is preserved *by construction*: walk UIDs pair up as
``(2k, 2k+1)`` (``batch_size`` is validated to be even, and UIDs start
at 0, so pairs never straddle a batch).  A partner's draw at ``(step,
slot)`` is a pure function of ``(seed, stream, primary_uid, step,
slot)`` — the partner consumes the *same* Philox counter words as its
primary (:class:`MirroredDraws` queries the base stream at the primary
UID) and applies a fixed elementwise transform.  No per-walk state, no
ordering dependence: bit-identity across backends, worker counts, and
start methods holds exactly as it does for the plain counter streams.

Jitter/coordinate slots (slot >= 1) reflect ``u -> 1 - u`` over the
whole unit interval.  The *cell-selection* slot (slot 0) reflects
**within the third of [0, 1) the draw fell in** (:func:`antipodal_uniform`).
That choice is dictated by the transition table's CDF layout
(:mod:`repro.greens.cube_table`): cells are flattened face-major in the
order (axis0-lo, axis0-hi, axis1-lo, axis1-hi, axis2-lo, axis2-hi), the
centre-sampled kernel gives every face exactly 1/6 of the mass, and
within-face probabilities are centrally symmetric in row-major cell
order.  Reflecting the slot-0 draw within its third therefore reverses
the cell rank across one axis' face *pair* — which lands on the same
axis' other face, at the point-mirrored transverse cell: together with
the reflected jitter slots, the partner's first hop is the **exact
antipodal point** of the primary's hop on the transition cube.  The
centre-gradient kernel is odd under that point reflection, so the
partner's flux weight is (up to CDF rounding at cell edges) the exact
negative of the primary's — the strongest anticorrelation the first hop
admits.  A whole-interval reflection of slot 0 would instead map
axis0-lo cells onto axis2-hi cells: a different axis, nearly
uncorrelated weights, and a measured ~3x smaller walk reduction.

The reflection applies to hop step 1 only.  Step 0 (the launch) is
shared untransformed, so a pair launches from one common Gaussian-surface
point — the paper's pairing; later steps share the primary's words
untransformed (common random numbers), which keeps diverged partner paths
loosely coupled without re-randomising them.  Larger groups and deeper
mirroring were measured and lost to this pair (docs/PERFORMANCE.md
layer 7).

Floating-point note: ``1 - u`` is a deterministic elementwise double
operation, so transformed draws are bit-stable, but rounding makes the
transform measure-preserving only to one ulp — a ``2^-53``-level
perturbation ten orders below the Monte-Carlo error, and identical on
every host.
"""

from __future__ import annotations

import numpy as np


def mirror_uniform(u: np.ndarray, reflect: np.ndarray) -> np.ndarray:
    """Apply ``T(u) = 1 - u if reflect else u`` in place.

    ``reflect`` (1.0 or 0.0) broadcasts against ``u`` (callers pass
    per-walk columns against ``(n, count)`` draw blocks).  Returns ``u``.
    """
    # (1 - 2*reflect) * u + reflect: u where reflect==0, 1-u where 1.
    np.multiply(u, 1.0 - 2.0 * reflect, out=u)
    np.add(u, reflect, out=u)
    np.subtract(u, np.floor(u), out=u)
    # floor() maps an exact 1.0 (u=0 reflected) back to 0.0, keeping the
    # half-open [0, 1) contract of the base stream.
    return u


def antipodal_uniform(u: np.ndarray, reflect: np.ndarray) -> np.ndarray:
    """Apply the slot-0 transform: reflect *within each third*.

    ``u`` is decomposed as ``p/3 + w`` with ``p = floor(3u)`` the third
    (= transition-cube axis pair, see the module docstring) and ``w`` the
    offset inside it; the reflection acts on ``w`` over ``[0, 1/3)`` and
    ``p`` is kept, so the transformed draw selects the antipodal cell of
    the *same axis pair*.  Still a measure-preserving bijection of
    ``[0, 1)`` (piecewise isometries of the thirds), so partner hops keep
    the exact transition distribution.  In place; broadcasts like
    :func:`mirror_uniform`; identity rows (reflect 0) are bit-exact.
    """
    third = np.floor(u * 3.0)
    np.minimum(third, 2.0, out=third)  # u -> 1.0 ulp guard
    third /= 3.0
    w = np.subtract(u, third, out=u)
    np.multiply(w, 1.0 - 2.0 * reflect, out=w)
    np.add(w, reflect * (1.0 / 3.0), out=w)
    np.subtract(w, np.floor(w * 3.0) / 3.0, out=w)
    np.add(w, third, out=w)
    # Rounding at the upper cell edge can bump w onto the next third's
    # boundary; the identity path (reflect 0) never enters the
    # adjustments above (w*3 < 1 exactly after subtracting its own third),
    # so untransformed rows pass through bit-exact.
    return u


class MirroredDraws:
    """Antithetic view over a per-walk stream provider.

    Wraps a base provider (:class:`~repro.rng.WalkStreams`) so that odd
    UID ``2k + 1`` draws the base stream's words *for UID 2k* and
    reflects them on hop step 1.  Even UIDs (and all draws at other
    steps) pass through untransformed.

    The walk engine reads only the base stream's :attr:`key`: its compiled
    launch and hop compute the same draws in place
    (``repro/native/kernels.c``).  :meth:`draws` and :meth:`draws_scalar`
    stay as the references the tests compare the kernels against.

    The base provider must be counter-based — draws keyed by ``(uid,
    step, slot)``, not by consumption order — because partners re-read
    the primary's words.  Stateful providers (``MTWalkStreams``) would
    advance the primary's cursor and are rejected by config validation.
    """

    def __init__(self, base):
        self.base = base

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MirroredDraws({self.base!r})"

    @property
    def key(self) -> tuple[int, int]:
        """The base stream's Philox key."""
        return self.base.key

    def draws(
        self, uids: np.ndarray, step: int | np.ndarray, count: int
    ) -> np.ndarray:
        """Return ``(len(uids), count)`` uniforms in [0, 1).

        Pure per-walk function of ``(uid, step, slot)`` exactly like the
        base stream — batching, ordering, and co-scheduling of primaries
        and partners are invisible to the values.  Draws the base stream
        at the primary UIDs, then reflects the rows of partners at step 1
        (``step`` is a scalar or one step per walk).
        """
        uids = np.asarray(uids, dtype=np.uint64)
        k = np.mod(uids, np.uint64(2))
        u = self.base.draws(uids - k, step, count)
        transform = (k > 0) & (np.asarray(step, dtype=np.uint64) == 1)
        if not transform.any():
            return u
        # Branchless whole-block transform: untransformed rows get the
        # exact identity (reflect 0 — u*1+0 and u-floor(u) are bit-exact
        # for u in [0, 1)), so no fancy-index write-back copy.  Slot 0 is
        # the transition-cube cell selection and reflects within its
        # third (antipodal hop); the remaining slots reflect over the
        # whole interval.
        reflect = transform.astype(np.float64)[:, None]
        antipodal_uniform(u[:, :1], reflect)
        if count > 1:
            mirror_uniform(u[:, 1:], reflect)
        return u

    def draws_scalar(self, uid: int, step: int, count: int) -> list[float]:
        """Scalar reference path (for the tests); bit-identical to
        :meth:`draws`."""
        uid = int(uid)
        k = uid % 2
        values = self.base.draws_scalar(uid - k, step, count)
        if k == 0 or step != 1:
            return values
        arr = np.asarray(values, dtype=np.float64)
        r = np.float64(1.0)
        antipodal_uniform(arr[:1], r)
        if arr.shape[0] > 1:
            mirror_uniform(arr[1:], r)
        return [float(v) for v in arr]
