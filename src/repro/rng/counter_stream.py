"""Per-walk counter streams built on Philox4x32-10.

This is the library's realisation of the paper's *fine-grained reseeding*
(Alg. 2, line 6): every walk owns a unique 64-bit walk UID, and the random
draw ``slot`` of ``step`` of walk ``uid`` under global seed ``s`` is a pure
function of ``(s, uid, step, slot)``.  Any thread — or vectorised batch — can
therefore evaluate any walk and obtain bit-identical numbers, which is the
whole basis of DOP-independent reproducibility.

Counter layout (Philox4x32 counter words)::

    c0 = block index within the walk  (= step * BLOCKS_PER_STEP + block)
    c1 = walk UID, low 32 bits
    c2 = walk UID, high 32 bits
    c3 = domain separation tag

Each Philox call yields 4 words = 2 doubles, so a step may consume up to
``2 * BLOCKS_PER_STEP`` doubles.  The walk engine uses at most
:data:`MAX_DRAWS_PER_STEP`.

The walk engine does not call these streams: its compiled launch and
hop compute each walk's draws in place from the stream's :attr:`~
WalkStreams.key`, through the same counter layout
(``repro/native/kernels.c``).  :meth:`WalkStreams.draws` fills one step
of a vector of walks with the same kernel code (the walk-on-spheres
reference and the tests use it).
"""

from __future__ import annotations

import numpy as np

from ..errors import RNGError
from ..native import philox_span
from .philox import derive_key, philox4x32_scalar, unit_double_scalar

#: Philox blocks reserved per walk step; 4 blocks = up to 8 doubles.
BLOCKS_PER_STEP = 4

#: Maximum uniform doubles a single walk step may request.
MAX_DRAWS_PER_STEP = 2 * BLOCKS_PER_STEP

#: Domain-separation tag placed in counter word c3 ("FRWR").
DOMAIN_TAG = 0x46525752

_MASK32 = 0xFFFFFFFF


class WalkStreams:
    """Stateless per-walk random streams keyed by a global seed.

    Parameters
    ----------
    seed:
        The user-level global seed ``s`` of Alg. 2.
    stream:
        Domain-separation stream tag; distinct tags (e.g. one per master
        conductor in multi-level parallelism) give independent stream
        families under the same seed.

    The draw *values* are a pure function of ``(seed, stream, uid, step,
    slot)``, so any number of instances agree bit-for-bit.  An instance
    holds only its key, and the draw kernel keeps no scratch, so one
    instance may serve concurrent calls from any number of threads.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        self._k0, self._k1 = derive_key(self.seed, self.stream)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WalkStreams(seed={self.seed}, stream={self.stream})"

    @property
    def key(self) -> tuple[int, int]:
        """The Philox key ``(k0, k1)`` derived from ``(seed, stream)``."""
        return self._k0, self._k1

    def draws(
        self, uids: np.ndarray, step: int | np.ndarray, count: int
    ) -> np.ndarray:
        """Return ``(len(uids), count)`` uniforms in [0, 1).

        Row ``i`` is draw slots ``0..count-1`` of step ``step`` (a scalar,
        or one step per walk) of walk ``uids[i]``, bit-identical to
        :meth:`draws_scalar`: it depends only on ``(seed, stream, uid,
        step, slot)``, not on the order or grouping of ``uids``.  One call
        of the compiled kernel (:func:`repro.native.philox_span`) fills
        the array.
        """
        if count < 1 or count > MAX_DRAWS_PER_STEP:
            raise RNGError(
                f"count must be in [1, {MAX_DRAWS_PER_STEP}], got {count}"
            )
        uids = np.asarray(uids, dtype=np.uint64)
        if uids.ndim != 1:
            raise RNGError(f"uids must be one-dimensional, got {uids.shape}")
        uids = np.ascontiguousarray(uids)
        n = uids.shape[0]
        step = np.asarray(step, dtype=np.uint64)
        if step.shape not in ((), (n,)):
            raise RNGError(
                f"step {step.shape} must be scalar or one per walk ({n},)"
            )
        return philox_span(uids, step, self.key, count)

    def draws_scalar(self, uid: int, step: int, count: int) -> list[float]:
        """Scalar reference path; bit-identical to :meth:`draws`."""
        if count < 1 or count > MAX_DRAWS_PER_STEP:
            raise RNGError(
                f"count must be in [1, {MAX_DRAWS_PER_STEP}], got {count}"
            )
        values: list[float] = []
        base_block = step * BLOCKS_PER_STEP
        for j in range((count + 1) // 2):
            w0, w1, w2, w3 = philox4x32_scalar(
                (
                    base_block + j,
                    uid & _MASK32,
                    (uid >> 32) & _MASK32,
                    DOMAIN_TAG,
                ),
                (self._k0, self._k1),
            )
            values.append(unit_double_scalar(w0, w1))
            values.append(unit_double_scalar(w2, w3))
        return values[:count]
