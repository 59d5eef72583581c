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

Every stream provider (:class:`WalkStreams`, the antithetic
:class:`~repro.rng.MirroredDraws` view, the MT ablation's
:class:`~repro.rng.MTWalkStreams`) speaks one protocol:
``draws_span(uids, steps, depth, count, out=)`` fills ``depth``
consecutive steps of every walk, and ``draws(uids, step, count, out=)``
is its depth-1 view.  The counter-based providers also take per-walk
``keys=``, so one pass can serve walks of several streams
(:class:`~repro.rng.LaneDraws`).
"""

from __future__ import annotations

import threading

import numpy as np

from ..errors import RNGError
from .philox import (
    derive_key,
    philox4x32_inplace,
    philox4x32_scalar,
    unit_double_into,
    unit_double_scalar,
)

#: Philox blocks reserved per walk step; 4 blocks = up to 8 doubles.
BLOCKS_PER_STEP = 4

#: Maximum uniform doubles a single walk step may request.
MAX_DRAWS_PER_STEP = 2 * BLOCKS_PER_STEP

#: Domain-separation tag placed in counter word c3 ("FRWR").
DOMAIN_TAG = 0x46525752

#: Maximum step depth of a fused :meth:`WalkStreams.draws_span` pass (the
#: engine's RNG prefetch ring); keeps a tile's lattice rows
#: (``depth * BLOCKS_PER_STEP`` at most) far below :data:`SPAN_TILE`.
MAX_PREFETCH_STEPS = 16

#: Column-tile budget of the span kernel, in lattice elements per plane.
#: Spans over wide walk vectors are evaluated in ``(rows, cols)`` tiles
#: with ``rows * cols <= SPAN_TILE`` so the twelve scratch planes stay
#: cache-resident — a single (2*depth, n) pass at n in the thousands
#: thrashes the cache and loses the fused pass's dispatch win (measured:
#: 0.8x at depth 8, n 8192 untiled vs >2x tiled).  The engine sizes its
#: prefetch depth against the same budget.
SPAN_TILE = 16384

#: Scratch planes of one span tile: four counter words, four in-place
#: Philox round temporaries, two integer and two float conversion temps
#: (the integer pair holds per-walk key rows during a keyed pass).
_SPAN_PLANES = 12

_MASK32 = 0xFFFFFFFF

_SCRATCH = threading.local()


def _span_scratch() -> np.ndarray:
    """The calling thread's span scratch: ``(12, SPAN_TILE)`` u64 planes.

    Fixed-size and per thread, so no stream instance carries state and the
    footprint never depends on the walk count or the span depth a caller
    has seen.
    """
    buf = getattr(_SCRATCH, "buf", None)
    if buf is None:
        buf = np.empty((_SPAN_PLANES, SPAN_TILE), dtype=np.uint64)
        _SCRATCH.buf = buf
    return buf


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
    holds only its key: the span kernel's scratch is per thread, so one
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
        self,
        uids: np.ndarray,
        step: int | np.ndarray,
        count: int,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Return ``(len(uids), count)`` uniforms in [0, 1).

        The depth-1 view of :meth:`draws_span`: the result depends only on
        ``(seed, stream, uid, step, slot)`` — not on the order or grouping
        of ``uids`` — and ``step`` may be a scalar or a per-walk array.
        ``out`` — shape ``(n, >= count)``, float64 — receives the draws.
        """
        span_out = None if out is None else out[None]
        return self.draws_span(uids, step, 1, count, out=span_out)[0]

    def draws_span(
        self,
        uids: np.ndarray,
        steps: int | np.ndarray,
        depth: int,
        count: int,
        out: np.ndarray | None = None,
        keys: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Fused draws for ``depth`` consecutive steps of every walk.

        Returns ``(depth, len(uids), count)`` uniforms where ``[k, i, :]``
        is draw slots ``0..count-1`` of step ``steps + k`` of walk
        ``uids[i]`` (bit-identical to :meth:`draws_scalar`) — the engine's
        RNG prefetch ring consumes one plane per step.  ``steps`` may be a
        scalar or a per-walk array (the pipelined engine mixes walks at
        different depths in one vector).  One Philox pass covers the
        ``(depth * n_blocks, cols)`` counter lattice of each column tile,
        so the fixed per-call dispatch cost is paid once per ``depth``
        steps; tiles hold at most :data:`SPAN_TILE` lattice elements, so
        the scratch working set stays cache-resident at any walk count.
        ``out`` — shape ``(depth, >= n, >= count)``, float64, any strides
        — makes the call allocation-free.  ``keys`` — a ``(k0, k1)`` pair
        of ``(n,)`` uint64 arrays — replaces this stream's key per walk, so
        one pass serves walks of several streams (:class:`~repro.rng.
        LaneDraws`); each walk's draws are then those of the stream whose
        :attr:`key` it carries.
        """
        if count < 1 or count > MAX_DRAWS_PER_STEP:
            raise RNGError(
                f"count must be in [1, {MAX_DRAWS_PER_STEP}], got {count}"
            )
        if depth < 1 or depth > MAX_PREFETCH_STEPS:
            raise RNGError(
                f"depth must be in [1, {MAX_PREFETCH_STEPS}], got {depth}"
            )
        uids = np.asarray(uids, dtype=np.uint64)
        n = uids.shape[0]
        n_blocks = (count + 1) // 2
        rows = depth * n_blocks
        if out is None:
            out = np.empty((depth, n, count), dtype=np.float64)
        elif (
            out.shape[0] < depth or out.shape[1] < n or out.shape[2] < count
        ):
            raise RNGError(
                f"out shape {out.shape} too small for ({depth}, {n}, {count})"
            )
        steps_arr = np.asarray(steps, dtype=np.uint64)
        tile = SPAN_TILE // rows
        buf = _span_scratch()
        f_planes = buf[10:].view(np.float64)
        mask = np.uint64(_MASK32)
        # Lattice row r = j * depth + k (block j, step offset k), so each
        # draw slot's conversion input is a contiguous row range and
        # c0 = (step + k) * BLOCKS_PER_STEP + j — the counter of block j
        # of step + k.
        r_idx = np.arange(rows, dtype=np.uint64)
        row_off = (r_idx % np.uint64(depth)) * np.uint64(BLOCKS_PER_STEP) + (
            r_idx // np.uint64(depth)
        )
        for a in range(0, n, tile):
            b = min(n, a + tile)
            m = b - a
            x0, x1, x2, x3, s0, s1, s2, s3 = (
                plane[: rows * m].reshape(rows, m) for plane in buf[:8]
            )
            # The 1-D counter temp is dead before the conversion temps
            # that share its plane are written.
            t = buf[8, :m]
            step_t = steps_arr if steps_arr.ndim == 0 else steps_arr[a:b]
            np.multiply(step_t, np.uint64(BLOCKS_PER_STEP), out=t)
            np.add(t[None, :], row_off[:, None], out=x0)
            np.bitwise_and(x0, mask, out=x0)
            np.bitwise_and(uids[a:b], mask, out=t)
            x1[...] = t
            np.right_shift(uids[a:b], np.uint64(32), out=t)
            x2[...] = t
            x3.fill(DOMAIN_TAG)
            if keys is None:
                k0, k1 = self._k0, self._k1
            else:
                # Per-walk key rows, advanced in place by the kernel: they
                # take the counter temp's plane and the next one, both
                # free until the conversion below.
                k0, k1 = buf[8, :m], buf[9, :m]
                k0[...] = keys[0][a:b]
                k1[...] = keys[1][a:b]
            w0, w1, w2, w3 = philox4x32_inplace(
                x0, x1, x2, x3, s0, s1, s2, s3, k0, k1
            )
            t0, t1 = (
                plane[: depth * m].reshape(depth, m) for plane in buf[8:10]
            )
            f0, f1 = (
                plane[: depth * m].reshape(depth, m) for plane in f_planes
            )
            for d in range(count):
                j = d // 2
                rs = slice(j * depth, (j + 1) * depth)
                hi, lo = (w0[rs], w1[rs]) if d % 2 == 0 else (w2[rs], w3[rs])
                unit_double_into(hi, lo, t0, t1, f0, f1, out[:depth, a:b, d])
        return out[:depth, :n, :count]

    def draws_scalar(self, uid: int, step: int, count: int) -> list[float]:
        """Scalar reference path; bit-identical to :meth:`draws_span`."""
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
