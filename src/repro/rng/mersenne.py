"""Mersenne-Twister-backed walk streams (the paper's FRW-NC ablation).

Sec. III-C argues Mersenne Twister is a poor fit for fine-grained reseeding:
seeding its 624-word state per walk is expensive and its 2^19937 period is
wasted.  :class:`MTWalkStreams` names such a stream family and pays exactly
that cost: every walk seeds its own MT19937 state, and its draws are that
stream's uniforms in order, three per step.  The walk engine keeps each
walk's state in its slot arena and seeds and draws it in the compiled
launch and hop (``repro/native/kernels.c``), bit-identical to NumPy's
``RandomState``; :meth:`MTWalkStreams.draws_scalar` is the reference the
tests compare against.

Determinism: each walk UID seeds its own private MT stream, so results remain
DOP-independent (the paper notes "simply changing PRNGs does not affect
reproducibility"); only the efficiency differs.
"""

from __future__ import annotations

import numpy as np

from ..errors import RNGError
from .counter_stream import MAX_DRAWS_PER_STEP
from .philox import splitmix64

_MASK32 = 0xFFFFFFFF


class MTWalkStreams:
    """Per-walk Mersenne Twister streams with per-walk seeding.

    Walk ``uid`` seeds MT19937 with :meth:`walk_seed` (``init_genrand``);
    each uniform is one ``genrand_res53`` of that stream.  ``base`` is
    what the engine's kernels need to seed any walk.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        self.base = splitmix64(splitmix64(seed) ^ splitmix64(stream))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MTWalkStreams(seed={self.seed}, stream={self.stream})"

    def walk_seed(self, uid: int) -> int:
        """The 32-bit MT19937 seed of walk ``uid``."""
        return splitmix64(self.base ^ splitmix64(int(uid))) & _MASK32

    def draws_scalar(self, uid: int, step: int, count: int) -> list[float]:
        """Scalar reference path (for the tests): draw slots
        ``0..count-1`` of step ``step`` of walk ``uid`` when every step
        takes ``count`` uniforms — the walk's uniforms ``step * count``
        to ``step * count + count - 1``, from a freshly seeded stream."""
        if count < 1 or count > MAX_DRAWS_PER_STEP:
            raise RNGError(
                f"count must be in [1, {MAX_DRAWS_PER_STEP}], got {count}"
            )
        state = np.random.RandomState(self.walk_seed(uid))
        values = state.random_sample((step + 1) * count)[-count:]
        return [float(v) for v in values]
