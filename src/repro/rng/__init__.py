"""Random number generation layer.

Provides the counter-based Philox4x32-10 generator (implemented from
scratch and validated against the Random123 known-answer vectors), per-walk
stateless streams for fine-grained reseeding (Alg. 2; the Alg. 1 baseline
runs on them too, with per-thread UIDs), their antithetic view, and the
per-walk-seeded Mersenne-Twister streams of the FRW-NC ablation.  The walk
engine takes from these only what names a stream — a Philox key, or an MT
stream's base — and computes every draw inside its compiled launch and hop
(``repro/native/kernels.c``); the draw methods here are the references the
kernels are tested against, and ``WalkStreams.draws`` also serves the
walk-on-spheres reference solver.
"""

from __future__ import annotations

import numpy as np

from .antithetic import MirroredDraws, antipodal_uniform, mirror_uniform
from .counter_stream import (
    BLOCKS_PER_STEP,
    DOMAIN_TAG,
    MAX_DRAWS_PER_STEP,
    WalkStreams,
)
from .mersenne import MTWalkStreams
from .philox import (
    PHILOX_ROUNDS,
    derive_key,
    philox4x32_scalar,
    splitmix64,
    unit_double_scalar,
)

def seeded_generator(seed: int) -> np.random.Generator:
    """Return a private, explicitly seeded :class:`numpy.random.Generator`.

    This is the one sanctioned way to obtain an ad-hoc NumPy generator in
    library code: the seed must be supplied by the caller (so the stream is
    a pure function of the configuration) and the generator is private (so
    no global state is touched).  det-lint rule DET001 forbids reaching for
    ``np.random`` directly outside ``repro.rng``.
    """
    if seed < 0:
        raise ValueError(f"seeded_generator: seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


__all__ = [
    "BLOCKS_PER_STEP",
    "DOMAIN_TAG",
    "MAX_DRAWS_PER_STEP",
    "MTWalkStreams",
    "MirroredDraws",
    "antipodal_uniform",
    "mirror_uniform",
    "PHILOX_ROUNDS",
    "WalkStreams",
    "derive_key",
    "philox4x32_scalar",
    "seeded_generator",
    "splitmix64",
    "unit_double_scalar",
]
