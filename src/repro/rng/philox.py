"""Philox4x32-10 counter-based random number generator, from scratch.

The paper (Sec. III-C) replaces Mersenne Twister with a counter-based RNG
(CBRNG, Salmon et al., SC'11) because per-walk reseeding must be free: in the
reproducible scheme every walk ``(s, u, v)`` owns an independent random
stream, and a stateful generator would pay a full state initialisation per
walk.  A CBRNG is a keyed bijection ``(key, counter) -> 4 random words``; a
"stream" is just a counter prefix, so seeding costs nothing.

This module implements Philox4x32-10 exactly per the reference definition
(verified against the Random123 known-answer vectors in the test suite)
in scalar form: readable, and the reference the walk engine's compiled
span kernel (``repro/native/kernels.c``) is tested against.  All
arithmetic is modulo 2^32 on unsigned integers, so results are
bit-identical across machines — this is the "fixed implementation of
PRNGs" the paper relies on for machine-independent reproducibility.
"""

from __future__ import annotations

from ..errors import RNGError

#: Number of Philox rounds.  10 is the recommended/crush-resistant variant.
PHILOX_ROUNDS = 10

#: Multipliers for the two 32x32 -> 64 bit multiplies per round.
PHILOX_M0 = 0xD2511F53
PHILOX_M1 = 0xCD9E8D57

#: Weyl constants added to the key each round ("golden ratio" and sqrt(3)-1).
PHILOX_W0 = 0x9E3779B9
PHILOX_W1 = 0xBB67AE85

_MASK32 = 0xFFFFFFFF


def _mulhilo32(a: int, b: int) -> tuple[int, int]:
    """Return the high and low 32-bit halves of the 64-bit product a*b."""
    product = (a & _MASK32) * (b & _MASK32)
    return (product >> 32) & _MASK32, product & _MASK32


def philox4x32_scalar(
    counter: tuple[int, int, int, int],
    key: tuple[int, int],
    rounds: int = PHILOX_ROUNDS,
) -> tuple[int, int, int, int]:
    """Scalar Philox4x32 keyed bijection.

    Parameters
    ----------
    counter:
        Four 32-bit words (the "plaintext" / position in the stream).
    key:
        Two 32-bit words.
    rounds:
        Number of rounds; 10 for the standard generator.

    Returns
    -------
    Four 32-bit pseudo-random words.
    """
    c0, c1, c2, c3 = (c & _MASK32 for c in counter)
    k0, k1 = (k & _MASK32 for k in key)
    for _ in range(rounds):
        hi0, lo0 = _mulhilo32(PHILOX_M0, c0)
        hi1, lo1 = _mulhilo32(PHILOX_M1, c2)
        c0, c1, c2, c3 = (
            (hi1 ^ c1 ^ k0) & _MASK32,
            lo1,
            (hi0 ^ c3 ^ k1) & _MASK32,
            lo0,
        )
        k0 = (k0 + PHILOX_W0) & _MASK32
        k1 = (k1 + PHILOX_W1) & _MASK32
    return c0, c1, c2, c3


def splitmix64(x: int) -> int:
    """One step of the splitmix64 output function (a 64-bit finaliser).

    Used to turn small user seeds into well-mixed 64-bit key material.  The
    function is a bijection on 64-bit integers.
    """
    mask = (1 << 64) - 1
    z = (x + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return (z ^ (z >> 31)) & mask


def derive_key(seed: int, stream: int = 0) -> tuple[int, int]:
    """Derive a Philox (k0, k1) key pair from a user seed and a stream tag.

    Distinct ``(seed, stream)`` pairs map to distinct keys with very high
    probability; the mixing makes low-entropy seeds (0, 1, 2, ...) produce
    unrelated keys.
    """
    if seed < 0:
        raise RNGError(f"seed must be non-negative, got {seed}")
    if stream < 0:
        raise RNGError(f"stream must be non-negative, got {stream}")
    mixed = splitmix64(splitmix64(seed) ^ splitmix64(stream ^ 0xC0FFEE))
    return mixed & _MASK32, (mixed >> 32) & _MASK32


def unit_double_scalar(hi: int, lo: int) -> float:
    """Combine two words into a float64 uniform in [0, 1).

    Uses the standard 53-bit construction (27 bits from ``hi``, 26 from
    ``lo``), identical to the Mersenne-Twister ``genrand_res53`` recipe, so
    the mapping is exact and platform-independent; the compiled span
    kernel performs the same shift, scale, add, scale sequence.
    """
    a = (hi & _MASK32) >> 5
    b = (lo & _MASK32) >> 6
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)
