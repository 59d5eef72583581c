"""Philox4x32-10 counter-based random number generator, from scratch.

The paper (Sec. III-C) replaces Mersenne Twister with a counter-based RNG
(CBRNG, Salmon et al., SC'11) because per-walk reseeding must be free: in the
reproducible scheme every walk ``(s, u, v)`` owns an independent random
stream, and a stateful generator would pay a full state initialisation per
walk.  A CBRNG is a keyed bijection ``(key, counter) -> 4 random words``; a
"stream" is just a counter prefix, so seeding costs nothing.

This module implements Philox4x32-10 exactly per the reference definition
(verified against the Random123 known-answer vectors in the test suite),
in both a scalar form (readable, used for cross-checks) and an
allocation-free NumPy kernel (the one the walk engine runs).  All
arithmetic is modulo 2^32 on unsigned integers, so results are
bit-identical across machines and NumPy versions — this is the "fixed
implementation of PRNGs" the paper relies on for machine-independent
reproducibility.
"""

from __future__ import annotations

import numpy as np

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

_U64 = np.uint64


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


def philox4x32_inplace(
    x0: np.ndarray,
    x1: np.ndarray,
    x2: np.ndarray,
    x3: np.ndarray,
    s0: np.ndarray,
    s1: np.ndarray,
    s2: np.ndarray,
    s3: np.ndarray,
    k0: int | np.ndarray,
    k1: int | np.ndarray,
    rounds: int = PHILOX_ROUNDS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Allocation-free Philox4x32 over preallocated ``uint64`` buffers.

    Bit-identical to :func:`philox4x32_scalar` (the known-answer tests
    pin it), in ~10 in-place ufunc calls per round: the counter words are
    kept ``< 2**32`` as an invariant (so the reference definition's
    ``& mask`` operations on them are provably no-ops and are dropped), a
    scalar key is carried as Python ints (scalars broadcast for free), and
    every round writes into the eight caller-supplied buffers, ping-ponging
    between the ``x*`` and ``s*`` quadruples.

    Parameters
    ----------
    x0, x1, x2, x3:
        Counter words as same-shape ``uint64`` arrays with values
        ``< 2**32``.  Consumed as scratch.
    s0, s1, s2, s3:
        Same-shape ``uint64`` scratch buffers (contents ignored).
    k0, k1:
        Key words: plain ints (one key for every counter), or ``uint64``
        rows of shape ``(cols,)`` with values ``< 2**32`` — one key per
        counter *column* of a ``(rows, cols)`` lattice, broadcast down the
        rows.  Key rows are consumed as scratch (advanced in place each
        round), so the call stays allocation-free.

    Returns
    -------
    The four output-word arrays (aliases of four of the eight buffers),
    values ``< 2**32``.
    """
    rows = np.ndim(k0) > 0
    if not rows:
        k0 = int(k0) & _MASK32
        k1 = int(k1) & _MASK32
    m0 = _U64(PHILOX_M0)
    m1 = _U64(PHILOX_M1)
    w0 = _U64(PHILOX_W0)
    w1 = _U64(PHILOX_W1)
    mask = _U64(_MASK32)
    shift = _U64(32)
    for _ in range(rounds):
        np.multiply(m0, x0, out=s0)  # p0 = m0 * c0 (fits in u64)
        np.multiply(m1, x2, out=s1)  # p1 = m1 * c2
        np.right_shift(s1, shift, out=s2)  # hi1
        np.bitwise_xor(s2, x1, out=s2)
        np.bitwise_xor(s2, k0 if rows else _U64(k0), out=s2)  # hi1 ^ c1 ^ k0
        np.bitwise_and(s1, mask, out=s1)  # new c1 = lo1
        np.right_shift(s0, shift, out=s3)  # hi0
        np.bitwise_xor(s3, x3, out=s3)
        np.bitwise_xor(s3, k1 if rows else _U64(k1), out=s3)  # hi0 ^ c3 ^ k1
        np.bitwise_and(s0, mask, out=s0)  # new c3 = lo0
        x0, x1, x2, x3, s0, s1, s2, s3 = s2, s1, s3, s0, x0, x1, x2, x3
        if rows:
            np.add(k0, w0, out=k0)
            np.bitwise_and(k0, mask, out=k0)
            np.add(k1, w1, out=k1)
            np.bitwise_and(k1, mask, out=k1)
        else:
            k0 = (k0 + PHILOX_W0) & _MASK32
            k1 = (k1 + PHILOX_W1) & _MASK32
    return x0, x1, x2, x3


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


def unit_double_into(
    hi: np.ndarray,
    lo: np.ndarray,
    t0: np.ndarray,
    t1: np.ndarray,
    f0: np.ndarray,
    f1: np.ndarray,
    out: np.ndarray,
) -> None:
    """Combine two words into a float64 uniform in [0, 1), into ``out``.

    Uses the standard 53-bit construction (27 bits from ``hi``, 26 from
    ``lo``), identical to the Mersenne-Twister ``genrand_res53`` recipe, so
    the mapping is exact and platform-independent.  ``hi``/``lo`` are
    ``uint64`` word arrays with values ``< 2**32``; ``t0``/``t1`` are
    ``uint64`` scratch, ``f0``/``f1`` ``float64`` scratch of the same
    shape.  The arithmetic sequence (shift, scale, add, scale) is that of
    :func:`unit_double_scalar`, so results are bit-identical.
    """
    np.right_shift(hi, _U64(5), out=t0)
    np.right_shift(lo, _U64(6), out=t1)
    np.copyto(f0, t0, casting="unsafe")  # exact: values < 2**27
    f0 *= 67108864.0
    np.copyto(f1, t1, casting="unsafe")
    f0 += f1
    f0 *= 1.0 / 9007199254740992.0
    out[...] = f0


def unit_double_scalar(hi: int, lo: int) -> float:
    """Scalar version of :func:`unit_double_into`."""
    a = (hi & _MASK32) >> 5
    b = (lo & _MASK32) >> 6
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)
