"""Tests for the from-scratch Philox4x32-10 implementation.

The known-answer vectors pin both the scalar reference and the
allocation-free kernel the walk engine runs (``philox4x32_inplace`` and
``unit_double_into``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RNGError
from repro.rng import (
    derive_key,
    philox4x32_inplace,
    philox4x32_scalar,
    splitmix64,
    unit_double_into,
    unit_double_scalar,
)

# Known-answer vectors from the Random123 distribution (kat_vectors).
KAT = [
    ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
    (
        (0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF),
        (0xFFFFFFFF, 0xFFFFFFFF),
        (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD),
    ),
    (
        (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
        (0xA4093822, 0x299F31D0),
        (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1),
    ),
]


def engine_philox(counter, k0, k1):
    """The engine's kernel on four equal-shape counter-word arrays; the
    key is two ints or two ``uint64`` rows, one key per counter column."""
    x = [np.array(c, dtype=np.uint64) for c in counter]
    scratch = [np.empty_like(x[0]) for _ in range(4)]
    return philox4x32_inplace(*x, *scratch, k0, k1)


def engine_unit_double(hi, lo):
    """The engine's word-pair-to-uniform conversion."""
    hi = np.asarray(hi, dtype=np.uint64)
    lo = np.asarray(lo, dtype=np.uint64)
    out, f0, f1 = (np.empty(hi.shape) for _ in range(3))
    unit_double_into(hi, lo, np.empty_like(hi), np.empty_like(hi), f0, f1, out)
    return out


@pytest.mark.parametrize("counter,key,expected", KAT)
def test_known_answer_scalar(counter, key, expected):
    assert philox4x32_scalar(counter, key) == expected


def test_known_answer_vectorised():
    """One lattice row, one KAT vector per column under its own key row."""
    counters = np.array([k[0] for k in KAT], dtype=np.uint64).T[:, None, :]
    k0, k1 = np.array([k[1] for k in KAT], dtype=np.uint64).T.copy()
    out = engine_philox(counters, k0, k1)
    for lane in range(4):
        assert out[lane][0].tolist() == [k[2][lane] for k in KAT]


@given(
    st.tuples(*[st.integers(0, 2**32 - 1)] * 4),
    st.tuples(*[st.integers(0, 2**32 - 1)] * 2),
)
@settings(max_examples=60)
def test_scalar_matches_vectorised(counter, key):
    scalar = philox4x32_scalar(counter, key)
    counters = [[c] for c in counter]
    by_int = engine_philox(counters, *key)
    by_row = engine_philox(counters, *(np.array([k], dtype=np.uint64) for k in key))
    assert tuple(int(v[0]) for v in by_int) == scalar
    assert tuple(int(v[0]) for v in by_row) == scalar


@given(
    st.tuples(*[st.integers(0, 2**32 - 1)] * 4),
    st.tuples(*[st.integers(0, 2**32 - 1)] * 4),
    st.tuples(*[st.integers(0, 2**32 - 1)] * 2),
)
@settings(max_examples=40)
def test_distinct_counters_distinct_outputs(c1, c2, key):
    """Philox is a bijection per key: distinct counters never collide."""
    if c1 == c2:
        return
    assert philox4x32_scalar(c1, key) != philox4x32_scalar(c2, key)


def test_output_changes_with_key():
    base = philox4x32_scalar((1, 2, 3, 4), (5, 6))
    assert philox4x32_scalar((1, 2, 3, 4), (5, 7)) != base
    assert philox4x32_scalar((1, 2, 3, 4), (6, 6)) != base


def test_uniform_conversion_range_and_resolution():
    hi = np.array([0, 0xFFFFFFFF, 0x80000000], dtype=np.uint32)
    lo = np.array([0, 0xFFFFFFFF, 0], dtype=np.uint32)
    vals = engine_unit_double(hi, lo)
    assert vals[0] == 0.0
    assert 0.0 <= vals.min() and vals.max() < 1.0
    assert vals[2] == 0.5
    # scalar path agrees bit-for-bit
    for h, l, v in zip(hi, lo, vals):
        assert unit_double_scalar(int(h), int(l)) == v


def test_uniform_statistics():
    n = 200_000
    blocks = np.arange(n, dtype=np.uint64)
    zeros = np.zeros(n, dtype=np.uint64)
    w = engine_philox((blocks, zeros, zeros, zeros + 7), 123, 456)
    u = engine_unit_double(w[0], w[1])
    assert abs(u.mean() - 0.5) < 3.0 / np.sqrt(12 * n)
    assert abs(u.var() - 1.0 / 12.0) < 2e-3
    # Lag-1 correlation should be negligible.
    corr = np.corrcoef(u[:-1], u[1:])[0, 1]
    assert abs(corr) < 0.01


def test_splitmix64_bijective_properties():
    seen = {splitmix64(i) for i in range(1000)}
    assert len(seen) == 1000
    assert splitmix64(0) != 0


def test_derive_key_domain_separation():
    assert derive_key(1, 0) != derive_key(1, 1)
    assert derive_key(1, 0) != derive_key(2, 0)
    k0, k1 = derive_key(0, 0)
    assert 0 <= k0 < 2**32 and 0 <= k1 < 2**32


def test_derive_key_rejects_negative():
    with pytest.raises(RNGError):
        derive_key(-1)
    with pytest.raises(RNGError):
        derive_key(0, -2)
