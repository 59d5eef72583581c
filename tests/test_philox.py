"""Tests for the from-scratch Philox4x32-10 implementation.

The known-answer vectors pin both the scalar reference and the compiled
kernel the walk engine runs (``repro/native/kernels.c``, through its raw
block entry ``repro.native.philox4x32_block``), on the rounds the host
dispatches to (AVX2 on a host that has it) and on a build with the AVX2
path compiled out; the compiled draws convert its words to uniforms
exactly as ``unit_double_scalar`` does."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.errors import RNGError
from repro.native import philox4x32_block
from repro.rng import (
    BLOCKS_PER_STEP,
    DOMAIN_TAG,
    WalkStreams,
    derive_key,
    philox4x32_scalar,
    splitmix64,
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


@pytest.mark.parametrize("counter,key,expected", KAT)
def test_known_answer_scalar(counter, key, expected):
    assert philox4x32_scalar(counter, key) == expected


def test_known_answer_vectorised():
    """Every KAT vector through the compiled kernel's raw block entry, on
    the rounds the host dispatches to."""
    for counter, key, expected in KAT:
        assert philox4x32_block(counter, key) == expected


_SCALAR_KAT = """
import json, sys
from repro import native
native.COMPILE = (*native.COMPILE, "-DREPRO_SCALAR_DRAWS")
kat = json.loads(sys.argv[1])
print(json.dumps([native.philox4x32_block(c, k) for c, k in kat]))
print(native.draw_path())
"""


def test_known_answer_with_the_avx2_path_compiled_out(tmp_path):
    """Every KAT vector through the raw block entry of a build, in a fresh
    cache, whose rounds are the scalar ones on any host."""
    env = dict(
        os.environ,
        XDG_CACHE_HOME=str(tmp_path),
        PYTHONPATH=str(Path(native.__file__).resolve().parents[2]),
    )
    kat = json.dumps([[c, k] for c, k, _ in KAT])
    proc = subprocess.run(
        [sys.executable, "-c", _SCALAR_KAT, kat],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    words, path = proc.stdout.split("\n")[:2]
    assert [tuple(w) for w in json.loads(words)] == [e for _, _, e in KAT]
    assert path == "scalar"


@given(
    st.tuples(*[st.integers(0, 2**32 - 1)] * 4),
    st.tuples(*[st.integers(0, 2**32 - 1)] * 2),
)
@settings(max_examples=60)
def test_scalar_matches_vectorised(counter, key):
    assert philox4x32_block(counter, key) == philox4x32_scalar(counter, key)


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
    hi = [0, 0xFFFFFFFF, 0x80000000]
    lo = [0, 0xFFFFFFFF, 0]
    vals = [unit_double_scalar(h, l) for h, l in zip(hi, lo)]
    assert vals[0] == 0.0
    assert vals[1] == 1.0 - 2.0**-53  # the largest double below 1
    assert vals[2] == 0.5
    # The compiled draws convert a block's words exactly as the scalar
    # does: slots (0, 1) of step 3 of walk 2**40 + 7 are block 12's word
    # pairs.
    streams = WalkStreams(11, 2)
    uid = 2**40 + 7
    words = philox4x32_scalar(
        (3 * BLOCKS_PER_STEP, uid & 0xFFFFFFFF, uid >> 32, DOMAIN_TAG),
        streams.key,
    )
    u = streams.draws(np.array([uid], dtype=np.uint64), 3, 2)
    assert u[0].tolist() == [
        unit_double_scalar(words[0], words[1]),
        unit_double_scalar(words[2], words[3]),
    ]


def test_uniform_statistics():
    n = 200_000
    u = WalkStreams(123, 456).draws(np.arange(n, dtype=np.uint64), 0, 1)
    u = u.ravel()
    assert 0.0 <= u.min() and u.max() < 1.0
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
