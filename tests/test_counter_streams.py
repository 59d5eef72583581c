"""Tests for per-walk counter streams (fine-grained reseeding)."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RNGError
from repro.rng import (
    MAX_DRAWS_PER_STEP,
    MirroredDraws,
    WalkStreams,
)


def _draw_digest(provider) -> str:
    """SHA-256 of ``provider.draws`` over UIDs on both sides of 2**32 (even
    primaries and odd partners), scalar steps 0, 1, 2 and 10,000, a
    per-walk step vector with step 1 on most walks, and counts 1-8."""
    uids = np.array(
        [0, 1, 2, 3, 998, 999, 2**32 - 2, 2**32 - 1, 2**32, 2**32 + 1,
         2**32 + 6, 2**40 + 7, 2**63, 2**64 - 2, 2**64 - 1],
        dtype=np.uint64,
    )
    per_walk = np.array(
        [1, 0, 1, 1, 2, 1, 0, 1, 1, 3, 1, 17, 1, 1, 4096], dtype=np.uint64
    )
    h = hashlib.sha256()
    for count in range(1, MAX_DRAWS_PER_STEP + 1):
        for step in (0, 1, 2, 10_000, per_walk):
            h.update(provider.draws(uids, step, count).tobytes())
    return h.hexdigest()


def test_draws_digests_are_pinned():
    """The bits of both draw providers, pinned: a change to the compiled
    Philox kernel or to the antithetic reflection that moves any draw
    fails here."""
    base = WalkStreams(20251018, 3)
    assert _draw_digest(base) == (
        "81ef23be3041a2cfdc7685d4e7f8e4e629ad21fcef60151085be4cc21d8a357f"
    )
    assert _draw_digest(MirroredDraws(base)) == (
        "a3feb65b9be071b6c24c12bebb2f69559907b7ad1d23527c4a8b4ebdc8ff76de"
    )


def test_draws_shape_and_range():
    ws = WalkStreams(seed=42)
    u = ws.draws(np.arange(100, dtype=np.uint64), step=3, count=3)
    assert u.shape == (100, 3)
    assert u.min() >= 0.0 and u.max() < 1.0


def test_draws_independent_of_batching():
    """The core reproducibility property: any grouping of walk UIDs yields
    bit-identical numbers."""
    ws = WalkStreams(seed=7)
    uids = np.arange(64, dtype=np.uint64)
    full = ws.draws(uids, step=2, count=4)
    # Split into odd chunks and shuffled order.
    perm = np.random.default_rng(0).permutation(64)
    shuffled = ws.draws(uids[perm], step=2, count=4)
    assert np.array_equal(full[perm], shuffled)
    parts = [ws.draws(uids[i : i + 7], step=2, count=4) for i in range(0, 64, 7)]
    assert np.array_equal(np.concatenate(parts), full)


def test_scalar_matches_vectorised():
    ws = WalkStreams(seed=9, stream=4)
    for uid in (0, 1, 2**33, 123456789):
        for step in (0, 1, 17):
            vec = ws.draws(np.array([uid], dtype=np.uint64), step, 5)[0]
            scal = ws.draws_scalar(uid, step, 5)
            assert vec.tolist() == scal


def test_streams_differ_by_seed_and_stream():
    uids = np.arange(10, dtype=np.uint64)
    a = WalkStreams(1, 0).draws(uids, 0, 2)
    b = WalkStreams(2, 0).draws(uids, 0, 2)
    c = WalkStreams(1, 1).draws(uids, 0, 2)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_steps_give_distinct_draws():
    ws = WalkStreams(3)
    uids = np.arange(5, dtype=np.uint64)
    assert not np.array_equal(ws.draws(uids, 0, 3), ws.draws(uids, 1, 3))


@given(st.integers(0, 2**40), st.integers(0, 1000), st.integers(1, MAX_DRAWS_PER_STEP))
@settings(max_examples=30)
def test_draws_deterministic(uid, step, count):
    ws1 = WalkStreams(11)
    ws2 = WalkStreams(11)
    assert ws1.draws_scalar(uid, step, count) == ws2.draws_scalar(uid, step, count)


def test_draw_count_limits():
    ws = WalkStreams(0)
    with pytest.raises(RNGError):
        ws.draws(np.arange(2, dtype=np.uint64), 0, 0)
    with pytest.raises(RNGError):
        ws.draws(np.arange(2, dtype=np.uint64), 0, MAX_DRAWS_PER_STEP + 1)
    with pytest.raises(RNGError):
        ws.draws_scalar(0, 0, 0)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    count=st.integers(min_value=1, max_value=MAX_DRAWS_PER_STEP),
    pairs=st.lists(
        st.tuples(
            st.one_of(  # uid, on both sides of 2**32
                st.integers(min_value=0, max_value=2**32),
                st.integers(min_value=2**32, max_value=2**64 - 1),
            ),
            st.integers(min_value=0, max_value=2**20),  # step
        ),
        min_size=1,
        max_size=33,
    ),
    scalar_step=st.booleans(),
)
def test_fused_draws_matches_scalar_property(seed, count, pairs, scalar_step):
    """The compiled Philox kernel is bit-identical to the scalar reference
    for arbitrary (uid, step) mixes — one step for every walk or one per
    walk, and every count up to MAX_DRAWS_PER_STEP."""
    ws = WalkStreams(seed)
    uids = np.array([u for u, _ in pairs], dtype=np.uint64)
    steps = np.array([s for _, s in pairs], dtype=np.uint64)
    if scalar_step:
        steps[:] = steps[0]
        vec = ws.draws(uids, int(steps[0]), count)
    else:
        vec = ws.draws(uids, steps, count)
    assert vec.shape == (len(pairs), count)
    for i, (uid, step) in enumerate(zip(uids, steps)):
        assert vec[i].tolist() == ws.draws_scalar(int(uid), int(step), count)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
    depth=st.integers(min_value=1, max_value=8),
    count=st.integers(min_value=1, max_value=8),
)
def test_draws_span_equals_per_step_draws(seed, data, depth, count):
    """Draws over a span of consecutive steps, one ``draws`` call per step
    from per-walk start steps as the vector loop takes them, are the scalar
    reference at every step the span covers."""
    n = data.draw(st.integers(min_value=1, max_value=33), label="n")
    uids = np.asarray(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=2**64 - 1),
                min_size=n,
                max_size=n,
            ),
            label="uids",
        ),
        dtype=np.uint64,
    )
    steps = np.asarray(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=10_000),
                min_size=n,
                max_size=n,
            ),
            label="steps",
        ),
        dtype=np.uint64,
    )
    streams = WalkStreams(seed, 0)
    span = np.stack(
        [streams.draws(uids, steps + np.uint64(k), count) for k in range(depth)]
    )
    assert span.shape == (depth, n, count)
    for k in range(depth):
        expect = [
            streams.draws_scalar(int(uid), int(step) + k, count)
            for uid, step in zip(uids, steps)
        ]
        np.testing.assert_array_equal(span[k], expect)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    base=st.sampled_from([0, 2**32 - 4, 2**40]),
    step0=st.integers(min_value=0, max_value=2),  # small: some rows at step 1
    scalar_step=st.booleans(),
)
def test_mirrored_draws_equal_draws_scalar(seed, base, step0, scalar_step):
    """The antithetic view applies the transforms the scalar reference
    applies, per row, for a scalar step and for per-walk steps."""
    n = 8
    uids = np.arange(base, base + n, dtype=np.uint64)
    mirrored = MirroredDraws(WalkStreams(seed, 0))
    if scalar_step:
        steps = np.full(n, step0, dtype=np.uint64)
        got = mirrored.draws(uids, step0, 3)
    else:
        steps = np.arange(step0, step0 + n, dtype=np.uint64) % 3
        got = mirrored.draws(uids, steps, 3)
    expect = [
        mirrored.draws_scalar(int(uid), int(step), 3)
        for uid, step in zip(uids, steps)
    ]
    np.testing.assert_array_equal(got, expect)


def test_span_scratch_is_bounded():
    """The span kernel keeps no scratch: draws over many walks allocate
    their output and nothing that grows with the vector."""
    uids = np.arange(10_000, dtype=np.uint64)
    streams = WalkStreams(5, 0)
    streams.draws(uids[:2], 0, 3)  # the library loads outside the trace
    tracemalloc.start()
    try:
        wide = streams.draws(uids, 0, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= wide.nbytes + 64 * 2**10
