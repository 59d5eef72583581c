"""Tests for per-walk counter streams (fine-grained reseeding)."""

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
from repro.rng.counter_stream import MAX_SPAN_STEPS


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
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    count=st.integers(min_value=1, max_value=MAX_DRAWS_PER_STEP),
    pairs=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**64 - 1),  # uid
            st.integers(min_value=0, max_value=2**20),  # step
        ),
        min_size=1,
        max_size=16,
    ),
    use_out=st.booleans(),
)
def test_fused_draws_matches_scalar_property(seed, count, pairs, use_out):
    """The fused single-pass Philox kernel is bit-identical to the scalar
    reference for arbitrary (uid, step) mixes — including per-walk step
    vectors, every count up to
    MAX_DRAWS_PER_STEP, and the caller-supplied ``out=`` buffer path."""
    ws = WalkStreams(seed)
    uids = np.array([u for u, _ in pairs], dtype=np.uint64)
    steps = np.array([s for _, s in pairs], dtype=np.uint64)
    if use_out:
        out = np.empty((len(pairs), MAX_DRAWS_PER_STEP), dtype=np.float64)
        vec = ws.draws(uids, steps, count, out=out)
        assert vec.base is out
    else:
        vec = ws.draws(uids, steps, count)
    assert vec.shape == (len(pairs), count)
    for i, (uid, step) in enumerate(pairs):
        assert vec[i].tolist() == ws.draws_scalar(uid, step, count)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
    depth=st.integers(min_value=1, max_value=MAX_SPAN_STEPS),
    count=st.integers(min_value=1, max_value=8),
)
def test_draws_span_equals_per_step_draws(seed, data, depth, count):
    """A span is the scalar reference at every step it covers."""
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
    span = streams.draws_span(uids, steps, depth, count)
    assert span.shape == (depth, n, count)
    for k in range(depth):
        expect = [
            streams.draws_scalar(int(uid), int(step) + k, count)
            for uid, step in zip(uids, steps)
        ]
        np.testing.assert_array_equal(span[k], expect)
    np.testing.assert_array_equal(
        streams.draws(uids, steps, count), span[0]
    )


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    base=st.integers(min_value=0, max_value=2**40),
    step0=st.integers(min_value=0, max_value=4),  # small: some spans cover step 1
    depth=st.integers(min_value=1, max_value=8),
)
def test_mirrored_draws_span_equals_per_step(seed, base, step0, depth):
    """The antithetic view's span applies the same transforms the scalar
    reference applies — one (depth, n) step grid, same words out."""
    n = 5
    uids = np.arange(base, base + n, dtype=np.uint64)
    mirrored = MirroredDraws(WalkStreams(seed, 0))
    steps = np.arange(step0, step0 + n, dtype=np.uint64)
    span = mirrored.draws_span(uids, steps, depth, 3)
    for k in range(depth):
        expect = [
            mirrored.draws_scalar(int(uid), int(step) + k, 3)
            for uid, step in zip(uids, steps)
        ]
        np.testing.assert_array_equal(span[k], expect)


def test_span_scratch_is_bounded():
    """The span kernel keeps no scratch: a deep span over a few walks
    followed by a one-step span over many walks allocates their outputs
    and nothing that grows with the span shapes."""
    uids = np.arange(10_000, dtype=np.uint64)
    streams = WalkStreams(5, 0)
    streams.draws_span(uids[:2], 0, 1, 3)  # the library loads outside the trace
    tracemalloc.start()
    try:
        deep = streams.draws_span(uids[:33], 0, 16, 3)
        wide = streams.draws_span(uids, 0, 1, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= deep.nbytes + wide.nbytes + 64 * 2**10


def test_draws_span_validates_arguments():
    streams = WalkStreams(7, 0)
    uids = np.arange(4, dtype=np.uint64)
    with pytest.raises(Exception):
        streams.draws_span(uids, 0, 0, 3)
    with pytest.raises(Exception):
        streams.draws_span(uids, 0, MAX_SPAN_STEPS + 1, 3)
