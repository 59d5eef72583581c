"""Tests for per-walk counter streams (fine-grained reseeding)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RNGError
from repro.rng import (
    MAX_DRAWS_PER_STEP,
    LaneDraws,
    MirroredDraws,
    WalkStreams,
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
    vectors (the pipelined engine's calling convention), every count up to
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


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    depth=st.integers(min_value=1, max_value=16),
    count=st.integers(min_value=1, max_value=MAX_DRAWS_PER_STEP),
    walks=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),  # lane
            st.integers(min_value=0, max_value=2**64 - 1),  # uid
            st.integers(min_value=0, max_value=2**20),  # step
        ),
        min_size=1,
        max_size=24,
    ),
    mirrored=st.booleans(),
)
def test_lane_span_matches_each_lanes_scalar(
    seed, depth, count, walks, mirrored
):
    """One keyed span over a random lane assignment equals, walk by walk
    and step by step, the scalar draws of that walk's own lane — for plain
    counter streams and their antithetic view alike."""
    lanes = [WalkStreams(seed, stream) for stream in range(4)]
    if mirrored:
        lanes = [MirroredDraws(base) for base in lanes]
    lane = np.array([w[0] for w in walks], dtype=np.intp)
    uids = np.array([w[1] for w in walks], dtype=np.uint64)
    steps = np.array([w[2] for w in walks], dtype=np.uint64)
    span = LaneDraws(lanes).draws_span(lane, uids, steps, depth, count)
    assert span.shape == (depth, len(walks), count)
    for i, (l, uid, step) in enumerate(walks):
        for k in range(depth):
            assert span[k, i].tolist() == lanes[l].draws_scalar(
                uid, step + k, count
            )
