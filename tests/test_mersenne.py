"""Tests for the Mersenne-Twister walk-stream adapter (FRW-NC)."""

import numpy as np
import pytest

from repro.errors import RNGError
from repro.rng import MTWalkStreams
from repro.rng.mersenne import DEFAULT_MAX_LIVE


def test_deterministic_per_walk():
    a = MTWalkStreams(seed=1)
    b = MTWalkStreams(seed=1)
    uids = np.arange(20, dtype=np.uint64)
    assert np.array_equal(a.draws(uids, 0, 3), b.draws(uids, 0, 3))
    assert np.array_equal(a.draws(uids, 1, 3), b.draws(uids, 1, 3))


def test_order_independent_across_walks():
    """Each walk owns a private stream, so walk grouping does not matter
    (the paper: changing PRNGs does not affect reproducibility)."""
    a = MTWalkStreams(seed=2)
    b = MTWalkStreams(seed=2)
    uids = np.arange(16, dtype=np.uint64)
    full = a.draws(uids, 0, 3)
    perm = np.random.default_rng(1).permutation(16)
    shuffled = b.draws(uids[perm], 0, 3)
    assert np.array_equal(full[perm], shuffled)


def test_sequential_consumption_within_walk():
    """Draws at successive steps continue the walk's private stream."""
    a = MTWalkStreams(seed=3)
    uids = np.array([5], dtype=np.uint64)
    first = a.draws(uids, 0, 3)
    second = a.draws(uids, 1, 3)
    fresh = MTWalkStreams(seed=3)
    direct = fresh._state_for(5).random_sample(6)
    assert np.allclose(np.concatenate([first[0], second[0]]), direct)


@pytest.mark.parametrize("max_live", [DEFAULT_MAX_LIVE, 2])
def test_draws_span_is_consecutive_draws(max_live):
    """A depth-``d`` span hands each walk its next ``d * count`` uniforms:
    the same per-walk sequence ``d`` one-step calls produce — also when
    ``max_live=2`` evicts streams between calls and revives them."""
    uids = np.arange(8, dtype=np.uint64)
    span = MTWalkStreams(seed=11, max_live=max_live).draws_span(uids, 0, 4, 3)
    steps = MTWalkStreams(seed=11, max_live=max_live)
    for s in range(4):
        assert np.array_equal(span[s], steps.draws(uids, s, 3))
    # A span that continues walks already drawn from (and, at max_live=2,
    # evicted) resumes each walk's sequence exactly.
    a = MTWalkStreams(seed=12, max_live=max_live)
    b = MTWalkStreams(seed=12, max_live=max_live)
    assert np.array_equal(a.draws(uids, 0, 3), b.draws(uids, 0, 3))
    span = a.draws_span(uids, 1, 4, 3)
    for s in range(1, 5):
        assert np.array_equal(span[s - 1], b.draws(uids, s, 3))


def test_release_resets_stream():
    a = MTWalkStreams(seed=4)
    uids = np.array([9], dtype=np.uint64)
    first = a.draws(uids, 0, 3)
    a.release(uids)
    again = a.draws(uids, 0, 3)
    assert np.array_equal(first, again)


def test_seed_and_stream_separation():
    uids = np.arange(4, dtype=np.uint64)
    a = MTWalkStreams(1, 0).draws(uids, 0, 2)
    b = MTWalkStreams(2, 0).draws(uids, 0, 2)
    c = MTWalkStreams(1, 1).draws(uids, 0, 2)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_count_validation():
    with pytest.raises(RNGError):
        MTWalkStreams(0).draws(np.arange(2, dtype=np.uint64), 0, 0)


def test_reset_clears_cache():
    a = MTWalkStreams(seed=5)
    uids = np.arange(3, dtype=np.uint64)
    a.draws(uids, 0, 2)
    assert len(a._states) == 3
    a.reset()
    assert len(a._states) == 0
    assert len(a._consumed) == 0


def test_lru_bounds_live_states():
    """The RandomState cache never exceeds max_live, even without release."""
    a = MTWalkStreams(seed=6, max_live=8)
    uids = np.arange(100, dtype=np.uint64)
    a.draws(uids, 0, 2)
    assert len(a._states) <= 8
    # Replay cursors for active (unreleased) walks are retained.
    assert len(a._consumed) == 100
    a.release(uids)
    assert len(a._states) == 0
    assert len(a._consumed) == 0


def test_lru_eviction_is_bit_identical():
    """An evicted-but-active stream resumes exactly where it left off."""
    tiny = MTWalkStreams(seed=7, max_live=4)
    big = MTWalkStreams(seed=7)  # effectively unbounded for this test
    uids = np.arange(32, dtype=np.uint64)
    first_t = tiny.draws(uids, 0, 3)
    first_b = big.draws(uids, 0, 3)
    assert np.array_equal(first_t, first_b)
    # Every stream except the 4 most recent was evicted; step 1 must still
    # continue each walk's private MT sequence bit-identically.
    second_t = tiny.draws(uids, 1, 3)
    second_b = big.draws(uids, 1, 3)
    assert np.array_equal(second_t, second_b)


def test_lru_scalar_path_replays_after_eviction():
    tiny = MTWalkStreams(seed=8, max_live=2)
    ref = MTWalkStreams(seed=8)
    a0 = tiny.draws_scalar(0, 0, 2)
    assert a0 == ref.draws_scalar(0, 0, 2)
    tiny.draws_scalar(1, 0, 2)
    tiny.draws_scalar(2, 0, 2)  # evicts uid 0
    ref.draws_scalar(1, 0, 2)
    ref.draws_scalar(2, 0, 2)
    assert 0 not in tiny._states
    assert tiny.draws_scalar(0, 1, 2) == ref.draws_scalar(0, 1, 2)


def test_lru_max_live_validation():
    with pytest.raises(RNGError):
        MTWalkStreams(0, max_live=0)
