"""Tests for the Mersenne-Twister walk-stream adapter (FRW-NC).

The engine's compiled launch and hop seed and draw each walk's stream
(``test_step_kernels`` compares them with :meth:`MTWalkStreams.
draws_scalar`); these tests pin the reference itself.
"""

import numpy as np
import pytest

from repro.errors import RNGError
from repro.rng import MTWalkStreams


def test_deterministic_per_walk():
    a = MTWalkStreams(seed=1)
    b = MTWalkStreams(seed=1)
    for uid in range(20):
        for step in (0, 1):
            assert a.draws_scalar(uid, step, 3) == b.draws_scalar(uid, step, 3)


def test_order_independent_across_walks():
    """Each walk owns a private stream, so the order walks are drawn in
    does not matter (the paper: changing PRNGs does not affect
    reproducibility)."""
    a = MTWalkStreams(seed=2)
    full = [a.draws_scalar(uid, 0, 3) for uid in range(16)]
    perm = np.random.default_rng(1).permutation(16)
    b = MTWalkStreams(seed=2)
    shuffled = [b.draws_scalar(int(uid), 0, 3) for uid in perm]
    assert [full[i] for i in perm] == shuffled


def test_sequential_consumption_within_walk():
    """Step ``s`` of a walk takes uniforms ``3s .. 3s + 2`` of its own
    ``RandomState`` stream."""
    a = MTWalkStreams(seed=3)
    direct = np.random.RandomState(a.walk_seed(5)).random_sample(6)
    assert a.draws_scalar(5, 0, 3) + a.draws_scalar(5, 1, 3) == direct.tolist()


def test_seed_and_stream_separation():
    a = [MTWalkStreams(1, 0).draws_scalar(uid, 0, 2) for uid in range(4)]
    b = [MTWalkStreams(2, 0).draws_scalar(uid, 0, 2) for uid in range(4)]
    c = [MTWalkStreams(1, 1).draws_scalar(uid, 0, 2) for uid in range(4)]
    assert a != b
    assert a != c


def test_count_validation():
    with pytest.raises(RNGError):
        MTWalkStreams(0).draws_scalar(0, 0, 0)
