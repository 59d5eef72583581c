"""Shared fixtures: small structures, extraction configs and a pipelined
engine run."""

import threading

import numpy as np
import pytest

from repro import Box, Conductor, DielectricStack, FRWConfig, Structure, native
from repro.frw.engine import concat_results, run_segments


def _workers() -> set[threading.Thread]:
    """The executors' worker threads alive in this process."""
    return {
        t for t in threading.enumerate() if t.name.startswith("repro-worker")
    }


@pytest.fixture(autouse=True)
def no_leaked_workers():
    """Fail a test that leaves an executor's worker thread alive: every
    executor a test starts must be closed (or its solver's ``with`` block
    left) before the test ends."""
    before = _workers()
    yield
    leaked = _workers() - before
    if leaked:
        pytest.fail(
            f"worker threads left alive: {sorted(t.name for t in leaked)}"
        )


@pytest.fixture
def team_size():
    """The thread team's private size hook (threads -> the size set); the
    team gets one thread per usable CPU back when the test ends."""
    yield native._set_team_size
    native._set_team_size(native.usable_cpus())


@pytest.fixture(scope="session")
def plates():
    """Two parallel plates in a grounded enclosure (fast, well understood)."""
    p1 = Conductor.single("P1", Box.from_bounds(-2, 2, -2, 2, 0.0, 0.25))
    p2 = Conductor.single("P2", Box.from_bounds(-2, 2, -2, 2, 0.75, 1.0))
    return Structure(
        [p1, p2], enclosure=Box.from_bounds(-6, 6, -6, 6, -5, 6)
    )


@pytest.fixture(scope="session")
def three_wires():
    """Three parallel wires — the Table I case-1 shape."""
    wires = [
        Conductor.single(
            f"w{i}", Box.from_bounds(2.0 * i, 2.0 * i + 1.0, 0, 8, 0, 1)
        )
        for i in range(3)
    ]
    return Structure(
        wires, enclosure=Box.from_bounds(-4, 9, -4, 12, -4, 5)
    )


@pytest.fixture(scope="session")
def layered_wires():
    """Two wires in different dielectric layers (exercises interface steps)."""
    w1 = Conductor.single("w1", Box.from_bounds(0, 1, 0, 6, 0.5, 1.3))
    w2 = Conductor.single("w2", Box.from_bounds(2.5, 3.5, 0, 6, 3.0, 3.8))
    stack = DielectricStack(interfaces=(2.13,), eps=(3.9, 2.7))
    return Structure(
        [w1, w2],
        dielectric=stack,
        enclosure=Box.from_bounds(-4, 8, -4, 10, -3, 8),
    )


@pytest.fixture
def quick_config():
    """A config that converges in well under a second on the fixtures."""
    return FRWConfig.frw_r(
        seed=123, n_threads=4, batch_size=1500, tolerance=5e-2, min_walks=1500
    )


def _run_pipelined(ctx, streams, uids, width, **kwargs):
    """Run a fixed UID set through one refill vector in ``width``-sized
    batches (``run_segments``) and reassemble it in UID order —
    bit-identical to ``run_walks`` on the same UIDs."""
    uids = np.asarray(uids, dtype=np.uint64)
    starts = range(0, max(1, uids.shape[0]), width)
    parts = run_segments(
        ((ctx, streams),),
        [(0, uids[a : a + width]) for a in starts],
        width,
        **kwargs,
    )
    return concat_results(uids, parts)


@pytest.fixture(scope="session")
def run_pipelined():
    """``run_pipelined(ctx, streams, uids, width, **kwargs)``; ``kwargs``
    go to ``run_segments`` (``timers``, ``trace``)."""
    return _run_pipelined
