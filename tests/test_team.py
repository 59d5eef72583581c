"""The kernels' thread team across fork(), worker threads and
concurrent callers.

A wide in-process extraction starts the team's helpers.  ``subprocess``
and user code still fork, and fork copies only the calling thread, so
the team's fork hook parks (joins) the helpers first: the process holds
one thread at the fork.  Python 3.12 warns when a multi-threaded process
forks, and CI runs the fork test with that warning as an error.  An
executor's worker threads share the team, sized to their share of the
CPUs while they run and restored to every CPU when the executor closes.
Two caller threads that run wide vectors at once share one team through
its try-lock, and each gets the bytes of a team of one.
"""

import dataclasses
import os
import signal
import threading

import numpy as np
import pytest

from repro import FRWConfig, FRWSolver, native
from repro.frw import PersistentExecutor, build_context, run_walks, stream_spec
from repro.rng import WalkStreams

#: Walks of a wide vector: far above the kernels' split size.
WIDE = 20_000


def _helpers(pid="self") -> int:
    """The team's helper threads in a process, by their thread name."""
    tasks = f"/proc/{pid}/task"
    names = []
    for tid in os.listdir(tasks):
        with open(f"{tasks}/{tid}/comm") as f:
            names.append(f.read().strip())
    return names.count("repro-team")


def _helpers_at_fork() -> int:
    """The helpers alive in this process right after a bare fork (whose
    child exits at once)."""
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child only exits
        os._exit(0)
    at_fork = _helpers()
    os.waitpid(pid, 0)
    return at_fork


@pytest.fixture
def bounded():
    """End the test process if a fork or a team wait deadlocks: SIGALRM's
    default action, since a watchdog thread would itself make every fork
    a multi-threaded one."""
    previous = signal.signal(signal.SIGALRM, signal.SIG_DFL)
    signal.alarm(180)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_fork_after_the_team_started(three_wires, team_size, bounded):
    """In-process rows, a bare fork with the team awake, then 2 worker
    threads on the same net: no helper alive at the fork, none beyond
    the workers' share of the CPUs while they run (none on two CPUs),
    the same rows, and no helper at a fork after the executor closes."""
    cfg = FRWConfig.frw_r(
        seed=31, batch_size=8192, min_walks=16384, max_walks=16384,
        tolerance=1e-9, executor="serial",
    )
    team_size(1)  # parks any helpers an earlier test left awake
    assert _helpers() == 0
    threads = team_size(max(2, native.usable_cpus()))
    with FRWSolver(three_wires, cfg) as solver:
        serial = solver.extract()
    assert _helpers() == threads - 1
    assert _helpers_at_fork() == 0

    threaded = dataclasses.replace(cfg, executor="process", n_workers=2)
    with FRWSolver(three_wires, threaded) as solver:
        pooled = solver.extract()
        share = max(1, native.usable_cpus() // 2)
        assert team_size(0) == share
        assert _helpers() <= share - 1
    assert np.array_equal(pooled.matrix.values, serial.matrix.values)
    assert _helpers_at_fork() == 0


def test_closed_executor_restores_the_full_team(plates, team_size):
    """Worker threads share the team's CPUs while they run; closing the
    executor gives the team one thread per usable CPU again."""
    team_size(native.usable_cpus())
    cfg = FRWConfig.frw_r(seed=5, antithetic=False)
    ctx = build_context(plates, 0, cfg)
    with PersistentExecutor(2) as ex:
        ex.run(ex.register(ctx, stream_spec(cfg, 0)), np.arange(WIDE))
        assert team_size(0) == max(1, native.usable_cpus() // 2)
    assert team_size(0) == native.usable_cpus()


def test_team_is_shared_among_every_executors_workers(plates, team_size):
    """Two executors' worker threads run at once: the team takes the
    share of all of them, keeps the remaining executor's share when one
    closes, and has every CPU only once both have closed."""
    team_size(native.usable_cpus())
    cfg = FRWConfig.frw_r(seed=5, antithetic=False)
    ctx = build_context(plates, 0, cfg)
    uids = np.arange(256)
    with PersistentExecutor(2) as first:
        first.run(first.register(ctx, stream_spec(cfg, 0)), uids)
        with PersistentExecutor(3) as second:
            second.run(second.register(ctx, stream_spec(cfg, 0)), uids)
            assert team_size(0) == max(1, native.usable_cpus() // 5)
        assert team_size(0) == max(1, native.usable_cpus() // 2)
    assert team_size(0) == native.usable_cpus()


def test_concurrent_callers_get_the_single_thread_bytes(plates, team_size):
    """Two threads run wide vectors at once: whichever holds the team
    splits, the other runs alone, and both rows are a team of one's."""
    cfg = FRWConfig.frw_r(seed=5, antithetic=False)
    ctx = build_context(plates, 0, cfg)
    uids = np.arange(WIDE, dtype=np.uint64)

    def row():
        res = run_walks(ctx, WalkStreams(5, 0), uids)
        return res.omega.tobytes() + res.dest.tobytes() + res.steps.tobytes()

    team_size(1)
    want = row()
    team_size(2)
    start = threading.Barrier(2)
    got, errors = [None, None], []

    def work(t):
        try:
            start.wait()
            got[t] = row()
        except BaseException as exc:
            errors.append(exc)

    callers = [threading.Thread(target=work, args=(t,)) for t in range(2)]
    for th in callers:
        th.start()
    for th in callers:
        th.join(timeout=120)
    assert not any(th.is_alive() for th in callers)
    if errors:
        raise errors[0]
    assert got == [want, want]
