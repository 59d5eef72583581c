"""Tests for the real walk executors (one worker, worker threads) and
batch runners."""

import dataclasses
import os
import sys
import threading

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Box, Conductor, FRWConfig, Structure, native
from repro.frw import (
    BatchRunner,
    PersistentExecutor,
    StageTimers,
    WalkPipeline,
    build_context,
    cross_master,
    extract_row_alg2,
    make_batch_runner,
    make_streams,
    parallel,
    run_walks,
    stream_spec,
)
from repro.frw.parallel import checkpoint_walks
from repro.frw import solver as solver_module
from repro.frw.solver import FRWSolver
from repro.rng import WalkStreams
from repro.structures import build_case


def _run_once(ctx, uids, n_workers, pieces=1):
    """One batch, cut into ``pieces`` queue entries, on a fresh executor,
    closed on return."""
    with PersistentExecutor(n_workers) as ex:
        key = ex.register(ctx, stream_spec(ctx.config, 0))
        ticket = ex.submit(key, uids, pieces)
        done, res = ex.next_done()
        assert done == ticket
        return res


def test_parallel_matches_serial_bitwise(plates):
    ctx = build_context(plates, 0, FRWConfig.frw_r(seed=77, antithetic=False))
    uids = np.arange(2000, dtype=np.uint64)
    serial = run_walks(ctx, WalkStreams(77, 0), uids)
    parallel = _run_once(ctx, uids, n_workers=4)
    assert np.array_equal(serial.omega, parallel.omega)
    assert np.array_equal(serial.dest, parallel.dest)
    assert np.array_equal(serial.steps, parallel.steps)
    assert serial.truncated == parallel.truncated


def test_parallel_chunking_irrelevant(plates):
    ctx = build_context(plates, 0, FRWConfig.frw_r(seed=77))
    uids = np.arange(501, dtype=np.uint64)  # odd size: ragged chunks
    a = _run_once(ctx, uids, 2, pieces=8)
    b = _run_once(ctx, uids, 2, pieces=2)
    assert np.array_equal(a.omega, b.omega)
    assert np.array_equal(a.dest, b.dest)


def test_single_worker_shortcut(plates):
    ctx = build_context(plates, 0, FRWConfig.frw_r(seed=77, antithetic=False))
    uids = np.arange(100, dtype=np.uint64)
    res = _run_once(ctx, uids, 1)
    ref = run_walks(ctx, WalkStreams(77, 0), uids)
    assert np.array_equal(res.omega, ref.omega)


def test_process_pool_matches_serial(plates):
    """Two worker threads, four pieces: bit-identical to the serial
    engine."""
    ctx = build_context(plates, 0, FRWConfig.frw_r(seed=77, antithetic=False))
    uids = np.arange(600, dtype=np.uint64)
    serial = run_walks(ctx, WalkStreams(77, 0), uids)
    procs = _run_once(ctx, uids, n_workers=2, pieces=4)
    assert np.array_equal(serial.omega, procs.omega)
    assert np.array_equal(serial.dest, procs.dest)


def test_process_pool_single_worker_shortcut(plates):
    ctx = build_context(plates, 0, FRWConfig.frw_r(seed=77, antithetic=False))
    uids = np.arange(50, dtype=np.uint64)
    res = _run_once(ctx, uids, n_workers=1)
    ref = run_walks(ctx, WalkStreams(77, 0), uids)
    assert np.array_equal(res.omega, ref.omega)


# ----------------------------------------------------------------------
# Persistent executors and batch runners
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n_workers", [1, 2, 4], ids=lambda n: f"{n}-process")
def test_persistent_executor_bitwise(plates, n_workers):
    """Any worker count is bit-identical to the serial engine."""
    cfg = FRWConfig.frw_r(seed=77, antithetic=False)
    ctx = build_context(plates, 0, cfg)
    uids = np.arange(700, dtype=np.uint64)
    serial = run_walks(ctx, WalkStreams(77, 0), uids)
    with PersistentExecutor(n_workers) as ex:
        key = ex.register(ctx, stream_spec(cfg, 0))
        res = ex.run(key, uids)
    assert np.array_equal(serial.omega, res.omega)
    assert np.array_equal(serial.dest, res.dest)
    assert np.array_equal(serial.steps, res.steps)
    assert serial.truncated == res.truncated


def test_persistent_executor_reused_across_masters(plates):
    """One executor's workers serve several registered contexts
    (masters)."""
    cfg = FRWConfig.frw_r(seed=5, antithetic=False)
    with PersistentExecutor(2) as ex:
        for master in (0, 1):
            ctx = build_context(plates, master, cfg)
            key = ex.register(ctx, stream_spec(cfg, master))
            uids = np.arange(300, dtype=np.uint64)
            ref = run_walks(ctx, WalkStreams(5, master), uids)
            res = ex.run(key, uids)
            assert np.array_equal(ref.omega, res.omega)
            assert np.array_equal(ref.dest, res.dest)


def test_executor_register_is_idempotent(plates):
    cfg = FRWConfig.frw_r(seed=5)
    ctx = build_context(plates, 0, cfg)
    with PersistentExecutor(2) as ex:
        k1 = ex.register(ctx, stream_spec(cfg, 0))
        k2 = ex.register(ctx, stream_spec(cfg, 0))
        assert k1 == k2


def test_executor_close_idempotent():
    ex = PersistentExecutor(2)
    ex.close()
    ex.close()


_ROW_BASE = dict(
    seed=13, n_threads=4, batch_size=256, min_walks=512,
    max_walks=1024, tolerance=1e-6, antithetic=False,
)


@pytest.fixture(scope="module")
def one_batch_reference(plates):
    """Serial row driven one batch at a time (no look-ahead)."""
    cfg = FRWConfig.frw_r(**_ROW_BASE, executor="serial")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cross_master, "PIPELINE_LOOKAHEAD", 0)
        return extract_row_alg2(build_context(plates, 0, cfg))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(executor="serial"),
        dict(executor="serial", lookahead=3),
        dict(executor="process", n_workers=3),
        dict(executor="process", n_workers=3, lookahead=3),
        dict(executor="process", n_workers=3, lookahead=0),
        dict(executor="process", n_workers=4, lookahead=0),
        dict(executor="process", n_workers=1),
        dict(executor="process", n_workers=2),
        dict(executor="process", n_workers=4),
        dict(executor="process", n_workers=2, lookahead=3),
        dict(executor="process", n_workers=2, lookahead=0),
        dict(executor="process", n_workers=4, lookahead=3),
        dict(executor="process", n_workers=1, lookahead=3),
    ],
)
def test_extract_row_backends_bitwise(plates, one_batch_reference, kwargs):
    """The acceptance criterion: the extracted row (values, sigma2, hits,
    walks, steps) is bitwise identical across all executor backends,
    worker counts and look-ahead depths — the schedule
    trades wall time only.  ``lookahead`` patches PIPELINE_LOOKAHEAD."""
    ref_row, ref_stats = one_batch_reference
    kwargs = dict(kwargs)
    lookahead = kwargs.pop("lookahead", cross_master.PIPELINE_LOOKAHEAD)
    cfg = FRWConfig.frw_r(**_ROW_BASE, **kwargs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cross_master, "PIPELINE_LOOKAHEAD", lookahead)
        row, stats = extract_row_alg2(build_context(plates, 0, cfg))
    assert np.array_equal(row.values, ref_row.values)
    assert np.array_equal(row.sigma2, ref_row.sigma2)
    assert np.array_equal(row.hits, ref_row.hits)
    assert row.walks == ref_row.walks
    assert row.total_steps == ref_row.total_steps
    assert stats.batches == ref_stats.batches


def test_solver_owns_executor_lifecycle(plates):
    cfg = FRWConfig.frw_r(
        seed=13, batch_size=256, min_walks=512, max_walks=512,
        executor="process", n_workers=2,
    )
    with FRWSolver(plates, cfg) as solver:
        ex = solver.walk_executor()
        assert ex is not None
        assert solver.walk_executor() is ex  # created once, reused
        solver.extract_row(0)
        threads = [thread for thread, _ in ex._workers]
        assert len(threads) == 2 and all(t.is_alive() for t in threads)
    assert solver._executor is None  # released on exit
    assert ex._workers == [] and not any(t.is_alive() for t in threads)


def test_solver_serial_config_gets_a_one_worker_executor(plates):
    """A serial or one-worker config gets a one-worker executor, which
    extracts in-process: it starts no worker thread."""
    base = dict(seed=13, batch_size=256, min_walks=512, max_walks=512)
    for kwargs in (
        dict(executor="serial", n_workers=4),
        dict(executor="process", n_workers=1),
    ):
        with FRWSolver(plates, FRWConfig.frw_r(**base, **kwargs)) as solver:
            ex = solver.walk_executor()
            assert ex.n_workers == 1
            result = solver.extract()
            assert ex._workers == []
            assert ex.dispatch_stats() == {"dispatches": 0}
        assert result.matrix.meta["schedule"]["query_stats"] is not None


def test_default_config_extracts_on_worker_threads(team_size, monkeypatch):
    """On two CPUs the default config runs one worker thread per CPU,
    sends each dispatched batch as one queue entry, and extracts Table I
    cases 1 and 5 to the bytes of ``executor="serial"``.  (``team_size``
    comes first so that it restores the team after the CPU count.)"""
    monkeypatch.setattr(native, "usable_cpus", lambda: 2)
    for case, tolerance in ((1, FRWConfig().tolerance), (5, 7e-2)):
        structure = build_case(case)
        cfg = FRWConfig(tolerance=tolerance)
        with FRWSolver(structure, cfg) as solver:
            result = solver.extract()
            ex = solver.walk_executor()
            assert ex.n_workers == 2
            assert [t.is_alive() for t, _ in ex._workers] == [True, True]
            dispatched = result.matrix.meta["schedule"]["dispatched_batches"]
            assert ex.dispatch_stats()["dispatches"] == dispatched > 0
        assert result.converged
        with FRWSolver(structure, cfg.with_(executor="serial")) as solver:
            serial = solver.extract()
        for ours, theirs in (
            (result.raw_matrix, serial.raw_matrix),
            (result.matrix, serial.matrix),
        ):
            assert ours.values.tobytes() == theirs.values.tobytes()


def test_default_config_on_one_cpu_runs_in_process(plates, monkeypatch):
    """On one usable CPU the default's auto worker count is the
    in-process one-worker executor: it runs a batch and starts no
    thread."""
    monkeypatch.setattr(native, "usable_cpus", lambda: 1)
    cfg = FRWConfig()
    threads = threading.active_count()
    with PersistentExecutor.for_config(cfg) as ex:
        assert ex.n_workers == 1 and ex._vector is not None
        ctx = build_context(plates, 0, cfg)
        ex.run(ex.register(ctx, stream_spec(cfg, 0)), np.arange(256))
        assert threading.active_count() == threads
        assert ex.dispatch_stats() == {"dispatches": 0}


def test_make_batch_runner_one_worker(plates):
    """executor='process' with one worker makes (and hands over) a
    one-worker executor, so a pool config is safe on single-core hosts;
    ``timers`` becomes its stage timers."""
    cfg = FRWConfig.frw_r(
        seed=77, batch_size=64, executor="process", n_workers=1, antithetic=False
    )
    ctx = build_context(plates, 0, cfg)
    timers = StageTimers()
    runner, owned = make_batch_runner(ctx, cfg, timers=timers)
    try:
        assert type(runner) is BatchRunner
        assert owned.n_workers == 1
        res = runner.run_batch(1)
        runner.close()
    finally:
        owned.close()
    ref = run_walks(ctx, WalkStreams(77, 0), np.arange(64, 128, dtype=np.uint64))
    assert np.array_equal(res.omega, ref.omega)
    assert np.array_equal(res.dest, ref.dest)
    assert np.array_equal(res.steps, ref.steps)
    assert timers.steps > 0


class _KeyOnly:
    """An executor stand-in that only hands out a dispatch key."""

    def register(self, ctx, spec):
        return 0


@settings(max_examples=300, deadline=None)
@given(
    batch_size=st.integers(min_value=1, max_value=5000),
    min_walks=st.integers(min_value=4, max_value=6000),
    antithetic=st.booleans(),
)
def test_batch_schedule_tiles_the_uids_and_keeps_every_checkpoint(
    batch_size, min_walks, antithetic
):
    """``request`` ranges tile ``[0, n)`` with no gap or overlap, ``b0``
    walks each; batches are even under antithetic pairs; every multiple
    of ``b0`` is a checkpoint, so every checkpoint of a schedule ramping
    from ``b0`` (``b0 * 2**u`` up to ``B``, then every multiple of ``B``)
    is kept; ``b0`` is ``B`` or above ``min_walks``; and ``min_walks >=
    B / 2`` gives the paper's batches of ``B``."""
    batch_size += antithetic and batch_size % 2
    cfg = FRWConfig.frw_r(
        batch_size=batch_size, min_walks=min_walks, antithetic=antithetic
    )
    runner = BatchRunner(SimpleNamespace(master=0), cfg, _KeyOnly())
    b0 = checkpoint_walks(cfg)
    ends = [0]
    while ends[-1] < 3 * batch_size:
        _, uids = runner.request(len(ends) - 1)
        n = ends[-1]
        assert np.array_equal(uids, np.arange(n, n + b0, dtype=np.uint64))
        ends.append(n + b0)
    if antithetic:
        assert b0 % 2 == 0
    ramp = {b0 << u for u in range((batch_size // b0).bit_length())}
    ramp |= set(range(batch_size, ends[-1] + 1, batch_size))
    assert ramp <= set(ends)
    assert b0 == batch_size or b0 > min_walks
    if 2 * min_walks >= batch_size:
        assert b0 == batch_size


def test_vector_width_is_the_batch_size(plates):
    """A ``b0``-walk batch still opens a vector as wide as the config's
    batch size, not as its own size."""
    cfg = FRWConfig.frw_r(seed=77, batch_size=256, min_walks=16)
    ctx = build_context(plates, 0, cfg)
    with PersistentExecutor(1) as ex:
        runner = BatchRunner(ctx, cfg, ex)
        key, uids = runner.request(0)
        ex.submit(key, uids, 1, runner.batch_size)
        assert uids.shape[0] == 32
        assert ex._vector.width == 256
        _, res = ex.next_done()
    ref = run_walks(ctx, make_streams(cfg, 0), uids)
    assert np.array_equal(res.omega, ref.omega)


def test_make_batch_runner_timers_need_one_worker(plates):
    """One StageTimers cannot take several vectors' stages at once:
    timers on worker threads raise, naming ``executor="serial"``, whether
    the executor is made here or lent."""
    cfg = FRWConfig.frw_r(seed=77, batch_size=64, n_workers=2)
    ctx = build_context(plates, 0, cfg)
    fix = 'executor="serial"'
    with pytest.raises(ConfigError, match=fix):
        make_batch_runner(ctx, cfg, timers=StageTimers())
    with PersistentExecutor(2) as ex:
        with pytest.raises(ConfigError, match=fix):
            make_batch_runner(ctx, cfg, ex, timers=StageTimers())
        assert ex._workers == []


def test_make_batch_runner_on_a_pool(plates):
    """A two-worker runner cuts a batch over both workers and owns the
    executor it created."""
    cfg = FRWConfig.frw_r(
        seed=77, batch_size=64, executor="process", n_workers=2, antithetic=False
    )
    ctx = build_context(plates, 0, cfg)
    runner, owned = make_batch_runner(ctx, cfg)
    assert owned is not None
    try:
        res = runner.run_batch(1)
        assert owned.dispatch_stats()["dispatches"] == 2
    finally:
        runner.close()
        owned.close()
    ref = run_walks(ctx, WalkStreams(77, 0), np.arange(64, 128, dtype=np.uint64))
    assert np.array_equal(res.omega, ref.omega)
    assert np.array_equal(res.dest, ref.dest)


# ----------------------------------------------------------------------
# Worker threads
# ----------------------------------------------------------------------
from repro.errors import ConfigError, ConvergenceError
from repro.frw.parallel import resolve_workers


def _threads(ex):
    return [thread for thread, _ in ex._workers]


def test_second_wave_registration_keeps_pool(plates):
    """Registering more contexts is a dict insert: the worker threads are
    the same across registration waves."""
    cfg = FRWConfig.frw_r(seed=5, antithetic=False)
    with PersistentExecutor(2) as ex:
        ctx0 = build_context(plates, 0, cfg)
        k0 = ex.register(ctx0, stream_spec(cfg, 0))
        uids = np.arange(300, dtype=np.uint64)
        res0 = ex.run(k0, uids)
        threads_before = _threads(ex)
        # Second wave: a new master registers while the workers run.
        ctx1 = build_context(plates, 1, cfg)
        k1 = ex.register(ctx1, stream_spec(cfg, 1))
        res1 = ex.run(k1, uids)
        assert len(threads_before) == 2
        assert _threads(ex) == threads_before
        assert all(t.name.startswith("repro-worker") for t in threads_before)
        assert np.array_equal(
            run_walks(ctx0, WalkStreams(5, 0), uids).omega, res0.omega
        )
        assert np.array_equal(
            run_walks(ctx1, WalkStreams(5, 1), uids).omega, res1.omega
        )


def test_executor_dispatch_telemetry(plates):
    cfg = FRWConfig.frw_r(seed=77)
    ctx = build_context(plates, 0, cfg)
    uids = np.arange(400, dtype=np.uint64)
    with PersistentExecutor(2) as ex:
        ex.register(ctx, stream_spec(cfg, 0))
        key = ex.register(ctx, stream_spec(cfg, 0))
        ex.submit(key, uids, 4)
        ex.next_done()
        # 400 uids in 4 queue entries, one per piece.
        assert ex.dispatch_stats() == {"dispatches": 4}


def test_executors_share_asset_blocks(plates):
    """Two executors in one process that register contexts over the same
    table object both run them; closing one leaves the other able to
    dispatch."""
    cfg = FRWConfig.frw_r(seed=77, antithetic=False)
    ctx0 = build_context(plates, 0, cfg)
    ctx1 = build_context(plates, 1, cfg)
    assert ctx0.table is ctx1.table
    uids = np.arange(300, dtype=np.uint64)
    a = PersistentExecutor(2)
    b = PersistentExecutor(2)
    try:
        a.run(a.register(ctx0, stream_spec(cfg, 0)), uids)
        key = b.register(ctx1, stream_spec(cfg, 1))
        a.close()
        res = b.run(key, uids)
        assert len(_threads(b)) == b.n_workers
    finally:
        a.close()
        b.close()
    ref = run_walks(ctx1, WalkStreams(77, 1), uids)
    assert np.array_equal(ref.omega, res.omega)
    assert np.array_equal(ref.dest, res.dest)


def _within(seconds, fn):
    """Run ``fn`` on a daemon thread, so a regression fails the test
    instead of hanging it; returns the exception ``fn`` raised, if any."""
    raised = []

    def call():
        try:
            fn()
        except Exception as exc:  # handed back to the test
            raised.append(exc)

    worker = threading.Thread(target=call, daemon=True)
    worker.start()
    worker.join(timeout=seconds)
    assert not worker.is_alive()
    return raised[0] if raised else None


def test_close_with_batches_in_flight_is_bounded(plates):
    """close() with queue entries still out stops every worker at its
    next batch boundary and joins it; the closed executor rejects a
    further wait."""
    cfg = FRWConfig.frw_r(seed=77, antithetic=False)
    ctx = build_context(plates, 0, cfg)
    ex = PersistentExecutor(2)
    key = ex.register(ctx, stream_spec(cfg, 0))
    for part in np.split(np.arange(6144, dtype=np.uint64), 6):
        ex.submit(key, part, 2)
    threads = _threads(ex)
    assert _within(30, ex.close) is None
    assert len(threads) == 2 and not any(t.is_alive() for t in threads)
    with pytest.raises(ConfigError):
        ex.next_done()


EXIT_WITH_AN_OPEN_EXECUTOR = """\
import numpy as np
from repro import Box, Conductor, FRWConfig, Structure
from repro.frw import PersistentExecutor, build_context, stream_spec

plates = Structure(
    [
        Conductor.single("P1", Box.from_bounds(-2, 2, -2, 2, 0.0, 0.25)),
        Conductor.single("P2", Box.from_bounds(-2, 2, -2, 2, 0.75, 1.0)),
    ],
    enclosure=Box.from_bounds(-6, 6, -6, 6, -5, 6),
)
cfg = FRWConfig.frw_r(seed=5)
EXECUTOR = PersistentExecutor(2)
key = EXECUTOR.register(build_context(plates, 0, cfg), stream_spec(cfg, 0))
EXECUTOR.run(key, np.arange(64))
"""


def test_exit_with_an_open_executor_does_not_hang(tmp_path):
    """A process that exits while a module global still holds an open
    executor exits at once: collected during interpreter finalization,
    the executor does not wait for worker threads that can no longer
    run."""
    import subprocess

    script = tmp_path / "exit_open.py"
    script.write_text(EXIT_WITH_AN_OPEN_EXECUTOR)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, str(script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "Exception ignored" not in done.stderr


@pytest.mark.parametrize("n_workers", [1, 2])
def test_worker_error_reaches_the_caller_with_its_type(
    plates, monkeypatch, n_workers
):
    """A vector's error reaches ``extract()`` with its own type, whether
    the vector is in-process or on a worker thread, and the executor
    then serves the next extraction, whose rows are a fresh one's."""
    good = FRWConfig.frw_r(seed=13, batch_size=256, min_walks=512, max_walks=512)

    def too_wide(*args, **kwargs):
        """A context whose absorption tolerance is wider than the Gaussian
        surface offset: its walks absorb before their first hop."""
        ctx = build_context(*args, **kwargs)
        return dataclasses.replace(ctx, absorb_tol=4.0 * ctx.surface.delta)

    with PersistentExecutor(n_workers) as ex:
        with monkeypatch.context() as mp:
            mp.setattr(solver_module, "build_context", too_wide)
            with FRWSolver(plates, good, executor=ex) as solver:
                raised = _within(60, solver.extract)
        assert isinstance(raised, ConvergenceError)
        assert "absorbed before its first hop" in str(raised)
        with FRWSolver(plates, good, executor=ex) as solver:
            got = solver.extract()
        threads = _threads(ex)
    with FRWSolver(plates, good) as fresh:
        ref = fresh.extract()
    assert got.matrix.values.tobytes() == ref.matrix.values.tobytes()
    assert not any(t.is_alive() for t in threads)


def test_many_workers_share_one_index_under_stress(three_wires):
    """Eight worker threads on fewer cores, with the interpreter switching
    threads every microsecond: the vectors start at once on a fresh
    index, each holding the descriptor it points at, and count their
    queries into that one index under its lock.  The rows are still the
    serial ones, and the index's counters stay consistent."""
    cfg = FRWConfig.frw_r(
        seed=13, batch_size=128, min_walks=256, max_walks=1024,
        tolerance=2e-2, executor="process", n_workers=8,
    )
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with FRWSolver(three_wires, cfg) as solver:
            error = _within(120, lambda: results.append(solver.extract()))
    finally:
        sys.setswitchinterval(interval)
    with FRWSolver(three_wires, cfg.with_(executor="serial")) as solver:
        ref = solver.extract()
    assert error is None
    (result,) = results
    qs = result.matrix.meta["schedule"]["query_stats"]
    assert qs["points"] == qs["far_field_hits"] + qs["near_points"]
    assert result.matrix.values.tobytes() == ref.matrix.values.tobytes()
    assert result.raw_matrix.sigma2.tobytes() == ref.raw_matrix.sigma2.tobytes()


def test_closed_executor_rejects_work(plates):
    """A closed executor raises instead of restarting its workers."""
    cfg = FRWConfig.frw_r(seed=77)
    ctx0 = build_context(plates, 0, cfg)
    ctx1 = build_context(plates, 1, cfg)
    uids = np.arange(200, dtype=np.uint64)
    ex = PersistentExecutor(2)
    key = ex.register(ctx0, stream_spec(cfg, 0))
    ex.run(key, uids)
    ex.close()
    with pytest.raises(ConfigError):
        ex.register(ctx1, stream_spec(cfg, 1))
    with pytest.raises(ConfigError):
        ex.run(key, uids)
    with pytest.raises(ConfigError):
        ex.submit(key, uids)
    ex.close()
    assert ex._workers == []


def test_resolve_workers_prefers_affinity(monkeypatch):
    """Auto worker count must follow the CPUs this process may run on
    (cgroup/taskset limits), not the host's total CPU count."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert resolve_workers(0) == 2
    assert resolve_workers(5) == 5  # explicit counts pass through


def test_resolve_workers_affinity_fallback(monkeypatch):
    def boom(pid):
        raise OSError("no affinity syscall")

    monkeypatch.setattr(os, "sched_getaffinity", boom, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert resolve_workers(0) == 3


def test_worker_count_picks_the_executor():
    """One worker runs in-process, more start worker threads, a negative
    count is an error, and a config's ``executor="serial"`` means one
    worker."""
    with pytest.raises(ConfigError, match="n_workers"):
        PersistentExecutor(-1)
    for cfg, n in [
        (FRWConfig(executor="serial", n_workers=4), 1),
        (FRWConfig(executor="process", n_workers=1), 1),
        (FRWConfig(executor="process", n_workers=2), 2),
    ]:
        with PersistentExecutor.for_config(cfg) as ex:
            assert ex.n_workers == n
            assert (ex._vector is not None) == (n == 1)


def test_pipelined_runner_counts_speculation(plates):
    """Look-ahead dispatches batches the stopping rule then discards; the
    driver must surface them so the telemetry stays honest."""
    cfg = FRWConfig.frw_r(
        seed=13, batch_size=128, min_walks=256, max_walks=256,
        executor="process", n_workers=2,
    )
    row, stats = extract_row_alg2(build_context(plates, 0, cfg))
    assert stats.dispatched_batches == stats.batches + stats.discarded_batches
    assert stats.discarded_batches >= 1  # lookahead ran past the stop
    assert stats.discarded_walks == stats.discarded_batches * 128


@pytest.fixture
def launched(monkeypatch):
    """Walks launched into any engine vector: the launched count of each
    compiled ``advance`` call that launched any."""
    sizes = []
    advance = WalkPipeline._advance

    def counting_advance(self):
        status = advance(self)
        if self._arena.launched:
            sizes.append(self._arena.launched)
        return status

    monkeypatch.setattr(WalkPipeline, "_advance", counting_advance)
    return sizes


@pytest.mark.parametrize("lookahead", [0, 1, 3])
def test_serial_discarded_walks_are_launched_minus_counted(
    plates, monkeypatch, launched, lookahead
):
    """``discarded_walks`` reports exactly the walks launched for a master
    that never reached its row.  Serial masters that share the vector
    hold one batch each, so a multi-master extraction launches only the
    walks it counts; a lone master's next batch fills the slots its
    current one frees, so it runs past the stop (except without
    lookahead)."""
    monkeypatch.setattr(cross_master, "PIPELINE_LOOKAHEAD", lookahead)
    cfg = FRWConfig.frw_r(
        seed=13, batch_size=256, min_walks=512, max_walks=512,
        executor="serial",
    )
    with FRWSolver(plates, cfg) as solver:
        result = solver.extract()  # two masters on one shared vector
    assert result.matrix.meta["schedule"]["discarded_walks"] == 0
    assert sum(launched) == result.total_walks
    launched.clear()
    row, stats = extract_row_alg2(build_context(plates, 0, cfg))
    assert stats.discarded_walks == sum(launched) - row.walks
    assert (stats.discarded_walks > 0) == (lookahead > 0)


def _open_field():
    """The benchmark suite's ``open_field_tol`` structure."""
    wires = [
        Conductor.single(
            f"w{i}", Box.from_bounds(2.0 * i, 2.0 * i + 1.0, 0, 8, 0, 1)
        )
        for i in range(3)
    ]
    return Structure(wires, enclosure=Box.from_bounds(-20, 25, -20, 28, -20, 21))


@pytest.mark.parametrize(
    "case, overrides, max_discarded, row0_walks",
    [
        ("open_field", dict(tolerance=2.2e-2, h_cap_fraction=0.05), 0, 61_250),
        ("case5", dict(tolerance=7e-2), 1_250, 13_750),
    ],
    ids=["open_field", "case5"],
)
def test_serial_schedule_on_suite_structures(
    launched, case, overrides, max_discarded, row0_walks
):
    """At FRW seed 145 a serial ``extract()`` on the suite's open-field
    and SRAM structures discards at most one batch (a per-master
    look-ahead discarded 30,000 and 290,000 walks), and a lone master
    launches only the walks it counts: it takes no batch its predicted
    stop does not clear (one batch past the stop launched 80,000 and
    30,000), and before its first checkpoint it fills one vector only."""
    structure = _open_field() if case == "open_field" else build_case(5)
    cfg = FRWConfig.frw_rr(
        seed=145, executor="serial", antithetic=False, **overrides
    )
    with FRWSolver(structure, cfg) as solver:
        result = solver.extract()
        assert result.matrix.meta["schedule"]["discarded_walks"] <= max_discarded
        assert sum(launched) - result.total_walks <= max_discarded
        launched.clear()
        row, _ = solver.extract_row(0)
    assert sum(launched) == row.walks == row0_walks


def test_serial_masters_share_one_vector(three_wires, monkeypatch):
    """A serial extraction of several masters builds one vector, its
    executor's, and queues every master's batches on it."""
    built, keys = [], set()
    init, submit = WalkPipeline.__init__, WalkPipeline.submit

    def counting_init(self, *args, **kwargs):
        built.append(self)
        return init(self, *args, **kwargs)

    def recording_submit(self, seq, key, *args):
        keys.add((self, key))
        return submit(self, seq, key, *args)

    monkeypatch.setattr(WalkPipeline, "__init__", counting_init)
    monkeypatch.setattr(WalkPipeline, "submit", recording_submit)
    cfg = FRWConfig.frw_r(
        seed=13, batch_size=256, min_walks=512, max_walks=1536,
        tolerance=2e-2, executor="serial",
    )
    with FRWSolver(three_wires, cfg) as solver:
        solver.extract()
        assert built == [solver.walk_executor()._vector]
    assert len(keys) == len(three_wires.conductors)


def test_discarded_unfed_batch_is_never_launched(plates, launched):
    """A one-worker batch runs only when the vector reaches it: discarded
    while still queued it launches nothing, and discarded after the
    vector fed it, it reports the walks launched so far."""
    cfg = FRWConfig.frw_r(seed=77, antithetic=False)
    ctx = build_context(plates, 0, cfg)
    uids = np.arange(256, dtype=np.uint64)
    with PersistentExecutor(1) as ex:
        key = ex.register(ctx, stream_spec(cfg, 0))
        a, b = ex.submit(key, uids[:64]), ex.submit(key, uids[64:128])
        assert launched == []
        assert ex.discard(b) == 0
        done, res = ex.next_done()
        assert done == a and sum(launched) == 64
        c, d = ex.submit(key, uids[128:192]), ex.submit(key, uids[192:])
        assert ex.next_done()[0] == c
        assert 0 < ex.discard(d) == sum(launched) - 128
    ref = run_walks(ctx, WalkStreams(77, 0), uids[:64])
    assert np.array_equal(res.omega, ref.omega)
    assert np.array_equal(res.steps, ref.steps)


def test_discarded_launching_batch_stops_launching(plates, launched):
    """Discarding the batch the one-worker vector is launching stops its
    launches while a later batch is live: it runs only the walks
    ``discard`` reports, and the later batch is unchanged."""
    cfg = FRWConfig.frw_r(seed=77, antithetic=False)
    ctx = build_context(plates, 0, cfg)
    uids = np.arange(64 + 2048 + 64, dtype=np.uint64)
    with PersistentExecutor(1) as ex:
        key = ex.register(ctx, stream_spec(cfg, 0))
        a = ex.submit(key, uids[:64])
        b = ex.submit(key, uids[64:2112], 1, 64)
        c = ex.submit(key, uids[2112:])
        assert ex.next_done()[0] == a
        reported = ex.discard(b)
        assert 0 < reported < 2048
        done, res = ex.next_done()
        assert done == c
    assert sum(launched) == 128 + reported
    ref = run_walks(ctx, WalkStreams(77, 0), uids[2112:])
    assert np.array_equal(res.omega, ref.omega)
    assert np.array_equal(res.steps, ref.steps)


def test_one_serial_executor_serves_several_structures(plates, three_wires):
    """The service pattern: one serial executor lent to solvers of
    different structures, one after another, gives the rows of fresh
    executors byte for byte."""
    cfg = FRWConfig.frw_r(
        seed=13, batch_size=256, min_walks=512, max_walks=1024,
        tolerance=2e-2, executor="serial",
    )
    structures = [three_wires, plates, three_wires]
    with PersistentExecutor(1) as shared:
        for structure in structures:
            with FRWSolver(structure, cfg, executor=shared) as solver:
                got = solver.extract()
            with FRWSolver(structure, cfg) as fresh:
                ref = fresh.extract()
            assert got.matrix.values.tobytes() == ref.matrix.values.tobytes()
            assert got.raw_matrix.sigma2.tobytes() == ref.raw_matrix.sigma2.tobytes()
            assert got.total_walks == ref.total_walks


def test_borrowed_executor_serves_any_config(three_wires):
    """A solver runs on whatever executor it is lent: a 2-worker executor
    lent to a ``executor="serial"`` config gives the rows of the
    solver's own in-process executor byte for byte."""
    cfg = FRWConfig.frw_r(
        seed=13, batch_size=256, min_walks=512, max_walks=1024,
        tolerance=2e-2, executor="serial",
    )
    with PersistentExecutor(2) as lent:
        with FRWSolver(three_wires, cfg, executor=lent) as solver:
            got = solver.extract()
    with FRWSolver(three_wires, cfg) as own:
        ref = own.extract()
    assert got.matrix.values.tobytes() == ref.matrix.values.tobytes()
    assert got.raw_matrix.sigma2.tobytes() == ref.raw_matrix.sigma2.tobytes()
    assert got.total_walks == ref.total_walks
