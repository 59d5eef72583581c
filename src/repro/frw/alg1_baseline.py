"""Alg. 1 — the baseline parallel FRW scheme of [1].

Each of the ``T`` threads owns a private PRNG (seeded ``s + t``) and a
private accumulator, and runs walks until *its own* estimated relative error
drops below ``eps * sqrt(T)``; the ``T`` accumulators are then merged.  With
a fixed ``T`` the per-thread walk sequences are deterministic, so results
reproduce up to the merge order (which depends on thread completion order —
the "fragile" part the paper notes); with a different ``T`` the allocation
``eps * sqrt(T)`` and the per-thread streams change entirely and the merged
result moves at the level of the statistical error itself (RI ~ 0).

Thread ``t``'s walk ``k`` is identified by UID ``(t << 40) | k`` so the
engine's per-walk streams emulate a private sequential PRNG per thread: the
walk *set* is thread-local, exactly as in [1].
"""

from __future__ import annotations

import time

import numpy as np

from ..config import FRWConfig
from .alg2_reproducible import RunStats, machine_rng, make_streams
from .context import ExtractionContext
from .engine import run_walks
from .estimator import CapacitanceRow, RowAccumulator
from .scheduler import jittered_durations

#: Bits reserved for the per-thread walk sequence number.
_THREAD_SHIFT = 40


def extract_row_alg1(
    ctx: ExtractionContext,
    config: FRWConfig | None = None,
) -> tuple[CapacitanceRow, RunStats]:
    """Extract one row with the fixed-DOP-reproducible baseline scheme."""
    cfg = config if config is not None else ctx.config
    n = ctx.n_conductors
    t_count = cfg.n_threads
    thread_tol = cfg.tolerance * np.sqrt(t_count)
    streams = make_streams(cfg, ctx.master)
    rng_machine = machine_rng(cfg, ctx.master)
    stats = RunStats(thread_work=np.zeros(t_count))
    t_start = time.perf_counter()

    thread_accs: list[RowAccumulator] = []
    finish_times = np.zeros(t_count, dtype=np.float64)
    per_thread_min = max(2, cfg.min_walks // t_count)
    per_thread_max = max(per_thread_min, cfg.max_walks // t_count)
    converged_all = True

    for t in range(t_count):
        acc = RowAccumulator(n, ctx.master, summation=cfg.summation)
        seq = 0
        elapsed = 0.0
        converged = False
        while not converged:
            uids = (np.uint64(t) << np.uint64(_THREAD_SHIFT)) + np.arange(
                seq, seq + cfg.check_every, dtype=np.uint64
            )
            results = run_walks(ctx, streams, uids)
            # Thread-local sequential accumulation (walk order = stream order).
            acc.add_walks_ordered(results.omega, results.dest, results.steps)
            durations = jittered_durations(results.steps, rng_machine)
            # det: allow(DET005) simulated-clock bookkeeping, not a sample
            # statistic: order is fixed (sequential per thread) and the value
            # only decides the merge permutation Alg. 1 is *meant* to expose.
            elapsed += float(durations.sum())
            stats.truncated += results.truncated
            seq += cfg.check_every
            if seq >= per_thread_min and acc.self_relative_error < thread_tol:
                converged = True
            elif seq >= per_thread_max:
                converged_all = False
                break
        thread_accs.append(acc)
        finish_times[t] = elapsed
        stats.thread_work[t] = elapsed

    # Merge in completion order — the physically realistic (and fragile)
    # order in which threads hand in their partial results.  With similar
    # per-thread loads the completion order is effectively an arbitrary
    # permutation decided by the OS scheduler, so tiny timing noise is added
    # to break ties the way a real machine would.
    completion = finish_times * (
        1.0 + 1e-3 * rng_machine.standard_normal(t_count)
    )
    merged = RowAccumulator(n, ctx.master, summation=cfg.summation)
    for t in np.argsort(completion, kind="stable"):
        merged.merge(thread_accs[int(t)])

    stats.walks = merged.walks
    stats.total_steps = merged.total_steps
    stats.batches = 0
    stats.makespan = float(finish_times.max())
    stats.converged = converged_all
    stats.wall_time = time.perf_counter() - t_start
    return merged.row(), stats
