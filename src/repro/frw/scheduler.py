"""Deterministic simulation of dynamically-scheduled worker threads.

Reproducibility in parallel FRW is a property of *which walk runs on which
thread and in which order partial sums merge* — not of the physical cores.
This module simulates that scheduling exactly: walks are dispatched from a
shared queue in UID order to whichever of the ``T`` virtual threads frees
first, with walk durations taken from the actual per-walk step counts times
a seeded "machine timing noise" factor.  Two runs with different thread
counts or different machine seeds produce different per-thread accumulation
orders — precisely the perturbation whose effect on the final digits the
Table II experiment measures — while the *walk samples themselves* are
untouched (they come from per-walk counter streams).

The same simulation doubles as the Fig. 5 performance model: the modeled
parallel runtime is the sum of the batch makespans times the run's
measured seconds per work unit,
``t(T) = sum_batches makespan_T(batch) * s``, which exposes the
load-balancing behaviour of the dynamic queue versus static block
assignment.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np


@dataclass
class ScheduleResult:
    """Outcome of a simulated batch schedule."""

    #: Per-thread walk positions (indices into the batch) in fetch order.
    thread_order: list[np.ndarray]
    #: Per-thread total work (sum of jittered durations).
    thread_work: np.ndarray
    #: Per-thread finish time.
    thread_finish: np.ndarray

    @property
    def makespan(self) -> float:
        """Parallel completion time of the batch (max thread finish)."""
        return float(self.thread_finish.max()) if self.thread_finish.size else 0.0

    @property
    def total_work(self) -> float:
        """Serial work equivalent."""
        return float(self.thread_work.sum())

    @property
    def efficiency(self) -> float:
        """Load-balance efficiency: total work / (T * makespan)."""
        span = self.makespan
        if span == 0.0:
            return 1.0
        return self.total_work / (self.thread_work.shape[0] * span)


#: Relative timing noise of the simulated machine.
MACHINE_JITTER = 0.05


def jittered_durations(
    steps: np.ndarray, rng: np.random.Generator | None
) -> np.ndarray:
    """Walk durations: step counts scaled by multiplicative timing noise.

    The noise (relative amplitude :data:`MACHINE_JITTER`) models OS
    scheduling/cache effects; it is drawn from ``rng`` (the *machine* RNG)
    and never touches walk samples.  Without an ``rng`` the durations are
    exactly ``steps + 1``.
    """
    durations = np.asarray(steps, dtype=np.float64) + 1.0
    if rng is not None:
        noise = 1.0 + MACHINE_JITTER * rng.standard_normal(durations.shape[0])
        durations = durations * np.clip(noise, 0.05, None)
    return durations


def simulate_dynamic_queue(
    durations: np.ndarray, n_threads: int
) -> ScheduleResult:
    """Dynamic task-queue schedule: next walk goes to the first free thread.

    Deterministic given ``durations`` and ``n_threads`` (ties broken by
    thread index).  This is the load-balancing scheme of Sec. III-C.
    """
    durations = np.asarray(durations, dtype=np.float64)
    n = durations.shape[0]
    t_count = max(1, int(n_threads))
    if t_count == 1:
        # cumsum adds in walk order from the heap loop's 0.0 start: same bits.
        total = np.cumsum(np.concatenate(([0.0], durations)))[-1:]
        return ScheduleResult([np.arange(n, dtype=np.int64)], total, total.copy())
    orders: list[list[int]] = [[] for _ in range(t_count)]
    work = np.zeros(t_count, dtype=np.float64)
    heap: list[tuple[float, int]] = [(0.0, t) for t in range(t_count)]
    heapq.heapify(heap)
    for walk in range(n):
        available, thread = heapq.heappop(heap)
        orders[thread].append(walk)
        work[thread] += durations[walk]
        heapq.heappush(heap, (available + durations[walk], thread))
    finish = np.zeros(t_count, dtype=np.float64)
    while heap:
        available, thread = heapq.heappop(heap)
        finish[thread] = available
    return ScheduleResult(
        thread_order=[np.array(o, dtype=np.int64) for o in orders],
        thread_work=work,
        thread_finish=finish,
    )


def simulate_static_blocks(
    durations: np.ndarray, n_threads: int
) -> ScheduleResult:
    """Static contiguous-block assignment (ablation for load balancing).

    Thread ``t`` gets walks ``[t*B/T, (t+1)*B/T)``; with highly divergent
    walk lengths this leaves threads idle, which the dynamic queue avoids.
    """
    durations = np.asarray(durations, dtype=np.float64)
    n = durations.shape[0]
    t_count = max(1, int(n_threads))
    bounds = np.linspace(0, n, t_count + 1).astype(np.int64)
    orders = [np.arange(bounds[t], bounds[t + 1], dtype=np.int64) for t in range(t_count)]
    work = np.array([float(durations[o].sum()) for o in orders])
    return ScheduleResult(
        thread_order=orders, thread_work=work, thread_finish=work.copy()
    )
