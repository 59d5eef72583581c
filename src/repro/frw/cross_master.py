"""The Alg. 2 batch driver: every reproducible extraction, one master or
many, runs here (Sec. IV multi-level parallelism, realised over the real
executors).

All masters' batch streams interleave over the one
:class:`~repro.frw.parallel.PersistentExecutor`, so master ``i``'s
convergence tail never idles the pool while master ``i+1`` waits:

* every master keeps its own UID stream, batch order, accumulator, machine
  RNG, and Alg. 2 global checkpoints through
  :class:`~repro.frw.alg2_reproducible.RowProgress`, and its own
  :class:`~repro.frw.parallel.BatchRunner`;
* after every checkpoint round the in-flight budget
  ``total = max(live masters, 2 * workers)`` is split evenly over the
  ``L`` live masters — ``total // L`` each, one more for the first
  ``total % L`` (:func:`inflight_quotas`) — and each master holds at most
  ``1 + PIPELINE_LOOKAHEAD`` batches of it, so a lone master's tail
  cannot flood the pool with batches it will discard;
* each allocation round sends its ``k`` new batches, of all masters, in
  one :meth:`~repro.frw.parallel.PersistentExecutor.run_async` call with
  ``min(workers, k * c)`` work items, where ``c = ceil(workers / live)``
  is the per-batch item count: a batch spreads over the workers the live
  masters leave idle.  When ``k * c <= workers`` every batch is cut into
  ``c`` items of its own, as if it were dispatched alone; otherwise each
  worker gets one item whose engine vector refills from batch to batch,
  so the batches' drain tails overlap instead of running back to back.
  At one worker (serial) the live masters share one engine vector: two
  or more hold one batch each and speculate nothing, and a lone master's
  second batch fills its tail.

Reproducibility: a master's row is a pure function of its accumulated
batch prefix (results are schedule-independent, accumulation happens in
batch order through ``RowProgress``), the quota only decides *which*
speculative batches are in flight, and packing only decides which walks
share an engine vector — never a batch's contents.  Every row is
therefore bit-identical at any backend, worker count or master count.

Large master sets are admitted in *waves* of :func:`resolve_wave`
masters: a master's context is built — and, on the process backend,
published to the shared-memory plane — only when its wave is admitted,
so a large structure never holds every context at once, and admission
never waits on in-flight batches.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

import numpy as np

from ..config import FRWConfig
from .alg2_reproducible import RowProgress, RunStats
from .context import ExtractionContext
from .estimator import CapacitanceRow
from .parallel import BatchRunner, PendingBatch, PersistentExecutor

#: Batches a master may run ahead of the one being gathered: the driver
#: keeps at most ``1 + PIPELINE_LOOKAHEAD`` of a master's batches in flight
#: on any executor.  Bit-invisible; deeper look-ahead only discards more
#: work when the stopping rule fires.
PIPELINE_LOOKAHEAD = 1


class _MasterRun:
    """In-flight extraction state of one master under the scheduler."""

    __slots__ = (
        "master",
        "progress",
        "runner",
        "inflight",
        "next_dispatch",
        "next_accum",
        "done",
        "row",
        "stats",
    )

    def __init__(
        self,
        master: int,
        ctx: ExtractionContext,
        cfg: FRWConfig,
        executor: PersistentExecutor,
    ):
        self.master = master
        self.progress = RowProgress(ctx, cfg)
        self.runner = BatchRunner(ctx, cfg, executor)
        self.inflight: dict[int, PendingBatch] = {}
        self.next_dispatch = 0
        self.next_accum = 0
        self.done = False
        self.row: CapacitanceRow | None = None
        self.stats: RunStats | None = None

    def next_batch(self) -> int:
        """Reserve this master's next batch index (UIDs are fixed by the
        batch index, so dispatch order across masters is irrelevant)."""
        u = self.next_dispatch
        self.next_dispatch = u + 1
        self.progress.stats.dispatched_batches += 1
        return u

    def harvest_next(self) -> bool:
        """Absorb the next in-order batch; returns ``True`` when the
        stopping rule fired (remaining in-flight batches are discarded)."""
        results = self.inflight[self.next_accum].result()
        del self.inflight[self.next_accum]
        self.next_accum += 1
        if self.progress.absorb(results):
            self.done = True
            stats = self.progress.stats
            stats.discarded_batches += len(self.inflight)
            stats.discarded_walks += sum(
                h.discard() for h in self.inflight.values()
            )
            self.inflight.clear()
            self.row, self.stats = self.progress.finalize()
        return self.done


def resolve_wave(n_workers: int) -> int:
    """Masters admitted per scheduler wave."""
    return max(8, 2 * n_workers)


def inflight_quotas(live: int, workers: int) -> np.ndarray:
    """In-flight batch quota of each of ``live`` masters: the budget
    ``max(live, 2 * workers)`` split evenly, one more for the first
    ``budget % live`` masters, capped at ``1 + PIPELINE_LOOKAHEAD``."""
    total = max(live, 2 * workers)
    head = np.arange(live) < total % live
    return np.minimum(total // live + head, 1 + PIPELINE_LOOKAHEAD)


def extract_rows_interleaved(
    masters: list[int],
    config: FRWConfig,
    context_for: Callable[[int], ExtractionContext],
    executor: PersistentExecutor,
    thread_overrides: dict[int, int] | None = None,
) -> tuple[list[CapacitanceRow], list[RunStats]]:
    """Extract all masters' rows as one interleaved batch stream.

    ``context_for`` supplies (and may cache) per-master contexts —
    typically ``FRWSolver.context``.  ``thread_overrides`` maps a master
    to the virtual-thread DOP its accumulation replays at (multi-level
    group plans); walk samples are DOP-independent, so overrides move
    only the last floating-point bits, exactly as in the serial path.

    Returns ``(rows, stats)`` aligned with ``masters``; every row is
    bit-identical to the same master extracted alone, serially, with the
    same per-master config.
    """
    workers = executor.n_workers
    wave = resolve_wave(workers)
    overrides = thread_overrides or {}

    def master_config(master: int) -> FRWConfig:
        t = overrides.get(master)
        if t is None or t == config.n_threads:
            return config
        return config.with_(n_threads=max(1, t))

    pending = deque(masters)
    active: list[_MasterRun] = []

    def activate_wave() -> None:
        live = sum(1 for st in active if not st.done)
        take = min(wave - live, len(pending))
        for _ in range(take):
            m = pending.popleft()
            active.append(
                _MasterRun(m, context_for(m), master_config(m), executor)
            )

    activate_wave()
    try:
        while True:
            live = [st for st in active if not st.done]
            if not live:
                if not pending:
                    break
                activate_wave()
                live = [st for st in active if not st.done]

            # Allocation round: decide each live master's in-flight quota.
            n = len(live)
            new = []
            for st, quota in zip(live, inflight_quotas(n, workers)):
                st.progress.stats.allocation_rounds += 1
                new += [
                    (st, st.next_batch())
                    for _ in range(quota - len(st.inflight))
                ]
            # One call per round: c items per batch (a batch over the
            # workers the live masters leave idle), packed into at most one
            # item per worker.
            c = -(-workers // n)
            handles = executor.run_async(
                [st.runner.request(u) for st, u in new],
                min(workers, len(new) * c),
            )
            for (st, u), handle in zip(new, handles):
                st.inflight[u] = handle

            # Harvest round: every live master absorbs its next in-order
            # batch and runs its own global checkpoint.
            finished_any = False
            for st in live:
                if st.harvest_next():
                    finished_any = True
            if finished_any and pending:
                activate_wave()
    finally:
        # Abandon batches an error left in flight (done masters hold
        # none): a one-worker executor's shared vector must not keep them.
        for st in active:
            for handle in st.inflight.values():
                handle.discard()

    by_master = {st.master: st for st in active}
    rows = [by_master[m].row for m in masters]
    stats = [by_master[m].stats for m in masters]
    return rows, stats
