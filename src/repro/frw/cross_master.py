"""Cross-master interleaved extraction scheduler (Sec. IV multi-level
parallelism, realised over the real executors).

``FRWSolver.extract`` historically ran masters one after another: master
``i``'s convergence tail (a last ragged batch draining on one worker)
idled the rest of the pool while master ``i+1`` had not started.  This
module interleaves *all* masters' batch streams over the one
:class:`~repro.frw.parallel.PersistentExecutor`:

* every master keeps its own UID stream, batch order, accumulator, machine
  RNG, and Alg. 2 global checkpoints — exactly the per-master state of
  :func:`~repro.frw.alg2_reproducible.extract_row_alg2`, shared through
  :class:`~repro.frw.alg2_reproducible.RowProgress`;
* batches from different masters are dispatched concurrently — whole
  (full engine vector width) while enough masters fill the pool, chunked
  and reassembled in UID order when live masters run short of workers —
  so the pool only goes idle when *every* unconverged master's next
  batch is in flight;
* the in-flight budget ``max(live masters, 2 * workers)`` is split evenly
  over the live masters (:func:`~repro.frw.scheduler.allocate_quota`)
  after every checkpoint round.

Reproducibility: a master's row is a pure function of its accumulated
batch prefix (results are schedule-independent, accumulation happens in
batch order through ``RowProgress``), and the quota only decides *which*
speculative batches are in flight — never their contents.  Every row is
therefore bit-identical to the serial per-master extraction
(``FRWSolver.extract_row``), at any backend or worker count.

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
from .parallel import (
    PendingBatch,
    PersistentExecutor,
    make_batch_runner,
    stream_spec,
)
from .scheduler import allocate_quota


class _MasterRun:
    """In-flight extraction state of one master under the scheduler."""

    __slots__ = (
        "master",
        "ctx",
        "cfg",
        "progress",
        "key",
        "runner",
        "executor",
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
        executor: PersistentExecutor | None,
    ):
        self.master = master
        self.ctx = ctx
        self.cfg = cfg
        self.progress = RowProgress(ctx, cfg)
        self.executor = executor
        self.inflight: dict[int, PendingBatch] = {}
        self.next_dispatch = 0
        self.next_accum = 0
        self.done = False
        self.row: CapacitanceRow | None = None
        self.stats: RunStats | None = None
        if executor is not None:
            self.key = executor.register(ctx, stream_spec(cfg, master))
            self.runner = None
        else:
            # Serial fallback: a persistent per-master engine pipeline;
            # dispatch is lazy (PendingBatch thunks), so speculative
            # batches past the stopping rule are never computed.
            self.key = None
            serial = cfg.with_(executor="serial")
            self.runner, _ = make_batch_runner(ctx, serial)

    def dispatch_next(self, max_chunks: int | None = None) -> None:
        """Put this master's next batch in flight (UIDs are fixed by the
        batch index, so dispatch order across masters is irrelevant).

        ``max_chunks`` caps intra-batch splitting: with many masters in
        flight the pool is already full of whole batches, and full-width
        engine vectors beat fine chunking (chunking never changes the
        row — only the schedule)."""
        u = self.next_dispatch
        base = u * self.cfg.batch_size
        uids = np.arange(base, base + self.cfg.batch_size, dtype=np.uint64)
        if self.executor is not None:
            handle = self.executor.run_async(self.key, uids, max_chunks)
        else:
            runner = self.runner
            handle = PendingBatch(uids, thunk=lambda: runner.run_batch(u))
        self.inflight[u] = handle
        self.next_dispatch = u + 1
        self.progress.stats.dispatched_batches += 1

    def harvest_next(self) -> bool:
        """Absorb the next in-order batch; returns ``True`` when the
        stopping rule fired (remaining in-flight batches are discarded)."""
        handle = self.inflight.pop(self.next_accum)
        self.next_accum += 1
        if self.progress.absorb(handle.result()):
            self.done = True
            stats = self.progress.stats
            stats.discarded_batches += len(self.inflight)
            stats.discarded_walks += sum(
                h.uids.shape[0] for h in self.inflight.values()
            )
            self.inflight.clear()
            if self.runner is not None:
                self.runner.close()
                stats.discarded_walks += self.runner.discarded_walks
                self.runner = None
            self.row, self.stats = self.progress.finalize()
        return self.done


def resolve_wave(n_workers: int) -> int:
    """Masters admitted per scheduler wave."""
    return max(8, 2 * n_workers)


def extract_rows_interleaved(
    masters: list[int],
    config: FRWConfig,
    context_for: Callable[[int], ExtractionContext],
    executor: PersistentExecutor | None = None,
    thread_overrides: dict[int, int] | None = None,
) -> tuple[list[CapacitanceRow], list[RunStats]]:
    """Extract all masters' rows as one interleaved batch stream.

    ``context_for`` supplies (and may cache) per-master contexts —
    typically ``FRWSolver.context``.  ``thread_overrides`` maps a master
    to the virtual-thread DOP its accumulation replays at (multi-level
    group plans); walk samples are DOP-independent, so overrides move
    only the last floating-point bits, exactly as in the serial path.

    Returns ``(rows, stats)`` aligned with ``masters``; every row is
    bit-identical to ``extract_row_alg2`` run per master with the same
    per-master config.
    """
    workers = executor.n_workers if executor is not None else 1
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
    while True:
        live = [st for st in active if not st.done]
        if not live:
            if not pending:
                break
            activate_wave()
            live = [st for st in active if not st.done]

        # Allocation round: decide each live master's in-flight quota.
        if executor is None:
            # Serial dispatch is lazy — speculation is free but useless,
            # so one (never-computed-until-harvest) batch per master.
            quotas = np.ones(len(live), dtype=np.int64)
        else:
            total = max(len(live), 2 * workers)
            quotas = allocate_quota(np.ones(len(live)), total, min_share=1)
        # Cross-master concurrency already fills the pool, so a batch
        # only splits when live masters are fewer than workers.
        max_chunks = -(-workers // len(live))
        for st, quota in zip(live, quotas):
            st.progress.stats.allocation_rounds += 1
            while len(st.inflight) < quota:
                st.dispatch_next(max_chunks)

        # Harvest round: every live master absorbs its next in-order
        # batch and runs its own global checkpoint.
        finished_any = False
        for st in live:
            if st.harvest_next():
                finished_any = True
        if finished_any and pending:
            activate_wave()

    by_master = {st.master: st for st in active}
    rows = [by_master[m].row for m in masters]
    stats = [by_master[m].stats for m in masters]
    return rows, stats
