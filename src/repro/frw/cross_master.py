"""The Alg. 2 batch driver: every reproducible extraction, one master or
many, runs here (Sec. IV multi-level parallelism, realised over the real
executors).

All masters' batch streams interleave over the one
:class:`~repro.frw.parallel.PersistentExecutor`, the way the paper
schedules Alg. 2's batches dynamically over its threads through a task
queue, each master checking its stopping rule after each of its own
batches:

* every master keeps its own UID stream, batch order, accumulator, machine
  RNG, and Alg. 2 global checkpoints through
  :class:`~repro.frw.alg2_reproducible.RowProgress`, and its own
  :class:`~repro.frw.parallel.BatchRunner`;
* a master is topped up to its in-flight quota when it is admitted and
  after each batch it absorbs: the budget ``max(live masters, 2 *
  workers)`` split evenly over the ``L`` live masters — ``budget // L``
  each, one more for the first ``budget % L`` (:func:`inflight_quotas`) —
  capped at ``1 + PIPELINE_LOOKAHEAD`` batches, so a lone master's tail
  cannot flood the workers with batches it will discard;
* while ``L * (1 + PIPELINE_LOOKAHEAD) < workers``, each batch is cut into
  ``ceil(workers / (L * (1 + PIPELINE_LOOKAHEAD)))`` pieces, so a lone
  master still spreads over every worker;
* there is no round barrier: the driver waits for the next batch completed
  on any worker and absorbs each master's batches in that master's batch
  order (a batch that arrives early waits in its master's buffer).  At one
  worker batches complete in submission order and the live masters share
  the one in-process vector: two or more hold one batch each and
  speculate nothing, and a lone master's second batch fills its tail.

Reproducibility: a master's row is a pure function of its accumulated
batch prefix (results are schedule-independent, accumulation happens in
batch order through ``RowProgress``); the quota only decides *which*
speculative batches are in flight, and completion order and piece cuts
only decide when and where walks run — never a batch's contents.  Every
row is therefore bit-identical at any backend, worker count or master
count.

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
from .engine import WalkResults
from .estimator import CapacitanceRow
from .parallel import BatchRunner, PersistentExecutor

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
        "arrived",
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
        self.inflight: dict[int, int] = {}  # batch -> ticket, until absorbed
        self.arrived: dict[int, WalkResults] = {}  # back, not yet absorbed
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

    def absorb_next(self) -> None:
        """Absorb the next batch in batch order, which has arrived; when
        the stopping rule fires the row is final, and the batches left in
        flight are the caller's to discard."""
        u = self.next_accum
        self.next_accum = u + 1
        del self.inflight[u]
        if self.progress.absorb(self.arrived.pop(u)):
            self.done = True
            self.row, self.stats = self.progress.finalize()


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
    owner: dict[int, tuple[_MasterRun, int]] = {}  # ticket -> (master, batch)

    def top_up(st: _MasterRun) -> None:
        """Dispatch batches until ``st`` holds its quota in flight."""
        live = [s for s in active if not s.done]
        quota = inflight_quotas(len(live), workers)[live.index(st)]
        pieces = -(-workers // (len(live) * (1 + PIPELINE_LOOKAHEAD)))
        st.progress.stats.allocation_rounds += 1
        while len(st.inflight) < quota:
            u = st.next_batch()
            ticket = executor.submit(*st.runner.request(u), pieces)
            st.inflight[u] = ticket
            owner[ticket] = (st, u)

    def activate_wave() -> None:
        live = sum(1 for st in active if not st.done)
        take = [pending.popleft() for _ in range(min(wave - live, len(pending)))]
        new = [
            _MasterRun(m, context_for(m), master_config(m), executor)
            for m in take
        ]
        active.extend(new)
        for st in new:
            top_up(st)

    try:
        activate_wave()
        while owner:
            # The next batch back on any worker; its master absorbs what
            # is now in batch order, running its own global checkpoints,
            # and is topped up after each batch it absorbs.
            ticket, results = executor.next_done()
            st, u = owner.pop(ticket)
            st.arrived[u] = results
            while not st.done and st.next_accum in st.arrived:
                st.absorb_next()
                if not st.done:
                    top_up(st)
            if not st.done:
                continue
            stats = st.progress.stats
            stats.discarded_batches += len(st.inflight)
            for u, ticket in sorted(st.inflight.items()):
                if u in st.arrived:
                    stats.discarded_walks += st.arrived[u].uids.shape[0]
                else:
                    del owner[ticket]
                    stats.discarded_walks += executor.discard(ticket)
            st.inflight.clear()
            st.arrived.clear()
            if pending:
                activate_wave()
    finally:
        # Abandon batches an error left in flight (done masters hold
        # none): no executor may keep running them.
        for st in active:
            for u, ticket in st.inflight.items():
                if u not in st.arrived:
                    executor.discard(ticket)

    by_master = {st.master: st for st in active}
    rows = [by_master[m].row for m in masters]
    stats = [by_master[m].stats for m in masters]
    return rows, stats
