"""The Alg. 2 batch driver: every reproducible extraction, one master or
many, runs here (Sec. III-C multi-level parallelism, realised over the real
executors).

All masters' batch streams interleave over the one
:class:`~repro.frw.parallel.PersistentExecutor`, the way the paper
schedules Alg. 2's batches dynamically over its threads through a task
queue, each master checking its stopping rule after each of its own
batches:

* every master keeps its own UID stream, batch order, accumulator, machine
  RNG, and Alg. 2 global checkpoints through
  :class:`~repro.frw.alg2_reproducible.RowProgress`, and its own
  :class:`~repro.frw.parallel.BatchRunner`, whose batches are ``b0``
  walks each, so it checkpoints every ``b0`` walks;
* the driver counts walks, not batches: it keeps about
  ``budget = (2 * workers + 1) * B`` walks in flight (:func:`walk_budget`),
  so every worker's ``B``-wide vector stays full however small the
  batches are;
* pending masters are admitted breadth-first, one first batch each, while
  the walks in flight are under the budget;
* a master is topped up to its share when it is admitted and after each
  batch it absorbs: ``min((1 + PIPELINE_LOOKAHEAD) * B, budget // L)``
  walks over the ``L`` live masters (:func:`walk_share`).  It takes its
  next batch only while that fits, and only while its predicted stop
  lies safely past the checkpoint before that batch (:meth:`_MasterRun.wants`);
  it always holds at least one batch.  The cap keeps a lone master's
  tail from flooding the workers, and the predicted stop keeps batches
  from being dispatched only to be discarded;
* while ``L * (1 + PIPELINE_LOOKAHEAD) < workers``, each batch is cut into
  ``ceil(workers / (L * (1 + PIPELINE_LOOKAHEAD)))`` pieces, so a lone
  master still spreads over every worker;
* there is no round barrier: the driver waits for the next batch completed
  on any worker and absorbs each master's batches in that master's batch
  order (a batch that arrives early waits in its master's buffer).  At one
  worker batches complete in submission order and the live masters share
  the one in-process vector.

Reproducibility: a master's row is a pure function of its accumulated
batch prefix (results are schedule-independent, the batch schedule depends
only on the config and the batch index, and accumulation happens in batch
order through ``RowProgress``); the budget only decides *which*
speculative batches are in flight, and completion order and piece cuts
only decide when and where walks run — never a batch's contents.  Every
row is therefore bit-identical at any backend, worker count or master
count.

A master's context is built and registered only when it is admitted, and
every live master holds at least one batch of at least ``b0`` walks, so at most
``ceil(budget / b0)`` masters are live at once and admission never waits
on in-flight batches.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable

from ..config import FRWConfig
from .alg2_reproducible import RowProgress, RunStats
from .context import ExtractionContext
from .engine import WalkResults
from .estimator import CapacitanceRow
from .parallel import BatchRunner, PersistentExecutor, checkpoint_walks

#: Batches a master may run ahead of the one being gathered: a master's
#: share of the walks in flight is capped at ``1 + PIPELINE_LOOKAHEAD``
#: batch sizes on any executor.  Bit-invisible; deeper look-ahead only
#: discards more work when the stopping rule fires.
PIPELINE_LOOKAHEAD = 1

#: A master takes a batch past those it holds only while its predicted
#: stop lies ``STOP_MARGIN`` deviations past the batch's first walk.  The
#: variance is the prediction's mean squared drift per walk (seeded with
#: ``DRIFT_PRIOR`` times the row's relative variance per walk) times the
#: walks ahead, times ``base / walks`` for a young row.  Bit-invisible.
STOP_MARGIN, DRIFT_PRIOR = 3.0, 8.0


class _MasterRun:
    """In-flight extraction state of one master under the scheduler."""

    __slots__ = (
        "master",
        "progress",
        "runner",
        "inflight",
        "held",
        "arrived",
        "next_dispatch",
        "next_accum",
        "stop",
        "drift",
        "drifts",
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
        self.held = 0  # walks of the batches in ``inflight``
        self.arrived: dict[int, WalkResults] = {}  # back, not yet absorbed
        self.next_dispatch = 0
        self.next_accum = 0
        self.stop = 0.0  # predicted walks to tolerance, at the last checkpoint
        self.drift = 0.0  # summed squared drift per walk of ``stop``
        self.drifts = 0  # checkpoints with a finite prediction
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

    def wants(self, share: int) -> bool:
        """Whether to dispatch the next batch on top of those held: it
        must fit in ``share`` walks and start ``STOP_MARGIN`` deviations
        below the predicted stop (below ``B`` before any prediction).
        Only which batches are in flight depends on this, never a row."""
        size = self.runner.b0
        base = self.next_dispatch * size
        if self.held + size > share:
            return False
        if base < self.progress.cfg.min_walks:
            return True
        if not self.drifts:  # no estimate yet: fill one vector
            return base < self.runner.batch_size
        walks = self.progress.acc.walks
        spread = math.sqrt(self.drift / self.drifts * (base - walks) * base / walks)
        return self.stop - base > STOP_MARGIN * spread

    def absorb_next(self) -> int:
        """Absorb the next batch in batch order, which has arrived, and
        return its walks; when the stopping rule fires the row is final,
        and the batches left in flight are the caller's to discard."""
        u = self.next_accum
        self.next_accum = u + 1
        del self.inflight[u]
        results = self.arrived.pop(u)
        walks = results.uids.shape[0]
        self.held -= walks
        if self.progress.absorb(results):
            self.done = True
            self.row, self.stats = self.progress.finalize()
            return walks
        # The error estimate shrinks as 1/sqrt(walks) to the predicted stop.
        progress = self.progress
        absorbed = progress.acc.walks
        stop = absorbed * (progress.error / progress.cfg.tolerance) ** 2
        if 0.0 < stop < math.inf:
            if self.drifts:
                drift = math.log(stop / self.stop) * absorbed
                self.drift += drift * drift / self.runner.b0
            else:
                self.drift = DRIFT_PRIOR * stop * progress.cfg.tolerance**2
            self.drifts += 1
            self.stop = stop
        return walks


def walk_budget(workers: int, batch_size: int) -> int:
    """Walks the driver keeps in flight over ``workers`` workers."""
    return (2 * workers + 1) * batch_size


def walk_share(live: int, budget: int, batch_size: int) -> int:
    """In-flight walks each of ``live`` masters tops up to: an even split
    of ``budget``, capped at ``1 + PIPELINE_LOOKAHEAD`` batches."""
    return min((1 + PIPELINE_LOOKAHEAD) * batch_size, budget // live)


def extract_rows_interleaved(
    masters: list[int],
    config: FRWConfig,
    context_for: Callable[[int], ExtractionContext],
    executor: PersistentExecutor,
) -> tuple[list[CapacitanceRow], list[RunStats]]:
    """Extract all masters' rows as one interleaved batch stream.

    ``context_for`` supplies (and may cache) per-master contexts —
    typically ``FRWSolver.context``.

    Returns ``(rows, stats)`` aligned with ``masters``; every row is
    bit-identical to the same master extracted alone, serially, with the
    same config.
    """
    workers = executor.n_workers
    batch_size = config.batch_size
    b0 = checkpoint_walks(config)
    budget = walk_budget(workers, batch_size)

    pending = deque(masters)
    active: list[_MasterRun] = []
    owner: dict[int, tuple[_MasterRun, int]] = {}  # ticket -> (master, batch)
    live = 0  # admitted masters not yet done
    in_flight = 0  # walks dispatched, not yet absorbed or discarded

    def dispatch(st: _MasterRun) -> None:
        nonlocal in_flight
        u = st.next_batch()
        key, uids = st.runner.request(u)
        pieces = -(-workers // (live * (1 + PIPELINE_LOOKAHEAD)))
        ticket = executor.submit(key, uids, pieces, batch_size)
        st.inflight[u] = ticket
        st.held += uids.shape[0]
        in_flight += uids.shape[0]
        owner[ticket] = (st, u)

    def top_up(st: _MasterRun) -> None:
        """Dispatch ``st``'s next batches while they fit in its share."""
        share = walk_share(live, budget, batch_size)
        while not st.inflight or st.wants(share):
            dispatch(st)

    def admit() -> None:
        """Admit pending masters, one first batch each, while the walks
        in flight stay under the budget; then top each up."""
        nonlocal live
        take = 0
        while take < len(pending) and in_flight + take * b0 < budget:
            take += 1
        new = [
            _MasterRun(m, context_for(m), config, executor)
            for m in (pending.popleft() for _ in range(take))
        ]
        active.extend(new)
        live += len(new)
        for st in new:
            dispatch(st)
        for st in new:
            top_up(st)

    try:
        admit()
        while owner:
            # The next batch back on any worker; its master absorbs what
            # is now in batch order, running its own global checkpoints,
            # and is topped up after each batch it absorbs.
            ticket, results = executor.next_done()
            st, u = owner.pop(ticket)
            st.arrived[u] = results
            while not st.done and st.next_accum in st.arrived:
                in_flight -= st.absorb_next()
                if not st.done:
                    top_up(st)
            if st.done:
                live -= 1
                stats = st.progress.stats
                stats.discarded_batches += len(st.inflight)
                for u, ticket in sorted(st.inflight.items()):
                    if u in st.arrived:
                        stats.discarded_walks += st.arrived[u].uids.shape[0]
                    else:
                        del owner[ticket]
                        stats.discarded_walks += executor.discard(ticket)
                in_flight -= st.held
                st.inflight.clear()
                st.arrived.clear()
                st.held = 0
            if pending and in_flight < budget:
                admit()
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
