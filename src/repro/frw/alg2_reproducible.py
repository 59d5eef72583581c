"""Alg. 2 — the parallel FRW scheme with DOP-independent reproducibility.

Walks are issued in globally numbered batches of ``b0`` walks, the batch
size ``B`` or its smallest halving above ``min_walks`` (see
:func:`~repro.frw.parallel.checkpoint_walks`); each walk's random stream is a
pure function of its ID (fine-grained reseeding, realised here with
counter-based streams so reseeding is free); batches are dynamically
scheduled over ``T`` threads with per-thread accumulators merged at a global
checkpoint where the stopping criterion is evaluated.  Because the *set* of
executed walks at every checkpoint is a UID prefix `{0 .. n_u-1}` fixed by
the batch index ``u`` regardless of ``T``, the
result differs across DOPs only through floating-point summation order —
which Kahan accumulation compresses to the last one or two digits.

The vectorised engine computes all walk outcomes of a batch at once (this
is exact: outcomes are schedule-independent by construction), then the
virtual-thread simulation replays the dynamic-queue accumulation order so
the floating-point behaviour matches a real ``T``-thread execution,
including merge order and machine timing noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..config import FRWConfig
from ..rng import seeded_generator, splitmix64
from .context import ExtractionContext
from .estimator import CapacitanceRow, RowAccumulator
from .parallel import PersistentExecutor, stream_spec, streams_from_spec
from .scheduler import jittered_durations, simulate_dynamic_queue


@dataclass
class RunStats:
    """Bookkeeping of one row extraction (for Table III / Fig. 5).

    ``thread_work`` and ``makespan`` are the Fig. 5 load-balance model:
    the simulated dynamic-queue schedule of each batch, which also fixes
    an unpaired row's merge order.  A paired (antithetic) row folds in UID
    order and runs no schedule, so they stay zero there (Alg. 1 fills them
    from its own per-thread clocks).
    """

    walks: int = 0
    batches: int = 0
    total_steps: int = 0
    truncated: int = 0
    converged: bool = False
    #: Accumulated per-thread work (jittered step counts) across batches.
    thread_work: np.ndarray = field(default_factory=lambda: np.zeros(1))
    #: Accumulated batch makespans (modeled parallel time units).
    makespan: float = 0.0
    #: Cross-master schedule telemetry: batches submitted to the executor
    #: for this master (``>= batches`` when speculation ran ahead).
    dispatched_batches: int = 0
    #: Speculative batches dispatched but never accumulated (discarded when
    #: the stopping rule fired; their walk samples are simply unused).
    discarded_batches: int = 0
    #: Walks launched for this master that never reached its row: every
    #: discarded batch, plus walks a pipeline launched past the stop.
    discarded_walks: int = 0


def make_streams(config: FRWConfig, master: int):
    """Per-walk stream provider for the configured RNG kind.

    Each master conductor gets an independent stream family (domain
    separation), so multi-level parallelism cannot collide streams.
    """
    return streams_from_spec(stream_spec(config, master))


def machine_rng(config: FRWConfig, master: int) -> np.random.Generator:
    """The simulated machine's timing-noise RNG (never affects samples)."""
    return seeded_generator(
        splitmix64(config.machine_seed * 0x10001 + master + 1)
    )


class RowProgress:
    """Streaming accumulate-and-checkpoint state of one row extraction.

    This is the *only* implementation of the per-batch accumulation and
    the Alg. 2 global checkpoint: the batch driver
    (:func:`~repro.frw.cross_master.extract_rows_interleaved`) feeds batch
    results through it, so a master's row is bit-identical under any
    batch execution schedule by construction — provided batches are
    absorbed in batch-index order (the machine RNG and the virtual-thread
    replay consume them in that order).
    """

    def __init__(self, ctx: ExtractionContext, config: FRWConfig | None = None):
        cfg = config if config is not None else ctx.config
        self.ctx = ctx
        self.cfg = cfg
        self.acc = RowAccumulator(
            ctx.n_conductors,
            ctx.master,
            summation=cfg.summation,
            paired=cfg.antithetic,
        )
        # Only an unpaired row runs the virtual-thread schedule, so only
        # it draws machine timing noise.
        self.rng_machine = (
            None if cfg.antithetic else machine_rng(cfg, ctx.master)
        )
        self.stats = RunStats(thread_work=np.zeros(cfg.n_threads))
        #: The diagonal's relative error at the last checkpoint.
        self.error = math.inf
        self.done = False

    def absorb(self, results) -> bool:
        """Accumulate one batch (in batch order) and run the checkpoint.

        Returns ``True`` when the stopping rule fired (converged or walk
        cap reached); further batches for this master must be discarded.
        """
        cfg = self.cfg
        acc = self.acc
        stats = self.stats
        if acc.paired:
            # Pair means need whole UID-aligned pairs, so paired rows are
            # absorbed in UID order (the virtual-thread replay would split
            # pairs across simulated threads) and are bitwise
            # DOP-independent.  Batches are even (config validation and
            # ``checkpoint_walks``), so pairs never straddle a batch.
            acc.add_batch(results.omega, results.dest, results.steps)
        else:
            # The paper's FRW-R: each virtual thread sums its walks in
            # fetch order, and the partials merge at the checkpoint.
            durations = jittered_durations(results.steps, self.rng_machine)
            schedule = simulate_dynamic_queue(durations, cfg.n_threads)
            order = schedule.thread_order
            acc.add_walks_ordered(
                results.omega,
                results.dest,
                results.steps,
                np.concatenate(order),
                np.cumsum([0, *(o.shape[0] for o in order)]),
            )
            stats.thread_work += schedule.thread_work
            stats.makespan += schedule.makespan
        stats.truncated += results.truncated
        stats.batches += 1

        # The global checkpoint (Alg. 2 line 11).
        self.error = acc.self_relative_error
        walks = acc.walks
        if walks >= cfg.min_walks and self.error < cfg.tolerance:
            stats.converged = True
            self.done = True
        elif walks >= cfg.max_walks:
            self.done = True
        return self.done

    def finalize(self) -> tuple[CapacitanceRow, RunStats]:
        """Freeze the totals and return ``(row, stats)``."""
        self.stats.walks = self.acc.walks
        self.stats.total_steps = self.acc.total_steps
        return self.acc.row(), self.stats


def extract_row_alg2(
    ctx: ExtractionContext,
    config: FRWConfig | None = None,
    executor: PersistentExecutor | None = None,
) -> tuple[CapacitanceRow, RunStats]:
    """Extract one capacitance-matrix row with the reproducible scheme.

    A one-master run of the batch driver,
    :func:`~repro.frw.cross_master.extract_rows_interleaved`, so the row is
    bit-identical to the same master inside any multi-master extraction,
    on every backend.  Pass ``executor`` (e.g. from
    :class:`~repro.frw.solver.FRWSolver`) to reuse one executor across
    masters; otherwise one is created here for the config, and it is
    closed on return.
    """
    from .cross_master import extract_rows_interleaved

    cfg = config if config is not None else ctx.config
    owned = None
    if executor is None:
        owned = executor = PersistentExecutor.for_config(cfg)
    try:
        rows, stats = extract_rows_interleaved(
            [ctx.master], cfg, lambda master: ctx, executor
        )
    finally:
        if owned is not None:
            owned.close()
    return rows[0], stats[0]
