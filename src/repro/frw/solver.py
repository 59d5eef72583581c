"""FRWSolver — the user-facing facade over all solver variants.

Typical use::

    from repro import FRWSolver, FRWConfig, Structure

    config = FRWConfig.frw_rr(seed=7, n_threads=16, tolerance=1e-2)
    with FRWSolver(structure, config) as solver:  # joins its worker threads
        result = solver.extract()      # all conductors as masters
    print(result.matrix.pretty())
    print(result.report)               # property metrics

Variant dispatch (Sec. V).  The variant alone selects the scheme: its
RNG and summation are the fixed recipe of :data:`repro.config.VARIANTS`,
which the config's read-only ``rng`` and ``summation`` report.

========  =========================================  ====================
variant   scheme                                     post-process
========  =========================================  ====================
alg1      Alg. 1 baseline [1], CBRNG, naive sum      none
frw-nk    Alg. 2, CBRNG, naive summation             none
frw-nc    Alg. 2, Kahan, MT per-walk reseeding       none
frw-r     Alg. 2, Kahan, CBRNG                       none
frw-rr    Alg. 2, Kahan, CBRNG                       Alg. 3 regularization
========  =========================================  ====================

Every Alg. 2 extraction, one master or many, runs through the batch
driver of :mod:`repro.frw.cross_master`: batches from all masters share
the one executor, and per-master rows stay bit-identical to
:meth:`FRWSolver.extract_row` run master by master.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..analysis.capmatrix import CapacitanceMatrix
from ..config import FRWConfig
from ..errors import ConfigError
from ..geometry import Structure
from ..reliability import PropertyReport, check_properties, regularize
from .alg1_baseline import extract_row_alg1
from .alg2_reproducible import RunStats, extract_row_alg2
from .context import ExtractionContext, SharedAssets, build_context
from .cross_master import extract_rows_interleaved
from .estimator import CapacitanceRow
from .parallel import PersistentExecutor


@dataclass
class ExtractionResult:
    """Full multi-master extraction output."""

    matrix: CapacitanceMatrix
    raw_matrix: CapacitanceMatrix
    rows: list[CapacitanceRow]
    stats: list[RunStats]
    config: FRWConfig
    wall_time: float
    regularization_time: float = 0.0
    report: PropertyReport | None = field(default=None)

    @property
    def total_walks(self) -> int:
        """Walks across all masters."""
        return sum(s.walks for s in self.stats)

    @property
    def total_steps(self) -> int:
        """Walk steps across all masters."""
        return sum(s.total_steps for s in self.stats)

    @property
    def converged(self) -> bool:
        """Whether every master met the stopping criterion."""
        return all(s.converged for s in self.stats)


class FRWSolver:
    """Parallel FRW capacitance extractor for a :class:`Structure`.

    The solver owns the real-concurrency resources: extraction contexts are
    cached per master (sharing one spatial index through the solver's
    :class:`SharedAssets` and one cube table through
    :func:`~repro.greens.get_cube_table`) and one
    :class:`~repro.frw.parallel.PersistentExecutor` is created lazily and
    reused across batches *and* masters.  Call :meth:`close` (or use the
    solver as a context manager) to stop its worker threads; results are
    bit-identical across executor backends, so this only affects wall
    time.
    """

    def __init__(
        self,
        structure: Structure,
        config: FRWConfig | None = None,
        *,
        executor: PersistentExecutor | None = None,
    ):
        """``executor`` (optional) injects a *borrowed* executor owned by a
        longer-lived host — the memoizing extraction service shares one
        executor fleet across all requests.  Any executor serves any
        config, since rows are bit-identical on every executor; it is
        never closed by this solver (only an owned executor is closed by
        :meth:`close`).
        """
        self.structure = structure
        self.config = config if config is not None else FRWConfig()
        self.assets = SharedAssets(structure)
        self._contexts: dict[int, ExtractionContext] = {}
        self._owns_executor = executor is None
        self._executor = executor

    def context(self, master: int) -> ExtractionContext:
        """Cached extraction context for one master conductor."""
        ctx = self._contexts.get(master)
        if ctx is None:
            ctx = build_context(
                self.structure, master, self.config, assets=self.assets
            )
            self._contexts[master] = ctx
        return ctx

    def walk_executor(self) -> PersistentExecutor:
        """The solver's persistent executor, created on first use
        (:meth:`PersistentExecutor.for_config`); a one-worker executor
        starts no thread.
        """
        if self._executor is None:
            self._executor = PersistentExecutor.for_config(self.config)
        return self._executor

    def close(self) -> None:
        """Close an owned executor (idempotent; solver stays usable).

        Borrowed executors (injected at construction) are left running —
        their owner decides their lifetime — and only forget this solver's
        contexts.
        """
        if self._executor is not None:
            if self._owns_executor:
                self._executor.close()
            else:
                self._executor.release(self._contexts.values())
            self._executor = None
            self._owns_executor = True

    def __enter__(self) -> "FRWSolver":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def extract_row(self, master: int) -> tuple[CapacitanceRow, RunStats]:
        """Extract a single row of the capacitance matrix."""
        ctx = self.context(master)
        if self.config.variant == "alg1":
            return extract_row_alg1(ctx, self.config)
        return extract_row_alg2(ctx, self.config, executor=self.walk_executor())

    def _extract_serial_masters(
        self, masters: list[int]
    ) -> tuple[list[CapacitanceRow], list[RunStats]]:
        """The master-after-master Alg. 1 loop (Alg. 1 has no batches to
        interleave).  Each master's context is built only when that master
        runs."""
        rows: list[CapacitanceRow] = []
        stats: list[RunStats] = []
        for master in masters:
            row, stat = extract_row_alg1(self.context(master), self.config)
            rows.append(row)
            stats.append(stat)
        return rows, stats

    def extract(self, masters: list[int] | None = None) -> ExtractionResult:
        """Extract rows for the given masters (default: all conductors).

        Alg. 2 variants run through the cross-master batch driver
        (batches from all masters share the executor; rows are
        bit-identical to the per-master :meth:`extract_row`).

        For ``frw-rr``, masters must be ``0..Nm-1`` (the regularization
        couples rows through the symmetry constraint).
        """
        if masters is None:
            masters = list(range(len(self.structure.conductors)))
        if not masters:
            raise ConfigError("need at least one master conductor")
        cfg = self.config
        executor = self.walk_executor()
        t0 = time.perf_counter()
        if cfg.variant == "alg1":
            rows, stats = self._extract_serial_masters(masters)
        else:
            rows, stats = extract_rows_interleaved(
                masters, cfg, self.context, executor=executor
            )
        wall = time.perf_counter() - t0

        meta = {
            "variant": cfg.variant,
            "seed": cfg.seed,
            "n_threads": cfg.n_threads,
            "tolerance": cfg.tolerance,
            "schedule": {
                "antithetic": cfg.antithetic,
                "asset_cache": self.assets.stats(),
                "query_stats": self.assets.query_stats(),
                "dispatched_batches": sum(s.dispatched_batches for s in stats),
                "discarded_batches": sum(s.discarded_batches for s in stats),
                "discarded_walks": sum(s.discarded_walks for s in stats),
            },
        }
        raw = CapacitanceMatrix(
            values=np.stack([r.values for r in rows]),
            masters=list(masters),
            names=self.structure.names,
            sigma2=np.stack([r.sigma2 for r in rows]),
            hits=np.stack([r.hits for r in rows]),
            meta=meta,
        )
        matrix, reg_time = raw, 0.0
        if cfg.uses_regularization:
            t1 = time.perf_counter()
            matrix = regularize(raw)
            reg_time = time.perf_counter() - t1
        return ExtractionResult(
            matrix=matrix,
            raw_matrix=raw,
            rows=rows,
            stats=stats,
            config=cfg,
            wall_time=wall,
            regularization_time=reg_time,
            report=check_properties(matrix),
        )


def extract(
    structure: Structure,
    config: FRWConfig | None = None,
    masters: list[int] | None = None,
) -> ExtractionResult:
    """One-call extraction convenience function.

    Owns the solver lifecycle: the executor's worker threads are joined
    before returning, so repeated one-shot extractions never leak
    workers.
    """
    with FRWSolver(structure, config) as solver:
        return solver.extract(masters)
