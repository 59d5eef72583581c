"""Convergence diagnostics for FRW extractions.

The FRW estimator's error decays like ``sqrt(Var(X)/M)`` (Sec. II-B); this
module tracks that decay so users can verify unbiased 1/sqrt(M) convergence,
pick tolerances, and detect pathologies (heavy-tailed weights, truncation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..config import FRWConfig
from ..errors import ConfigError
from ..frw.alg2_reproducible import make_streams
from ..frw.context import ExtractionContext
from ..frw.engine import run_walks
from ..frw.estimator import RowAccumulator


@dataclass
class ConvergenceTrace:
    """Self-capacitance estimate and error versus walk count."""

    walks: list[int] = field(default_factory=list)
    estimate: list[float] = field(default_factory=list)
    rel_error: list[float] = field(default_factory=list)

    def error_decay_exponent(self) -> float:
        """Fitted slope of log(rel_error) vs log(walks) — should be ~ -1/2.

        Uses the second half of the trace (the asymptotic regime).
        """
        if len(self.walks) < 4:
            raise ValueError("need at least 4 checkpoints to fit a slope")
        half = len(self.walks) // 2
        x = np.log(np.asarray(self.walks[half:], dtype=np.float64))
        y = np.log(np.asarray(self.rel_error[half:], dtype=np.float64))
        slope, _ = np.polyfit(x, y, 1)
        return float(slope)


def trace_convergence(
    ctx: ExtractionContext,
    total_walks: int,
    checkpoints: int = 20,
    config: FRWConfig | None = None,
) -> ConvergenceTrace:
    """Run a fixed walk budget, recording the stopping metric along the way.

    Under ``antithetic`` the error is the pair-mean one the stopping rule
    reads, so checkpoints fall on whole pairs.
    """
    cfg = config if config is not None else ctx.config
    if cfg.antithetic and total_walks % 2:
        raise ConfigError(
            f"total_walks ({total_walks}) must be even under antithetic "
            "pairs; pass antithetic=False to trace single walks"
        )
    streams = make_streams(cfg, ctx.master)
    acc = RowAccumulator(
        ctx.n_conductors, ctx.master, summation=cfg.summation, paired=cfg.antithetic
    )
    trace = ConvergenceTrace()
    chunk = max(2, total_walks // checkpoints // 2 * 2)
    done = 0
    while done < total_walks:
        count = min(chunk, total_walks - done)
        uids = np.arange(done, done + count, dtype=np.uint64)
        res = run_walks(ctx, streams, uids)
        acc.add_batch(res.omega, res.dest, res.steps)
        done += count
        row = acc.row()
        trace.walks.append(done)
        trace.estimate.append(row.self_capacitance)
        err = row.self_relative_error
        trace.rel_error.append(err if math.isfinite(err) else float("nan"))
    return trace


def walks_for_tolerance(trace: ConvergenceTrace, tolerance: float) -> int:
    """Extrapolate the walks needed to reach a tolerance (1/sqrt(M) law)."""
    if not trace.walks:
        raise ValueError("empty trace")
    m = trace.walks[-1]
    err = trace.rel_error[-1]
    if not math.isfinite(err) or err <= 0:
        raise ValueError("trace has no finite terminal error")
    return int(math.ceil(m * (err / tolerance) ** 2))
