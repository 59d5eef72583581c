"""Tests for convergence diagnostics — the 1/sqrt(M) law."""

import math

import numpy as np
import pytest

from repro import FRWConfig
from repro.analysis import ConvergenceTrace, trace_convergence, walks_for_tolerance
from repro.errors import ConfigError
from repro.frw import RowAccumulator, build_context, make_streams, run_walks


@pytest.fixture(scope="module")
def trace(plates):
    ctx = build_context(plates, 0, FRWConfig.frw_r(seed=6))
    return trace_convergence(ctx, total_walks=60_000, checkpoints=15)


def test_trace_shape(trace):
    assert len(trace.walks) == 15
    assert trace.walks[-1] == 60_000
    assert all(np.isfinite(trace.rel_error[2:]))


def test_error_decays_like_inverse_sqrt(trace):
    """The paper's Sec. II-B convergence claim: error ~ M^(-1/2)."""
    slope = trace.error_decay_exponent()
    assert -0.85 < slope < -0.2  # noisy single-run fit around -0.5


def test_estimates_stabilise(trace):
    late = np.array(trace.estimate[-5:])
    assert late.std() / abs(late.mean()) < 0.05


def test_walks_for_tolerance_extrapolation(trace):
    target = trace.rel_error[-1] / 2.0
    predicted = walks_for_tolerance(trace, target)
    # Halving the error needs ~4x the walks.
    assert 2.5 * trace.walks[-1] < predicted < 6.5 * trace.walks[-1]


def test_trace_validation():
    empty = ConvergenceTrace()
    with pytest.raises(ValueError):
        empty.error_decay_exponent()
    with pytest.raises(ValueError):
        walks_for_tolerance(empty, 0.01)
    short = ConvergenceTrace(walks=[10], estimate=[1.0], rel_error=[math.inf])
    with pytest.raises(ValueError):
        walks_for_tolerance(short, 0.01)


def test_default_trace_error_is_the_pair_mean_error(plates):
    """Under the default (antithetic) config the two walks of a pair are
    one observation: the trace reports the paired estimate's error, the
    one the stopping rule reads, not the unpaired one."""
    cfg = FRWConfig.frw_r(seed=6)
    ctx = build_context(plates, 0, cfg)
    trace = trace_convergence(ctx, total_walks=6000, checkpoints=5)
    res = run_walks(ctx, make_streams(cfg, 0), np.arange(6000, dtype=np.uint64))
    paired = RowAccumulator(ctx.n_conductors, 0, paired=True)
    paired.add_batch(res.omega, res.dest, res.steps)
    assert trace.walks[-1] == 6000
    assert trace.rel_error[-1] == pytest.approx(
        paired.self_relative_error, rel=1e-9
    )
    with pytest.raises(ConfigError, match="even"):
        trace_convergence(ctx, total_walks=6001)
