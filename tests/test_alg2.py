"""Tests for the reproducible parallel scheme (Alg. 2)."""

import numpy as np
import pytest

from repro import FRWConfig
from repro.frw import build_context, extract_row_alg2
from repro.frw.alg2_reproducible import RowProgress, make_streams
from repro.numerics import matrix_matched_digits
from repro.rng import MTWalkStreams


def run(structure, **overrides):
    base = dict(
        seed=21, n_threads=4, batch_size=1500, tolerance=5e-2, min_walks=1500
    )
    base.update(overrides)
    cfg = FRWConfig.frw_r(**base)
    ctx = build_context(structure, 0, cfg)
    return extract_row_alg2(ctx)


def test_converges_and_reports_stats(plates):
    row, stats = run(plates)
    assert stats.converged
    assert row.self_relative_error < 5e-2
    assert stats.walks % 1500 == 0  # whole batches between checkpoints
    assert stats.batches == stats.walks // 1500
    # A paired row folds in UID order and runs no virtual-thread schedule.
    assert stats.thread_work.shape == (4,)
    assert not stats.thread_work.any() and stats.makespan == 0.0
    # An unpaired row's schedule fixes its merge order and feeds Fig. 5.
    _, unpaired = run(plates, antithetic=False)
    assert unpaired.thread_work.shape == (4,)
    assert (unpaired.thread_work > 0).all()
    assert unpaired.makespan > 0


def test_dop_independence(plates):
    """Same seed, different thread counts and machines: >= 12 digits."""
    rows = []
    for t, machine in [(1, 0), (3, 7), (16, 2)]:
        row, _ = run(plates, n_threads=t, machine_seed=machine)
        rows.append(row.values)
    for other in rows[1:]:
        assert matrix_matched_digits(rows[0], other) >= 12


def test_machine_independence_at_fixed_dop(plates):
    a, _ = run(plates, machine_seed=0)
    b, _ = run(plates, machine_seed=99)
    assert matrix_matched_digits(a.values, b.values) >= 12


def test_walk_count_is_dop_independent(plates):
    """The checkpointed stopping rule sees the same walk set at every
    checkpoint, so the number of executed walks is identical across DOP
    (up to floating-point identical convergence decisions)."""
    _, s1 = run(plates, n_threads=1)
    _, s2 = run(plates, n_threads=8, machine_seed=5)
    assert s1.walks == s2.walks


def test_seed_sensitivity(plates):
    a, _ = run(plates, seed=21)
    b, _ = run(plates, seed=22)
    assert not np.array_equal(a.values, b.values)


def test_naive_summation_still_close(plates):
    """FRW-NK differs from FRW-R only in the last digits."""
    kahan, _ = run(plates)
    cfg = FRWConfig.frw_nk(
        seed=21, n_threads=4, batch_size=1500, tolerance=5e-2, min_walks=1500
    )
    ctx = build_context(plates, 0, cfg)
    naive, _ = extract_row_alg2(ctx)
    assert matrix_matched_digits(kahan.values, naive.values) >= 8


def test_bare_variant_runs_its_own_scheme(plates):
    """``variant`` alone picks the accumulators and the streams."""
    nk = FRWConfig(variant="frw-nk", antithetic=False)
    assert RowProgress(build_context(plates, 0, nk)).acc.summation == "naive"
    nc = FRWConfig(variant="frw-nc", antithetic=False)
    assert isinstance(make_streams(nc, 0), MTWalkStreams)


def test_max_walks_cap(plates):
    row, stats = run(plates, tolerance=1e-9, max_walks=3000)
    assert not stats.converged
    assert stats.walks == 3000


def test_mt_variant_runs_and_is_dop_independent(plates):
    cfg = dict(
        seed=21, n_threads=2, batch_size=800, tolerance=8e-2, min_walks=800
    )
    a_cfg = FRWConfig.frw_nc(**cfg)
    b_cfg = FRWConfig.frw_nc(**cfg).with_(n_threads=6, machine_seed=4)
    a, _ = extract_row_alg2(build_context(plates, 0, a_cfg))
    b, _ = extract_row_alg2(build_context(plates, 0, b_cfg))
    assert matrix_matched_digits(a.values, b.values) >= 12
