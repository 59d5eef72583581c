"""Micro-benchmarks for the design choices Sec. III-C calls out.

* counter-based RNG vs per-walk Mersenne-Twister reseeding (the ~2x claim),
* Kahan vs naive accumulation,
* spatial-index query strategies,
* Gaussian-surface sampling and transition-table sampling.
"""

import numpy as np
import pytest

from repro.geometry import BruteForceIndex, GridIndex
from repro.greens import get_cube_table
from repro.numerics import KahanVector, NaiveVector
from repro.rng import MTWalkStreams, WalkStreams


N_WALKS = 2000


def test_philox_per_walk_streams(benchmark):
    ws = WalkStreams(seed=1)
    uids = np.arange(N_WALKS, dtype=np.uint64)
    benchmark(ws.draws, uids, 3, 3)


def test_mt_per_walk_reseeding(benchmark):
    """The cost Sec. III-C eliminates: a fresh 624-word MT state per walk."""
    uids = np.arange(N_WALKS, dtype=np.uint64)

    def run():
        ws = MTWalkStreams(seed=1)  # fresh cache: every draw reseeds
        return ws.draws(uids, 0, 3)

    benchmark(run)


def test_philox_bulk_generation(benchmark):
    """The engine's fused span draws: 100,000 uniforms per call."""
    ws = WalkStreams(seed=1)
    uids = np.arange(10_000, dtype=np.uint64)
    out = np.empty((5, 10_000, 2))

    benchmark(ws.draws_span, uids, 0, 5, 2, out=out)
    assert out.size == 100_000


def test_kahan_vector_accumulate(benchmark):
    acc = KahanVector(8)
    terms = np.random.default_rng(0).standard_normal((1000, 8))

    def run():
        for t in terms:
            acc.add(t)
        return acc.value

    benchmark(run)


def test_naive_vector_accumulate(benchmark):
    acc = NaiveVector(8)
    terms = np.random.default_rng(0).standard_normal((1000, 8))

    def run():
        for t in terms:
            acc.add(t)
        return acc.value

    benchmark(run)


def test_brute_force_index_query(benchmark, case3_fast):
    index = BruteForceIndex(case3_fast)
    pts = np.random.default_rng(1).uniform(-20, 20, (4000, 3))
    benchmark(index.query, pts)


def test_grid_index_query(benchmark, case3_fast):
    index = GridIndex(case3_fast, h_cap=4.0)  # CSR lists built eagerly here
    pts = np.random.default_rng(1).uniform(-20, 20, (4000, 3))
    benchmark(index.query, pts)


def test_grid_index_build_thousands(benchmark):
    """CSR build over thousands of boxes: the batched cell-range expansion
    (historically a per-box Python loop, O(m) interpreter iterations)."""
    from repro.structures.large import large_grid

    structure = large_grid(50, 50)  # 2501 boxes
    assert structure.n_boxes > 2000
    benchmark(GridIndex, structure, 2.0)


def test_surface_sampling(benchmark, ctx_case1):
    u = np.random.default_rng(2).random((10_000, 3))
    benchmark(ctx_case1.surface.sample, u)


def test_cube_table_sampling(benchmark):
    table = get_cube_table(32)
    rng = np.random.default_rng(3)
    u = rng.random(10_000)
    ja = rng.random(10_000)
    jb = rng.random(10_000)

    def run():
        cells = table.sample_cells(u)
        return table.unit_positions(cells, ja, jb)

    benchmark(run)


def test_cube_table_construction(benchmark):
    from repro.greens.cube_table import _build

    benchmark(_build, 16, 48)


# ----------------------------------------------------------------------
# Walk-engine throughput
# ----------------------------------------------------------------------
def test_engine_full_batch(benchmark, ctx_case1):
    """run_walks on a full batch: the per-step vectorised hot path."""
    from repro.frw import run_walks

    uids = np.arange(2048, dtype=np.uint64)

    def run():
        return run_walks(ctx_case1, WalkStreams(seed=9), uids)

    res = benchmark(run)
    assert res.omega.shape == (2048,)


def test_engine_plain_batches(benchmark, ctx_case1):
    """Per-batch execution: each batch drains to a ragged tail."""
    from repro.frw import run_walks

    batch = 512

    def run():
        ws = WalkStreams(seed=9)
        parts = [
            run_walks(
                ctx_case1,
                ws,
                np.arange(u * batch, (u + 1) * batch, dtype=np.uint64),
            )
            for u in range(4)
        ]
        return parts

    benchmark(run)


def test_engine_pipelined_batches(benchmark, ctx_case1):
    """Cross-batch pipelining over the same walks as test_engine_plain_batches:
    absorbed slots refill from the next batch, so the vector stays full."""
    from repro.frw import run_segments

    segments = [
        (0, np.arange(u * 512, (u + 1) * 512, dtype=np.uint64))
        for u in range(4)
    ]

    def run():
        return run_segments(((ctx_case1, WalkStreams(seed=9)),), segments, 512)

    benchmark(run)


def test_merge_replay_ordered(benchmark):
    """The vectorised virtual-thread merge replay (order-preserving Kahan)."""
    from repro.frw import RowAccumulator

    rng = np.random.default_rng(7)
    omega = rng.standard_normal(10_000)
    dest = rng.integers(0, 6, 10_000)
    steps = rng.integers(1, 40, 10_000)

    def run():
        acc = RowAccumulator(6, 0)
        acc.add_walks_ordered(omega, dest, steps)
        return acc.row()

    benchmark(run)
