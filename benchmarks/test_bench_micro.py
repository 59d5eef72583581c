"""Micro-benchmarks for the design choices Sec. III-C calls out.

* counter-based RNG vs per-walk Mersenne-Twister reseeding (the ~2x claim),
* Kahan vs naive accumulation,
* spatial-index query strategies,
* Gaussian-surface sampling and transition-table sampling.
"""

import numpy as np
import pytest

from repro import FRWConfig
from repro.geometry import BruteForceIndex, GridIndex
from repro.greens import get_cube_table
from repro.numerics import KahanVector, NaiveVector
from repro.rng import MTWalkStreams, WalkStreams
from repro.structures import build_case


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


@pytest.mark.parametrize("depth", [1, 8])
def test_draws_span_compiled(benchmark, depth):
    """The compiled span kernel at the engine's full width, filling the
    engine's slot-major ring (three draw slots per step) one step deep,
    as at full width, and eight deep, as in the drain tail."""
    n = 10_000
    ws = WalkStreams(seed=1)
    uids = np.arange(n, dtype=np.uint64)
    steps = np.arange(n, dtype=np.uint64) % 40
    ring = np.empty((depth, 3, n)).transpose(0, 2, 1)

    benchmark(ws.draws_span, uids, steps, depth, 3, out=ring)


def test_grid_query_into_case5(benchmark):
    """The compiled grid query on SRAM case 5 at the default cap: 10,000
    enclosure points, most of them near-field."""
    structure = build_case(5)
    index = GridIndex(
        structure, h_cap=FRWConfig().h_cap_fraction * min(structure.enclosure.sizes)
    )
    lo = np.asarray(structure.enclosure.lo)
    hi = np.asarray(structure.enclosure.hi)
    pts = lo + (hi - lo) * np.random.default_rng(5).random((10_000, 3))
    dist = np.empty(10_000)
    cond = np.empty(10_000, dtype=np.int64)

    benchmark(index.query_into, pts, dist, cond)


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
    """The table's cell draw and unit-cube point: thin wrappers over the
    inline C functions the engine's cube hop calls."""
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
# The compiled vector step (launch / locate / retire / cube_hop) at full
# width
# ----------------------------------------------------------------------
STEP_WIDTH = 10_000


@pytest.fixture(scope="module")
def case5_vector():
    """A pipeline on SRAM case 5 (stratified, so some walks snap onto an
    interface) with 10,000 walks launched and one step taken, plus a
    snapshot of its arena to restore between rounds."""
    from repro.frw import WalkPipeline, build_context

    ctx = build_context(build_case(5), 0, FRWConfig.frw_r(seed=9))
    pipe = WalkPipeline()
    uids = np.arange(STEP_WIDTH, dtype=np.uint64)
    pipe.submit(0, 0, ctx, WalkStreams(9, 0), uids, STEP_WIDTH)
    pipe._refill()
    pipe._step()
    names = ("uid", "lane", "tol", "grow", "step_no", "pos", "eps", "first",
             "naxis", "nsign", "dist", "dist_e")
    saved = {name: getattr(pipe, "_" + name).copy() for name in names}
    saved_n, saved_ring = pipe._n, (pipe._ring_cursor, pipe._ring_depth)

    def restore():
        for name, arr in saved.items():
            getattr(pipe, "_" + name)[...] = arr
        pipe._n = saved_n
        pipe._ring_cursor, pipe._ring_depth = saved_ring

    return pipe, restore


def test_step_locate_case5(benchmark, case5_vector):
    """Query, wall distance and absorption test of every live walk."""
    pipe, restore = case5_vector
    restore()
    benchmark(pipe._locate, pipe._arena_ref, pipe._n)


def test_step_launch_case5(benchmark, case5_vector):
    """Surface point, layer permittivity and slot state of every slot's
    walk, launched afresh from the ring's plane 0."""
    from repro import native

    pipe, restore = case5_vector
    restore()
    n = pipe._n
    uids = np.arange(n, dtype=np.uint64)

    def launch():
        pipe._launch(
            pipe._arena_ref, pipe._surfaces[0], 0, n, native.address(uids), 0,
            pipe._lane_tol[0], 0, 0,
        )

    benchmark(launch)
    assert pipe._first[:n].all()
    restore()


def test_step_cube_hop_case5(benchmark, case5_vector):
    """Allow, interface distance, snap test, cell draw and move, and the
    hemisphere step of the walks that snap onto an interface."""
    pipe, restore = case5_vector
    restore()

    def setup():
        restore()
        pipe._locate(pipe._arena_ref, pipe._n)

    n_snap = benchmark.pedantic(
        pipe._cube_hop, args=(pipe._arena_ref, pipe._n, 0), setup=setup,
        rounds=50,
    )
    assert 0 < n_snap < pipe._n


def test_step_retire_case5(benchmark, case5_vector):
    """Banking and compaction of one walk in ten, ring planes included."""
    pipe, restore = case5_vector
    restore()
    n = pipe._n
    done = np.zeros(pipe._capacity, dtype=bool)
    done[:n:10] = True
    remaining = pipe._win_remaining.copy()

    def setup():
        restore()
        pipe._done[:] = done
        pipe._dest[:] = 0
        pipe._win_remaining[:] = remaining
        # One live ring plane travels with each moved walk.
        pipe._ring_cursor, pipe._ring_depth = 0, 1

    benchmark.pedantic(pipe._retire_done, args=(False,), setup=setup, rounds=50)
    assert pipe._n == n - np.count_nonzero(done)


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
