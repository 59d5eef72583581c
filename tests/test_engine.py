"""Tests for the vectorised walk engine."""

import hashlib

import numpy as np
import pytest

from repro import FRWConfig, native
from repro.frw import build_context, make_streams, run_walks
from repro.rng import WalkStreams


def ctx_for(structure, master=0, **overrides):
    cfg = FRWConfig.frw_r(seed=11, **overrides)
    return build_context(structure, master, cfg)


def test_batched_equals_scalar_bitwise(plates):
    """The reproducibility cornerstone: a walk's outcome is independent of
    how it is batched — including running it alone."""
    ctx = ctx_for(plates)
    uids = np.arange(40, dtype=np.uint64)
    batch = run_walks(ctx, WalkStreams(11, 0), uids)
    for i in range(0, 40, 7):
        single = run_walks(
            ctx, WalkStreams(11, 0), np.array([uids[i]], dtype=np.uint64)
        )
        assert single.omega[0] == batch.omega[i]
        assert single.dest[0] == batch.dest[i]
        assert single.steps[0] == batch.steps[i]


def test_batch_order_independence(plates):
    ctx = ctx_for(plates)
    uids = np.arange(64, dtype=np.uint64)
    forward = run_walks(ctx, WalkStreams(11, 0), uids)
    perm = np.random.default_rng(0).permutation(64)
    shuffled = run_walks(ctx, WalkStreams(11, 0), uids[perm])
    assert np.array_equal(shuffled.omega, forward.omega[perm])
    assert np.array_equal(shuffled.dest, forward.dest[perm])


def test_all_walks_terminate(plates):
    ctx = ctx_for(plates)
    res = run_walks(ctx, WalkStreams(11, 0), np.arange(2000, dtype=np.uint64))
    assert np.all(res.dest >= 0)
    assert np.all(res.dest < plates.n_conductors)
    assert np.all(res.steps >= 1)
    assert res.truncated == 0


def test_destinations_cover_all_conductors(plates):
    ctx = ctx_for(plates)
    res = run_walks(ctx, WalkStreams(11, 0), np.arange(3000, dtype=np.uint64))
    hit = np.bincount(res.dest, minlength=plates.n_conductors)
    assert np.all(hit > 0)  # both plates and the enclosure are reachable


def test_gauss_law_zero_mean_identity(plates):
    """With all conductors at the same potential there is no field:
    E[omega] = sum_j C_ij = 0."""
    ctx = ctx_for(plates)
    res = run_walks(ctx, WalkStreams(11, 0), np.arange(50_000, dtype=np.uint64))
    mean = res.omega.mean()
    stderr = res.omega.std(ddof=1) / np.sqrt(res.omega.shape[0])
    assert abs(mean) < 4 * stderr


def test_self_capacitance_positive_coupling_negative(plates):
    ctx = ctx_for(plates)
    res = run_walks(ctx, WalkStreams(11, 0), np.arange(30_000, dtype=np.uint64))
    m = res.omega.shape[0]
    c_self = res.omega[res.dest == 0].sum() / m
    c_coupling = res.omega[res.dest == 1].sum() / m
    c_env = res.omega[res.dest == 2].sum() / m
    assert c_self > 0
    assert c_coupling < 0
    assert c_env < 0


def test_seed_changes_results(plates):
    ctx = ctx_for(plates)
    uids = np.arange(100, dtype=np.uint64)
    a = run_walks(ctx, WalkStreams(11, 0), uids)
    b = run_walks(ctx, WalkStreams(12, 0), uids)
    assert not np.array_equal(a.omega, b.omega)


def test_mt_streams_supported(plates):
    ctx = ctx_for(plates)
    cfg = FRWConfig.frw_nc(seed=11)
    streams = make_streams(cfg, 0)
    res = run_walks(ctx, streams, np.arange(200, dtype=np.uint64))
    assert np.all(res.dest >= 0)
    # The walks' MT states live in the engine's arena, not in the streams
    # object, so a second run starts every walk afresh.
    again = run_walks(ctx, streams, np.arange(200, dtype=np.uint64))
    assert np.array_equal(res.omega, again.omega)


def test_layered_walks_cross_interfaces(layered_wires):
    """Walks in a layered stack must reach conductors in other layers."""
    ctx = ctx_for(layered_wires)
    res = run_walks(ctx, WalkStreams(11, 0), np.arange(5000, dtype=np.uint64))
    hit = np.bincount(res.dest, minlength=layered_wires.n_conductors)
    assert hit[1] > 0  # the wire in the other layer is reachable
    assert res.truncated == 0


def test_trace_records_paths(plates):
    ctx = ctx_for(plates)
    trace = []
    run_walks(ctx, WalkStreams(11, 0), np.arange(5, dtype=np.uint64), trace=trace)
    assert len(trace) >= 2
    active0, pos0 = trace[0]
    assert active0.shape[0] == 5
    assert pos0.shape == (5, 3)


def test_step_cap_truncates(plates):
    ctx = ctx_for(plates, max_steps=2)
    res = run_walks(ctx, WalkStreams(11, 0), np.arange(500, dtype=np.uint64))
    assert res.truncated > 0
    # Truncated walks are charged to the enclosure.
    assert np.all(res.dest[res.steps > ctx.config.max_steps] == plates.enclosure_index)


# ----------------------------------------------------------------------
# Cross-batch walk pipelining
# ----------------------------------------------------------------------
def test_pipelined_equals_plain_bitwise(plates, run_pipelined):
    """Refilling absorbed slots from later batches never changes outcomes."""
    ctx = ctx_for(plates)
    uids = np.arange(3000, dtype=np.uint64)
    plain = run_walks(ctx, WalkStreams(11, 0), uids)
    for width in (256, 512, 3000, 7):
        piped = run_pipelined(ctx, WalkStreams(11, 0), uids, width=width)
        assert np.array_equal(piped.uids, plain.uids)
        assert np.array_equal(piped.omega, plain.omega)
        assert np.array_equal(piped.dest, plain.dest)
        assert np.array_equal(piped.steps, plain.steps)
        assert piped.truncated == plain.truncated


def _submit_all(pipe, ctx, batches, width):
    """Queue ``batches`` of lane 0 on ``pipe`` as batches 0, 1, 2, ..."""
    for u, uids in enumerate(batches):
        pipe.submit(u, 0, ctx, WalkStreams(11, 0), uids, width)


def test_pipeline_banks_batches_in_order(plates):
    """next_batch yields exactly batch u's UIDs, in order, for u = 0, 1, ..."""
    from repro.frw import WalkPipeline

    ctx = ctx_for(plates)
    batch = 64
    pipe = WalkPipeline()
    _submit_all(
        pipe,
        ctx,
        [np.arange(u * batch, (u + 1) * batch, dtype=np.uint64) for u in range(5)],
        batch,
    )
    ref = run_walks(ctx, WalkStreams(11, 0), np.arange(5 * batch, dtype=np.uint64))
    for u in range(5):
        seq, res = pipe.next_batch()
        sl = slice(u * batch, (u + 1) * batch)
        assert seq == u
        assert np.array_equal(res.uids, ref.uids[sl])
        assert np.array_equal(res.omega, ref.omega[sl])
        assert np.array_equal(res.dest, ref.dest[sl])
        assert np.array_equal(res.steps, ref.steps[sl])
    assert pipe.next_batch() is None


def test_pipeline_mixed_length_batches(plates):
    """Ragged batches (odd sizes, including an empty batch) stay bit-exact."""
    from repro.frw import WalkPipeline

    ctx = ctx_for(plates)
    sizes = [7, 129, 0, 64, 1, 33]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    batches = [
        np.arange(offsets[i], offsets[i + 1], dtype=np.uint64)
        for i in range(len(sizes))
    ]
    pipe = WalkPipeline()
    _submit_all(pipe, ctx, batches, 100)
    all_uids = np.arange(offsets[-1], dtype=np.uint64)
    ref = run_walks(ctx, WalkStreams(11, 0), all_uids)
    for u, uids in enumerate(batches):
        seq, res = pipe.next_batch()
        sl = slice(int(offsets[u]), int(offsets[u + 1]))
        assert seq == u
        assert np.array_equal(res.uids, uids)
        assert np.array_equal(res.omega, ref.omega[sl])
        assert np.array_equal(res.dest, ref.dest[sl])
        assert np.array_equal(res.steps, ref.steps[sl])
    assert pipe.next_batch() is None


def test_pipeline_keeps_vector_width_full(plates):
    """Refilling from later batches keeps the active vector near `width`
    instead of draining to a ragged tail at every batch boundary."""
    from repro.frw import WalkPipeline

    ctx = ctx_for(plates)
    batch = 128
    batches = [
        np.arange(u * batch, (u + 1) * batch, dtype=np.uint64) for u in range(8)
    ]
    piped_trace = []
    pipe = WalkPipeline(trace=piped_trace)
    _submit_all(pipe, ctx, batches, batch)
    while pipe.next_batch() is not None:
        pass
    plain_trace = []
    for uids in batches:
        run_walks(ctx, WalkStreams(11, 0), uids, trace=plain_trace)
    # Each trace frame is one vectorised engine iteration; refilling keeps
    # the vector full, so the same walks need far fewer (wider) iterations
    # than per-batch execution, which drains to a ragged tail 8 times.
    assert len(piped_trace) < 0.75 * len(plain_trace)


def _frames_digest(frames):
    """The count and a digest of trace frames, each frame's walks in row
    order."""
    h = hashlib.sha256()
    for rows, pos in frames:
        order = np.argsort(rows, kind="stable")
        h.update(rows[order].tobytes())
        h.update(pos[order].tobytes())
    return len(frames), h.hexdigest()[:16]


def test_trace_frames_are_pinned(plates):
    """A traced vector records a frame after each round of launches and
    after each hop: ``trace_walks`` and the frames of a four-batch run on
    a narrower vector keep the paths, counts and contents pinned when the
    step loop was Python."""
    from repro.frw import WalkPipeline, trace_walks

    ctx = build_context(plates, 0, FRWConfig.frw_r(seed=55))
    traces = trace_walks(ctx, list(range(6)))
    h = hashlib.sha256()
    for t in traces:
        h.update(np.ascontiguousarray(t.positions).tobytes())
        h.update(str((t.omega, t.dest)).encode())
    assert [t.n_hops for t in traces] == [2, 4, 2, 14, 2, 1]
    assert h.hexdigest()[:16] == "e6d78c076295f1da"
    frames = []
    uids = np.arange(6, dtype=np.uint64)
    run_walks(ctx, make_streams(ctx.config, 0), uids, trace=frames)
    assert _frames_digest(frames) == (15, "e580825d6c4ef4a2")
    frames = []
    pipe = WalkPipeline(trace=frames)
    batches = [
        np.arange(u * 48, (u + 1) * 48, dtype=np.uint64) for u in range(4)
    ]
    _submit_all(pipe, ctx_for(plates), batches, 64)
    while pipe.next_batch() is not None:
        pass
    assert _frames_digest(frames) == (106, "00f2d2650f994360")


@pytest.mark.parametrize("max_steps", [10_000, 3])
def test_timers_and_width_profile_match_the_loop(plates, max_steps):
    """``StageTimers.steps`` is the loop's step count and ``index``,
    ``sample`` and ``retire`` are charged time; the index counts one query
    per ``locate`` call.  The width profile sums to the step count and its
    walk-steps to the walks' step counts (over-cap retirement included at
    ``max_steps`` 3), and every bucket's walk-steps lie within its
    widths."""
    from repro.frw import StageTimers, WalkPipeline

    ctx = ctx_for(plates, max_steps=max_steps)
    queries = ctx.index.stats.queries
    tm = StageTimers()
    pipe = WalkPipeline(timers=tm)
    batches = [
        np.arange(u * 300, (u + 1) * 300, dtype=np.uint64) for u in range(4)
    ]
    _submit_all(pipe, ctx, batches, 256)
    results = []
    while (out := pipe.next_batch()) is not None:
        results.append(out[1])
    assert (sum(r.truncated for r in results) > 0) == (max_steps == 3)
    assert tm.steps > 0
    assert tm.index > 0 and tm.sample > 0 and tm.retire > 0
    assert ctx.index.stats.queries - queries == tm.counts["index"]
    profile = pipe.width_profile
    assert profile.shape == (native.WIDTH_BUCKETS, 2)
    steps, walk_steps = profile.sum(axis=0)
    assert steps == tm.steps
    assert walk_steps == sum(int(r.steps.sum()) for r in results)
    lo = 2 ** np.arange(native.WIDTH_BUCKETS, dtype=np.int64)
    assert (profile[:, 1] >= profile[:, 0] * lo).all()
    assert (profile[:, 1] <= profile[:, 0] * (2 * lo - 1)).all()


# ----------------------------------------------------------------------
# Lanes: several masters' walks in one vector
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sram_structure():
    from repro.structures import build_case

    return build_case(5)


@pytest.mark.parametrize(
    "config",
    [
        FRWConfig.frw_r(seed=11),
        FRWConfig.frw_r(seed=11, antithetic=True),
        FRWConfig.frw_nc(seed=11),
    ],
    ids=["philox", "antithetic", "mt"],
)
def test_lane_segments_match_run_walks(sram_structure, config):
    """Three case-5 masters' batches share one vector narrower than the
    item, with one batch cut in two around another master's batch; every
    piece equals its master's own ``run_walks`` byte for byte."""
    from repro.frw import SharedAssets, run_segments

    assets = SharedAssets(sram_structure)
    masters = (0, 1, 2)
    contexts = [build_context(sram_structure, m, config, assets) for m in masters]
    batches = [
        np.arange(0, 160, dtype=np.uint64),
        np.arange(160, 320, dtype=np.uint64),
        np.arange(0, 160, dtype=np.uint64),  # UIDs repeat across lanes
    ]
    lanes = [(ctx, make_streams(config, m)) for ctx, m in zip(contexts, masters)]
    segments = [
        (1, batches[1][:61]),
        (0, batches[0]),
        (2, batches[2]),
        (1, batches[1][61:]),
    ]
    got = run_segments(lanes, segments, width=100)
    assert [r.uids.tolist() for r in got] == [s.tolist() for _, s in segments]
    pieces = {0: [got[1]], 1: [got[0], got[3]], 2: [got[2]]}
    for lane, (ctx, m) in enumerate(zip(contexts, masters)):
        ref = run_walks(ctx, make_streams(config, m), batches[lane])
        parts = pieces[lane]
        assert np.concatenate([p.omega for p in parts]).tobytes() == ref.omega.tobytes()
        assert np.concatenate([p.dest for p in parts]).tolist() == ref.dest.tolist()
        assert np.concatenate([p.steps for p in parts]).tolist() == ref.steps.tolist()
        assert sum(p.truncated for p in parts) == ref.truncated


def test_lanes_must_share_the_walk_space(plates, three_wires):
    """Lanes over different structures cannot share one vector, even
    with the same enclosure and ``h_cap``, and neither can separately
    built equal indexes: lanes hold one index object, as one solver's
    masters do."""
    from repro import Box, Conductor, Structure
    from repro.errors import ConfigError
    from repro.frw import SharedAssets, WalkPipeline

    moved = Structure(
        [
            Conductor.single("P1", Box.from_bounds(-2, 2, -2, 2, 0.0, 0.25)),
            Conductor.single("P2", Box.from_bounds(-2, 2, -2, 2, 1.75, 2.0)),
        ],
        enclosure=plates.enclosure,
    )
    a = ctx_for(plates)
    rebuilt = ctx_for(plates, 1)
    assert rebuilt.index is not a.index
    uids = np.arange(4, dtype=np.uint64)
    for b in (ctx_for(three_wires), ctx_for(moved, 1), rebuilt):
        pipe = WalkPipeline()
        pipe.submit(0, "a", a, WalkStreams(11, 0), uids, 8)
        with pytest.raises(ConfigError):
            pipe.submit(1, "b", b, WalkStreams(11, 1), uids, 8)
    assets = SharedAssets(plates)
    a, b = (build_context(plates, m, a.config, assets) for m in (0, 1))
    assert b.index is a.index
    pipe = WalkPipeline()
    pipe.submit(0, "a", a, WalkStreams(11, 0), uids, 8)
    pipe.submit(1, "b", b, WalkStreams(11, 1), uids, 8)
    assert [pipe.next_batch()[0] for _ in range(2)] == [0, 1]


def test_lane_descriptors_are_the_ones_the_vector_holds(plates, monkeypatch):
    """Vectors starting at once on worker threads may each build a
    context's index, table and surface descriptors, the last store
    winning.  Simulated here by rebuilding them on every read: the
    vector keeps alive the very descriptors whose addresses it uses, so
    its walks are still the reference walks."""
    import ctypes
    import gc

    from repro.frw import WalkPipeline
    from repro.geometry import GridIndex
    from repro.geometry.surface import GaussianSurface
    from repro.greens.cube_table import CubeTransitionTable

    ctx = ctx_for(plates)
    uids = np.arange(300, dtype=np.uint64)
    ref = run_walks(ctx, WalkStreams(11, 0), uids)
    grid = GridIndex.descriptor

    def fresh_grid(self):
        self._grid = None
        return grid(self)

    monkeypatch.setattr(GridIndex, "descriptor", fresh_grid)
    for cls in (GaussianSurface, CubeTransitionTable):
        build = cls.__dict__["_native"].func
        monkeypatch.setattr(cls, "_native", property(build))
    monkeypatch.delitem(ctx.surface.__dict__, "_native", raising=False)
    monkeypatch.delitem(ctx.table.__dict__, "_native", raising=False)

    pipe = WalkPipeline()
    pipe.submit(0, 0, ctx, WalkStreams(11, 0), uids, 64)
    gc.collect()
    assert pipe._lane_run[0][0] == ctypes.addressof(pipe._surfaces[0])
    seq, res = pipe.next_batch()
    assert seq == 0
    assert np.array_equal(res.omega, ref.omega)
    assert np.array_equal(res.dest, ref.dest)
    assert np.array_equal(res.steps, ref.steps)


# ----------------------------------------------------------------------
# StageTimers: stage seconds + per-stage dispatch counts
# ----------------------------------------------------------------------
def test_stage_timers_as_dict_reports_seconds_and_counts():
    from repro.frw import StageTimers
    from repro.frw.engine import STAGE_NAMES

    tm = StageTimers(index=0.5, sample=0.25, steps=7)
    tm.counts.update(index=3, sample=2)
    d = tm.as_dict()
    assert set(STAGE_NAMES) < set(d)
    assert d["counts"] == {
        **{s: 0 for s in STAGE_NAMES}, "index": 3, "sample": 2
    }
    assert d["total"] == tm.total == 0.75
    assert d["steps"] == 7
    assert all(d[s] >= 0.0 for s in STAGE_NAMES)


def test_engine_run_charges_dispatch_counts(plates, run_pipelined):
    """A real engine run records at least one dispatch for every stage it
    timed, and none for ``rng``: the launch and the hop compute their
    draws, so no draw stage runs."""
    from repro.frw import StageTimers

    ctx = ctx_for(plates)
    uids = np.arange(256, dtype=np.uint64)
    tm = StageTimers()
    run_pipelined(ctx, WalkStreams(11, 0), uids, width=64, timers=tm)
    assert tm.steps > 0
    assert tm.counts["sample"] > 0
    assert tm.counts["retire"] > 0
    assert "rng" not in tm.counts and tm.rng == 0.0
    d = tm.as_dict()
    assert d["counts"]["rng"] == 0
