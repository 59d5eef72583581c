"""Golden bit-identity tests for the slot-arena engine.

The golden values below were pinned from the *scalar reference* — each walk
executed alone, one single-element engine invocation per UID — so they are
independent of batching, pipelining, arena slot management, and executor
scheduling.  Every engine entry point must reproduce them bit-for-bit:

* the plain batch engine (``run_walks``),
* the refill pipeline (``WalkPipeline`` over consecutive batches, with a
  caller that holds later batches back or not),
* thread-parallel execution: concurrent caller threads (as the
  service's slots are) running ``run_walks`` on one shared context, for
  1, 2 and 4 threads,
* executor-parallel execution on a ``PersistentExecutor`` for
  ``n_workers`` in {1, 2, 4}: one in-process vector, or one vector on each
  worker thread, the batch cut over them.

Those runs are narrower than the kernels' split size, so they run on one
thread.  :data:`WIDE_GOLDEN` pins 20,000-walk rows of both geometries
and every lane kind, wide enough that the launch, the query and the hop
split over the thread team, at team sizes 1 to 4.

Two geometries are covered: a homogeneous-dielectric case and a stratified
case whose walks take interface-snapped hemisphere steps (asserted, not
assumed).  The first eight walks' weights are pinned as float hex for
debuggability; the full 256-walk result arrays are pinned by SHA-256.
"""

import hashlib
import threading

import numpy as np
import pytest

from repro import Box, Conductor, DielectricStack, FRWConfig, Structure
from repro.frw import (
    PersistentExecutor,
    WalkPipeline,
    build_context,
    run_walks,
    stream_spec,
)
from repro.frw.engine import concat_results
from repro.lint.sanitizer import forbid_global_rng
from repro.rng import MirroredDraws, MTWalkStreams, WalkStreams

SEED = 2024
N_WALKS = 256


@pytest.fixture(autouse=True)
def _rng_sanitizer():
    """Every golden test runs with the RNG sanitizer armed: engine code
    reaching for global np.random/random state fails loudly here instead
    of surfacing as one-bit golden drift in a later PR."""
    with forbid_global_rng():
        yield

GOLDEN = {
    "homogeneous": {
        "sha256": "6aa272e2e3a1b74dc5d6881ed988208ed25b7a9a13cbdad1d500af00fa597187",
        "omega_head": [
            "0x1.c977b849137c7p-2",
            "0x1.c46007d29fd8cp+0",
            "-0x1.23fc7dbb7f563p+1",
            "-0x1.3ebb89e503a68p+0",
            "-0x1.52743bb07f286p-2",
            "-0x1.69366fe1dbc28p+1",
            "-0x1.7f1a50ecca7e3p+0",
            "0x1.4ce624506a838p+1",
        ],
        "dest_head": [0, 0, 0, 3, 3, 3, 0, 0],
        "steps_head": [12, 14, 15, 7, 11, 19, 14, 2],
    },
    "stratified": {
        "sha256": "f3dd099eb87a5711e4abff0f03c68f33a70f29b484c8c282d405f8bb99402fb6",
        "omega_head": [
            "0x1.3a8e89060cc0bp+0",
            "-0x1.9a728b2e82ec7p+2",
            "-0x1.c714c17eb367ap+4",
            "-0x1.b652e79b476c3p+1",
            "-0x1.d171e9f8c4a95p-1",
            "-0x1.f0be2932e9f26p+2",
            "-0x1.2a8bd7eb2cb9ap+4",
            "0x1.c9ce3dceaf6d7p+2",
        ],
        "dest_head": [0, 0, 0, 2, 2, 2, 0, 0],
        "steps_head": [56, 105, 58, 13, 38, 5, 33, 2],
    },
}


#: Walks of a wide row: every vector step from the launch to the drain
#: tail's first ~1,000 walks splits over the thread team.
WIDE_WALKS = 20_000

#: SHA-256 prefixes of the wide rows (``run_walks`` of ``WIDE_WALKS``
#: walks) per geometry and lane kind, pinned on one thread before the
#: kernels split: plain Philox, mirrored (antithetic) and per-walk MT19937
#: (FRW-NC) lanes.
WIDE_GOLDEN = {
    ("homogeneous", "plain"): "40e402279c227410",
    ("homogeneous", "mirrored"): "f7b470eac53afa14",
    ("homogeneous", "mt"): "b99ca27934c95f96",
    ("stratified", "plain"): "867d71403f5e7bac",
    ("stratified", "mirrored"): "1e6edf29a91b3d0f",
    ("stratified", "mt"): "1de76bdd6155b2da",
}


def wide_row(case: str, lane: str) -> tuple[str, tuple]:
    """The digest prefix of a wide row and its index query counts."""
    if lane == "mt":
        cfg = FRWConfig.frw_nc(seed=SEED)
        streams = MTWalkStreams(SEED, 0)
    elif lane == "mirrored":
        cfg = FRWConfig.frw_r(seed=SEED)
        streams = MirroredDraws(WalkStreams(SEED, 0))
    else:
        cfg = FRWConfig.frw_r(seed=SEED, antithetic=False)
        streams = WalkStreams(SEED, 0)
    ctx = build_context(_build_structure(case), 0, cfg)
    res = run_walks(ctx, streams, np.arange(WIDE_WALKS, dtype=np.uint64))
    st = ctx.index.stats
    counts = (st.queries, st.points, st.near_points, st.candidates_visited)
    return _digest(res)[:16], counts


def _build_structure(case: str) -> Structure:
    if case == "homogeneous":
        wires = [
            Conductor.single(
                f"w{i}", Box.from_bounds(2.0 * i, 2.0 * i + 1.0, 0, 8, 0, 1)
            )
            for i in range(3)
        ]
        return Structure(
            wires, enclosure=Box.from_bounds(-4, 9, -4, 12, -4, 5)
        )
    w1 = Conductor.single("w1", Box.from_bounds(0, 1, 0, 6, 0.5, 1.3))
    w2 = Conductor.single("w2", Box.from_bounds(2.5, 3.5, 0, 6, 3.0, 3.8))
    stack = DielectricStack(interfaces=(2.13,), eps=(3.9, 2.7))
    return Structure(
        [w1, w2],
        dielectric=stack,
        enclosure=Box.from_bounds(-4, 8, -4, 10, -3, 8),
    )


@pytest.fixture(scope="module", params=["homogeneous", "stratified"])
def golden_case(request):
    case = request.param
    cfg = FRWConfig.frw_r(seed=SEED, antithetic=False)
    ctx = build_context(_build_structure(case), 0, cfg)
    uids = np.arange(N_WALKS, dtype=np.uint64)
    return case, ctx, uids


def _digest(res) -> str:
    h = hashlib.sha256()
    h.update(np.asarray(res.omega, dtype=np.float64).tobytes())
    h.update(np.asarray(res.dest, dtype=np.int64).tobytes())
    h.update(np.asarray(res.steps, dtype=np.int64).tobytes())
    return h.hexdigest()


def _check(case: str, res) -> None:
    golden = GOLDEN[case]
    head = [float.fromhex(v) for v in golden["omega_head"]]
    np.testing.assert_array_equal(res.omega[:8], head)
    assert res.dest[:8].tolist() == golden["dest_head"]
    assert res.steps[:8].tolist() == golden["steps_head"]
    assert _digest(res) == golden["sha256"]


def test_plain_engine_matches_golden(golden_case):
    case, ctx, uids = golden_case
    res = run_walks(ctx, WalkStreams(SEED, 0), uids)
    _check(case, res)


def test_scalar_reference_matches_golden_head(golden_case):
    """The first golden walks re-derived walk-by-walk (the pinning recipe)."""
    case, ctx, uids = golden_case
    golden = GOLDEN[case]
    for i in range(8):
        res = run_walks(ctx, WalkStreams(SEED, 0), uids[i : i + 1])
        assert res.omega[0] == float.fromhex(golden["omega_head"][i])
        assert int(res.dest[0]) == golden["dest_head"][i]
        assert int(res.steps[0]) == golden["steps_head"][i]


@pytest.mark.parametrize("width,ahead", [(64, 0), (64, 2), (96, 3)])
def test_pipelined_engine_matches_golden(golden_case, width, ahead):
    """``width``-walk batches through one refill vector whose caller holds
    back every batch more than ``ahead`` past the oldest unemitted one.
    At ``ahead = 0`` each batch drains alone (the vector goes idle between
    batches); wider queues refill across batches.  The schedule never
    reaches a bit."""
    case, ctx, uids = golden_case
    batches = [uids[a : a + width] for a in range(0, uids.shape[0], width)]
    pipe, parts, submitted = WalkPipeline(), [], 0
    while len(parts) < len(batches):
        while submitted < len(batches) and submitted <= len(parts) + ahead:
            batch = batches[submitted]
            pipe.submit(submitted, 0, ctx, WalkStreams(SEED, 0), batch, width)
            submitted += 1
        seq, res = pipe.next_batch()
        assert seq == len(parts)
        parts.append(res)
    assert pipe.next_batch() is None
    _check(case, concat_results(uids, parts))


def _executor_run(ctx, uids, n_workers):
    with PersistentExecutor(n_workers) as ex:
        return ex.run(ex.register(ctx, stream_spec(ctx.config, 0)), uids)


@pytest.mark.parametrize("n_threads", [1, 2, 4])
def test_thread_parallel_matches_golden(golden_case, n_threads):
    """Caller threads sharing one context and one stream set — the
    service's concurrent slots share a structure's index the same way —
    each run interleaved 32-walk pieces on their own thread-local arena
    and span scratch; the pieces, put back in UID order, are the
    goldens."""
    case, ctx, uids = golden_case
    streams = WalkStreams(SEED, 0)
    pieces = [uids[a : a + 32] for a in range(0, uids.shape[0], 32)]
    parts = [None] * len(pieces)
    start = threading.Barrier(n_threads)
    errors = []

    def work(t):
        try:
            start.wait()
            for i in range(t, len(pieces), n_threads):
                parts[i] = run_walks(ctx, streams, pieces[i])
        except BaseException as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=work, args=(t,)) for t in range(n_threads)
    ]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=120)
    assert not any(th.is_alive() for th in threads)
    if errors:
        raise errors[0]
    _check(case, concat_results(uids, parts))


@pytest.mark.parametrize("n_workers", [1, 2, 4])
def test_process_parallel_matches_golden(golden_case, n_workers):
    case, ctx, uids = golden_case
    _check(case, _executor_run(ctx, uids, n_workers))


@pytest.mark.parametrize("case,lane", sorted(WIDE_GOLDEN))
def test_wide_rows_are_the_same_on_any_team(case, lane, team_size):
    """A wide row's launch, query and hop split over teams of 1 to 4
    threads (3 leaves a ragged last part; 4 oversubscribes a 2-CPU host):
    every team gives the pinned bytes and the same index query counts."""
    seen = set()
    for threads in (1, 2, 3, 4):
        assert team_size(threads) == threads
        seen.add(wide_row(case, lane))
    assert len(seen) == 1
    assert seen.pop()[0] == WIDE_GOLDEN[case, lane]


def test_stratified_case_exercises_interface_snapping(monkeypatch):
    """The stratified golden case must actually take hemisphere steps —
    otherwise it would not cover the interface-snap path it claims to.
    Each compiled ``advance`` call reports the walks it snapped."""
    cfg = FRWConfig.frw_r(seed=SEED, antithetic=False)
    ctx = build_context(_build_structure("stratified"), 0, cfg)
    uids = np.arange(N_WALKS, dtype=np.uint64)
    snaps = []
    real_advance = WalkPipeline._advance

    def counting(self):
        status = real_advance(self)
        snaps.append(self._arena.snapped)
        return status

    monkeypatch.setattr(WalkPipeline, "_advance", counting)
    res = run_walks(ctx, WalkStreams(SEED, 0), uids)
    _check("stratified", res)
    assert sum(snaps) > 0
