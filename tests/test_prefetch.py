"""Prefetch-depth invariance: the layer-8 RNG prefetch ring is bit-invisible.

Three layers of guarantees:

1. RNG: ``draws_span`` — the one vector Philox kernel, which fills the
   ring — produces *exactly* the words of the scalar reference
   ``draws_scalar`` at every step of the span, for plain ``WalkStreams``
   and through the ``MirroredDraws`` antithetic view (hypothesis property
   tests over uids/steps/depths), from a scratch footprint bounded by
   ``SPAN_TILE`` whatever the span shapes.
2. Engine: a pipelined ``run_segments`` run reproduces the pinned
   scalar-reference goldens at every prefetch depth (``RNG_PREFETCH_DEPTH``
   patched; also pinned per-depth in ``test_engine_golden``); the
   sequential MT ablation streams hand each walk its next draws in order,
   so their spans run on the ring and stay bit-identical too.
3. Extraction: rows are byte-identical across the engine's prefetch depth
   (:data:`repro.frw.engine.RNG_PREFETCH_DEPTH`, patched to {1, 2, 4, 8})
   x backends x n_workers {1, 2, 4}, antithetic off *and* on —
   prefetching changes when draws are generated, never what they are, so
   no schedule can observe it.  Spawned process workers import the
   module afresh and so run at the default depth.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FRWConfig
from repro.frw import (
    build_context,
    cross_master,
    engine,
    extract_row_alg2,
    make_streams,
)
from repro.frw.engine import RNG_PREFETCH_DEPTH
from repro.rng import MirroredDraws, WalkStreams
from repro.rng.counter_stream import MAX_PREFETCH_STEPS, SPAN_TILE

from test_engine_golden import SEED, _build_structure, _digest

# No module-wide sanitizer fixture here: hypothesis legitimately uses the
# global stdlib RNG between examples.  The extraction tests arm it per
# call through FRWConfig.sanitize instead (see _BASE below).


# ----------------------------------------------------------------------
# RNG layer: the fused span pass is the scalar reference, verbatim
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
    depth=st.integers(min_value=1, max_value=MAX_PREFETCH_STEPS),
    count=st.integers(min_value=1, max_value=8),
)
def test_draws_span_equals_per_step_draws(seed, data, depth, count):
    n = data.draw(st.integers(min_value=1, max_value=33), label="n")
    uids = np.asarray(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=2**64 - 1),
                min_size=n,
                max_size=n,
            ),
            label="uids",
        ),
        dtype=np.uint64,
    )
    steps = np.asarray(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=10_000),
                min_size=n,
                max_size=n,
            ),
            label="steps",
        ),
        dtype=np.uint64,
    )
    streams = WalkStreams(seed, 0)
    span = streams.draws_span(uids, steps, depth, count)
    assert span.shape == (depth, n, count)
    for k in range(depth):
        expect = [
            streams.draws_scalar(int(uid), int(step) + k, count)
            for uid, step in zip(uids, steps)
        ]
        np.testing.assert_array_equal(span[k], expect)
    np.testing.assert_array_equal(
        streams.draws(uids, steps, count), span[0]
    )


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    base=st.integers(min_value=0, max_value=2**40),
    step0=st.integers(min_value=0, max_value=4),  # small: some spans cover step 1
    depth=st.integers(min_value=1, max_value=8),
)
def test_mirrored_draws_span_equals_per_step(seed, base, step0, depth):
    """The antithetic view's span applies the same transforms the scalar
    reference applies — one (depth, n) step grid, same words out."""
    n = 5
    uids = np.arange(base, base + n, dtype=np.uint64)
    mirrored = MirroredDraws(WalkStreams(seed, 0))
    steps = np.arange(step0, step0 + n, dtype=np.uint64)
    span = mirrored.draws_span(uids, steps, depth, 3)
    for k in range(depth):
        expect = [
            mirrored.draws_scalar(int(uid), int(step) + k, 3)
            for uid, step in zip(uids, steps)
        ]
        np.testing.assert_array_equal(span[k], expect)


def test_span_scratch_is_bounded():
    """Span scratch is one fixed ``SPAN_TILE`` tile set, not a buffer grown
    to the largest rows and columns a stream has seen: a deep span over a
    few walks followed by a one-step span over many walks must not leave a
    (deep x wide) lattice behind."""
    uids = np.arange(10_000, dtype=np.uint64)
    tracemalloc.start()
    try:
        streams = WalkStreams(5, 0)
        deep = streams.draws_span(uids[:33], 0, 16, 3)
        wide = streams.draws_span(uids, 0, 1, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 10_000 > SPAN_TILE // 2  # the wide span spans two column tiles
    assert peak <= deep.nbytes + wide.nbytes + 2 * 2**20


def test_draws_span_validates_arguments():
    streams = WalkStreams(7, 0)
    uids = np.arange(4, dtype=np.uint64)
    with pytest.raises(Exception):
        streams.draws_span(uids, 0, 0, 3)
    with pytest.raises(Exception):
        streams.draws_span(uids, 0, MAX_PREFETCH_STEPS + 1, 3)


# ----------------------------------------------------------------------
# Engine layer: pinned goldens at every depth, MT spans included
# ----------------------------------------------------------------------
def test_config_prefetch_knob_validation():
    """The depth is an engine constant inside the span kernel's range (the
    retired config field is covered by the service's unknown-field
    tests)."""
    assert RNG_PREFETCH_DEPTH == 8
    assert 1 <= RNG_PREFETCH_DEPTH <= MAX_PREFETCH_STEPS


def test_mt_streams_ring_bit_identical(run_pipelined, monkeypatch):
    """The sequential MT ablation streams fill the ring too: a span hands
    each walk its next ``depth * count`` uniforms — what ``depth`` one-step
    calls would — so a deep ring leaves the walk bytes unchanged."""
    ctx = build_context(
        _build_structure("homogeneous"), 0, FRWConfig.frw_r(seed=SEED)
    )
    cfg_mt = FRWConfig.frw_nc(seed=SEED)
    uids = np.arange(128, dtype=np.uint64)
    monkeypatch.setattr(engine, "RNG_PREFETCH_DEPTH", 1)
    base = run_pipelined(ctx, make_streams(cfg_mt, 0), uids, width=64)
    monkeypatch.setattr(engine, "RNG_PREFETCH_DEPTH", 8)
    deep = run_pipelined(ctx, make_streams(cfg_mt, 0), uids, width=64)
    assert _digest(base) == _digest(deep)


def test_wide_vectors_cross_fusion_threshold_bit_identical(
    run_pipelined, monkeypatch
):
    """A vector width past the adaptive-fusion budget starts with one-step
    ring refills and drops below the threshold as the walk population
    drains — one run mixes both fill depths, and the bytes still cannot
    tell (the threshold is a pure scheduling decision)."""
    ctx = build_context(
        _build_structure("homogeneous"), 0, FRWConfig.frw_r(seed=SEED)
    )
    n = 5000  # > SPAN_TILE / (2 * depth) for every depth tested
    uids = np.arange(n, dtype=np.uint64)
    monkeypatch.setattr(engine, "RNG_PREFETCH_DEPTH", 1)
    ref = _digest(run_pipelined(ctx, WalkStreams(SEED, 0), uids, width=n))
    for depth in (2, 8):
        assert n > SPAN_TILE // (2 * depth)  # crosses the budget
        monkeypatch.setattr(engine, "RNG_PREFETCH_DEPTH", depth)
        res = run_pipelined(ctx, WalkStreams(SEED, 0), uids, width=n)
        assert _digest(res) == ref


# ----------------------------------------------------------------------
# Extraction layer: depth x backend x workers x antithetic bit-identity
# ----------------------------------------------------------------------
_BASE = dict(
    seed=13, n_threads=4, batch_size=256, min_walks=512, max_walks=1024,
    tolerance=1e-6, sanitize=True,
)

_BACKENDS = [
    dict(executor="serial"),
    dict(executor="process", n_workers=1),
    dict(executor="process", n_workers=3),
    dict(executor="process", n_workers=2, mp_start_method="forkserver"),
    dict(executor="process", n_workers=2),
    dict(executor="process", n_workers=4),
    dict(executor="process", n_workers=2, mp_start_method="spawn"),
]


def _extract(structure, depth, lookahead=None, **overrides):
    cfg = FRWConfig.frw_r(**_BASE, **overrides)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "RNG_PREFETCH_DEPTH", depth)
        if lookahead is not None:
            mp.setattr(cross_master, "PIPELINE_LOOKAHEAD", lookahead)
        return extract_row_alg2(build_context(structure, 0, cfg))


def _assert_rows_equal(got, ref):
    row, stats = got
    ref_row, ref_stats = ref
    assert np.array_equal(row.values, ref_row.values)
    assert np.array_equal(row.sigma2, ref_row.sigma2)
    assert np.array_equal(row.hits, ref_row.hits)
    assert row.walks == ref_row.walks
    assert row.total_steps == ref_row.total_steps


@pytest.fixture(scope="module")
def prefetch_reference(plates):
    """Depth-1 serial extraction: the no-ring baseline every (depth,
    backend, workers) combination must reproduce byte for byte."""
    return _extract(plates, 1, lookahead=0, executor="serial")


@pytest.mark.parametrize("depth", [1, 2, 4, 8])
@pytest.mark.parametrize("kwargs", _BACKENDS)
def test_rows_bitwise_across_depth_and_backends(
    plates, prefetch_reference, depth, kwargs
):
    _assert_rows_equal(
        _extract(plates, depth, **kwargs),
        prefetch_reference,
    )


@pytest.fixture(scope="module")
def prefetch_anti_reference(plates):
    return _extract(
        plates, 1, lookahead=0, executor="serial", antithetic=True
    )


@pytest.mark.parametrize("depth", [2, 4, 8])
@pytest.mark.parametrize(
    "kwargs",
    [
        dict(executor="serial"),
        dict(executor="process", n_workers=2),
        dict(executor="process", n_workers=4),
        dict(executor="process", n_workers=2, mp_start_method="spawn"),
    ],
)
def test_antithetic_rows_bitwise_across_depths(
    plates, prefetch_anti_reference, depth, kwargs
):
    """Prefetching composes with the antithetic MirroredDraws view: the
    partner transforms are applied inside the span pass, so grouped rows
    are byte-identical at every ring depth and backend."""
    _assert_rows_equal(
        _extract(plates, depth, antithetic=True, **kwargs),
        prefetch_anti_reference,
    )
