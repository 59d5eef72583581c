"""Tests for antithetic sampling (MirroredDraws + pair-mean
accumulation).

Three layers of guarantees:

1. RNG: partner draws are *exact* elementwise transforms of the primary's
   Philox words (hypothesis property tests recompute the transforms
   independently), identity paths are bit-exact, and the slot-0 transform
   lands on the antipodal transition-cube cell.
2. Estimator: group-mean accumulation keeps the mean bit-consistent with
   the raw mean and reports the variance *of group means*; mismatched
   merges and grouped/ungrouped mixing raise instead of corrupting.
3. Extraction: antithetic-off stays byte-identical to the pinned engine
   goldens at n_workers {1,2,4}; the default (antithetic-on) row is
   pinned and bit-identical on the serial executor and at n_workers
   1 to 8, 12, 16 and auto.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FRWConfig
from repro.errors import ConfigError
from repro.frw import (
    PersistentExecutor,
    build_context,
    cross_master,
    extract_row_alg2,
    run_walks,
    stream_spec,
)
from repro.frw.estimator import RowAccumulator
from repro.frw.parallel import streams_from_spec
from repro.greens.cube_table import get_cube_table
from repro.rng import (
    MirroredDraws,
    WalkStreams,
    antipodal_uniform,
    mirror_uniform,
)

from test_engine_golden import GOLDEN, N_WALKS, SEED, _check, _digest


# ----------------------------------------------------------------------
# Transform primitives
# ----------------------------------------------------------------------


@given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
@settings(max_examples=60)
def test_mirror_uniform_identity_row_bit_exact(u):
    """reflect=0 must pass the value through unchanged: the branchless
    whole-block transform relies on it."""
    arr = np.array([u])
    mirror_uniform(arr, np.float64(0.0))
    assert arr[0] == u
    arr = np.array([u])
    antipodal_uniform(arr, np.float64(0.0))
    assert arr[0] == u


@given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
@settings(max_examples=120)
def test_transforms_stay_in_unit_interval(u):
    for fn in (mirror_uniform, antipodal_uniform):
        arr = np.array([u])
        fn(arr, np.float64(1.0))
        assert 0.0 <= arr[0] < 1.0


@given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
@settings(max_examples=60)
def test_antipodal_preserves_third(u):
    """The slot-0 transform reflects *within* the draw's third of [0,1),
    so the selected face pair (cube axis) never changes."""
    arr = np.array([u])
    antipodal_uniform(arr, np.float64(1.0))
    p_in = math.floor(u * 3.0)
    p_out = math.floor(arr[0] * 3.0)
    if p_out != p_in:
        # Rounding may park the reflected value exactly on a third
        # boundary (a measure-zero set); anywhere else is a bug.
        assert abs(arr[0] * 3.0 - round(arr[0] * 3.0)) < 1e-15


# ----------------------------------------------------------------------
# MirroredDraws: partner words are exact transforms of the primary words
# ----------------------------------------------------------------------


@given(
    st.integers(min_value=0, max_value=2**40),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_mirrored_draws_are_exact_transforms(seed, step, count):
    """The core property: the partner's draw at (step, slot) equals the
    fixed transform of the *primary's* word at (step, slot), recomputed
    here independently of MirroredDraws' vectorised path."""
    base = WalkStreams(seed, 0)
    md = MirroredDraws(base)
    uids = np.arange(8, dtype=np.uint64)
    got = md.draws(uids, step, count)
    primary_words = base.draws(uids - uids % np.uint64(2), step, count)
    for i, uid in enumerate(uids):
        expect = primary_words[i].copy()
        if int(uid) % 2 and step == 1:
            antipodal_uniform(expect[:1], np.float64(1.0))
            if count > 1:
                mirror_uniform(expect[1:], np.float64(1.0))
        assert got[i].tolist() == expect.tolist()


@given(
    st.integers(min_value=0, max_value=2**40),
    st.integers(min_value=0, max_value=2**20),
    st.integers(min_value=0, max_value=5),
)
@settings(max_examples=60, deadline=None)
def test_mirrored_scalar_matches_vectorised(seed, uid, step):
    md = MirroredDraws(WalkStreams(seed, 3))
    vec = md.draws(np.array([uid], dtype=np.uint64), step, 4)[0]
    assert vec.tolist() == md.draws_scalar(uid, step, 4)


def test_mirrored_draws_per_walk_step_array():
    """The engine passes per-walk step arrays; the transform mask must be
    evaluated per element."""
    base = WalkStreams(11, 0)
    md = MirroredDraws(base)
    uids = np.array([0, 1, 2, 3], dtype=np.uint64)
    steps = np.array([0, 1, 1, 2], dtype=np.uint64)
    got = md.draws(uids, steps, 3)
    prim = base.draws(uids - uids % np.uint64(2), steps, 3)
    # uid 0 (primary), uid 1 at step 1 (transformed), uid 2 primary,
    # uid 3 at step 2 (identity).
    assert np.array_equal(got[0], prim[0])
    assert not np.array_equal(got[1], prim[1])
    assert np.array_equal(got[2], prim[2])
    assert np.array_equal(got[3], prim[3])


def test_mirrored_draws_batch_invariant():
    """Partner values are pure per-UID functions: any batching/order of
    the same UIDs yields bit-identical numbers (the DOP-invariance
    guarantee inherited from the base stream)."""
    md = MirroredDraws(WalkStreams(5, 1))
    uids = np.arange(32, dtype=np.uint64)
    full = md.draws(uids, 1, 3)
    perm = np.argsort(np.mod(uids * np.uint64(13), np.uint64(32)))
    assert np.array_equal(md.draws(uids[perm], 1, 3), full[perm])
    parts = [md.draws(uids[i : i + 5], 1, 3) for i in range(0, 32, 5)]
    assert np.array_equal(np.concatenate(parts), full)


def test_partner_first_hop_is_antipodal_cell():
    """Slot-0 transform + reflected jitter: the partner's first hop lands
    on the *antipodal* transition-cube point — same axis, opposite side,
    point-mirrored transverse cell, mirrored jitter.  This is what makes
    the first-hop flux weights (odd centre-gradient kernel) cancel."""
    table = get_cube_table()
    base = WalkStreams(2024, 0)
    md = MirroredDraws(base)
    uids = np.arange(4096, dtype=np.uint64)
    u = md.draws(uids, 1, 3)
    cells = table.sample_cells(u[:, 0])
    prim, part = cells[0::2], cells[1::2]
    assert np.array_equal(table.face_axis[prim], table.face_axis[part])
    assert np.array_equal(table.face_side[prim], 1 - table.face_side[part])
    assert np.array_equal(
        table.cell_i[prim], table.nf - 1 - table.cell_i[part]
    )
    assert np.array_equal(
        table.cell_j[prim], table.nf - 1 - table.cell_j[part]
    )
    # Hop positions on the unit cube are point reflections through the
    # centre (up to one cell width of jitter discretisation).
    pos = table.unit_positions(cells, u[:, 1], u[:, 2])
    np.testing.assert_allclose(
        pos[0::2] + pos[1::2], 1.0, atol=1.5 / table.nf
    )


def test_group_mean_variance_drops_on_first_hop_weight():
    """End-to-end variance sanity on the real kernel: the sample variance
    of group-mean first-hop weights must be far below the raw per-walk
    variance (this is the whole point of the transform)."""
    table = get_cube_table()
    base = WalkStreams(7, 0)
    md = MirroredDraws(base)
    uids = np.arange(8192, dtype=np.uint64)
    u = md.draws(uids, 1, 3)
    cells = table.sample_cells(u[:, 0])
    w = table.grad_ratio[2, cells]  # one gradient axis of the flux weight
    gm = w.reshape(-1, 2).mean(axis=1)
    assert gm.var() < 0.05 * w.var()


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------


def test_config_antithetic_knob_validation():
    ok = FRWConfig.frw_r(antithetic=True, batch_size=1024, min_walks=4)
    assert ok.antithetic
    with pytest.raises(ConfigError):
        FRWConfig.frw_r(antithetic=True, batch_size=1001)
    with pytest.raises(ConfigError):
        FRWConfig.frw_nc(antithetic=True)  # MT streams are stateful
    with pytest.raises(ConfigError):
        FRWConfig(variant="alg1", antithetic=True)
    with pytest.raises(ConfigError):
        FRWConfig.frw_r(antithetic=True, min_walks=2, batch_size=1024)


def test_stream_spec_shape_depends_on_antithetic():
    """A spec carries the antithetic flag, and only on-path specs build
    the mirrored view."""
    off = stream_spec(FRWConfig.frw_r(seed=3, antithetic=False), 1)
    assert off == ("philox", 3, 1, False)
    on = stream_spec(FRWConfig.frw_r(seed=3, antithetic=True), 1)
    assert on == ("philox", 3, 1, True)
    assert isinstance(streams_from_spec(on), MirroredDraws)
    assert not isinstance(streams_from_spec(off), MirroredDraws)


# ----------------------------------------------------------------------
# Grouped accumulation
# ----------------------------------------------------------------------


def _fake_batch(n, n_cond=3, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal(n),
        rng.integers(0, n_cond, size=n),
        rng.integers(1, 20, size=n),
    )


def test_add_group_batch_mean_matches_raw_mean():
    """A paired ``add_batch`` (once ``add_group_batch``) keeps the raw mean."""
    omega, dest, steps = _fake_batch(96)
    raw = RowAccumulator(3, 0)
    raw.add_batch(omega, dest, steps)
    grouped = RowAccumulator(3, 0, paired=True)
    grouped.add_batch(omega, dest, steps)
    np.testing.assert_allclose(
        grouped.row().values, raw.row().values, rtol=1e-12
    )
    assert grouped.walks == raw.walks == 96
    assert grouped.samples == 48 and raw.samples == 96
    assert np.array_equal(grouped.row().hits, raw.row().hits)
    assert grouped.row().total_steps == raw.row().total_steps


def test_add_group_batch_variance_is_of_group_means():
    omega, dest, _ = _fake_batch(64, n_cond=2, seed=1)
    acc = RowAccumulator(2, 0, paired=True)
    acc.add_batch(omega, dest)
    # Reference: per-pair mean weight landing on conductor 0.
    w0 = np.where(dest == 0, omega, 0.0).reshape(-1, 2).mean(axis=1)
    m = w0.shape[0]
    expect = w0.var(ddof=1) / m
    np.testing.assert_allclose(acc.row().sigma2[0], expect, rtol=1e-10)
    # And self_relative_error is derived from the same quantity.
    np.testing.assert_allclose(
        acc.self_relative_error,
        math.sqrt(expect) / abs(w0.mean()),
        rtol=1e-10,
    )


def test_grouped_accumulator_refuses_per_walk_paths():
    acc = RowAccumulator(3, 0, paired=True)
    omega, dest, steps = _fake_batch(8)
    with pytest.raises(ConfigError):
        acc.add_walk(1.0, 0)
    with pytest.raises(ConfigError):
        acc.add_walks_ordered(omega, dest, steps)
    with pytest.raises(ConfigError, match="whole pairs"):
        acc.add_batch(omega[:7], dest[:7])
    assert acc.walks == 0 and not acc.sum_w.value.any()
    # Whole pairs go through, and a plain accumulator takes any count.
    acc.add_batch(omega, dest, steps)
    assert acc.walks == 8 and acc.samples == 4
    plain = RowAccumulator(3, 0)
    plain.add_batch(omega[:7], dest[:7])
    assert plain.samples == 7


def test_merge_asserts_matching_configuration():
    """Regression test for the silent-mixing bug: merge() used to absorb
    accumulators with different summation modes or conductor counts."""
    base = RowAccumulator(3, 0, summation="kahan")
    with pytest.raises(ConfigError):
        base.merge(RowAccumulator(3, 0, summation="naive"))
    with pytest.raises(ConfigError):
        base.merge(RowAccumulator(4, 0, summation="kahan"))
    with pytest.raises(ConfigError):
        base.merge(RowAccumulator(3, 1, summation="kahan"))
    with pytest.raises(ConfigError):
        base.merge(RowAccumulator(3, 0, summation="kahan", paired=True))
    with pytest.raises(ConfigError):
        base.merge(object())
    # And matching configurations still merge.
    other = base.spawn()
    omega, dest, steps = _fake_batch(16)
    other.add_batch(omega, dest, steps)
    base.merge(other)
    assert base.walks == 16


def test_add_batch_asserts_shapes_and_range():
    acc = RowAccumulator(3, 0)
    with pytest.raises(ConfigError):
        acc.add_batch(np.ones(4), np.zeros(3, dtype=np.int64))
    with pytest.raises(ConfigError):
        acc.add_batch(np.ones(2), np.array([0, 3]))
    with pytest.raises(ConfigError):
        acc.add_batch(np.ones(1), np.array([-1]))


# ----------------------------------------------------------------------
# Extraction: off-path byte-identity to the PR 6 goldens
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n_workers", [1, 2, 4], ids=lambda n: f"process-{n}")
def test_antithetic_off_matches_pinned_goldens(three_wires, n_workers):
    """antithetic=False must leave the walk bytes untouched: the engine
    fed through the (new) stream-spec plumbing still reproduces the PR 6
    golden digests at every worker count."""
    cfg = FRWConfig.frw_r(seed=SEED, antithetic=False)
    ctx = build_context(three_wires, 0, cfg)
    uids = np.arange(N_WALKS, dtype=np.uint64)
    with PersistentExecutor(n_workers) as ex:
        key = ex.register(ctx, stream_spec(cfg, 0))
        res = ex.run(key, uids)
    _check("homogeneous", res)
    assert _digest(res) == GOLDEN["homogeneous"]["sha256"]


# ----------------------------------------------------------------------
# Extraction: the default row, pinned across the execution matrix
# ----------------------------------------------------------------------

_ROW = dict(
    seed=13, n_threads=4, batch_size=256, min_walks=512, max_walks=1024,
    tolerance=1e-6,
)
_ANTI_BASE = dict(_ROW, antithetic=True)

#: SHA-256 of the default-config row (values, sigma2, hits) of the plates'
#: master 0 under ``_ROW``: antithetic pairs, mirrored on the first hop.
DEFAULT_ROW = {
    "sha256": "d24ea30b783856f5e16ceb8e4bf93d1d7abb8844546fd1bbe14830d1d4b868bb",
    "walks": 1024,
    "total_steps": 10039,
    "batches": 4,
}


def _row_digest(row) -> str:
    h = hashlib.sha256()
    for a in (row.values, row.sigma2, row.hits):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


#: ``min_walks < batch_size / 2`` (the ``ramped`` ids): 24 batches of
#: ``b0`` = 64 walks on vectors 512 wide, stopped by the walk cap.
_RAMP_ROW = dict(_ROW, batch_size=512, min_walks=40, max_walks=1536)


def _serial_reference(structure, row):
    cfg = FRWConfig.frw_r(**row, executor="serial")
    assert cfg.antithetic  # the default is on
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cross_master, "PIPELINE_LOOKAHEAD", 0)
        return extract_row_alg2(build_context(structure, 0, cfg))


@pytest.fixture(scope="module")
def anti_reference(plates):
    return _serial_reference(plates, _ROW)


@pytest.fixture(scope="module")
def ramp_reference(plates):
    """The ``_RAMP_ROW`` row, byte-equal to the row at ``batch_size=b0``:
    ``B`` sets only the vector width."""
    row, stats = _serial_reference(plates, _RAMP_ROW)
    assert (row.walks, stats.batches) == (1536, 24)
    narrow, narrow_stats = _serial_reference(plates, dict(_RAMP_ROW, batch_size=64))
    assert _row_digest(narrow) == _row_digest(row)
    assert narrow.total_steps == row.total_steps
    assert narrow_stats.batches == stats.batches
    return row, stats


#: The serial executor, then worker counts up to 16: more workers than
#: CPUs cut each batch into more pieces, and ``0`` is the auto count.
_MATRIX = [dict(executor="serial")] + [
    dict(executor="process", n_workers=n)
    # n = 3: a lone master cuts each 256-walk batch into 2 queue entries.
    for n in (3, 2, 4, 1, 5, 6, 7, 8, 12, 16, 0)
]


@pytest.mark.parametrize(
    "ramped,kwargs",
    [(False, k) for k in _MATRIX] + [(True, k) for k in _MATRIX],
    ids=[f"kwargs{i}" for i in range(len(_MATRIX))]
    + [f"ramped-kwargs{i}" for i in range(len(_MATRIX))],
)
def test_antithetic_on_bitwise_across_backends(
    plates, anti_reference, ramp_reference, ramped, kwargs
):
    """The default row (antithetic sampling on) is the pinned digest on
    every executor backend and worker count: the
    partner transform is inside the per-UID draw function, so the
    schedule cannot touch it.  Batches of ``b0 < B`` walks are just as
    schedule-independent: their row equals the serial one."""
    if ramped:
        ref_row, ref_stats = ramp_reference
        cfg = FRWConfig.frw_r(**_RAMP_ROW, **kwargs)
    else:
        ref_row, ref_stats = anti_reference
        assert _row_digest(ref_row) == DEFAULT_ROW["sha256"]
        assert ref_row.walks == DEFAULT_ROW["walks"]
        assert ref_row.total_steps == DEFAULT_ROW["total_steps"]
        assert ref_stats.batches == DEFAULT_ROW["batches"]
        cfg = FRWConfig.frw_r(**_ROW, **kwargs)
    row, stats = extract_row_alg2(build_context(plates, 0, cfg))
    assert _row_digest(row) == _row_digest(ref_row)
    assert row.walks == ref_row.walks
    assert row.total_steps == ref_row.total_steps
    assert stats.batches == ref_stats.batches


def test_default_row_is_bitwise_dop_independent(plates):
    """Group means are absorbed in UID order, so the default row is the
    pinned digest (made at ``n_threads=4``) at any virtual-thread DOP."""
    for n_threads in (1, 3, 16):
        cfg = FRWConfig.frw_r(**dict(_ROW, n_threads=n_threads), executor="serial")
        row, _ = extract_row_alg2(build_context(plates, 0, cfg))
        assert _row_digest(row) == DEFAULT_ROW["sha256"]


@pytest.mark.parametrize("n_workers", [2], ids=["process"])
def test_antithetic_ragged_chunks_match_serial(plates, n_workers):
    """Queue entries of 43 UIDs cut antithetic pairs apart; the
    reassembled batch still equals the serial engine's."""
    cfg = FRWConfig.frw_r(**_ANTI_BASE)
    ctx = build_context(plates, 0, cfg)
    spec = stream_spec(cfg, 0)
    uids = np.arange(256, dtype=np.uint64)
    ref = run_walks(ctx, streams_from_spec(spec), uids)
    with PersistentExecutor(n_workers) as ex:
        key = ex.register(ctx, spec)
        ex.submit(key, uids, 6)
        _, res = ex.next_done()
    assert np.array_equal(ref.omega, res.omega)
    assert np.array_equal(ref.dest, res.dest)
    assert np.array_equal(ref.steps, res.steps)


def test_antithetic_estimate_agrees_with_plain(plates):
    """Unbiasedness end-to-end: antithetic on/off agree within combined
    error bars on the plate capacitor."""
    base = dict(
        seed=99, batch_size=512, min_walks=8192, max_walks=8192,
        tolerance=1e-9, executor="serial",
    )
    off_row, _ = extract_row_alg2(
        build_context(plates, 0, FRWConfig.frw_r(**base, antithetic=False))
    )
    on_row, _ = extract_row_alg2(
        build_context(plates, 0, FRWConfig.frw_r(**base, antithetic=True))
    )
    c_off, c_on = off_row.values[0], on_row.values[0]
    err = 5.0 * math.sqrt(off_row.sigma2[0] + on_row.sigma2[0])
    assert abs(c_on - c_off) <= err
    # The variance-reduction claim, on the real estimator.
    assert on_row.sigma2[0] < off_row.sigma2[0]


def test_solver_meta_records_antithetic(three_wires):
    from repro.frw.solver import FRWSolver

    cfg = FRWConfig.frw_r(
        seed=4, batch_size=256, min_walks=512, max_walks=512,
        antithetic=True, executor="serial",
    )
    with FRWSolver(three_wires, cfg) as solver:
        result = solver.extract([0])
    assert result.matrix.meta["schedule"]["antithetic"] is True
    off = FRWConfig.frw_r(
        seed=4, batch_size=256, min_walks=512, max_walks=512,
        executor="serial", antithetic=False,
    )
    with FRWSolver(three_wires, off) as solver:
        result = solver.extract([0])
    assert result.matrix.meta["schedule"]["antithetic"] is False
