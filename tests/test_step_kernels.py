"""Property tests: the walk engine's step kernels against the formulations
they replaced.

Each rewritten kernel must return the same bits as the old one.  The old
versions are kept here, verbatim in behaviour, as the oracle:

* guide-table cube-cell inversion vs ``clip(searchsorted(cdf, u))``;
* column-select ``unit_positions`` / ``GaussianSurface.sample`` vs the
  fancy 2-D scatter;
* column-wise enclosure distance vs ``(n, 3).min(axis=1)``;
* interface loops vs the ``(n, n_iface)`` broadcast;
* the single-thread ``simulate_dynamic_queue`` fast path vs the heap loop.

It also pins that the cube table's sampling guide is built once per table
object, that attached contexts share one table, and that the guide never
reaches pickles or the shared-memory plane.
"""

import dataclasses
import heapq
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FRWConfig
from repro.frw import build_context, run_walks, shm, simulate_dynamic_queue
from repro.geometry import Box, DielectricStack, build_offset_surface
from repro.geometry.structure import wall_distance
from repro.geometry.surface import TRANSVERSE
from repro.greens import CubeTransitionTable, get_cube_table
from repro.rng import WalkStreams

_T0 = np.array([TRANSVERSE[a][0] for a in range(3)], dtype=np.int64)
_T1 = np.array([TRANSVERSE[a][1] for a in range(3)], dtype=np.int64)
_BELOW_ONE = float(np.nextafter(1.0, 0.0))


# ----------------------------------------------------------------------
# The old formulations.
# ----------------------------------------------------------------------
def old_sample_cells(table, u):
    idx = np.searchsorted(table.cdf, np.asarray(u, dtype=np.float64), side="right")
    return np.clip(idx, 0, table.n_cells - 1)


def old_unit_positions(table, cells, jitter_a, jitter_b):
    n = cells.shape[0]
    axis = table.face_axis[cells]
    side = table.face_side[cells].astype(np.float64)
    a = (table.cell_i[cells] + np.asarray(jitter_a)) / table.nf
    b = (table.cell_j[cells] + np.asarray(jitter_b)) / table.nf
    pos = np.empty((n, 3), dtype=np.float64)
    rows = np.arange(n)
    pos[rows, axis] = side
    pos[rows, _T0[axis]] = a
    pos[rows, _T1[axis]] = b
    return pos


def old_surface_sample(surf, u):
    u = np.asarray(u, dtype=np.float64)
    idx = np.searchsorted(surf._cum, u[:, 0] * surf.total_area, side="right")
    idx = np.clip(idx, 0, surf.n_patches - 1)
    a = surf._x0[idx] + u[:, 1] * (surf._x1[idx] - surf._x0[idx])
    b = surf._y0[idx] + u[:, 2] * (surf._y1[idx] - surf._y0[idx])
    axis = surf._axis[idx]
    points = np.empty((u.shape[0], 3), dtype=np.float64)
    rows = np.arange(u.shape[0])
    points[rows, axis] = surf._coord[idx]
    points[rows, np.array([TRANSVERSE[ax][0] for ax in axis], dtype=np.int64)] = a
    points[rows, np.array([TRANSVERSE[ax][1] for ax in axis], dtype=np.int64)] = b
    return points, axis, surf._sign[idx]


def old_engine_enclosure_distance(pos, lo, hi):
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    return np.minimum(
        (pos - lo[None, :]).min(axis=1), (hi[None, :] - pos).min(axis=1)
    )


def old_structure_enclosure_distance(pos, lo, hi):
    lo = np.asarray(lo)
    hi = np.asarray(hi)
    return np.minimum(pos - lo[None, :], hi[None, :] - pos).min(axis=1)


def old_interface_distance(stack, z):
    return np.abs(z[..., None] - stack._z[None, :]).min(axis=-1)


def old_nearest_interface(stack, z):
    return np.abs(z[..., None] - stack._z[None, :]).argmin(axis=-1)


def heap_dynamic_queue(durations, n_threads):
    durations = np.asarray(durations, dtype=np.float64)
    t_count = max(1, int(n_threads))
    orders = [[] for _ in range(t_count)]
    work = np.zeros(t_count, dtype=np.float64)
    heap = [(0.0, t) for t in range(t_count)]
    heapq.heapify(heap)
    for walk in range(durations.shape[0]):
        available, thread = heapq.heappop(heap)
        orders[thread].append(walk)
        work[thread] += durations[walk]
        heapq.heappush(heap, (available + durations[walk], thread))
    finish = np.zeros(t_count, dtype=np.float64)
    while heap:
        available, thread = heapq.heappop(heap)
        finish[thread] = available
    return [np.array(o, dtype=np.int64) for o in orders], work, finish


def _same_bits(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ----------------------------------------------------------------------
# Guide-table cube sampling.
# ----------------------------------------------------------------------
def _adversarial_uniforms(cdf: np.ndarray) -> np.ndarray:
    """0, the largest double below 1, every bucket edge k/M and every cdf
    value, each with its nextafter neighbours, restricted to [0, 1)."""
    buckets = 4 * cdf.shape[0]
    points = np.concatenate(
        [np.array([0.0, _BELOW_ONE]), np.arange(buckets + 1) / buckets, cdf]
    )
    u = np.concatenate(
        [points, np.nextafter(points, -np.inf), np.nextafter(points, np.inf)]
    )
    return u[(u >= 0.0) & (u < 1.0)]


def _table_from_prob(prob: np.ndarray) -> CubeTransitionTable:
    """A table carrying only what ``sample_cells`` reads."""
    empty = np.zeros(prob.shape[0], dtype=np.int64)
    return CubeTransitionTable(
        nf=1,
        cdf=np.cumsum(prob),
        prob=prob,
        grad_ratio=np.zeros((3, prob.shape[0])),
        face_axis=empty,
        face_side=empty,
        cell_i=empty,
        cell_j=empty,
    )


@pytest.mark.parametrize("nf", [2, 8, 32])
def test_guide_matches_searchsorted_at_adversarial_u(nf):
    table = get_cube_table(nf)
    u = _adversarial_uniforms(table.cdf)
    assert _same_bits(table.sample_cells(u), old_sample_cells(table, u))


@settings(max_examples=80, deadline=None)
@given(
    weights=st.lists(
        st.one_of(
            st.just(0.0),
            st.floats(min_value=1e-12, max_value=1.0),
            st.floats(min_value=1.0, max_value=1e6),
        ),
        min_size=1,
        max_size=200,
    ).filter(lambda w: sum(w) > 0.0),
    extra=st.lists(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True), max_size=50
    ),
)
def test_guide_matches_searchsorted_on_any_cdf(weights, extra):
    """Skewed, tied (zero-probability) and near-degenerate cdfs, whose last
    value may land either side of 1."""
    prob = np.asarray(weights, dtype=np.float64)
    table = _table_from_prob(prob / prob.sum())
    u = np.concatenate([_adversarial_uniforms(table.cdf), np.asarray(extra)])
    assert _same_bits(table.sample_cells(u), old_sample_cells(table, u))


def test_guide_on_strided_and_empty_input():
    table = get_cube_table()
    u = np.random.default_rng(5).random((300, 3))
    assert _same_bits(table.sample_cells(u[:, 1]), old_sample_cells(table, u[:, 1]))
    empty = np.zeros(0)
    assert _same_bits(table.sample_cells(empty), old_sample_cells(table, empty))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=0, max_value=400),
    nf=st.sampled_from([2, 8, 32]),
)
def test_unit_positions_match_scatter(seed, n, nf):
    table = get_cube_table(nf)
    rng = np.random.default_rng(seed)
    cells = rng.integers(0, table.n_cells, n)
    ja = rng.random(n)
    jb = rng.random(n)
    # Corner jitters hit the cell edges exactly.
    ja[: n // 4] = 0.0
    jb[: n // 8] = _BELOW_ONE
    assert _same_bits(
        table.unit_positions(cells, ja, jb), old_unit_positions(table, cells, ja, jb)
    )


# ----------------------------------------------------------------------
# Gaussian-surface sampling.
# ----------------------------------------------------------------------
_SURFACES = [
    build_offset_surface([Box.from_bounds(0, 2, 0, 3, 0, 1)], 0.5),
    build_offset_surface(
        [Box.from_bounds(0, 4, 0, 1, 0, 1), Box.from_bounds(0, 1, 0, 4, 0, 1)],
        0.3,
    ),
]


@settings(max_examples=60, deadline=None)
@given(
    which=st.sampled_from(range(len(_SURFACES))),
    u=st.lists(
        st.tuples(
            *[
                st.one_of(
                    st.sampled_from([0.0, 0.5, _BELOW_ONE]),
                    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                )
            ]
            * 3
        ),
        max_size=64,
    ),
)
def test_surface_sample_matches_scatter(which, u):
    surf = _SURFACES[which]
    u = np.asarray(u, dtype=np.float64).reshape(-1, 3)
    got = surf.sample(u)
    want = old_surface_sample(surf, u)
    for g, w in zip(got, want):
        assert _same_bits(g, w)


# ----------------------------------------------------------------------
# Enclosure and interface distances.
# ----------------------------------------------------------------------
_coord = st.one_of(
    st.sampled_from([-6.0, -0.0, 0.0, 1.5, 6.0]),
    st.floats(min_value=-6.0, max_value=6.0),
)


@settings(max_examples=80, deadline=None)
@given(points=st.lists(st.tuples(_coord, _coord, _coord), max_size=64))
def test_enclosure_distance_matches_axis_min(points):
    """Points on, inside and just outside the walls of (-6,6)x(-5,6)x(0,6).

    The old formulations reduce in different orders, so a tie between
    -0.0 and +0.0 (z = -0.0 on the z = 0 wall, plus a second wall) can come
    out with either sign; ``+ 0.0`` folds both zeros into +0.0.  Any zero
    distance is absorbed, so its sign never reaches a result.
    """
    lo, hi = (-6.0, -5.0, 0.0), (6.0, 6.0, 6.0)
    pos = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    got = wall_distance(pos, lo, hi)
    for old in (old_engine_enclosure_distance, old_structure_enclosure_distance):
        assert _same_bits(got + 0.0, old(pos, lo, hi) + 0.0)
    out = np.full(pos.shape[0], np.nan)
    tmp = np.full(pos.shape[0], np.nan)
    assert wall_distance(pos, lo, hi, out=out, tmp=tmp) is out
    assert _same_bits(out, got)


@st.composite
def _stack_and_z(draw):
    steps = draw(
        st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=5)
    )
    scale = draw(st.sampled_from([1.0, 0.25, 0.1, 1.7]))
    interfaces = np.cumsum(steps) * scale
    stack = DielectricStack(
        tuple(float(v) for v in interfaces), (1.0,) * (len(steps) + 1)
    )
    mids = (interfaces[1:] + interfaces[:-1]) / 2.0
    z = draw(
        st.lists(
            st.one_of(
                st.sampled_from([float(v) for v in np.concatenate([mids, interfaces])]),
                st.floats(min_value=-5.0, max_value=60.0),
            ),
            max_size=64,
        )
    )
    return stack, np.asarray(z, dtype=np.float64)


@settings(max_examples=80, deadline=None)
@given(case=_stack_and_z())
def test_interface_queries_match_broadcast(case):
    stack, z = case
    assert _same_bits(stack.interface_distance(z), old_interface_distance(stack, z))
    assert _same_bits(stack.nearest_interface(z), old_nearest_interface(stack, z))


def test_nearest_interface_midway_tie_goes_low():
    stack = DielectricStack((1.0, 3.0, 5.0), (1.0, 2.0, 3.0, 4.0))
    z = np.array([2.0, 4.0, 3.0])
    assert stack.nearest_interface(z).tolist() == [0, 1, 1]
    assert stack.interface_distance(z).tolist() == [1.0, 1.0, 0.0]


# ----------------------------------------------------------------------
# Single-thread dynamic queue.
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    durations=st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0, 1.0]),
            st.floats(min_value=-1e6, max_value=1e6),
        ),
        max_size=300,
    )
)
def test_single_thread_queue_matches_heap_loop(durations):
    durations = np.asarray(durations, dtype=np.float64)
    sched = simulate_dynamic_queue(durations, 1)
    orders, work, finish = heap_dynamic_queue(durations, 1)
    assert len(sched.thread_order) == 1
    assert _same_bits(sched.thread_order[0], orders[0])
    assert _same_bits(sched.thread_work, work)
    assert _same_bits(sched.thread_finish, finish)


def test_single_thread_queue_empty_batch():
    sched = simulate_dynamic_queue(np.zeros(0), 1)
    orders, work, finish = heap_dynamic_queue(np.zeros(0), 1)
    assert _same_bits(sched.thread_order[0], orders[0])
    assert _same_bits(sched.thread_work, work)
    assert _same_bits(sched.thread_finish, finish)


# ----------------------------------------------------------------------
# The guide is per-process derived state.
# ----------------------------------------------------------------------
def _fresh_copy(table):
    """An equal table over copied arrays, with no guide built yet."""
    scalars, arrays = table.packed()
    return CubeTransitionTable.from_packed(
        scalars, {k: v.copy() for k, v in arrays.items()}
    )


def test_guide_is_per_table_object():
    """Each table object builds its guide once; an equal table over copied
    arrays builds its own, with the same bits."""
    a = _fresh_copy(get_cube_table(8))
    b = _fresh_copy(get_cube_table(8))
    assert a._guide is a._guide
    assert a._guide is not b._guide
    for x, y in zip(a._guide, b._guide):
        assert _same_bits(x, y)


def test_guide_is_not_pickled():
    table = _fresh_copy(get_cube_table(8))
    u = np.random.default_rng(2).random(500)
    want = table.sample_cells(u)  # builds the guide
    assert "_guide" in table.__dict__
    clone = pickle.loads(pickle.dumps(table))
    assert "_guide" not in clone.__dict__
    assert _same_bits(clone.sample_cells(u), want)
    assert clone._guide is not table._guide


@pytest.fixture
def _clean_plane():
    shm.release_all()
    yield
    shm.release_all()


def test_attached_contexts_share_one_guide(plates, _clean_plane):
    """Two contexts attached in one process share one table object, so the
    guide is built once for both."""
    cfg = FRWConfig.frw_r(seed=3)
    ctxs = [build_context(plates, m, cfg) for m in (0, 1)]
    manifests = [
        shm.publish_context(ctx, ("philox", 3, m)) for m, ctx in enumerate(ctxs)
    ]
    assert manifests[0].table == manifests[1].table  # one table block
    attached = [shm.attach_context(m) for m in manifests]
    assert attached[0] is not attached[1]
    assert attached[0].table is attached[1].table
    uids = np.arange(200, dtype=np.uint64)
    for ctx in attached:
        run_walks(ctx, WalkStreams(3, ctx.master), uids)
    assert attached[0].table._guide is attached[1].table._guide


def test_publish_is_unchanged_by_the_guide(plates, _clean_plane):
    """The guide never enters the table's asset block: equal tables
    published before and after their guide exists give the same array
    specs, scalars and content hash, and the block holds exactly the
    packed arrays."""
    cfg = FRWConfig.frw_r(seed=4)
    ctx = build_context(plates, 0, cfg)
    cold = dataclasses.replace(ctx, table=_fresh_copy(ctx.table))
    warm = dataclasses.replace(ctx, table=_fresh_copy(ctx.table))
    run_walks(warm, WalkStreams(4, 0), np.arange(100, dtype=np.uint64))
    assert "_guide" not in cold.table.__dict__
    assert "_guide" in warm.table.__dict__
    before = shm.publish_context(cold, ("philox", 4, 0))
    after = shm.publish_context(warm, ("philox", 4, 0))
    assert before.table.block != after.table.block  # two table objects
    assert before.table.arrays == after.table.arrays
    assert before.table.scalars == after.table.scalars
    assert before.table.content_hash == after.table.content_hash
    assert before.content_hash == after.content_hash
    assert [a.key for a in after.table.arrays] == [
        "cdf", "prob", "grad_ratio", "face_axis", "face_side", "cell_i", "cell_j"
    ]
