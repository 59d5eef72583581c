"""Property tests: the walk engine's step kernels against the formulations
they replaced.

Each rewritten kernel must return the same bits as the old one.  The old
versions are kept here, verbatim in behaviour, as the oracle:

* guide-table cube-cell inversion vs ``clip(searchsorted(cdf, u))``;
* column-select ``unit_positions`` / ``GaussianSurface.sample`` vs the
  fancy 2-D scatter;
* column-wise enclosure distance vs ``(n, 3).min(axis=1)``;
* interface loops vs the ``(n, n_iface)`` broadcast;
* the single-thread ``simulate_dynamic_queue`` fast path vs the heap loop;
* the compiled vector step (``launch``, ``locate``, ``retire``,
  ``cube_hop`` and its hemisphere step in ``repro/native/kernels.c``) vs
  the NumPy stage code it replaced, on a live pipeline's arena, with the
  draws the kernels compute against the reference streams' draws (plain,
  antithetic and MT lanes), plus pinned engine runs through the paths no
  row golden covers (per-walk MT streams, the early-absorption error and
  step-cap truncation);
* ``launch`` and ``cube_hop`` on full 8-slot groups, which draw on AVX2
  where the host has it (``native.draw_path()``), slot by slot against
  the same reference: plain, mirrored, mixed-master and MT-holding
  groups, with a partial tail group.

The kernels compute their own draws, so a test that needs chosen draws
runs an MT lane and writes each slot's MT19937 state so that its next
words are the chosen draws' (:func:`_feed`); a chosen draw must then lie
on the 53-bit lattice ``k / 2**53`` every generator draw lies on.

It also pins that the cube table's sampling guide is built once per table
object, that attached contexts share one table, and that the guide never
reaches pickles or the shared-memory plane.
"""

import ctypes
import dataclasses
import hashlib
import heapq
import pickle
import platform

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Conductor, FRWConfig, Structure, native
from repro.errors import ConvergenceError
from repro.frw import (
    WalkPipeline,
    build_context,
    make_streams,
    run_segments,
    run_walks,
    simulate_dynamic_queue,
)
from repro.frw.context import SharedAssets
from repro.frw.engine import lane_draws
from repro.geometry import (
    Box,
    DielectricStack,
    GaussianSurface,
    build_offset_surface,
)
from repro.geometry.surface import TRANSVERSE
from repro.greens import CubeTransitionTable, get_cube_table
from repro.rng import (
    MirroredDraws,
    MTWalkStreams,
    WalkStreams,
    antipodal_uniform,
    mirror_uniform,
)

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


def old_wall_distance(points, lo, hi):
    """The engine's former NumPy enclosure distance (``wall_distance``)."""
    out = np.subtract(points[:, 0], lo[0])
    tmp = np.empty(points.shape[0])
    for axis in range(3):
        col = points[:, axis]
        if axis:
            np.minimum(out, np.subtract(col, lo[axis], out=tmp), out=out)
        np.minimum(out, np.subtract(hi[axis], col, out=tmp), out=out)
    return out


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


def old_other_interface_gap(interfaces, k):
    """Distance from interface ``k`` to its nearest neighbouring interface."""
    if interfaces.shape[0] < 2:
        return np.full(np.asarray(k).shape, np.inf)
    gaps = np.diff(interfaces)
    below = np.where(k > 0, gaps[np.maximum(k - 1, 0)], np.inf)
    above = np.where(
        k < interfaces.shape[0] - 1,
        gaps[np.minimum(k, gaps.shape[0] - 1)],
        np.inf,
    )
    return np.minimum(below, above)


def old_hemisphere_direction(u_side, u1, u2, eps_below, eps_above):
    """The NumPy ``interface_hemisphere_direction``."""
    p_up = eps_above / (eps_below + eps_above)
    go_up = u_side < p_up
    z = np.asarray(u1, dtype=np.float64)
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    phi = 2.0 * np.pi * np.asarray(u2, dtype=np.float64)
    z_signed = np.where(go_up, z, -z)
    return np.stack([r * np.cos(phi), r * np.sin(phi), z_signed], axis=1)


def old_hemisphere(stack, pos, allow, dist_i, tol, u):
    """``WalkPipeline._hemisphere`` on snapped walks at ``pos`` with free
    space ``allow``, interface distance ``dist_i``, tolerance ``tol`` and
    draws ``u`` (n, 3): their new positions."""
    k = old_nearest_interface(stack, pos[:, 2])
    r = np.minimum(allow - dist_i, old_other_interface_gap(stack._z, k))
    r = np.maximum(r, 0.5 * tol)
    direction = old_hemisphere_direction(
        u[:, 0], u[:, 1], u[:, 2], stack._eps[k], stack._eps[k + 1]
    )
    center = pos.copy()
    center[:, 2] = stack._z[k]
    return center + r[:, None] * direction


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
    data=st.data(),
    which=st.sampled_from(range(len(_SURFACES))),
    clamp=st.booleans(),
)
def test_surface_sample_matches_scatter(data, which, clamp):
    """``sample`` (and the engine's launch, which shares its inline C)
    gives the scatter formulation bit for bit, with ``u0 * total_area``
    exactly on a cumulative area and, on a surface whose total area is
    one ulp above its last cumulative area, past the last one (clipped
    to the last patch)."""
    surf = _clamped(_SURFACES[which]) if clamp else _SURFACES[which]
    edge = st.sampled_from([0.0, 0.5, _BELOW_ONE]) | st.floats(
        min_value=0.0, max_value=1.0, exclude_max=True
    )
    u0 = st.sampled_from(_area_edges(surf)) | edge
    u = np.array(
        data.draw(st.lists(st.tuples(u0, edge, edge), max_size=64)),
        dtype=np.float64,
    ).reshape(-1, 3)
    if clamp and u.shape[0]:
        u[0, 0] = _BELOW_ONE
        assert np.searchsorted(
            surf._cum, _BELOW_ONE * surf.total_area, side="right"
        ) == surf.n_patches
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


_WALLS = Structure(
    [Conductor.single("c", Box.from_bounds(-1, 1, -1, 1, 2, 3))],
    enclosure=Box.from_bounds(-6, 6, -5, 6, 0, 6),
)


@settings(max_examples=80, deadline=None)
@given(points=st.lists(st.tuples(_coord, _coord, _coord), max_size=64))
def test_enclosure_distance_matches_axis_min(points):
    """Points on, inside and just outside the walls of (-6,6)x(-5,6)x(0,6).

    ``Structure.enclosure_distance`` gives the bits of the engine's former
    ``wall_distance``, zero signs included.  The older formulations
    reduce in different orders, so a tie between -0.0 and +0.0 (z = -0.0
    on the z = 0 wall, plus a second wall) can come out with either sign;
    ``+ 0.0`` folds both zeros into +0.0.  Any zero distance is absorbed,
    so its sign never reaches a result.
    """
    lo, hi = _WALLS.enclosure.lo, _WALLS.enclosure.hi
    pos = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    got = _WALLS.enclosure_distance(pos)
    assert _same_bits(got, old_wall_distance(pos, lo, hi))
    for old in (old_engine_enclosure_distance, old_structure_enclosure_distance):
        assert _same_bits(got + 0.0, old(pos, lo, hi) + 0.0)


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
    """The interface distance, and the nearest interface the hemisphere
    step snaps to (its landing height at ``|z| = u1 = 0``), match the
    ``(n, n_iface)`` broadcast."""
    stack, z = case
    assert _same_bits(stack.interface_distance(z), old_interface_distance(stack, z))
    if z.shape[0]:
        _, landed, n_snap = _hemisphere_hop(stack, z, np.zeros((z.shape[0], 3)))
        assert n_snap == z.shape[0]
        assert _same_bits(landed[:, 2], stack._z[old_nearest_interface(stack, z)])


def test_nearest_interface_midway_tie_goes_low():
    stack = DielectricStack((1.0, 3.0, 5.0), (1.0, 2.0, 3.0, 4.0))
    z = np.array([2.0, 4.0, 3.0])
    _, landed, _ = _hemisphere_hop(stack, z, np.zeros((3, 3)))
    assert landed[:, 2].tolist() == [1.0, 3.0, 3.0]
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
# The guide is per-table derived state.
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
    want = table.sample_cells(u)  # builds the guide and the descriptor
    assert "_guide" in table.__dict__ and "_native" in table.__dict__
    clone = pickle.loads(pickle.dumps(table))
    assert "_guide" not in clone.__dict__
    assert "_native" not in clone.__dict__
    assert _same_bits(clone.sample_cells(u), want)
    assert clone._guide is not table._guide


# ----------------------------------------------------------------------
# The compiled vector step against the NumPy stage code it replaced.
# ----------------------------------------------------------------------
#: Per-slot arena arrays that retirement moves with their walk.
_SLOTS = (
    "uid", "lane", "tol", "grow", "step_no", "eps", "first", "naxis",
    "nsign", "pos", "dist", "dist_e",
)

_LAYERS = Structure(
    [Conductor.single("c", Box.from_bounds(-1, 1, -1, 1, 0.75, 1.75))],
    dielectric=DielectricStack(interfaces=(0.0, 2.5), eps=(3.9, 2.7, 1.5)),
    enclosure=Box.from_bounds(-6, 6, -5, 6, -3, 6),
)


#: Homogeneous (False) and stratified (True) contexts of the kernel tests.
_CTXS = {
    layered: build_context(
        _LAYERS if layered else _WALLS, 0, FRWConfig.frw_r(seed=3)
    )
    for layered in (False, True)
}


def _pipeline(ctx, sizes, width, streams=None):
    """A pipeline with batches of ``sizes`` walks queued on ``ctx`` with
    ``streams`` (``WalkStreams(3, master)`` by default) and its first
    ``width`` walks launched, so its result window spans every batch those
    walks come from."""
    pipe = WalkPipeline()
    streams = streams or WalkStreams(3, ctx.master)
    start = 0
    for seq, size in enumerate(sizes):
        uids = np.arange(start, start + size, dtype=np.uint64)
        pipe.submit(seq, 0, ctx, streams, uids, width)
        start += size
    _launch_queued(pipe)
    return pipe


def _launch_queued(pipe):
    """Launch queued walks into the free slots as the vector loop does:
    a traced ``advance`` stops at the frame after the launch."""
    pipe.trace = []
    while pipe._advance() == native.ADVANCE_RUN:
        pipe._load_run()
    pipe.trace = None


def _on_lattice(u):
    """``u`` rounded down onto the lattice ``k / 2**53`` of generator
    draws (exact: a power-of-two scale, a floor and its inverse)."""
    return np.floor(np.asarray(u, dtype=np.float64) * 2.0**53) / 2.0**53


def _temper(y):
    y ^= y >> 11
    y ^= (y << 7) & 0x9D2C5680
    y ^= (y << 15) & 0xEFC60000
    return y ^ (y >> 18)


def _untemper(word):
    """The MT19937 state word that ``genrand_int32`` tempers to ``word``."""
    y = word
    steps = ((18, None), (15, 0xEFC60000), (7, 0x9D2C5680), (11, None))
    for shift, mask in steps:
        x = y
        for _ in range(32 // shift + 1):
            x = y ^ (x >> shift if mask is None else (x << shift) & mask)
        y = x & 0xFFFFFFFF
    assert _temper(y) == word
    return y


def _feed(pipe, u):
    """Make the next draws of slots ``[0, n)`` of a pipeline on an MT lane
    ``u`` ``(n, 3)`` (on the lattice): each slot's stream restarts at word
    0, which holds the untempered word pairs ``genrand_res53`` turns into
    those draws."""
    for i, row in enumerate(u):
        words = []
        for v in row:
            k = int(v * 2.0**53)
            assert k / 2.0**53 == v
            words += [(k >> 26) << 5, (k & (2**26 - 1)) << 6]
        state = pipe._mt[pipe._mt_slot[i]]
        state[:6] = [_untemper(w) for w in words]
        state[native.MT_WORDS - 1] = 0


def _rewire(pipe, stack):
    """Point a pipeline's arena at the layers of ``stack`` (which the
    caller keeps alive while the arena is used)."""
    a = pipe._arena
    a.interfaces = native.address(stack._z)
    a.n_interfaces = stack._z.shape[0]
    a.layer_eps = native.address(stack._eps)


def _hemisphere_hop(stack, z, u, allow=1e4, tol=0.0):
    """``cube_hop`` of walks past their first hop at heights ``z`` on
    ``stack``, with free space ``allow`` (``h_cap`` lifted), tolerance
    ``tol`` and draws ``u`` (n, 3, on the lattice): ``(positions before,
    positions after, snapped count)``."""
    n = z.shape[0]
    pipe = _pipeline(_CTXS[True], [n], n, MTWalkStreams(3, 0))
    _rewire(pipe, stack)
    pipe._arena.h_cap = np.inf
    pipe._pos[:n, 2] = z
    pipe._dist[:n] = pipe._dist_e[:n] = allow
    pipe._tol[:n] = tol
    pipe._first[:n] = False
    _feed(pipe, u)
    before = pipe._pos[:n].copy()
    n_snap = native.library().cube_hop(pipe._arena_ref, n)
    return before, pipe._pos[:n].copy(), n_snap


def _snapshot(pipe):
    n = pipe._arena.n
    state = {name: getattr(pipe, "_" + name)[:n].copy() for name in _SLOTS}
    if pipe._mt_slot is not None:
        state["mt_slot"] = pipe._mt_slot.copy()
    return state


def old_locate(ctx, pos, tol):
    """``_stage_index`` and ``_stage_absorb``'s masks: ``(dist_c, cond,
    dist_e, done, dest of the done walks)``."""
    enc = ctx.structure.enclosure
    dist_c, cond = ctx.index.query(pos)
    dist_e = old_wall_distance(pos, enc.lo, enc.hi)
    absorb_wall = np.less(dist_e, tol)
    absorb_cond = np.less(dist_c, tol)
    absorb_cond &= np.greater_equal(cond, 0)
    absorb_cond &= np.logical_not(absorb_wall)
    done = np.logical_or(absorb_wall, absorb_cond)
    dest = np.where(absorb_wall[done], ctx.enclosure_index, cond[done])
    return dist_c, cond, dist_e, done, dest


def old_retire_compact(state, window, done, dest, truncated):
    """``_retire_compact`` on a snapshot of the arena and its window, with
    MT state indices swapped between each hole and its mover; returns the
    new active count."""
    n = done.shape[0]
    g = state["grow"][done]
    idx = g - window["base"]
    window["res_dest"][idx] = dest
    window["res_steps"][idx] = state["step_no"][done]
    b = np.searchsorted(window["starts"], g, side="right") - 1
    counts = np.bincount(b, minlength=window["remaining"].shape[0])
    window["remaining"] -= counts
    if truncated:
        window["truncated"] += counts
    n_new = n - dest.shape[0]
    movers = n_new + np.nonzero(~done[n_new:n])[0]
    holes = np.nonzero(done[:n_new])[0]
    if holes.shape[0]:
        for name in _SLOTS:
            state[name][holes] = state[name][movers]
        if "mt_slot" in state:
            mt = state["mt_slot"]
            mt[holes], mt[movers] = mt[movers], mt[holes].copy()
    return n_new


def old_cube_hop(ctx, state, u, lane_flux):
    """The deleted ``_stage_sample``'s cube path and first-hop weights:
    ``(snapped rows, their allow and interface distance, cube-hop
    positions of every row, first-hop rows, their weights)``."""
    cfg = ctx.config
    stack = ctx.structure.dielectric
    table = ctx.table
    pos = state["pos"]
    first = state["first"]
    allow = np.minimum(state["dist"], state["dist_e"])
    np.minimum(allow, ctx.h_cap, out=allow)
    if stack.is_homogeneous:
        h = allow
        dist_i = np.full(allow.shape, np.inf)
        snapped = np.zeros(0, dtype=np.int64)
    else:
        dist_i = stack.interface_distance(pos[:, 2])
        h = np.minimum(allow, dist_i)
        on_iface = np.less(dist_i, cfg.interface_snap_fraction * allow)
        on_iface &= np.logical_not(first)
        snapped = np.nonzero(on_iface)[0]
    snap_allow, snap_dist_i = allow[snapped], dist_i[snapped]
    floor = cfg.first_hop_interface_floor
    if floor > 0.0 and np.any(first):
        h[first] = np.maximum(h[first], floor * allow[first])
    cells = old_sample_cells(table, u[:, 0])
    unit = old_unit_positions(table, cells, u[:, 1], u[:, 2])
    npos = np.subtract(pos, h[:, None])
    h2 = np.multiply(2.0, h)
    np.multiply(unit, h2[:, None], out=unit)
    np.add(npos, unit, out=npos)
    fc = np.nonzero(first)[0]
    ratio = table.grad_ratio[state["naxis"][fc], cells[fc]]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        omega = (
            -lane_flux[state["lane"][fc]]
            * state["eps"][fc]
            * state["nsign"][fc]
            * ratio
            / (2.0 * h[fc])
        )
    return snapped, snap_allow, snap_dist_i, npos, fc, omega


def _axis_coords(ctx, axis, tol):
    """Coordinates along ``axis`` on the enclosure walls, exactly ``tol``
    inside them, on the conductor's faces and exactly ``tol`` off them,
    and at -0.0 and +0.0."""
    lo, hi = ctx.structure.enclosure.lo[axis], ctx.structure.enclosure.hi[axis]
    box_lo, box_hi, _ = ctx.structure.box_arrays
    blo, bhi = float(box_lo[0, axis]), float(box_hi[0, axis])
    specials = [lo, hi, lo + tol, hi - tol, blo, bhi, blo - tol, bhi + tol,
                -0.0, 0.0]
    return st.one_of(
        st.sampled_from(specials), st.floats(lo - 0.5, hi + 0.5)
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data(), layered=st.booleans())
def test_locate_matches_numpy_stages(data, layered):
    """``locate`` gives the NumPy query, wall distance and absorption masks
    bit for bit, on the enclosure walls and at the tolerance exactly (a
    distance equal to ``tol`` is not absorbed), and reports a walk
    absorbed before its first hop."""
    ctx = _CTXS[layered]
    n = data.draw(st.integers(1, 40))
    pipe = _pipeline(ctx, [n], n)
    # 0.25 keeps wall +- tol exact, so some distances equal tol exactly.
    tol = np.array(data.draw(st.lists(
        st.sampled_from([0.25, ctx.absorb_tol, 0.0]), min_size=n, max_size=n
    )))
    pos = np.array(data.draw(st.lists(
        st.tuples(*(_axis_coords(ctx, a, 0.25) for a in range(3))),
        min_size=n, max_size=n,
    )))
    # Half the examples have no walk on its first hop.
    first = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    first &= data.draw(st.booleans())
    pipe._pos[:n], pipe._tol[:n], pipe._first[:n] = pos, tol, first
    got = native.library().locate(pipe._arena_ref, n)
    dist_c, _, dist_e, done, dest = old_locate(ctx, pos, tol)
    assert got == (-1 if (done & first).any() else int(done.sum()))
    assert _same_bits(pipe._dist[:n], dist_c)
    assert _same_bits(pipe._dist_e[:n], dist_e)
    assert _same_bits(pipe._done[:n], done)
    assert _same_bits(pipe._dest[:n][done], dest)
    *_, near, visited = native.grid_query(ctx.index.descriptor(), pos)
    assert tuple(pipe._arena.counts) == (near, visited)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    layered=st.booleans(),
    truncated=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    mt=st.booleans(),
)
def test_retire_matches_numpy_compaction(data, layered, truncated, seed, mt):
    """``retire`` banks, counts and compacts as ``_retire_compact`` did:
    random ``done`` masks over walks from several batches of the result
    window, for absorbed and over-cap (truncated) retirement alike.  On an
    MT lane each walk's state index travels with it, and the indices stay
    a permutation of the arena's states."""
    ctx = _CTXS[layered]
    sizes = data.draw(st.lists(st.integers(1, 16), min_size=1, max_size=4))
    streams = MTWalkStreams(3, 0) if mt else None
    width = data.draw(st.integers(1, sum(sizes)))
    pipe = _pipeline(ctx, sizes, width, streams)
    n = pipe._arena.n
    rng = np.random.default_rng(seed)
    if mt:
        pipe._mt_slot[:] = rng.permutation(pipe._capacity)
    pipe._step_no[:n] = rng.integers(1, 60, n)
    pipe._first[:n] = rng.random(n) < 0.3
    pipe._dist[:n], pipe._dist_e[:n] = rng.random(n), rng.random(n)
    done = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    dest = rng.integers(-1, 5, n)
    pipe._done[:n], pipe._dest[:n] = done, dest
    state = _snapshot(pipe)
    window = {
        "base": pipe._win_base_g,
        "starts": pipe._win_starts.copy(),
        "remaining": pipe._win_remaining.copy(),
        "truncated": pipe._win_truncated.copy(),
        "res_dest": pipe._res_dest.copy(),
        "res_steps": pipe._res_steps.copy(),
    }
    n_new = old_retire_compact(state, window, done, dest[done], truncated)
    assert native.library().retire(pipe._arena_ref, n, truncated) == n_new
    for name in _SLOTS:
        assert _same_bits(getattr(pipe, "_" + name)[:n_new], state[name][:n_new])
    if mt:
        assert _same_bits(pipe._mt_slot, state["mt_slot"])
        assert (np.sort(pipe._mt_slot) == np.arange(pipe._capacity)).all()
    else:
        assert pipe._mt_slot is None
    assert _same_bits(pipe._win_remaining, window["remaining"])
    assert _same_bits(pipe._win_truncated, window["truncated"])
    assert _same_bits(pipe._res_dest, window["res_dest"])
    assert _same_bits(pipe._res_steps, window["res_steps"])


@st.composite
def _bucket_edge(draw, table):
    """A guide bucket edge ``k / M`` or one of its neighbours, in [0, 1)."""
    buckets = 4 * table.n_cells
    u = draw(st.integers(0, buckets)) / buckets
    u = float(np.nextafter(u, draw(st.sampled_from([-np.inf, u, np.inf]))))
    return min(max(u, 0.0), _BELOW_ONE)


def _uniforms(table):
    """Draw-slot-0 uniforms on guide bucket edges and their neighbours,
    as well as anywhere in [0, 1)."""
    return _bucket_edge(table) | st.floats(0.0, 1.0, exclude_max=True)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), layered=st.booleans())
def test_cube_hop_matches_numpy_sample(data, layered):
    """``cube_hop`` gives the deleted ``_stage_sample``'s cube path bit
    for bit: homogeneous and stratified stacks, first and later hops,
    cell draws on guide bucket edges, interface distances equal to ``snap
    * allow`` exactly (not snapped) and ties between the distances,
    ``h_cap`` and ±0.0 (whose signs reach the first-hop weight).  Snapped walks take
    the deleted ``_hemisphere`` step's positions.  The draws are fed
    through an MT lane, so they lie on the lattice: bucket edges become
    the generator draws nearest them."""
    ctx = _CTXS[layered]
    table = ctx.table
    n = data.draw(st.integers(1, 40))
    pipe = _pipeline(ctx, [n], n, MTWalkStreams(3, 0))
    distance = st.one_of(
        st.sampled_from([-0.0, 0.0, ctx.h_cap, 0.5, 1.0]),
        st.floats(0.0, 2.0 * ctx.h_cap),
    )
    dist = np.array(data.draw(st.lists(distance, min_size=n, max_size=n)))
    dist_e = np.array(data.draw(st.lists(distance, min_size=n, max_size=n)))
    tied = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    dist_e[tied] = dist[tied]
    first = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    pos = np.asarray(pipe._pos[:n]).copy()
    # Heights at snap * allow exactly above the z = 0 interface, on it,
    # or anywhere.
    allow = np.minimum(np.minimum(dist, dist_e), ctx.h_cap)
    z_kind = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    snap = ctx.config.interface_snap_fraction
    pos[z_kind == 0, 2] = (snap * allow)[z_kind == 0]
    pos[z_kind == 1, 2] = 0.0
    jitter = st.sampled_from([0.0, 0.5, _BELOW_ONE]) | st.floats(
        0.0, 1.0, exclude_max=True
    )
    u = _on_lattice(np.column_stack([
        data.draw(st.lists(slot, min_size=n, max_size=n))
        for slot in (_uniforms(table), jitter, jitter)
    ]))
    pipe._pos[:n], pipe._dist[:n], pipe._dist_e[:n] = pos, dist, dist_e
    pipe._first[:n] = first
    _feed(pipe, u)
    pipe._res_omega[:] = np.nan
    state = _snapshot(pipe)
    n_snap = native.library().cube_hop(pipe._arena_ref, n)
    snapped, snap_allow, snap_dist_i, npos, fc, omega = old_cube_hop(
        ctx, state, u, pipe._lane_flux
    )
    assert n_snap == snapped.shape[0]
    if layered:  # dist_i == snap * allow is not below it: no snap
        assert not np.isin(np.nonzero(z_kind == 0)[0], snapped).any()
    moved = np.ones(n, dtype=bool)
    moved[snapped] = False
    assert _same_bits(pipe._pos[:n][moved], npos[moved])
    if layered:
        want = old_hemisphere(
            ctx.structure.dielectric, state["pos"][snapped], snap_allow,
            snap_dist_i, state["tol"][snapped], u[snapped],
        )
        assert _same_bits(pipe._pos[:n][snapped], want)
    assert _same_bits(pipe._res_omega[pipe._grow[fc] - pipe._win_base_g], omega)
    assert _same_bits(pipe._step_no[:n], state["step_no"] + np.uint64(1))
    assert not pipe._first[:n].any()


def _edges(*values):
    """Each value with its nextafter neighbours, restricted to [0, 1)."""
    v = np.asarray(values, dtype=np.float64)
    u = np.concatenate([v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)])
    return sorted(float(x) for x in u[(u >= 0.0) & (u < 1.0)])


#: Uniforms at 0, at 1 - ulp and at the hemisphere's p_up = 1/2 tie.
_U_EDGE = st.sampled_from(_edges(0.0, 0.5, _BELOW_ONE)) | st.floats(
    0.0, 1.0, exclude_max=True
)
#: Azimuth uniforms on the quadrant edges of 2 pi u2.
_U_QUADRANT = st.sampled_from(_edges(0.0, 0.25, 0.5, 0.75, _BELOW_ONE)) | _U_EDGE


@st.composite
def _hemisphere_case(draw):
    """A stack (possibly with equal permittivities) and walks at heights on
    interfaces, midway between them, near them or anywhere, with free
    space and tolerance that may put the radius on its tol / 2 floor."""
    steps = draw(st.lists(st.integers(1, 8), min_size=1, max_size=5))
    scale = draw(st.sampled_from([1.0, 0.25, 0.1, 1.7]))
    z_if = np.cumsum(steps) * scale
    eps = draw(st.lists(
        st.sampled_from([1.0, 2.7, 3.9]), min_size=len(steps) + 1,
        max_size=len(steps) + 1,
    ))
    stack = DielectricStack(tuple(float(v) for v in z_if), tuple(eps))
    n = draw(st.integers(1, 40))
    specials = np.concatenate([(z_if[1:] + z_if[:-1]) / 2.0, z_if, z_if + 0.01])
    z = np.array(draw(st.lists(
        st.sampled_from([float(v) for v in specials])
        | st.floats(float(z_if[0]) - 1.0, float(z_if[-1]) + 1.0),
        min_size=n, max_size=n,
    )))
    allow = np.array(draw(st.lists(
        st.sampled_from([1e3, 100.0, 10.0]) | st.floats(1e-3, 1e3),
        min_size=n, max_size=n,
    )))
    di = old_interface_distance(stack, z)
    # tol / 2 below the radius, far above it, or exactly allow - di.
    tol = np.array(draw(st.lists(
        st.sampled_from([0.0, 1e-3, 1e4, -1.0]), min_size=n, max_size=n
    )))
    tol[tol < 0] = 2.0 * (allow - di)[tol < 0]
    u = _on_lattice(np.column_stack([
        draw(st.lists(slot, min_size=n, max_size=n))
        for slot in (_U_EDGE, _U_EDGE, _U_QUADRANT)
    ]))
    return stack, z, allow, tol, u


@settings(max_examples=80, deadline=None)
@given(case=_hemisphere_case())
def test_hemisphere_matches_numpy(case):
    """``cube_hop``'s hemisphere step gives the deleted NumPy step's
    positions bit for bit: ``u`` at 0 and 1 - ulp, the azimuth at the
    draws nearest the quadrant edges, heights midway between interfaces
    (the lower one wins), equal permittivities with ``u_side`` at ``p_up
    = 1/2`` exactly (strictly below goes up), and radii on their ``tol /
    2`` floor."""
    stack, z, allow, tol, u = case
    before, after, n_snap = _hemisphere_hop(stack, z, u, allow, tol)
    di = old_interface_distance(stack, z)
    snapped = np.nonzero(di < FRWConfig().interface_snap_fraction * allow)[0]
    assert n_snap == snapped.shape[0]
    want = old_hemisphere(
        stack, before[snapped], allow[snapped], di[snapped], tol[snapped],
        u[snapped],
    )
    assert _same_bits(after[snapped], want)


def test_hemisphere_direction_matches_numpy():
    """``interface_hemisphere_direction`` (a wrapper over the step's inline
    C) gives the NumPy directions, broadcasting scalar permittivities."""
    from repro.greens import interface_hemisphere_direction

    rng = np.random.default_rng(8)
    u = np.concatenate([
        rng.random((500, 3)),
        np.array(_edges(0.0, 0.25, 0.5, 0.75, _BELOW_ONE))[:, None]
        * np.ones(3),
    ])
    for eb, ea in ((1.0, 3.0), (2.7, 2.7)):
        got = interface_hemisphere_direction(u[:, 0], u[:, 1], u[:, 2], eb, ea)
        want = old_hemisphere_direction(
            u[:, 0], u[:, 1], u[:, 2], np.full(len(u), eb), np.full(len(u), ea)
        )
        assert _same_bits(got, want)


def _on_layers(surf):
    """A stack with interfaces on the surface's horizontal faces and at
    z = 0.5, which its side faces cross."""
    planes = np.unique(np.append(surf._coord[surf._axis == 2], 0.5))
    return DielectricStack(
        tuple(float(v) for v in planes), tuple(1.0 + np.arange(len(planes) + 1))
    )


def _clamped(surf):
    """The surface with its total area one ulp above its last cumulative
    area, so u0 near 1 searches past the last patch."""
    scalars, arrays = surf.packed()
    scalars = dict(scalars, total_area=float(np.nextafter(surf._cum[-1], np.inf)))
    return GaussianSurface.from_packed(scalars, arrays)


def _area_edges(surf):
    """Uniforms u0 with ``u0 * total_area`` exactly a cumulative area."""
    out = [
        u for c in surf._cum for u in _edges(c / surf.total_area)
        if u * surf.total_area == c
    ]
    assert out
    return out


def _launch(pipe, surf, uids, tol, first_row, lane=0):
    """One compiled launch of ``uids`` on ``lane`` into the slots after
    the live ones, as the vector loop makes it."""
    n = pipe._arena.n
    native.library().launch(
        pipe._arena_ref, ctypes.byref(surf._native), n, uids.shape[0],
        native.address(uids), lane, tol, first_row,
    )
    pipe._arena.n = n + uids.shape[0]


#: The stream providers of the three lane kinds.
_KINDS = {
    "plain": lambda: WalkStreams(3, 0),
    "mirrored": lambda: MirroredDraws(WalkStreams(3, 0)),
    "mt": lambda: MTWalkStreams(3, 0),
}


def _reference(streams, uids, step):
    """The reference draws ``(n, 3)`` of step ``step`` of ``uids``."""
    return np.array(
        [streams.draws_scalar(int(uid), step, 3) for uid in uids],
        dtype=np.float64,
    ).reshape(-1, 3)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    which=st.sampled_from(range(len(_SURFACES))),
    kind=st.sampled_from(sorted(_KINDS)),
)
def test_launch_matches_numpy(data, which, kind):
    """``launch`` computes each walk's step-0 draws from its lane — plain
    Philox, the antithetic view at odd and even UIDs (a partner launches
    from its primary's point), or a freshly seeded MT stream — and writes
    the NumPy launch's slot state bit for bit: ``GaussianSurface.sample``
    of the reference draws, its normal, the permittivity of ``eps_at``
    (points on an interface take the upper layer) and the walk's identity.
    The live slots before it keep their state."""
    surf = _SURFACES[which]
    stack = _on_layers(surf)
    live = data.draw(st.integers(1, 8))
    k = data.draw(st.integers(1, 30))
    streams = _KINDS[kind]()
    pipe = _pipeline(_CTXS[True], [live + k], live + k, streams)
    pipe._arena.n = live  # the rest of the arena is free
    _rewire(pipe, stack)
    head = _snapshot(pipe)
    uids = np.array(
        data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=k, max_size=k)),
        dtype=np.uint64,
    )
    _launch(pipe, surf, uids, 0.125, 7)
    for name in _SLOTS:
        if name not in ("dist", "dist_e"):
            assert _same_bits(getattr(pipe, "_" + name)[:live], head[name])
    points, axis, sign = surf.sample(_reference(streams, uids, 0))
    got = {name: getattr(pipe, "_" + name)[live : live + k] for name in _SLOTS}
    assert _same_bits(got["pos"], points)
    assert _same_bits(got["naxis"], axis)
    assert _same_bits(got["nsign"], sign.astype(np.float64))
    eps = stack._eps[np.searchsorted(stack._z, points[:, 2], side="right")]
    assert _same_bits(got["eps"], eps)
    assert _same_bits(got["uid"], uids)
    assert _same_bits(got["grow"], 7 + np.arange(k, dtype=np.int64))
    assert (got["lane"] == 0).all() and (got["tol"] == 0.125).all()
    assert (got["step_no"] == 1).all() and got["first"].all()


def test_launch_on_an_interface_takes_the_upper_layer():
    """A launch point exactly on an interface (a horizontal face of the
    Gaussian surface) takes the permittivity above it."""
    surf = _SURFACES[0]
    stack = _on_layers(surf)
    k = 64
    pipe = _pipeline(_CTXS[True], [1 + k], 1 + k)
    pipe._arena.n = 1
    _rewire(pipe, stack)
    _launch(pipe, surf, np.arange(k, dtype=np.uint64), 0.1, 1)
    on_face = pipe._naxis[1 : 1 + k] == 2
    assert on_face.any()
    z = pipe._pos[1 : 1 + k, 2][on_face]
    assert np.isin(z, stack._z).all()
    above = stack._eps[np.searchsorted(stack._z, z) + 1]
    assert _same_bits(pipe._eps[1 : 1 + k][on_face], above)


#: Slot-0 draws on the edges of the antipodal reflection's thirds.
_THIRDS = _on_lattice([
    0.0, 1 / 3, np.nextafter(1 / 3, 0.0), np.nextafter(1 / 3, 1.0),
    2 / 3, np.nextafter(2 / 3, 0.0), np.nextafter(2 / 3, 1.0), _BELOW_ONE,
])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), layered=st.booleans(), crafted=st.booleans())
def test_first_hop_reflects_mirrored_partners(data, layered, crafted):
    """On a mirrored lane, one ``cube_hop`` at step 1 equals the NumPy cube
    hop fed the reference draws: the primary's words, with an odd UID's
    slot 0 reflected within its third (``antipodal_uniform``) and slots 1
    and 2 over the whole interval (``mirror_uniform``).  ``crafted`` feeds
    chosen raw draws through an MT source under the mirrored kind, with
    slot 0 at 0, 1/3 and 2/3 (each +- 1 ulp) and 1 - ulp; otherwise the
    draws are the Philox ones of random UIDs."""
    ctx = _CTXS[layered]
    n = data.draw(st.integers(1, 40))
    uids = np.array(
        data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n)),
        dtype=np.uint64,
    )
    streams = MirroredDraws(WalkStreams(3, 0))
    pipe = WalkPipeline()
    source = MTWalkStreams(3, 0) if crafted else streams
    pipe.submit(0, 0, ctx, source, uids, n)
    _launch_queued(pipe)
    native.library().locate(pipe._arena_ref, n)  # the distances the hop reads
    assert (pipe._step_no[:n] == 1).all()
    if crafted:
        pipe._lane_draws[0, 0] |= native.DRAW_MIRRORED
        jitter = st.sampled_from([0.0, 0.5, _BELOW_ONE]) | st.floats(
            0.0, 1.0, exclude_max=True
        )
        slot0 = st.sampled_from([float(v) for v in _THIRDS]) | jitter
        raw = _on_lattice(np.column_stack([
            data.draw(st.lists(slot, min_size=n, max_size=n))
            for slot in (slot0, jitter, jitter)
        ]))
        _feed(pipe, raw)
        u = raw.copy()
        reflect = (pipe._uid[:n] % np.uint64(2)).astype(np.float64)[:, None]
        antipodal_uniform(u[:, :1], reflect)
        mirror_uniform(u[:, 1:], reflect)
    else:
        u = _reference(streams, pipe._uid[:n], 1)
    pipe._res_omega[:] = np.nan
    state = _snapshot(pipe)
    n_snap = native.library().cube_hop(pipe._arena_ref, n)
    assert n_snap == 0  # every walk is on its first hop
    _, _, _, npos, fc, omega = old_cube_hop(ctx, state, u, pipe._lane_flux)
    assert _same_bits(pipe._pos[:n], npos)
    assert _same_bits(pipe._res_omega[pipe._grow[fc] - pipe._win_base_g], omega)


# ----------------------------------------------------------------------
# Full 8-slot groups, which take the AVX2 draw path on a host that has it.
# ----------------------------------------------------------------------
def _host_has_avx2():
    try:
        with open("/proc/cpuinfo") as fh:
            return any(
                line.startswith("flags") and "avx2" in line.split()
                for line in fh
            )
    except OSError:
        return False


def test_draw_path_is_avx2_on_avx2_hosts():
    """The library reports the draw path it dispatched to, and an x86-64
    host whose CPU lists AVX2 gets the AVX2 one, so the full-group tests
    below run it rather than silently falling back to scalar."""
    path = native.draw_path()
    assert path in ("avx2", "scalar")
    if platform.machine() == "x86_64" and _host_has_avx2():
        assert path == "avx2"


#: Three full groups of 8 slots and a partial tail group of 5.
_GROUPS_N = 3 * 8 + 5

#: The full-group tests' lanes: two plain Philox lanes under different
#: keys, a mirrored lane and an MT lane.
_GROUP_LANES = (
    WalkStreams(3, 0),
    WalkStreams(3, 1),
    MirroredDraws(WalkStreams(3, 2)),
    MTWalkStreams(3, 3),
)
_PLAIN, _PLAIN_B, _MIRRORED, _MT = range(4)


def _group_pipeline(n):
    """A stratified pipeline with every lane of ``_GROUP_LANES`` and ``n``
    walks of the first launched."""
    pipe = WalkPipeline()
    for lane, streams in enumerate(_GROUP_LANES):
        uids = np.arange(lane * n, (lane + 1) * n, dtype=np.uint64)
        pipe.submit(lane, lane, _CTXS[True], streams, uids, n)
    _launch_queued(pipe)
    return pipe


def _mt_reference(words):
    """The next three uniforms of a 625-word MT19937 arena state."""
    state = np.random.RandomState(0)
    state.set_state(("MT19937", words[:624], int(words[624])))
    return state.random_sample(3)


#: The slots' lanes per case: one plain lane, the mirrored lane at step 1
#: (odd partners reflect), a random mix of the three Philox lanes (keys
#: gathered per slot), and that mix with an MT slot in the second group.
_GROUP_CASES = ("plain", "mirrored", "mixed", "mt")


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", _GROUP_CASES)
def test_cube_hop_on_full_groups_matches_numpy(case, seed):
    """``cube_hop`` on three full groups and a partial tail gives the
    NumPy hop of each slot's reference draws, slot by slot: the cell draw,
    the move, the first-hop weight and the hemisphere step.  Steps include
    1 (a mirrored odd UID reflects), 2**32 + 1 (whose low word is 1) and
    large ones; UIDs straddle 2**32."""
    ctx = _CTXS[True]
    n = _GROUPS_N
    pipe = _group_pipeline(n)
    rng = np.random.default_rng([seed, _GROUP_CASES.index(case)])
    if case == "plain":
        lanes = np.full(n, _PLAIN)
    elif case == "mirrored":
        lanes = np.full(n, _MIRRORED)
    else:
        lanes = rng.choice([_PLAIN, _PLAIN_B, _MIRRORED], n)
    if case == "mt":
        lanes[8 + rng.integers(8)] = _MT
    uids = rng.integers(0, 2**33, n, dtype=np.uint64)
    if case == "mirrored":
        steps = np.ones(n, dtype=np.uint64)
    else:
        steps = rng.choice(
            np.array([1, 2, 7, 2**32 + 1, 2**40 + 3], dtype=np.uint64), n
        )
    pipe._lane[:n], pipe._uid[:n], pipe._step_no[:n] = lanes, uids, steps
    for i in np.nonzero(lanes == _MT)[0]:
        words = pipe._mt[pipe._mt_slot[i]]
        words[:624] = np.random.RandomState(int(seed) + 11).get_state()[1]
        words[624] = 624
    native.library().locate(pipe._arena_ref, n)  # the distances the hop reads
    pipe._first[:n] = rng.random(n) < 0.3
    pipe._res_omega[:] = np.nan
    state = _snapshot(pipe)
    u = np.array([
        _mt_reference(pipe._mt[pipe._mt_slot[i]]) if lanes[i] == _MT
        else _GROUP_LANES[lanes[i]].draws_scalar(int(uids[i]), int(steps[i]), 3)
        for i in range(n)
    ])
    n_snap = native.library().cube_hop(pipe._arena_ref, n)
    snapped, snap_allow, snap_dist_i, npos, fc, omega = old_cube_hop(
        ctx, state, u, pipe._lane_flux
    )
    assert n_snap == snapped.shape[0]
    moved = np.ones(n, dtype=bool)
    moved[snapped] = False
    assert _same_bits(pipe._pos[:n][moved], npos[moved])
    want = old_hemisphere(
        ctx.structure.dielectric, state["pos"][snapped], snap_allow,
        snap_dist_i, state["tol"][snapped], u[snapped],
    )
    assert _same_bits(pipe._pos[:n][snapped], want)
    assert _same_bits(pipe._res_omega[pipe._grow[fc] - pipe._win_base_g], omega)
    assert _same_bits(pipe._step_no[:n], steps + np.uint64(1))


@pytest.mark.parametrize("live", [0, 3])
@pytest.mark.parametrize("lane", [_PLAIN, _PLAIN_B, _MIRRORED, _MT])
def test_launch_on_full_groups_matches_numpy(lane, live):
    """``launch`` of three full groups and a partial tail on each lane,
    after 0 or 3 live slots (so its groups start off the arena's 8-slot
    grid), writes the NumPy launch's points, normals and permittivities
    of the lane's reference step-0 draws, slot by slot."""
    surf = _SURFACES[1]
    stack = _on_layers(surf)
    n = _GROUPS_N
    pipe = _group_pipeline(live + n)
    pipe._arena.n = live
    _rewire(pipe, stack)
    uids = np.random.default_rng(lane).integers(
        0, 2**64 - 1, n, dtype=np.uint64, endpoint=True
    )
    _launch(pipe, surf, uids, 0.125, 7, lane)
    points, axis, sign = surf.sample(_reference(_GROUP_LANES[lane], uids, 0))
    got = {name: getattr(pipe, "_" + name)[live : live + n] for name in _SLOTS}
    assert _same_bits(got["pos"], points)
    assert _same_bits(got["naxis"], axis)
    assert _same_bits(got["nsign"], sign.astype(np.float64))
    eps = stack._eps[np.searchsorted(stack._z, points[:, 2], side="right")]
    assert _same_bits(got["eps"], eps)
    assert (got["lane"] == lane).all() and _same_bits(got["uid"], uids)


# ----------------------------------------------------------------------
# Engine paths no row golden covers, pinned at the NumPy step's values.
# ----------------------------------------------------------------------
def _digest(results):
    h = hashlib.sha256()
    for r in results:
        for a in (r.uids, r.omega, r.dest, r.steps):
            h.update(np.ascontiguousarray(a).tobytes())
        h.update(str(r.truncated).encode())
    return (
        h.hexdigest()[:16],
        sum(r.truncated for r in results),
        int(sum(r.steps.sum() for r in results)),
    )


def _segments(count, size, lanes):
    return [
        (s % lanes, np.arange(s * size, (s + 1) * size, dtype=np.uint64))
        for s in range(count)
    ]


@pytest.mark.parametrize(
    "which,pin",
    [
        ("layered_wires", ("b449f20a1b12a557", 0, 19299, 141)),
        ("plates", ("d2c167d497d411cf", 0, 8847, 54)),
    ],
)
def test_stream_release_path_is_pinned(which, pin, request):
    """Per-walk Mersenne-Twister streams (``frw-nc``) on two lanes through
    one vector: each walk's MT19937 state lives in the arena, is seeded at
    launch and moves with its walk through compaction.  The last pin is
    the longest walk's step count: ``layered_wires``' walk of 141 steps
    draws 423 uniforms (846 words), so its state regenerates after its
    first 624 words, past any walk of more than 104 steps."""
    structure = request.getfixturevalue(which)
    cfg = FRWConfig(
        seed=5, variant="frw-nc", antithetic=False, min_walks=256,
        max_walks=256, batch_size=256,
    )
    assets = SharedAssets(structure)
    lanes = [
        (build_context(structure, m, cfg, assets), make_streams(cfg, m))
        for m in (0, 1)
    ]
    assert all(
        lane_draws(streams)[0] == native.DRAW_MT for _, streams in lanes
    )
    results = run_segments(lanes, _segments(6, 150, 2), 96)
    longest = max(int(r.steps.max()) for r in results)
    assert (*_digest(results), longest) == pin


@pytest.mark.parametrize(
    "which,cap,pin",
    [
        ("layered_wires", 3, ("6b6f0a961d143f87", 466, 1948)),
        ("plates", 2, ("b0dc262a4322f318", 420, 1420)),
        ("layered_wires", 12, ("0f6d443549847674", 331, 5482)),
    ],
)
def test_step_cap_truncation_is_pinned(which, cap, pin, request):
    structure = request.getfixturevalue(which)
    ctx = build_context(structure, 0, FRWConfig.frw_r(seed=11, max_steps=cap))
    results = run_segments([(ctx, WalkStreams(11, 0))], _segments(4, 125, 1), 80)
    assert _digest(results) == pin


@pytest.mark.parametrize(
    "which,stats",
    [
        ("plates", (1, 64, 0, 64, 128)),
        ("layered_wires", (1, 64, 0, 64, 79)),
    ],
)
def test_absorbed_before_first_hop_is_pinned(which, stats, request):
    """A tolerance wider than the Gaussian surface offset raises on the
    first query, after that query's counters are recorded."""
    structure = request.getfixturevalue(which)
    ctx = build_context(structure, 0, FRWConfig.frw_r(seed=11))
    bad = dataclasses.replace(ctx, absorb_tol=4.0 * ctx.surface.delta)
    with pytest.raises(ConvergenceError, match="absorbed before its first hop"):
        run_segments([(bad, WalkStreams(11, 0))], _segments(2, 100, 1), 64)
    st_ = ctx.index.stats
    assert (
        st_.queries, st_.points, st_.far_field_hits, st_.near_points,
        st_.candidates_visited,
    ) == stats
