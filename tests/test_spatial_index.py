"""Tests for spatial indices: grid equivalence with brute force."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FRWConfig, native
from repro.errors import GeometryError
from repro.geometry import (
    Box,
    BruteForceIndex,
    Conductor,
    GridIndex,
    Structure,
    build_index,
)
from repro.geometry import spatial_index
from repro.geometry.io import structure_from_dict
from repro.service import TrafficGenerator
from repro.structures import build_case


def random_structure(seed: int, n: int = 30) -> Structure:
    rng = np.random.default_rng(seed)
    conductors = []
    for i in range(n):
        x, y, z = rng.uniform(0, 40, 3)
        sx, sy, sz = rng.uniform(0.3, 2.0, 3)
        conductors.append(
            Conductor.single(
                f"c{i}", Box.from_bounds(x, x + sx, y, y + sy, z, z + sz)
            )
        )
    return Structure(
        conductors, enclosure=Box.from_bounds(-5, 50, -5, 50, -5, 50)
    )


def cell_ids(grid: GridIndex, pts: np.ndarray) -> np.ndarray:
    """The cell each point maps to: per axis, its scaled offset from the
    grid origin, floored and clipped to the grid."""
    rel = (pts - grid._origin) * grid._inv_cell
    ijk = np.clip(np.floor(rel), 0, grid._cell_max).astype(np.int64)
    nx, ny, _ = (int(v) for v in grid._n_cells)
    return (ijk[:, 2] * ny + ijk[:, 1]) * nx + ijk[:, 0]


def reference_query(grid: GridIndex, pts: np.ndarray):
    """The grid query point by point: a far-field cell answers
    ``(h_cap, -1)``; a near one scans its candidates in ascending box
    order, and the first strictly lowest capped distance wins."""
    dist = np.full(pts.shape[0], grid.h_cap)
    cond = np.full(pts.shape[0], -1, dtype=np.int64)
    for i, c in enumerate(cell_ids(grid, pts)):
        if not grid._near[c]:
            continue
        for box in grid._indices[grid._indptr[c] : grid._indptr[c + 1]]:
            gap = np.maximum(grid._lo[box] - pts[i], pts[i] - grid._hi[box])
            d = max(0.0, float(gap.max()))
            if d < dist[i]:
                dist[i], cond[i] = d, grid._owner[box]
    return dist, cond


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grid_matches_brute_force_under_cap(seed):
    s = random_structure(seed)
    brute = BruteForceIndex(s)
    h_cap = 3.0
    grid = GridIndex(s, h_cap=h_cap)
    rng = np.random.default_rng(seed + 50)
    pts = rng.uniform(-5, 50, (400, 3))
    d_b, c_b = brute.query(pts)
    d_g, c_g = grid.query(pts)
    near = d_b < h_cap
    assert np.allclose(d_g[near], d_b[near])
    assert np.array_equal(c_g[near], c_b[near])
    far = ~near
    assert np.all(d_g[far] == h_cap)
    assert np.all(c_g[far] == -1)


def test_grid_csr_structure():
    """Candidate lists are precomputed into consistent CSR arrays."""
    s = random_structure(3)
    grid = GridIndex(s, h_cap=2.0)
    n_cells = int(np.prod(grid._n_cells))
    assert grid._indptr.shape == (n_cells + 1,)
    assert grid._indptr[0] == 0
    assert grid._indptr[-1] == grid._indices.shape[0]
    assert np.all(np.diff(grid._indptr) >= 0)
    # Within each cell, candidates are sorted ascending (argmin tie-break).
    for c in range(0, n_cells, max(1, n_cells // 50)):
        cand = grid._indices[grid._indptr[c] : grid._indptr[c + 1]]
        assert np.all(np.diff(cand) > 0)
    # Queries are pure: repeating them gives identical answers.
    pts = np.full((5, 3), 10.0)
    d1, c1 = grid.query(pts)
    d2, c2 = grid.query(pts)
    assert np.array_equal(d1, d2) and np.array_equal(c1, c2)


def test_grid_rejects_bad_cap():
    s = random_structure(4)
    with pytest.raises(GeometryError):
        GridIndex(s, h_cap=0.0)


def test_empty_points():
    s = random_structure(5)
    d, c = GridIndex(s, h_cap=1.0).query(np.empty((0, 3)))
    assert d.shape == (0,) and c.shape == (0,)


def test_brute_l2_query():
    s = random_structure(6)
    brute = BruteForceIndex(s)
    pts = np.random.default_rng(7).uniform(0, 40, (50, 3))
    d_inf, _ = brute.query(pts)
    d_2, _ = brute.query_l2(pts)
    assert np.all(d_inf <= d_2 + 1e-12)


def test_build_index_selection():
    # The far-field fast path makes the grid the index at every size.
    for structure in (random_structure(8, n=10), random_structure(9, n=40)):
        index = build_index(structure, h_cap=1.0)
        assert isinstance(index, GridIndex)
        assert index.h_cap == 1.0


@pytest.mark.parametrize("boundary_points", [False, True])
@pytest.mark.parametrize("resolution", [1, 2])
def test_far_field_fast_path_matches_plain_grid(boundary_points, resolution):
    """The far-field path at an explicit resolution must be
    bitwise-identical to the plain all-pairs answer (capped brute force),
    also for points snapped onto its cell lattice."""
    s = random_structure(11)
    h_cap = 3.0
    fast = GridIndex(s, h_cap=h_cap, resolution=resolution)
    rng = np.random.default_rng(12)
    pts = rng.uniform(-5, 50, (700, 3))
    if boundary_points:
        cell = fast._cell
        lattice = fast._origin + np.round((pts - fast._origin) / cell) * cell
        pts = np.clip(lattice, -5, 50)
    d_b, c_b = BruteForceIndex(s).query(pts)
    far = d_b >= h_cap
    d_f, c_f = fast.query(pts)
    assert np.array_equal(d_f, np.where(far, h_cap, d_b))
    assert np.array_equal(c_f, np.where(far, -1, c_b))
    # The structure has open space, so both tiers must actually engage.
    assert fast.n_far_cells > 0
    assert fast.stats.far_field_hits > 0
    assert fast.stats.candidates_pruned > 0
    assert fast.stats.near_points < fast.stats.points


def test_query_stats_counters_and_reset():
    s = random_structure(13)
    grid = GridIndex(s, h_cap=2.0)
    pruned = grid.stats.candidates_pruned
    pts = np.random.default_rng(14).uniform(-5, 50, (100, 3))
    grid.query(pts)
    st = grid.stats
    assert st.queries == 1 and st.points == 100
    assert st.far_field_hits + st.near_points == 100
    assert 0.0 <= st.far_field_rate <= 1.0
    assert st.as_dict()["candidates_pruned"] == pruned
    st.reset()
    assert st.points == 0 and st.candidates_pruned == pruned  # build-time


def test_query_of_strided_points_matches_contiguous():
    """The kernel reads contiguous rows, so ``query`` copies any other
    layout first: a strided view and a Fortran-order array answer what a
    contiguous copy does, and the caller's array is left alone."""
    s = random_structure(15)
    grid = GridIndex(s, h_cap=2.5)
    wide = np.random.default_rng(16).uniform(-5, 50, (64, 7))
    view = wide[:, 1:7:2]
    before = wide.copy()
    d1, c1 = grid.query(np.ascontiguousarray(view))
    for pts in (view, np.asfortranarray(view)):
        d2, c2 = grid.query(pts)
        assert d1.tobytes() == d2.tobytes() and np.array_equal(c1, c2)
    assert np.array_equal(wide, before)


def test_cell_bounds_are_conservative():
    """Every enclosure point's capped distance lies within its cell's
    bounds (empty cells carry ``inf``, i.e. "provably beyond the cap")."""
    s = random_structure(17)
    h_cap = 3.0
    grid = GridIndex(s, h_cap=h_cap, resolution=2)
    brute = BruteForceIndex(s)
    rng = np.random.default_rng(18)
    pts = rng.uniform(-5, 50, (500, 3))  # the enclosure exactly
    d_true, _ = brute.query(pts)
    d_cap = np.minimum(d_true, h_cap)
    cells = cell_ids(grid, pts)
    assert np.all(np.minimum(grid._cell_dmin[cells], h_cap) <= d_cap + 1e-12)
    # dmax is an upper bound on the *uncapped* nearest distance wherever a
    # candidate exists; empty cells legitimately report inf.
    cdmax = grid._cell_dmax[cells]
    finite = np.isfinite(cdmax)
    assert np.all(d_true[finite] <= cdmax[finite] + 1e-12)


@pytest.mark.parametrize("h_cap", [3.0, 1e-3])
def test_grid_past_the_cell_cap_coarsens_and_stays_exact(monkeypatch, h_cap):
    """A cap tiny next to the enclosure would ask for billions of cells;
    past ``MAX_CELLS`` the grid's cells grow instead, and every answer
    keeps its bits."""
    monkeypatch.setattr(spatial_index, "MAX_CELLS", 1000)
    s = random_structure(3)
    grid = GridIndex(s, h_cap=h_cap)
    assert 100 < np.prod(grid._n_cells) <= 1000
    pts = np.random.default_rng(4).uniform(-5, 50, (400, 3))
    d_b, c_b = BruteForceIndex(s).query(pts)
    far = d_b >= h_cap
    d_g, c_g = grid.query(pts)
    assert np.array_equal(d_g, np.where(far, h_cap, d_b))
    assert np.array_equal(c_g, np.where(far, -1, c_b))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_boxes=st.integers(1, 25),
    h_cap=st.floats(0.5, 6.0),
    resolution=st.one_of(st.none(), st.integers(1, 4)),
)
def test_grid_equals_brute_force_property(seed, n_boxes, h_cap, resolution):
    """``GridIndex.query`` == capped ``BruteForceIndex.query`` — distance
    bits, winner index, and the lowest-box-index tie-break — at every
    resolution (derived included), on
    query clouds that include points exactly on cell boundaries and at
    integer multiples of ``h_cap``."""
    s = random_structure(seed, n=n_boxes)
    grid = GridIndex(s, h_cap=h_cap, resolution=resolution)
    rng = np.random.default_rng(seed ^ 0xA5A5)
    pts = rng.uniform(-5, 50, (160, 3))
    # Adversarial coordinates: snap a third of the points onto the grid's
    # cell lattice (query cells are decided by a floor there) and another
    # third onto integer multiples of h_cap from the origin (distances tie
    # the cap exactly, exercising the strict `< h_cap` winner test).
    cell = grid._cell
    lattice = grid._origin + np.round((pts[:50] - grid._origin) / cell) * cell
    pts[:50] = np.clip(lattice, -5, 50)
    caps = np.round(pts[50:100] / h_cap) * h_cap
    pts[50:100] = np.clip(caps, -5, 50)
    d_b, c_b = BruteForceIndex(s).query(pts)
    far = d_b >= h_cap
    d_ref = np.where(far, h_cap, d_b)
    c_ref = np.where(far, -1, c_b)
    d_g, c_g = grid.query(pts)
    assert np.array_equal(d_g, d_ref)
    assert np.array_equal(c_g, c_ref)


def zero_face_structure(seed: int, n: int) -> Structure:
    """Random boxes plus boxes with faces on the coordinate planes, where
    a point at -0.0 or +0.0 makes a signed-zero face distance."""
    rng = np.random.default_rng(seed)
    conductors = [
        Conductor.single("z0", Box.from_bounds(-2, 0, 0, 1.5, -1, 0)),
        Conductor.single("z1", Box.from_bounds(0, 1, -1.5, 0, 0, 2)),
    ]
    for i in range(n):
        lo = rng.uniform(-4.0, 45.0, 3)
        hi = lo + rng.uniform(0.3, 4.0, 3)
        box = Box.from_bounds(lo[0], hi[0], lo[1], hi[1], lo[2], hi[2])
        conductors.append(Conductor.single(f"c{i}", box))
    return Structure(
        conductors, enclosure=Box.from_bounds(-5, 50, -5, 50, -5, 50)
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_boxes=st.integers(0, 20),
    h_cap=st.floats(0.5, 6.0),
    resolution=st.one_of(st.none(), st.integers(1, 4)),
)
def test_compiled_query_matches_references(seed, n_boxes, h_cap, resolution):
    """The compiled query equals capped brute force at every point inside
    the enclosure — random, on cell boundaries, on the coordinate planes
    at -0.0 and +0.0 — and the point-by-point reference outside it, where
    cells clip and pruning no longer matches brute force.  Distances never
    carry a negative zero."""
    s = zero_face_structure(seed, n_boxes)
    grid = GridIndex(s, h_cap=h_cap, resolution=resolution)
    rng = np.random.default_rng(seed ^ 0x5A5A)
    inside = rng.uniform(-5, 50, (240, 3))
    cell = grid._cell
    lattice = grid._origin + np.round((inside[:60] - grid._origin) / cell) * cell
    inside[:60] = np.clip(lattice, -5, 50)
    inside[60:120] = rng.choice([-0.0, 0.0, -1.0, 0.5, 1.0, 1.5, -1.5], (60, 3))
    d_b, c_b = BruteForceIndex(s).query(inside)
    far = d_b >= h_cap
    d_g, c_g = grid.query(inside)
    assert np.array_equal(d_g, np.where(far, h_cap, d_b))
    assert np.array_equal(c_g, np.where(far, -1, c_b))
    assert not np.signbit(d_g).any()
    outside = rng.uniform(-5, 50, (120, 3))
    axis = rng.integers(0, 3, 120)
    beyond = [-1e3, -5 - 2 * h_cap, -5.5, 50.5, 50 + 2 * h_cap, 1e3]
    outside[np.arange(120), axis] = rng.choice(beyond, 120)
    d_o, c_o = grid.query(outside)
    d_r, c_r = reference_query(grid, outside)
    assert d_o.tobytes() == d_r.tobytes()
    assert np.array_equal(c_o, c_r)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_boxes=st.integers(0, 20),
    resolution=st.integers(1, 4),
)
def test_brute_force_descriptor_matches_query(seed, n_boxes, resolution):
    """The brute-force index's compiled descriptor (one near-field cell
    listing every box, no cap) answers exactly what its NumPy all-pairs
    query does, zero signs included: at random points inside and outside
    the enclosure, on the cell boundaries of a grid over the structure,
    on box faces, and on the coordinate planes at -0.0 and +0.0.  The
    walk engine runs on this descriptor when the far-field goldens swap
    the grid for brute force."""
    s = zero_face_structure(seed, n_boxes)
    brute = BruteForceIndex(s)
    grid = GridIndex(s, h_cap=2.0, resolution=resolution)
    rng = np.random.default_rng(seed ^ 0xA5A5)
    pts = rng.uniform(-60, 110, (300, 3))
    cell = grid._cell
    lattice = grid._origin + np.round((pts[:60] - grid._origin) / cell) * cell
    pts[:60] = lattice
    lo, hi, _ = s.box_arrays
    faces = np.concatenate([lo, hi])
    pick = rng.integers(0, faces.shape[0], (60, 3))
    pts[60:120] = faces[pick, np.arange(3)]
    pts[120:180] = rng.choice([-0.0, 0.0, -1.0, 0.5, 1.0, 1.5, -1.5], (60, 3))
    d_ref, c_ref = brute.query(pts)
    dist, cond, near, visited = native.grid_query(brute.descriptor(), pts)
    assert dist.tobytes() == d_ref.tobytes()
    assert np.array_equal(cond, c_ref)
    assert (near, visited) == (pts.shape[0], pts.shape[0] * lo.shape[0])


def test_query_stats_totals_are_pinned():
    """Query counters on fixed point sets: a sparse structure queried
    partly outside its enclosure, and SRAM case 5 at the default cap."""
    grid = GridIndex(random_structure(11), h_cap=3.0, resolution=1)
    pts = np.random.default_rng(14).uniform(-8, 53, (2000, 3))
    grid.query(pts)
    grid.query(pts[:500])
    assert grid.stats.as_dict() == {
        "queries": 2,
        "points": 2500,
        "far_field_hits": 2201,
        "near_points": 299,
        "candidates_visited": 344,
        "candidates_pruned": 3398,
        "far_field_rate": 0.8804,
    }
    s = build_case(5)
    grid = GridIndex(s, h_cap=_default_cap(s))
    lo, hi = np.asarray(s.enclosure.lo), np.asarray(s.enclosure.hi)
    pts = lo + (hi - lo) * np.random.default_rng(5).random((10_000, 3))
    d, c = grid.query(pts)
    assert grid.stats.as_dict() == {
        "queries": 1,
        "points": 10_000,
        "far_field_hits": 1664,
        "near_points": 8336,
        "candidates_visited": 13124,
        "candidates_pruned": 50952,
        "far_field_rate": 0.1664,
    }
    assert d.sum().hex() == "0x1.d814ab96234c6p+14"
    assert int(c.sum()) == 179353


def test_query_digest_case5_is_pinned():
    """The bits of the compiled query on SRAM case 5 at the default cap,
    pinned: a cloud over 1.4x the enclosure, so near-field, far-field and
    out-of-enclosure points (about 64% of them) all take part."""
    s = build_case(5)
    grid = GridIndex(s, h_cap=_default_cap(s))
    lo, hi = np.asarray(s.enclosure.lo), np.asarray(s.enclosure.hi)
    span = hi - lo
    rng = np.random.default_rng(45)
    pts = lo - 0.2 * span + 1.4 * span * rng.random((6000, 3))
    d, c = grid.query(pts)
    assert hashlib.sha256(d.tobytes() + c.tobytes()).hexdigest() == (
        "d870b93d63826e532a5f88815a961d2f5ca0c0e0e8f4a3ec96620e04bd006088"
    )
    assert grid.stats.as_dict() == {
        "queries": 1,
        "points": 6000,
        "far_field_hits": 3442,
        "near_points": 2558,
        "candidates_visited": 3648,
        "candidates_pruned": 50952,
        "far_field_rate": 0.5737,
    }


def test_query_rejects_non_point_arrays():
    """Anything but ``(n, 3)`` points is refused before the kernel reads
    three doubles per row."""
    grid = GridIndex(random_structure(15), h_cap=2.5)
    pts = np.zeros((8, 3))
    for bad in (pts[:, :2], pts.reshape(-1), pts[:, :, None], np.float64(1.0)):
        with pytest.raises(GeometryError, match=r"\(n, 3\) points"):
            grid.query(bad)
    assert grid.stats.queries == 0


def test_owner_mapping_multibox():
    net = Conductor(
        "net",
        (
            Box.from_bounds(0, 1, 0, 1, 0, 1),
            Box.from_bounds(5, 6, 0, 1, 0, 1),
        ),
    )
    other = Conductor.single("o", Box.from_bounds(10, 11, 0, 1, 0, 1))
    s = Structure([net, other], enclosure=Box.from_bounds(-5, 16, -5, 6, -5, 6))
    brute = BruteForceIndex(s)
    d, c = brute.query(np.array([[5.5, 0.5, 0.5], [10.5, 0.5, 0.5]]))
    assert c.tolist() == [0, 1]
    assert np.allclose(d, 0.0)


def reference_build(grid: GridIndex):
    """The row-wise build the column-wise one replaced, kept verbatim as
    the reference: (n, 3) incidence temporaries, 2-D fancy indexes and an
    axis-1 ``max``, a stable cell argsort, and ``fmin.reduceat`` bounds.
    Returns ``(indptr, indices, cell_dmin, cell_dmax, candidates_pruned)``
    for ``grid``'s geometry."""
    nx, ny, nz = (int(v) for v in grid._n_cells)
    n_cells = nx * ny * nz
    box_lo, box_hi = grid._lo, grid._hi
    origin, cell, h_cap = grid._origin, grid._cell, grid.h_cap
    m = box_lo.shape[0]
    cell_dmin = np.full(n_cells, np.inf, dtype=np.float64)
    cell_dmax = np.full(n_cells, np.inf, dtype=np.float64)
    limits = np.array([nx, ny, nz], dtype=np.int64)
    lo = (box_lo - h_cap - origin[None, :]) / cell[None, :]
    hi = (box_hi + h_cap - origin[None, :]) / cell[None, :]
    i0 = np.clip(np.floor(lo).astype(np.int64) - 1, 0, limits[None, :] - 1)
    i1 = np.clip(np.floor(hi).astype(np.int64) + 1, 0, limits[None, :] - 1)
    ext = i1 - i0 + 1
    per_box = ext[:, 0] * ext[:, 1] * ext[:, 2]
    total = int(per_box.sum())
    all_boxes = np.repeat(np.arange(m, dtype=np.int64), per_box)
    starts = np.cumsum(per_box) - per_box
    t = np.arange(total, dtype=np.int64) - np.repeat(starts, per_box)
    ex = ext[all_boxes, 0]
    ti = t % ex
    r = t // ex
    ey = ext[all_boxes, 1]
    tj = r % ey
    tk = r // ey
    all_cells = (
        (i0[all_boxes, 2] + tk) * ny + (i0[all_boxes, 1] + tj)
    ) * nx + (i0[all_boxes, 0] + ti)
    order = np.argsort(all_cells, kind="stable")
    all_boxes = all_boxes[order]
    all_cells = all_cells[order]
    counts = np.bincount(all_cells, minlength=n_cells)
    ijk = np.empty((all_cells.shape[0], 3), dtype=np.int64)
    ijk[:, 0] = all_cells % nx
    rest = all_cells // nx
    ijk[:, 1] = rest % ny
    ijk[:, 2] = rest // ny
    pad = 4.0 * np.spacing(
        np.maximum(np.abs(origin), np.abs(origin + grid._n_cells * cell))
    )
    cl = origin[None, :] + ijk * cell[None, :] - pad[None, :]
    ch = cl + cell[None, :] + 2.0 * pad[None, :]
    blo = box_lo[all_boxes]
    bhi = box_hi[all_boxes]
    d_lo = np.maximum(np.maximum(blo - ch, cl - bhi), 0.0).max(axis=1)
    d_hi = np.maximum(np.maximum(blo - cl, ch - bhi), 0.0).max(axis=1)
    seg_starts = np.cumsum(counts) - counts
    nzc = counts > 0
    cell_dmin[nzc] = np.fmin.reduceat(d_lo, seg_starts[nzc])
    cell_dmax[nzc] = np.fmin.reduceat(d_hi, seg_starts[nzc])
    keep = (d_lo < h_cap) & (d_lo <= cell_dmax[all_cells])
    pruned = int(all_boxes.shape[0] - np.count_nonzero(keep))
    all_boxes = all_boxes[keep]
    counts = np.bincount(all_cells[keep], minlength=n_cells)
    indptr = np.zeros(n_cells + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, all_boxes, cell_dmin, cell_dmax, pruned


@st.composite
def grid_builds(draw):
    """A structure plus index parameters.  Boxes are random or aligned to
    the grid's cell lattice, optionally shifted by exactly ``h_cap`` — the
    coordinates where a box's cell range is decided by a floor at an
    integer."""
    h_cap = draw(st.floats(0.5, 6.0))
    resolution = draw(st.integers(1, 4))
    extent = 55.0
    n = max(1, int(np.floor(extent / (h_cap / resolution))))
    cell = extent / n
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    boxes = []
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.booleans()):
            k0 = rng.integers(0, n, 3)
            k1 = k0 + rng.integers(1, 3, 3)
            shift = draw(st.sampled_from([0.0, h_cap, -h_cap]))
            lo = -5.0 + k0 * cell + shift
            hi = -5.0 + k1 * cell + shift
        else:
            lo = rng.uniform(-5.0, 45.0, 3)
            hi = lo + rng.uniform(0.3, 4.0, 3)
        boxes.append(Box.from_bounds(lo[0], hi[0], lo[1], hi[1], lo[2], hi[2]))
    structure = Structure(
        [Conductor.single(f"c{i}", b) for i, b in enumerate(boxes)],
        enclosure=Box.from_bounds(-5, 50, -5, 50, -5, 50),
    )
    return structure, h_cap, resolution


@settings(max_examples=80, deadline=None)
@given(grid_builds())
def test_column_build_matches_reference_build(build):
    """The column-wise build gives byte-equal CSR lists, cell bounds and
    pruned counts to the row-wise reference at resolutions 1-4."""
    structure, h_cap, resolution = build
    grid = GridIndex(structure, h_cap=h_cap, resolution=resolution)
    assert grid.resolution == resolution
    indptr, indices, cell_dmin, cell_dmax, pruned = reference_build(grid)
    assert grid._indptr.tobytes() == indptr.tobytes()
    assert grid._indices.tobytes() == indices.tobytes()
    assert grid._cell_dmin.tobytes() == cell_dmin.tobytes()
    assert grid._cell_dmax.tobytes() == cell_dmax.tobytes()
    assert grid.stats.candidates_pruned == pruned


def _default_cap(structure: Structure) -> float:
    return FRWConfig().h_cap_fraction * min(structure.enclosure.sizes)


@pytest.mark.parametrize(
    "case,expected", [(1, 2), (2, 2), (3, 2), (4, 2), (5, 4), (6, 4)]
)
def test_derived_resolution_on_table_cases(case, expected):
    """Only the dense SRAM arrays crowd more than REFINE_DENSITY pruned
    candidates into a near-field cell at two cells per cap."""
    structure = build_case(case)
    assert GridIndex(structure, h_cap=_default_cap(structure)).resolution == expected


def test_derived_resolution_on_traffic_nets():
    generator = TrafficGenerator(seed=0, duplicate_rate=0.0)
    for payload, _meta in generator.requests(3):
        structure = structure_from_dict(payload["structure"])
        grid = GridIndex(structure, h_cap=_default_cap(structure))
        assert grid.resolution == 2


def test_derived_resolution_matches_explicit_build():
    """A derived grid is the explicit build at the resolution it chose."""
    structure = build_case(5)
    h_cap = _default_cap(structure)
    derived = GridIndex(structure, h_cap=h_cap)
    explicit = GridIndex(structure, h_cap=h_cap, resolution=derived.resolution)
    for name in ("_indptr", "_indices", "_cell_dmin", "_cell_dmax"):
        assert getattr(derived, name).tobytes() == getattr(explicit, name).tobytes()
    assert derived.stats.candidates_pruned == explicit.stats.candidates_pruned


def test_grid_rejects_bad_resolution():
    with pytest.raises(GeometryError):
        GridIndex(random_structure(4), h_cap=1.0, resolution=0)
