"""Tests for axis-aligned boxes and vectorised distance kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry import Box, boxes_to_arrays, nearest_box
from repro.geometry.box import distance_l2_many, distance_linf_many

coord = st.floats(-100, 100, allow_nan=False)


def make_box(x0, dx, y0, dy, z0, dz):
    return Box.from_bounds(x0, x0 + dx, y0, y0 + dy, z0, z0 + dz)


def test_degenerate_box_rejected():
    with pytest.raises(GeometryError):
        Box.from_bounds(0, 0, 0, 1, 0, 1)
    with pytest.raises(GeometryError):
        Box.from_bounds(1, 0, 0, 1, 0, 1)


def test_basic_properties():
    b = Box.from_bounds(0, 2, 0, 4, 0, 1)
    assert b.center == (1.0, 2.0, 0.5)
    assert b.sizes == (2.0, 4.0, 1.0)
    assert b.volume == 8.0
    assert b.surface_area == 2 * (8 + 4 + 2)


def test_from_center_roundtrip():
    b = Box.from_center((1, 2, 3), (0.5, 1.0, 1.5))
    assert b.lo == (0.5, 1.0, 1.5)
    assert b.hi == (1.5, 3.0, 4.5)


def test_contains_and_inside():
    b = Box.from_bounds(0, 1, 0, 1, 0, 1)
    assert b.contains((0.5, 0.5, 0.5))
    assert b.contains((0.0, 0.0, 0.0))
    assert not b.contains((1.1, 0.5, 0.5))
    assert b.contains((1.05, 0.5, 0.5), tol=0.1)
    outer = Box.from_bounds(-1, 2, -1, 2, -1, 2)
    assert b.strictly_inside(outer)
    assert not outer.strictly_inside(b)
    assert not b.strictly_inside(b)


def test_intersects_touching():
    a = Box.from_bounds(0, 1, 0, 1, 0, 1)
    b = Box.from_bounds(1, 2, 0, 1, 0, 1)  # touching faces
    c = Box.from_bounds(0.5, 2, 0, 1, 0, 1)  # overlapping
    assert not a.intersects(b)
    assert a.intersects(c)


def test_inflate():
    b = Box.from_bounds(0, 1, 0, 1, 0, 1).inflate(0.5)
    assert b.lo == (-0.5, -0.5, -0.5)
    with pytest.raises(GeometryError):
        Box.from_bounds(0, 1, 0, 1, 0, 1).inflate(-0.5)


def test_scalar_distances():
    b = Box.from_bounds(0, 1, 0, 1, 0, 1)
    assert b.distance_linf((0.5, 0.5, 0.5)) == 0.0
    assert b.distance_linf((2.0, 0.5, 0.5)) == 1.0
    assert b.distance_linf((2.0, 3.0, 0.5)) == 2.0
    assert b.distance_l2((2.0, 0.5, 0.5)) == 1.0
    assert np.isclose(b.distance_l2((2.0, 2.0, 0.5)), np.sqrt(2.0))


def test_gap_linf():
    a = Box.from_bounds(0, 1, 0, 1, 0, 1)
    b = Box.from_bounds(3, 4, 0, 1, 0, 1)
    assert a.gap_linf(b) == 2.0
    assert a.gap_linf(a) == 0.0


def test_union_bounds():
    a = Box.from_bounds(0, 1, 0, 1, 0, 1)
    b = Box.from_bounds(2, 3, -1, 0.5, 0.5, 2)
    u = a.union_bounds(b)
    assert u.lo == (0.0, -1.0, 0.0)
    assert u.hi == (3.0, 1.0, 2.0)


@given(
    st.tuples(coord, coord, coord),
    st.tuples(coord, st.floats(0.1, 10), coord, st.floats(0.1, 10), coord, st.floats(0.1, 10)),
)
@settings(max_examples=80)
def test_vectorised_matches_scalar(point, box_params):
    box = make_box(*box_params)
    lo, hi = boxes_to_arrays([box])
    pts = np.array([point])
    assert np.isclose(
        distance_linf_many(pts, lo, hi)[0, 0], box.distance_linf(point)
    )
    assert np.isclose(distance_l2_many(pts, lo, hi)[0, 0], box.distance_l2(point))


def test_linf_le_l2():
    rng = np.random.default_rng(0)
    boxes = [
        make_box(x, 1.0, y, 1.0, z, 1.0)
        for x, y, z in rng.uniform(-5, 5, (5, 3))
    ]
    lo, hi = boxes_to_arrays(boxes)
    pts = rng.uniform(-10, 10, (50, 3))
    d_inf = distance_linf_many(pts, lo, hi)
    d_2 = distance_l2_many(pts, lo, hi)
    assert np.all(d_inf <= d_2 + 1e-12)


def test_nearest_box_and_chunking():
    rng = np.random.default_rng(1)
    boxes = [
        make_box(x, 0.5, y, 0.5, z, 0.5)
        for x, y, z in rng.uniform(-10, 10, (40, 3))
    ]
    lo, hi = boxes_to_arrays(boxes)
    pts = rng.uniform(-12, 12, (100, 3))
    d1, i1 = nearest_box(pts, lo, hi)
    d2, i2 = nearest_box(pts, lo, hi, chunk=150)  # force many chunks
    assert np.array_equal(i1, i2)
    assert np.array_equal(d1, d2)
    # Verify against brute scalar evaluation for a few points.
    for p_idx in range(0, 100, 17):
        dists = [b.distance_linf(tuple(pts[p_idx])) for b in boxes]
        assert np.isclose(d1[p_idx], min(dists))


def test_nearest_box_empty():
    d, i = nearest_box(np.zeros((3, 3)), np.empty((0, 3)), np.empty((0, 3)))
    assert np.all(np.isinf(d))
    assert np.all(i == -1)


@pytest.mark.parametrize(
    "bounds",
    [
        (float("-inf"), 1, 0, 1, 0, 1),
        (0, float("inf"), 0, 1, 0, 1),
        (0, 1, float("nan"), 1, 0, 1),
        (0, 1, 0, 1, float("-inf"), float("inf")),
    ],
    ids=["-inf", "inf", "nan", "both"],
)
def test_non_finite_bounds_rejected(bounds):
    """A bound must be finite: an infinite enclosure ran and returned a
    plausible-looking row."""
    with pytest.raises(GeometryError, match="non-finite"):
        Box.from_bounds(*bounds)
