"""Tests for Gaussian (offset) surface construction and sampling."""

import numpy as np
import pytest

from repro.errors import GaussianSurfaceError
from repro.geometry import (
    Box,
    Conductor,
    Structure,
    build_gaussian_surface,
    build_offset_surface,
)
from repro.geometry.surface import TRANSVERSE


def test_single_box_surface_is_inflated_box():
    box = Box.from_bounds(0, 2, 0, 3, 0, 1)
    surf = build_offset_surface([box], delta=0.5)
    inflated = box.inflate(0.5)
    assert surf.n_patches == 6
    assert np.isclose(surf.total_area, inflated.surface_area)


def test_two_disjoint_boxes():
    boxes = [
        Box.from_bounds(0, 1, 0, 1, 0, 1),
        Box.from_bounds(10, 11, 0, 1, 0, 1),
    ]
    surf = build_offset_surface(boxes, delta=0.25)
    expected = 2 * boxes[0].inflate(0.25).surface_area
    assert np.isclose(surf.total_area, expected)


def test_overlapping_boxes_union_area():
    """L-shaped union: exact analytic surface area of the offset body.

    Inflated by 0.25, the two bars form an L-prism of height 1.5 whose
    cross-section has area ``4.5*1.5*2 - 1.5^2 = 11.25`` and (rectilinear)
    perimeter ``2*(4.5+4.5) = 18``: total area ``2*11.25 + 18*1.5 = 49.5``.
    """
    boxes = [
        Box.from_bounds(0, 4, 0, 1, 0, 1),
        Box.from_bounds(0, 1, 0, 4, 0, 1),
    ]
    surf = build_offset_surface(boxes, delta=0.25)
    assert np.isclose(surf.total_area, 49.5)


def test_touching_boxes_annihilate_shared_faces():
    boxes = [
        Box.from_bounds(0, 1, 0, 1, 0, 1),
        Box.from_bounds(1, 2, 0, 1, 0, 1),  # touching at x=1 after inflation? no
    ]
    # After inflating by 0.5 the boxes overlap; shared internal area vanishes.
    surf = build_offset_surface(boxes, delta=0.5)
    # Union of the two inflated boxes is one 3x2x2 box.
    merged = Box.from_bounds(-0.5, 2.5, -0.5, 1.5, -0.5, 1.5)
    assert np.isclose(surf.total_area, merged.surface_area)


def test_sample_points_on_surface():
    boxes = [
        Box.from_bounds(0, 4, 0, 1, 0, 1),
        Box.from_bounds(0, 1, 0, 4, 0, 1),
    ]
    surf = build_offset_surface(boxes, delta=0.3)
    rng = np.random.default_rng(1)
    pts, axes, signs = surf.sample(rng.random((500, 3)))
    inflated = [b.inflate(0.3) for b in boxes]
    for p, axis, sign in zip(pts, axes, signs):
        d = min(b.distance_linf(tuple(p)) for b in inflated)
        assert d < 1e-9  # on the boundary of the union
        assert sign in (-1, 1)
        assert 0 <= axis <= 2


def test_sampling_is_area_uniform():
    box = Box.from_bounds(0, 4, 0, 2, 0, 1)  # unequal faces
    surf = build_offset_surface([box], delta=0.0001)
    rng = np.random.default_rng(2)
    pts, axes, signs = surf.sample(rng.random((20000, 3)))
    inflated = box.inflate(0.0001)
    sx, sy, sz = inflated.sizes
    areas = np.array([sy * sz, sx * sz, sx * sy]) * 2
    frac = np.array([(axes == a).mean() for a in range(3)])
    assert np.allclose(frac, areas / areas.sum(), atol=0.02)


def test_sampling_determinism():
    box = Box.from_bounds(0, 1, 0, 1, 0, 1)
    surf = build_offset_surface([box], delta=0.2)
    u = np.random.default_rng(3).random((50, 3))
    p1 = surf.sample(u)
    p2 = surf.sample(u)
    assert np.array_equal(p1[0], p2[0])


@pytest.mark.parametrize("shape", [(50,), (50, 2), (2, 50, 3)])
def test_sampling_rejects_uniforms_of_the_wrong_shape(shape):
    """The compiled sampler reads three uniforms per row, so any other
    shape is refused before it runs."""
    surf = build_offset_surface([Box.from_bounds(0, 1, 0, 1, 0, 1)], delta=0.2)
    with pytest.raises(ValueError, match="shape"):
        surf.sample(np.zeros(shape))


def test_build_gaussian_surface_from_structure():
    a = Conductor.single("a", Box.from_bounds(0, 1, 0, 5, 0, 1))
    b = Conductor.single("b", Box.from_bounds(3, 4, 0, 5, 0, 1))
    s = Structure([a, b], enclosure=Box.from_bounds(-5, 9, -5, 10, -5, 6))
    surf = build_gaussian_surface(s, 0, offset_fraction=0.5)
    assert np.isclose(surf.delta, 1.0)  # clearance 2 (to b), walls 5
    # Surface must not intersect conductor b.
    rng = np.random.default_rng(4)
    pts, _, _ = surf.sample(rng.random((300, 3)))
    d = np.array([b.boxes[0].distance_linf(tuple(p)) for p in pts])
    assert d.min() > 0.5


def test_build_gaussian_surface_validation():
    a = Conductor.single("a", Box.from_bounds(0, 1, 0, 1, 0, 1))
    s = Structure([a], enclosure=Box.from_bounds(-2, 3, -2, 3, -2, 3))
    with pytest.raises(GaussianSurfaceError):
        build_gaussian_surface(s, 0, offset_fraction=1.5)
    with pytest.raises(GaussianSurfaceError):
        build_offset_surface(list(a.boxes), delta=-1.0)


@pytest.mark.parametrize(
    "enclosure_x0,offset,absorption",
    [(-8e-247, 0.5, 2e-3), (-2.0, 0.9, 0.4), (-2.0, 0.99, 0.49)],
    ids=["unresolved-clearance", "offset-0.9", "offset-0.99"],
)
def test_surface_whose_walks_would_absorb_at_launch_is_refused(
    enclosure_x0, offset, absorption
):
    """A launch point lies ``delta`` from the conductor and ``clearance -
    delta`` from the rest; when the absorption tolerance reaches either,
    or the clearance is below the coordinates' rounding, the engine
    would raise ConvergenceError mid-extraction (a 500 in the service).
    The surface refuses it up front with a GeometryError."""
    a = Conductor.single("a", Box.from_bounds(0, 1, 0, 1, 0, 1))
    s = Structure([a], enclosure=Box.from_bounds(enclosure_x0, 3, -2, 3, -2, 3))
    with pytest.raises(GaussianSurfaceError, match="before its first hop"):
        build_gaussian_surface(
            s, 0, offset_fraction=offset, absorption_fraction=absorption
        )
    if enclosure_x0 == -2.0:
        build_gaussian_surface(s, 0, offset_fraction=offset)
