"""Tests for the Structure container and its validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError, StructureValidationError
from repro.geometry import Box, Conductor, DielectricStack, Structure


def two_wire_structure():
    a = Conductor.single("a", Box.from_bounds(0, 1, 0, 5, 0, 1))
    b = Conductor.single("b", Box.from_bounds(2, 3, 0, 5, 0, 1))
    return Structure([a, b], enclosure=Box.from_bounds(-5, 8, -5, 10, -4, 5))


def test_conductor_validation():
    with pytest.raises(GeometryError):
        Conductor("x", ())
    with pytest.raises(GeometryError):
        Conductor("", (Box.from_bounds(0, 1, 0, 1, 0, 1),))


def test_counts_and_names():
    s = two_wire_structure()
    assert s.n_conductors == 3  # two wires + enclosure
    assert s.enclosure_index == 2
    assert s.names == ["a", "b", "ENV"]
    assert s.index_of("b") == 1
    assert s.index_of("ENV") == 2
    with pytest.raises(KeyError):
        s.index_of("zzz")


def test_box_arrays():
    s = two_wire_structure()
    lo, hi, owner = s.box_arrays
    assert lo.shape == (2, 3)
    assert owner.tolist() == [0, 1]
    assert s.n_boxes == 2
    assert s.min_feature == 1.0


def test_auto_enclosure():
    a = Conductor.single("a", Box.from_bounds(0, 1, 0, 1, 0, 1))
    s = Structure([a], auto_margin=0.5)
    assert a.boxes[0].strictly_inside(s.enclosure)
    assert s.enclosure.lo == (-0.5, -0.5, -0.5)


def test_needs_a_conductor():
    with pytest.raises(GeometryError):
        Structure([])


def test_conductor_clearance():
    s = two_wire_structure()
    assert s.conductor_clearance(0) == 1.0  # gap to wire b
    # Clearance also counts walls: wire b is 5 from enclosure hi x.
    assert s.conductor_clearance(1) == 1.0


def loop_clearance(structure: Structure, index: int) -> float:
    """The per-conductor ``gap_linf`` loop that ``conductor_clearance``
    replaced, kept as the reference."""
    me = structure.conductors[index]
    gap = np.inf
    for other_idx, other in enumerate(structure.conductors):
        if other_idx != index:
            gap = min(gap, me.gap_linf(other))
    enc = structure.enclosure
    for box in me.boxes:
        for axis in range(3):
            gap = min(gap, box.lo[axis] - enc.lo[axis])
            gap = min(gap, enc.hi[axis] - box.hi[axis])
    return float(gap)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_nets=st.integers(1, 6),
    lattice=st.booleans(),
)
def test_conductor_clearance_matches_loop(seed, n_nets, lattice):
    """The vectorised clearance equals the loop for every conductor, on
    random and lattice-aligned multi-box nets (touching and overlapping
    boxes included)."""
    rng = np.random.default_rng(seed)
    conductors = []
    for i in range(n_nets):
        boxes = []
        for _ in range(int(rng.integers(1, 4))):
            if lattice:
                lo = rng.integers(0, 8, 3).astype(float) * 0.25
                hi = lo + rng.integers(1, 4, 3) * 0.25
            else:
                lo = rng.uniform(0.0, 9.0, 3)
                hi = lo + rng.uniform(0.1, 2.0, 3)
            boxes.append(Box.from_bounds(lo[0], hi[0], lo[1], hi[1], lo[2], hi[2]))
        conductors.append(Conductor(f"n{i}", tuple(boxes)))
    structure = Structure(conductors, auto_margin=0.5)
    for index in range(n_nets):
        assert structure.conductor_clearance(index) == loop_clearance(
            structure, index
        )


def test_enclosure_distance():
    s = two_wire_structure()
    pts = np.array([[-5.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.5, 2.5, 0.5]])
    d = s.enclosure_distance(pts)
    assert d[0] == 0.0
    assert d[1] == 4.0  # z to -4
    assert d[2] > 0


def test_validate_accepts_good_structure():
    two_wire_structure().validate(min_gap=0.5)


def test_validate_rejects_overlap():
    a = Conductor.single("a", Box.from_bounds(0, 2, 0, 5, 0, 1))
    b = Conductor.single("b", Box.from_bounds(1, 3, 0, 5, 0, 1))
    s = Structure([a, b], enclosure=Box.from_bounds(-5, 8, -5, 10, -4, 5))
    with pytest.raises(StructureValidationError):
        s.validate()


def test_validate_rejects_small_gap():
    s = two_wire_structure()
    with pytest.raises(StructureValidationError):
        s.validate(min_gap=1.5)


def test_validate_allows_same_net_overlap():
    net = Conductor(
        "L",
        (
            Box.from_bounds(0, 3, 0, 1, 0, 1),
            Box.from_bounds(0, 1, 0, 4, 0, 1),  # overlapping L-shape
        ),
    )
    Structure([net], enclosure=Box.from_bounds(-3, 6, -3, 7, -3, 4)).validate()


def test_validate_rejects_outside_enclosure():
    a = Conductor.single("a", Box.from_bounds(0, 1, 0, 1, 0, 1))
    s = Structure([a], enclosure=Box.from_bounds(0, 4, -2, 2, -2, 2))
    with pytest.raises(StructureValidationError):
        s.validate()


def test_validate_rejects_interfaces_outside_domain():
    a = Conductor.single("a", Box.from_bounds(0, 1, 0, 1, 0, 1))
    stack = DielectricStack(interfaces=(99.0,), eps=(1.0, 2.0))
    s = Structure(
        [a], dielectric=stack, enclosure=Box.from_bounds(-2, 3, -2, 3, -2, 3)
    )
    with pytest.raises(StructureValidationError):
        s.validate()


def test_multibox_net_gap():
    wl = Conductor(
        "wl",
        (
            Box.from_bounds(0, 10, 0, 1, 2, 3),
            Box.from_bounds(0, 10, 0, 1, 2, 3),
        ),
    )
    bl = Conductor.single("bl", Box.from_bounds(4, 5, -3, 4, 0, 1))
    s = Structure([wl, bl], enclosure=Box.from_bounds(-5, 15, -8, 6, -4, 8))
    s.validate(min_gap=0.5)  # vertical gap between layers is 1.0
    assert wl.gap_linf(bl) == 1.0


def test_summary():
    assert "2 conductors" in two_wire_structure().summary()
