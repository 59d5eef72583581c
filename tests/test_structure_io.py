"""Tests for structure JSON (de)serialisation."""

import json

import pytest

from repro.errors import GeometryError
from repro.geometry import (
    load_structure,
    save_structure,
    structure_from_dict,
    structure_to_dict,
)
from repro.structures import build_case


def test_roundtrip_case(tmp_path):
    original = build_case(2, "fast")
    path = save_structure(original, tmp_path / "case2.json")
    loaded = load_structure(path)
    assert [c.name for c in loaded.conductors] == [
        c.name for c in original.conductors
    ]
    assert [c.boxes for c in loaded.conductors] == [
        c.boxes for c in original.conductors
    ]
    assert loaded.dielectric == original.dielectric
    assert loaded.enclosure == original.enclosure


def test_roundtrip_preserves_extraction(tmp_path):
    """The serialised structure extracts to bit-identical capacitances."""
    from repro import FRWConfig, FRWSolver

    original = build_case(1, "fast")
    loaded = load_structure(save_structure(original, tmp_path / "s.json"))
    cfg = FRWConfig.frw_r(
        seed=4, batch_size=1000, min_walks=1000, max_walks=1000, tolerance=0.5
    )
    a = FRWSolver(original, cfg).extract(masters=[0])
    b = FRWSolver(loaded, cfg).extract(masters=[0])
    import numpy as np

    assert np.array_equal(a.matrix.values, b.matrix.values)


def test_default_dielectric_and_enclosure():
    data = {
        "conductors": [{"name": "a", "boxes": [[0, 0, 0, 1, 1, 1]]}],
    }
    s = structure_from_dict(data)
    assert s.dielectric.is_homogeneous
    assert s.enclosure is not None  # auto-enclosure applied


def test_malformed_document_raises():
    with pytest.raises(GeometryError):
        structure_from_dict({"conductors": [{"name": "a"}]})
    with pytest.raises(GeometryError):
        structure_from_dict({"conductors": [{"name": "a", "boxes": [[0, 0, 0]]}]})


@pytest.mark.parametrize(
    "extra",
    [
        {"dielectric": [1, 2]},
        {"dielectric": {"eps": "ab"}},
        {"enclosure": [0, 0, 0]},
        {"enclosure": 5},
    ],
)
def test_malformed_dielectric_or_enclosure_raises(extra):
    """Every field is parsed under the same guard as the conductors."""
    data = {"conductors": [{"name": "a", "boxes": [[0, 0, 0, 1, 1, 1]]}]}
    with pytest.raises(GeometryError, match="malformed structure document"):
        structure_from_dict({**data, **extra})


@pytest.mark.parametrize(
    "extra",
    [
        {"conductors": [{"name": "a", "boxes": [[0, 0, 0, True, 1, 1]]}]},
        {"conductors": [{"name": "a", "boxes": [[0, 0, 0, "1", 1, 1]]}]},
        {"conductors": [{"name": "a", "boxes": [[0, 0, 0, 1, 1, 1, 1]]}]},
        {"conductors": [{"name": 7, "boxes": [[0, 0, 0, 1, 1, 1]]}]},
        {"enclosure": [-1, -1, -1, 2, 2, float("inf")]},
        {"enclosure": [-1, -1, -1, 2, 2, 10**400]},
        {"dielectric": {"interfaces": [float("nan")], "eps": [1, 2]}},
        {"dielectric": {"interfaces": [], "eps": [False]}},
        {"dielectric": {"interfaces": [], "eps": ["2"]}},
    ],
    ids=[
        "bool-coordinate", "string-coordinate", "seven-bounds", "number-name", "inf-enclosure",
        "huge-int", "nan-interface", "bool-eps", "string-eps",
    ],
)
def test_values_that_are_not_finite_numbers_raise(extra):
    """JSON ``true`` would run as 1.0 and a string eps as its number;
    non-finite values solved to NaN or zero rows."""
    data = {"conductors": [{"name": "a", "boxes": [[0, 0, 0, 1, 1, 1]]}]}
    with pytest.raises(GeometryError, match="malformed structure document"):
        structure_from_dict({**data, **extra})


def test_dict_is_json_serialisable():
    d = structure_to_dict(build_case(1, "fast"))
    json.dumps(d)  # must not raise
    assert len(d["conductors"]) == 3
    assert len(d["enclosure"]) == 6
