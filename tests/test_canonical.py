"""Property tests for the service canonicalization and content hash.

The canonical hash is the service's correctness boundary: requests that
*must* collide (translated / re-enumerated encodings of the same net) and
requests that *must not* (any physical or result-affecting difference).
Hypothesis drives both directions over random lattice-aligned structures.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Box, Conductor, FRWConfig, Structure
from repro.config import ENGINE_FIELDS, RESULT_FIELDS
from repro.service import (
    canonical_hash,
    canonicalize,
    config_digest,
    geometry_digest,
    permute_structure,
    translate_structure,
)

#: Layout grid: dyadic so canonical translation is exact float arithmetic.
LATTICE = 1.0 / 32.0

BASE_CONFIG = FRWConfig(
    seed=3, n_threads=2, batch_size=256, tolerance=0.25, antithetic=False
)

#: A value different from ``BASE_CONFIG``'s for every result-affecting field.
ALT_RESULT_VALUES = {
    "seed": 11,
    "n_threads": 5,
    "batch_size": 333,
    "tolerance": 0.123,
    "max_walks": 4_096,
    "min_walks": 64,
    "variant": "frw-nc",
    "table_resolution": 17,
    "offset_fraction": 0.31,
    "h_cap_fraction": 0.41,
    "absorption_fraction": 0.011,
    "interface_snap_fraction": 0.021,
    "first_hop_interface_floor": 0.051,
    "max_steps": 1_234,
    "check_every": 3,
    "machine_seed": 99,
    "antithetic": True,
}

#: A value different from the default for every engine field.
ALT_ENGINE_VALUES = {
    "executor": "serial",
    "n_workers": 3,
}


@st.composite
def lattice_structures(draw):
    """2-4 disjoint boxes on a coarse dyadic lattice (pitch 3, gaps >= 1)."""
    n = draw(st.integers(2, 4))
    cells = draw(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2)),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    conductors = []
    for k, (ix, iy, iz) in enumerate(cells):
        size = 1.5 + LATTICE * ((ix + 2 * iy + 3 * iz + k) % 8)
        x, y, z = 3.0 * ix, 3.0 * iy, 3.0 * iz
        conductors.append(
            Conductor.single(
                f"c{k}",
                Box.from_bounds(x, x + size, y, y + size, z, z + size),
            )
        )
    return Structure(conductors, auto_margin=1.0)


lattice_offsets = st.tuples(
    st.integers(-256, 256), st.integers(-256, 256), st.integers(-256, 256)
).map(lambda t: tuple(LATTICE * v for v in t))


@given(lattice_structures(), lattice_offsets)
@settings(max_examples=30, deadline=None)
def test_translation_invariance(structure, offset):
    moved = translate_structure(structure, offset)
    assert canonical_hash(structure, BASE_CONFIG) == canonical_hash(
        moved, BASE_CONFIG
    )


@given(lattice_structures(), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_permutation_and_rename_invariance(structure, rnd):
    n = len(structure.conductors)
    order = list(range(n))
    rnd.shuffle(order)
    renamed = [f"x{rnd.randrange(10_000)}_{i}" for i in range(n)]
    shuffled = permute_structure(structure, order, renamed)
    assert canonical_hash(structure, BASE_CONFIG) == canonical_hash(
        shuffled, BASE_CONFIG
    )


@given(lattice_structures(), lattice_offsets, st.randoms(use_true_random=False))
@settings(max_examples=20, deadline=None)
def test_combined_disguise_invariance(structure, offset, rnd):
    n = len(structure.conductors)
    order = list(range(n))
    rnd.shuffle(order)
    disguised = permute_structure(
        translate_structure(structure, offset), order
    )
    assert canonical_hash(structure, BASE_CONFIG) == canonical_hash(
        disguised, BASE_CONFIG
    )


@given(
    lattice_structures(),
    st.integers(0, 100),  # which box corner to perturb (mod count)
    st.integers(1, 8),  # perturbation in lattice units
)
@settings(max_examples=30, deadline=None)
def test_geometry_sensitivity(structure, pick, delta):
    """Any changed box dimension must change the hash."""
    conductors = [
        Conductor(c.name, tuple(c.boxes)) for c in structure.conductors
    ]
    ci = pick % len(conductors)
    target = conductors[ci].boxes[0]
    grown = Box(
        target.lo, (target.hi[0] + delta * LATTICE, *target.hi[1:])
    )
    conductors[ci] = Conductor(conductors[ci].name, (grown,))
    changed = Structure(
        conductors,
        dielectric=structure.dielectric,
        enclosure=structure.enclosure,
    )
    assert canonical_hash(structure, BASE_CONFIG) != canonical_hash(
        changed, BASE_CONFIG
    )


def test_permittivity_and_enclosure_sensitivity():
    structure = Structure(
        [
            Conductor.single("a", Box.from_bounds(0, 1, 0, 1, 0, 1)),
            Conductor.single("b", Box.from_bounds(3, 4, 0, 1, 0, 1)),
        ],
        auto_margin=2.0,
    )
    base = canonical_hash(structure, BASE_CONFIG)
    from repro.geometry import DielectricStack

    eps_changed = Structure(
        list(structure.conductors),
        dielectric=DielectricStack.homogeneous(3.9),
        enclosure=structure.enclosure,
    )
    assert canonical_hash(eps_changed, BASE_CONFIG) != base
    bigger = Structure(
        list(structure.conductors),
        dielectric=structure.dielectric,
        enclosure=Box(
            structure.enclosure.lo,
            tuple(v + 1.0 for v in structure.enclosure.hi),
        ),
    )
    assert canonical_hash(bigger, BASE_CONFIG) != base


@pytest.mark.parametrize("field", RESULT_FIELDS)
def test_result_field_sensitivity(field):
    """Every result-affecting config field must perturb the hash."""
    alt = ALT_RESULT_VALUES[field]
    assert alt != getattr(BASE_CONFIG, field), field
    changed = BASE_CONFIG.with_(**{field: alt})
    assert config_digest(changed) != config_digest(BASE_CONFIG), field


@pytest.mark.parametrize("field", ENGINE_FIELDS)
def test_engine_field_insensitivity(field):
    """Engine fields are bit-invisible and must NOT perturb the hash."""
    alt = ALT_ENGINE_VALUES[field]
    assert alt != getattr(BASE_CONFIG, field), field
    changed = BASE_CONFIG.with_(**{field: alt})
    assert config_digest(changed) == config_digest(BASE_CONFIG), field


def test_field_partition_is_complete_and_disjoint():
    """RESULT_FIELDS + ENGINE_FIELDS must cover FRWConfig exactly.

    A new config field that lands in neither tuple would silently be
    excluded from the cache key (stale hits) or never certified invisible;
    this test forces every new field into one side of the partition.
    """
    declared = {f.name for f in dataclasses.fields(FRWConfig)}
    assert set(RESULT_FIELDS) | set(ENGINE_FIELDS) == declared
    assert not set(RESULT_FIELDS) & set(ENGINE_FIELDS)
    assert set(ALT_RESULT_VALUES) == set(RESULT_FIELDS)
    assert set(ALT_ENGINE_VALUES) == set(ENGINE_FIELDS)


@given(lattice_structures(), st.randoms(use_true_random=False))
@settings(max_examples=20, deadline=None)
def test_canonical_maps_are_inverse_permutations(structure, rnd):
    n = len(structure.conductors)
    order = list(range(n))
    rnd.shuffle(order)
    form = canonicalize(permute_structure(structure, order))
    to_c, from_c = form.to_canonical, form.from_canonical
    assert sorted(to_c) == list(range(n))
    assert all(from_c[to_c[i]] == i for i in range(n))
    # map_row_values undoes the canonical column order exactly.
    row = np.arange(n + 1, dtype=np.float64) * 0.5
    mapped = form.map_row_values(row)
    assert mapped[n] == row[n]
    assert sorted(mapped[:n].tolist()) == sorted(row[:n].tolist())
    for i in range(n):
        assert mapped[i] == row[to_c[i]]


def test_geometry_digest_ignores_names_and_pose():
    structure = Structure(
        [
            Conductor.single("left", Box.from_bounds(0, 1, 0, 1, 0, 1)),
            Conductor.single("right", Box.from_bounds(2.5, 3.5, 0, 1, 0, 1)),
        ],
        auto_margin=2.0,
    )
    disguised = permute_structure(
        translate_structure(structure, (4.0, -3.0, 1.5)),
        [1, 0],
        ["foo", "bar"],
    )
    assert geometry_digest(canonicalize(structure)) == geometry_digest(
        canonicalize(disguised)
    )
