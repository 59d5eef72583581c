"""Golden bit-identity suite for the spatial far-field fast path.

The acceptance criterion of the fast path: capacitance rows extracted
through the grid index (far-field mask, pruned candidate lists) are
byte-equal to rows extracted through the exact all-pairs
:class:`~repro.geometry.BruteForceIndex` on every reference case, every
executor backend, and every worker count — the fast path may only skip
work whose result is provably the capped default, never change a bit.
The same holds for the grid at any explicit resolution.  The open-field
case additionally asserts the far-field mask actually fired
(``QueryStats.far_field_hits > 0``), so the equality is not vacuous.
"""

import numpy as np
import pytest

from repro import Box, Conductor, DielectricStack, FRWConfig, FRWSolver, Structure
from repro.frw import context
from repro.geometry import BruteForceIndex, GridIndex

BASE = dict(
    seed=77,
    n_threads=4,
    batch_size=256,
    min_walks=512,
    max_walks=1024,
    tolerance=2e-2,
)

CASES = ["homogeneous", "stratified"]

BACKENDS = [
    ("serial", 1),
    ("process", 2),
    ("process", 4),
]


def _build_structure(case: str) -> Structure:
    if case == "homogeneous":
        # Open-field dominated: three thin wires in a roomy enclosure, so
        # most steps happen beyond h_cap of every conductor.
        wires = [
            Conductor.single(
                f"w{i}", Box.from_bounds(2.0 * i, 2.0 * i + 1.0, 0, 8, 0, 1)
            )
            for i in range(3)
        ]
        return Structure(
            wires, enclosure=Box.from_bounds(-4, 9, -4, 12, -4, 5)
        )
    w1 = Conductor.single("w1", Box.from_bounds(0, 1, 0, 6, 0.5, 1.3))
    w2 = Conductor.single("w2", Box.from_bounds(2.5, 3.5, 0, 6, 3.0, 3.8))
    stack = DielectricStack(interfaces=(2.13,), eps=(3.9, 2.7))
    return Structure(
        [w1, w2],
        dielectric=stack,
        enclosure=Box.from_bounds(-4, 8, -4, 10, -3, 8),
    )


def _extract(case: str, **overrides):
    cfg = FRWConfig.frw_r(**{**BASE, **overrides})
    with FRWSolver(_build_structure(case), cfg) as solver:
        return solver.extract()


def _assert_rows_byte_equal(a, ref_rows):
    assert len(a.rows) == len(ref_rows)
    for ra, rb in zip(a.rows, ref_rows):
        assert ra.values.tobytes() == rb.values.tobytes()
        assert ra.sigma2.tobytes() == rb.sigma2.tobytes()
        assert np.array_equal(ra.hits, rb.hits)
        assert ra.walks == rb.walks and ra.total_steps == rb.total_steps


@pytest.fixture(scope="module", params=CASES)
def reference(request):
    """Serial per-master rows through the brute-force index: no grid, no
    far-field mask (the engine applies the cap itself)."""
    case = request.param
    structure = _build_structure(case)

    def brute_force(structure, h_cap):
        return BruteForceIndex(structure)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(context, "build_index", brute_force)
        cfg = FRWConfig.frw_r(**BASE, executor="serial")
        with FRWSolver(structure, cfg) as solver:
            rows = [
                solver.extract_row(m)[0]
                for m in range(len(structure.conductors))
            ]
    return case, rows


@pytest.mark.parametrize("backend,n_workers", BACKENDS)
def test_far_field_rows_byte_equal(reference, backend, n_workers):
    case, ref = reference
    _assert_rows_byte_equal(
        _extract(case, executor=backend, n_workers=n_workers), ref
    )


@pytest.mark.parametrize("knobs", [
    dict(resolution=1),
    dict(resolution=2),
    dict(resolution=4),
])
def test_each_tier_alone_is_bit_identical(reference, knobs, monkeypatch):
    """The grid at one, two and four cells per cap each reproduces the
    brute-force bytes.  The grid is built at an explicit resolution
    instead of the derived one."""
    case, ref = reference
    built = []

    def grid_at_resolution(structure, h_cap):
        built.append(
            GridIndex(structure, h_cap=h_cap, resolution=knobs["resolution"])
        )
        return built[-1]

    monkeypatch.setattr(context, "build_index", grid_at_resolution)
    result = _extract(case, executor="serial")
    _assert_rows_byte_equal(result, ref)
    assert [g.resolution for g in built] == [knobs["resolution"]]


def test_far_field_hits_on_open_field_case():
    """The tier-1 mask fires on the open-field case."""
    result = _extract("homogeneous", executor="serial")
    qs = result.matrix.meta["schedule"]["query_stats"]
    assert qs is not None
    assert qs["far_field_hits"] > 0
    assert qs["near_points"] > 0  # near the wires the gather still runs
    assert qs["points"] == qs["far_field_hits"] + qs["near_points"]
    assert 0.0 < qs["far_field_rate"] < 1.0
    assert qs["candidates_pruned"] > 0


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_query_stats_only_where_queries_run(backend):
    """Worker threads query the solver's one index, so the schedule
    reports its counters on every backend."""
    result = _extract("homogeneous", executor=backend, n_workers=2)
    qs = result.matrix.meta["schedule"]["query_stats"]
    assert qs["queries"] > 0 and qs["points"] > 0
