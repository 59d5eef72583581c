"""Tests for the runtime RNG sanitizer (repro.lint.sanitizer)."""

import random

import numpy as np
import pytest

from repro import Box, Conductor, FRWConfig, FRWSolver, Structure
from repro.errors import DeterminismError, ReproError
from repro.lint.sanitizer import forbid_global_rng, sanitizer_active


@pytest.fixture
def plates_structure():
    p1 = Conductor.single("P1", Box.from_bounds(-2, 2, -2, 2, 0.0, 0.25))
    p2 = Conductor.single("P2", Box.from_bounds(-2, 2, -2, 2, 0.75, 1.0))
    return Structure([p1, p2], enclosure=Box.from_bounds(-6, 6, -6, 6, -5, 6))


def test_error_is_a_repro_error():
    assert issubclass(DeterminismError, ReproError)


def test_numpy_global_calls_raise_inside():
    with forbid_global_rng():
        with pytest.raises(DeterminismError):
            np.random.random()  # det: allow(DET001) the forbidden call IS the test subject
        with pytest.raises(DeterminismError):
            np.random.seed(0)  # det: allow(DET001) the forbidden call IS the test subject
        with pytest.raises(DeterminismError):
            np.random.normal(0.0, 1.0)  # det: allow(DET001) the forbidden call IS the test subject
        with pytest.raises(DeterminismError):
            np.random.shuffle([1, 2, 3])  # det: allow(DET001) the forbidden call IS the test subject


def test_stdlib_global_calls_raise_inside():
    with forbid_global_rng():
        with pytest.raises(DeterminismError):
            random.random()  # det: allow(DET001) the forbidden call IS the test subject
        with pytest.raises(DeterminismError):
            random.seed(1)  # det: allow(DET001) the forbidden call IS the test subject
        with pytest.raises(DeterminismError):
            random.randint(0, 10)  # det: allow(DET001) the forbidden call IS the test subject


def test_entropy_seeded_constructors_raise_inside():
    with forbid_global_rng():
        with pytest.raises(DeterminismError):
            np.random.default_rng()  # det: allow(DET002) the entropy ctor IS the test subject
        with pytest.raises(DeterminismError):
            np.random.default_rng(None)  # det: allow(DET002) the entropy ctor IS the test subject
        with pytest.raises(DeterminismError):
            np.random.RandomState()  # det: allow(DET002) the entropy ctor IS the test subject


def test_seeded_constructors_allowed_inside():
    with forbid_global_rng():
        g = np.random.default_rng(7)
        assert 0.0 <= g.random() < 1.0
        rs = np.random.RandomState(7)
        assert 0.0 <= rs.random_sample() < 1.0
        # Private stdlib instances are untouched entirely.
        assert 0.0 <= random.Random(7).random() < 1.0


def test_patched_randomstate_keeps_isinstance():
    """numpy's default_rng does a dynamic isinstance against RandomState;
    the guard must stay a real subclass, not a function wrapper."""
    with forbid_global_rng():
        rs = np.random.RandomState(1)
        assert isinstance(rs, np.random.RandomState)
        # and default_rng(int) still routes through numpy's dispatch
        assert np.random.default_rng(1).random() is not None


def test_globals_restored_on_exit():
    before = np.random.random
    with forbid_global_rng():
        assert np.random.random is not before
    assert np.random.random is before
    assert 0.0 <= np.random.random() < 1.0  # det: allow(DET001) the forbidden call IS the test subject
    assert 0.0 <= random.random() < 1.0  # det: allow(DET001) the forbidden call IS the test subject


def test_reentrant_nesting():
    assert not sanitizer_active()
    with forbid_global_rng():
        with forbid_global_rng():
            assert sanitizer_active()
            with pytest.raises(DeterminismError):
                np.random.random()  # det: allow(DET001) the forbidden call IS the test subject
        # still armed: outer context remains
        assert sanitizer_active()
        with pytest.raises(DeterminismError):
            np.random.random()  # det: allow(DET001) the forbidden call IS the test subject
    assert not sanitizer_active()
    np.random.random()  # det: allow(DET001) the forbidden call IS the test subject


def test_restored_even_when_body_raises():
    with pytest.raises(RuntimeError):
        with forbid_global_rng():
            raise RuntimeError("boom")
    assert not sanitizer_active()
    np.random.random()  # det: allow(DET001) the forbidden call IS the test subject


def test_sanitized_extraction_is_bit_identical(plates_structure):
    """The fence only forbids global RNG — results are unchanged."""
    cfg = FRWConfig.frw_r(
        seed=1, batch_size=400, tolerance=6e-2, min_walks=400,
        executor="serial",
    )
    with forbid_global_rng(), FRWSolver(plates_structure, cfg) as solver:
        sanitized = solver.extract()
    assert not sanitizer_active()
    with FRWSolver(plates_structure, cfg) as solver:
        plain = solver.extract()
    assert np.array_equal(sanitized.matrix.values, plain.matrix.values)


def test_sanitized_extraction_mt_variant(plates_structure):
    """The MT ablation seeds a private RandomState per walk — the guarded
    constructor must pass those through."""
    cfg = FRWConfig.frw_nc(
        seed=1, batch_size=200, tolerance=9e-2, min_walks=200,
        executor="serial",
    )
    with forbid_global_rng(), FRWSolver(plates_structure, cfg) as solver:
        row, stats = solver.extract_row(0)
    assert row.walks > 0


def test_sanitizer_catches_global_rng_during_extraction(
    plates_structure, monkeypatch
):
    """A regression that reaches for global RNG mid-extraction fails loudly.

    The taint goes into the machine RNG's factory, which only an unpaired
    row calls (a paired row runs no virtual-thread schedule)."""
    import repro.frw.alg2_reproducible as alg2

    original = alg2.machine_rng

    def tainted(config, master):
        np.random.random()  # the bug the sanitizer exists to catch  # det: allow(DET001) the forbidden call IS the test subject
        return original(config, master)

    monkeypatch.setattr(alg2, "machine_rng", tainted)
    cfg = FRWConfig.frw_r(
        seed=1, batch_size=200, tolerance=9e-2, min_walks=200,
        executor="serial", antithetic=False,
    )
    with FRWSolver(plates_structure, cfg) as solver:
        with pytest.raises(DeterminismError), forbid_global_rng():
            solver.extract_row(0)
    assert not sanitizer_active()
