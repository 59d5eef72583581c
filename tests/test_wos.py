"""Tests for the walk-on-spheres validation engine."""

import numpy as np
import pytest

from repro import FRWConfig, FRWSolver
from repro.errors import ConfigError
from repro.frw.wos import build_wos_context, run_wos_walks, wos_extract_row
from repro.rng import WalkStreams


def test_rejects_layered_dielectrics(layered_wires):
    with pytest.raises(ConfigError):
        build_wos_context(layered_wires, 0, FRWConfig.frw_r(seed=1))


def test_walks_terminate_and_cover(plates):
    ctx = build_wos_context(plates, 0, FRWConfig.frw_r(seed=1))
    res = run_wos_walks(ctx, WalkStreams(1, 1 << 20), np.arange(3000, dtype=np.uint64))
    assert np.all(res.dest >= 0)
    assert res.truncated == 0
    hit = np.bincount(res.dest, minlength=plates.n_conductors)
    assert np.all(hit > 0)


def test_deterministic(plates):
    cfg = FRWConfig.frw_r(seed=2)
    a = wos_extract_row(plates, 0, cfg, n_walks=2000)
    b = wos_extract_row(plates, 0, cfg, n_walks=2000)
    assert np.array_equal(a.values, b.values)


def test_zero_mean_identity(plates):
    """sum_j C_ij = 0 for the bounded problem: E[omega] ~ 0."""
    ctx = build_wos_context(plates, 0, FRWConfig.frw_r(seed=3))
    res = run_wos_walks(ctx, WalkStreams(3, 1 << 20), np.arange(40_000, dtype=np.uint64))
    stderr = res.omega.std(ddof=1) / np.sqrt(res.omega.shape[0])
    assert abs(res.omega.mean()) < 4 * stderr


def test_wos_validates_cube_engine(plates):
    """The headline cross-check: two engines with entirely different
    transition kernels (exact spheres vs tabulated cubes) must agree on the
    capacitance within Monte Carlo error."""
    cube_cfg = FRWConfig.frw_r(seed=5, tolerance=1.5e-2, batch_size=8000)
    cube = FRWSolver(plates, cube_cfg).extract(masters=[0])
    wos_row = wos_extract_row(plates, 0, cube_cfg, n_walks=120_000)
    c_cube = cube.matrix.values[0]
    c_wos = wos_row.values
    # Combined ~2% standard errors: demand agreement within ~3 sigma.
    for j in range(3):
        denom = max(abs(c_cube[j]), abs(c_wos[j]))
        assert abs(c_cube[j] - c_wos[j]) / denom < 0.08


def test_walks_use_independent_streams(plates):
    """WOS streams must not alias the cube engine's streams."""
    from repro.frw import build_context, run_walks

    cfg = FRWConfig.frw_r(seed=7)
    cube_ctx = build_context(plates, 0, cfg)
    cube = run_walks(cube_ctx, WalkStreams(7, 0), np.arange(50, dtype=np.uint64))
    wos_ctx = build_wos_context(plates, 0, cfg)
    wos = run_wos_walks(wos_ctx, WalkStreams(7, 1 << 20), np.arange(50, dtype=np.uint64))
    assert not np.array_equal(cube.omega, wos.omega)


def test_wos_row_ignores_antithetic(plates):
    """The antithetic reflection is built for the cube table's first hop,
    so WOS draws unmirrored streams and its row (error bars included)
    does not depend on ``antithetic``."""
    rows = [
        wos_extract_row(
            plates, 0, FRWConfig.frw_r(seed=5, antithetic=anti), n_walks=4000
        )
        for anti in (True, False)
    ]
    assert rows[0].values.tobytes() == rows[1].values.tobytes()
    assert rows[0].sigma2.tobytes() == rows[1].sigma2.tobytes()
    assert np.array_equal(rows[0].hits, rows[1].hits)
