"""Tests for the FRWSolver facade."""

import numpy as np
import pytest

from repro import FRWConfig, FRWSolver, extract
from repro.errors import ConfigError
from repro.greens import get_cube_table
from repro.numerics import matrix_matched_digits


def test_extract_all_masters(plates, quick_config):
    result = FRWSolver(plates, quick_config).extract()
    assert result.matrix.values.shape == (2, 3)
    assert result.matrix.masters == [0, 1]
    assert result.matrix.names == ["P1", "P2", "ENV"]
    assert result.converged
    assert result.total_walks > 0
    assert result.total_steps > 0
    assert result.wall_time > 0
    assert result.report is not None


def test_extract_subset_of_masters(plates, quick_config):
    result = FRWSolver(plates, quick_config).extract(masters=[1])
    assert result.matrix.values.shape == (1, 3)
    assert result.matrix.masters == [1]


def test_extract_requires_masters(plates, quick_config):
    with pytest.raises(ConfigError):
        FRWSolver(plates, quick_config).extract(masters=[])


def test_rows_sigma_and_hits_populated(plates, quick_config):
    result = FRWSolver(plates, quick_config).extract()
    assert result.matrix.sigma2.shape == (2, 3)
    assert np.all(result.matrix.hits.sum(axis=1) > 0)
    assert np.all(np.isfinite(result.matrix.sigma2))


def test_frw_rr_regularizes(plates, quick_config):
    cfg = quick_config.with_(variant="frw-rr")
    result = FRWSolver(plates, cfg).extract()
    assert result.report.reliable
    assert result.regularization_time >= 0.0
    assert result.matrix.meta.get("regularized") is True
    # Raw matrix preserved alongside.
    assert not result.raw_matrix.meta.get("regularized", False)
    assert not np.array_equal(result.matrix.values, result.raw_matrix.values)


def test_frw_r_does_not_regularize(plates, quick_config):
    result = FRWSolver(plates, quick_config).extract()
    assert result.matrix is result.raw_matrix


def test_rr_matches_r_before_regularization(plates, quick_config):
    """FRW-RR is FRW-R plus post-processing; raw rows must be identical."""
    r = FRWSolver(plates, quick_config).extract()
    rr = FRWSolver(plates, quick_config.with_(variant="frw-rr")).extract()
    assert np.array_equal(r.raw_matrix.values, rr.raw_matrix.values)


def test_alg1_variant_dispatch(plates):
    cfg = FRWConfig.alg1(
        seed=123, n_threads=2, tolerance=8e-2, min_walks=1000, check_every=500
    )
    result = FRWSolver(plates, cfg).extract(masters=[0])
    assert result.converged


def test_context_caching(plates, quick_config):
    solver = FRWSolver(plates, quick_config)
    assert solver.context(0) is solver.context(0)


def test_extract_convenience_function(plates, quick_config):
    result = extract(plates, quick_config, masters=[0])
    assert result.matrix.values.shape == (1, 3)


def test_default_config(plates):
    solver = FRWSolver(plates)
    assert solver.config.variant == "frw-r"


def test_cross_variant_sample_agreement(plates, quick_config):
    """FRW-R and FRW-NK share streams: raw values differ only in the last
    bits (the summation backend)."""
    r = FRWSolver(plates, quick_config).extract(masters=[0])
    nk = FRWSolver(plates, quick_config.with_(variant="frw-nk")).extract(masters=[0])
    assert (
        matrix_matched_digits(r.matrix.values, nk.matrix.values) >= 9
    )


def test_shared_assets_built_once_across_masters(plates, quick_config):
    get_cube_table.cache_clear()  # a cold process-wide table memo
    solver = FRWSolver(plates, quick_config)
    solver.extract()
    stats = solver.assets.stats()
    assert stats["index_builds"] == 1
    assert stats["index_hits"] == 1  # second master reused the index
    assert get_cube_table.cache_info().misses == 1
    # A second solver in this process finds the table memoized.
    again = FRWSolver(plates, quick_config)
    again.extract()
    assert get_cube_table.cache_info().misses == 1
    assert again.context(0).table is solver.context(0).table


def test_extract_meta_has_schedule_and_core_fields(plates, quick_config):
    result = FRWSolver(plates, quick_config).extract()
    meta = result.matrix.meta
    assert list(meta) == ["variant", "seed", "n_threads", "tolerance", "schedule"]
    assert meta["seed"] == quick_config.seed
    assert meta["tolerance"] == quick_config.tolerance
