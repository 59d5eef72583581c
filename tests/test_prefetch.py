"""Prefetch-depth invariance: rows are byte-identical however far ahead the
cross-master pipeline prefetches batches, on every execution backend.

A walk's draws are pure functions of its ``(seed, uid, step, slot)`` (or,
for the MT ablation, of its own seeded stream), computed by the compiled
launch and hop whatever vector or worker runs the walk.  How many
batches a master runs ahead of the one being gathered
(:data:`repro.frw.cross_master.PIPELINE_LOOKAHEAD`, patched to
{1, 2, 4, 8} against a reference at 0) only decides which speculative
batches are in flight, never a batch's contents.  So a row extracted on
the serial engine and on 1 to 6 worker threads (more workers than CPUs
cut each batch into more pieces) is the same bytes at every prefetch
depth, with antithetic sampling off *and* on.
"""

import numpy as np
import pytest

from repro import FRWConfig
from repro.frw import build_context, cross_master, extract_row_alg2
from repro.lint.sanitizer import forbid_global_rng

_BASE = dict(
    seed=13, n_threads=4, batch_size=256, min_walks=512, max_walks=1024,
    tolerance=1e-6,
)

_BACKENDS = [
    dict(executor="serial"),
    dict(executor="process", n_workers=1),
    dict(executor="process", n_workers=3),
    dict(executor="process", n_workers=5),
    dict(executor="process", n_workers=2),
    dict(executor="process", n_workers=4),
    dict(executor="process", n_workers=6),
]


def _extract(structure, depth, **overrides):
    """One row at look-ahead ``depth``, with the RNG sanitizer armed."""
    cfg = FRWConfig.frw_r(**_BASE, **overrides)
    with pytest.MonkeyPatch.context() as mp, forbid_global_rng():
        mp.setattr(cross_master, "PIPELINE_LOOKAHEAD", depth)
        return extract_row_alg2(build_context(structure, 0, cfg))


def _assert_rows_equal(got, ref):
    row, stats = got
    ref_row, ref_stats = ref
    assert np.array_equal(row.values, ref_row.values)
    assert np.array_equal(row.sigma2, ref_row.sigma2)
    assert np.array_equal(row.hits, ref_row.hits)
    assert row.walks == ref_row.walks
    assert row.total_steps == ref_row.total_steps


@pytest.fixture(scope="module")
def prefetch_reference(plates):
    """Serial extraction without look-ahead: the baseline every (depth,
    backend, workers) combination must reproduce byte for byte."""
    return _extract(plates, 0, executor="serial")


@pytest.mark.parametrize("depth", [1, 2, 4, 8])
@pytest.mark.parametrize("kwargs", _BACKENDS)
def test_rows_bitwise_across_depth_and_backends(
    plates, prefetch_reference, depth, kwargs
):
    _assert_rows_equal(_extract(plates, depth, **kwargs), prefetch_reference)


@pytest.fixture(scope="module")
def prefetch_anti_reference(plates):
    return _extract(plates, 0, executor="serial", antithetic=True)


@pytest.mark.parametrize("depth", [2, 4, 8])
@pytest.mark.parametrize(
    "kwargs",
    [
        dict(executor="serial"),
        dict(executor="process", n_workers=2),
        dict(executor="process", n_workers=4),
        dict(executor="process", n_workers=6),
    ],
)
def test_antithetic_rows_bitwise_across_depths(
    plates, prefetch_anti_reference, depth, kwargs
):
    """The antithetic partners' reflection happens inside the compiled
    hop, so grouped rows are byte-identical at every prefetch depth and
    backend."""
    _assert_rows_equal(
        _extract(plates, depth, antithetic=True, **kwargs),
        prefetch_anti_reference,
    )
