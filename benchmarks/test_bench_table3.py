"""Table III benchmarks: regularization cost (T_post) and its scaling.

The paper claims Alg. 3 costs ``O(Nm^2 + Nc)`` and is negligible against
extraction time (milliseconds for hundreds of masters).  These benchmarks
time the regularizer on synthetic observations of growing size, a sparse
700-master one, and the cheap Sec. IV-C variants.
"""

import numpy as np
import pytest

from repro import CapacitanceMatrix, naive_adjustment, regularize, symmetrize


def synthetic_observation(nm: int, n: int, seed: int = 0, density: float = 0.3):
    """A noisy banded observation mimicking an extracted local layout."""
    rng = np.random.default_rng(seed)
    values = np.zeros((nm, n))
    sigma2 = np.zeros((nm, n))
    hits = np.zeros((nm, n), dtype=np.int64)
    band = max(2, int(density * nm))
    for i in range(nm):
        lo = max(0, i - band)
        hi = min(nm, i + band + 1)
        for j in list(range(lo, hi)) + list(range(nm, n)):
            if j == i:
                continue
            values[i, j] = -rng.uniform(0.1, 1.0)
            sigma2[i, j] = (0.03 * abs(values[i, j])) ** 2
            hits[i, j] = 50
    for i in range(nm):
        values[i, i] = -values[i].sum() * (1 + 0.01 * rng.standard_normal())
        sigma2[i, i] = (0.01 * values[i, i]) ** 2
        hits[i, i] = 200
    return CapacitanceMatrix(
        values=values,
        masters=list(range(nm)),
        names=[f"c{j}" for j in range(n)],
        sigma2=sigma2,
        hits=hits,
    )


@pytest.mark.parametrize("nm", [20, 80, 320])
def test_regularize_scaling(benchmark, nm):
    obs = synthetic_observation(nm, nm + 2)
    reg = benchmark(regularize, obs)
    assert reg.meta["regularized"]


def test_regularize_sparse_large(benchmark):
    obs = synthetic_observation(700, 702, density=0.02)
    reg = benchmark(regularize, obs)
    assert reg.meta["regularized"]


def test_symmetrize_only(benchmark):
    obs = synthetic_observation(150, 152)
    benchmark(symmetrize, obs)


def test_naive_adjustment_cost(benchmark):
    obs = synthetic_observation(150, 152)
    benchmark(naive_adjustment, obs)


def test_property_metrics_cost(benchmark):
    from repro.reliability import check_properties

    obs = synthetic_observation(300, 302)
    benchmark(check_properties, obs)
