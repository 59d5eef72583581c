"""Table II benchmarks: the cost of reproducibility machinery.

Times fixed-budget extractions of every variant at T=16 virtual threads.
The paper's claim: DOP-independent reproducibility (Alg. 2 + Kahan +
CBRNG) costs nothing over the Alg. 1 baseline, while the Mersenne-Twister
ablation (FRW-NC) pays the per-walk reseeding penalty.
"""

import numpy as np
import pytest

from repro import FRWConfig, FRWSolver
from repro.frw import build_context, extract_row_alg1, extract_row_alg2


def budget_cfg(factory, walk_budget, **kw):
    """A fixed-budget config of the paper's setup (no antithetic groups)."""
    return factory(
        seed=9,
        n_threads=16,
        batch_size=walk_budget,
        min_walks=walk_budget,
        max_walks=walk_budget,
        tolerance=0.5,
        antithetic=False,
        **kw,
    )


@pytest.mark.parametrize(
    "variant,factory",
    [
        ("frw-r", FRWConfig.frw_r),
        ("frw-nk", FRWConfig.frw_nk),
        ("frw-rr", FRWConfig.frw_rr),
    ],
)
def test_alg2_variants_fixed_budget(benchmark, case1, walk_budget, variant, factory):
    cfg = budget_cfg(factory, walk_budget)
    ctx = build_context(case1, 0, cfg)

    def run():
        row, stats = extract_row_alg2(ctx, cfg)
        return stats.walks

    walks = benchmark(run)
    assert walks == walk_budget


def test_alg1_baseline_fixed_budget(benchmark, case1, walk_budget):
    cfg = budget_cfg(FRWConfig.alg1, walk_budget, check_every=walk_budget // 16)
    ctx = build_context(case1, 0, cfg)

    def run():
        row, stats = extract_row_alg1(ctx, cfg)
        return stats.walks

    walks = benchmark(run)
    assert walks >= walk_budget


def test_mt_reseeding_penalty(benchmark, case1):
    """FRW-NC with per-walk MT reseeding (paper: ~2x slower end to end)."""
    budget = 500  # MT loops per walk; keep the benchmark snappy
    cfg = budget_cfg(FRWConfig.frw_nc, budget)
    ctx = build_context(case1, 0, cfg)

    def run():
        row, stats = extract_row_alg2(ctx, cfg)
        return stats.walks

    assert benchmark(run) == budget


def test_reproducibility_index_evaluation(benchmark, case1, fixed_budget_config):
    """Cost of the RI metric itself over 8 repeated matrices."""
    from repro.numerics import reproducibility_indices

    result = FRWSolver(case1, fixed_budget_config).extract(masters=[0])
    rng = np.random.default_rng(0)
    runs = [
        result.matrix.values * (1 + 1e-13 * rng.standard_normal(result.matrix.values.shape))
        for _ in range(8)
    ]
    stats = benchmark(reproducibility_indices, runs)
    assert stats.n_pairs == 28
