"""Fig. 5 benchmarks: engine throughput and scheduling.

The runtime-vs-threads figure is driven by (a) raw walk throughput and (b)
schedule quality.  These benchmarks time the vectorised engine, the
dynamic-queue simulation across thread counts, and the real process-pool
executor.
"""

import numpy as np
import pytest

from repro.frw import (
    PersistentExecutor,
    run_walks,
    simulate_dynamic_queue,
    simulate_static_blocks,
    stream_spec,
)
from repro.rng import WalkStreams


def test_engine_batch_throughput(benchmark, ctx_case1, walk_budget):
    uids = np.arange(walk_budget, dtype=np.uint64)

    def run():
        return run_walks(ctx_case1, WalkStreams(9, 0), uids).dest.shape[0]

    assert benchmark(run) == walk_budget


@pytest.mark.parametrize("threads", [2, 16, 64])
def test_dynamic_queue_simulation(benchmark, threads):
    durations = np.random.default_rng(0).uniform(1, 40, 10_000)
    sched = benchmark(simulate_dynamic_queue, durations, threads)
    assert sched.efficiency > 0.9


def test_static_blocks_simulation(benchmark):
    durations = np.random.default_rng(1).uniform(1, 40, 10_000)
    benchmark(simulate_static_blocks, durations, 16)


def test_process_pool_executor(benchmark, ctx_case1):
    uids = np.arange(2000, dtype=np.uint64)

    def run():
        with PersistentExecutor(2) as ex:
            key = ex.register(ctx_case1, stream_spec(ctx_case1.config, 0))
            return ex.run(key, uids).dest.shape[0]

    assert benchmark(run) == 2000


def test_walk_step_cost_breakdown(benchmark, ctx_case1):
    """Single engine sweep over a small batch: the per-step fixed costs."""
    uids = np.arange(64, dtype=np.uint64)

    def run():
        return int(run_walks(ctx_case1, WalkStreams(9, 0), uids).steps.sum())

    assert benchmark(run) > 0
