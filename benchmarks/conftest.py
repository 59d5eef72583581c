"""Shared benchmark fixtures: prebuilt structures and contexts."""

import numpy as np
import pytest

from repro import FRWConfig
from repro.frw import build_context
from repro.structures import build_case


@pytest.fixture(scope="session")
def case1():
    return build_case(1, "fast")


@pytest.fixture(scope="session")
def case3_fast():
    return build_case(3, "fast")


@pytest.fixture(scope="session")
def ctx_case1(case1):
    return build_context(case1, 0, FRWConfig.frw_r(seed=9))


@pytest.fixture(scope="session")
def walk_budget():
    """Fixed walk budget so benchmark work is deterministic."""
    return 4000


@pytest.fixture(scope="session")
def fixed_budget_config(walk_budget):
    return FRWConfig.frw_r(
        seed=9,
        n_threads=16,
        batch_size=walk_budget,
        min_walks=walk_budget,
        max_walks=walk_budget,
        tolerance=0.5,
        antithetic=False,
    )
