"""Tests for the compensated and naive summation backends.

``math.fsum`` (correctly rounded, order independent) is the reference.
Ordered folds of many terms go through the estimator's compiled fold,
which writes these registers.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frw import RowAccumulator
from repro.numerics import KahanVector, NaiveVector

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)


def _fold(cls, values) -> float:
    """Add ``values`` one by one into a scalar (0-d) accumulator."""
    acc = cls(())
    for v in values:
        acc.add(float(v))
    return float(acc.value)


def _ordered(summation, values, dest=None, n=1):
    """The weight register after the compiled fold took ``values`` one by
    one, in array order, into slots ``dest`` (default: slot 0 of 1)."""
    if dest is None:
        dest = np.zeros(len(values), dtype=np.int64)
    acc = RowAccumulator(n, 0, summation=summation)
    acc.add_walks_ordered(np.asarray(values, dtype=np.float64), dest)
    return acc.sum_w


def test_kahan_classic_cancellation():
    # 1 + 1e-16 repeated: naive loses the tiny terms, Kahan keeps them.
    values = [1.0] + [1e-16] * 1_000_000
    naive = _ordered("naive", values)
    compensated = _ordered("kahan", values)
    assert naive.value[0] == 1.0  # every tiny add is absorbed
    assert abs(compensated.value[0] - (1.0 + 1e-10)) < 1e-22


def test_neumaier_handles_large_term_after_small():
    # The case plain Kahan gets wrong: big term arrives after the sum.
    values = [1.0, 1e100, 1.0, -1e100]
    assert _fold(KahanVector, values) == 2.0
    acc = KahanVector(1)
    for v in values:
        acc.add_at(0, v)
    assert acc.value[0] == 2.0


@given(st.lists(finite_floats, min_size=0, max_size=300))
@settings(max_examples=100)
def test_kahan_close_to_fsum(values):
    reference = math.fsum(values)
    compensated = _fold(KahanVector, values)
    scale = max(1.0, max((abs(v) for v in values), default=0.0))
    assert abs(compensated - reference) <= 1e-12 * scale


def test_kahan_scalar_merge_matches_single_accumulator():
    """Merging two scalar (0-d) partials keeps the compensation."""
    rng = np.random.default_rng(3)
    values = rng.standard_normal(1000) * 10.0 ** rng.integers(-8, 8, 1000)
    whole = KahanVector(())
    for v in values:
        whole.add(float(v))
    a, b = KahanVector(()), KahanVector(())
    for v in values[:500]:
        a.add(float(v))
    for v in values[500:]:
        b.add(float(v))
    a.merge(b)
    assert abs(a.value - whole.value) <= 1e-12 * max(1.0, abs(whole.value))


def test_kahan_vector_elementwise():
    acc = KahanVector(4)
    rng = np.random.default_rng(5)
    terms = rng.standard_normal((300, 4))
    for t in terms:
        acc.add(t)
    expected = np.array([math.fsum(terms[:, j]) for j in range(4)])
    assert np.allclose(acc.value, expected, rtol=0, atol=1e-12)


def test_kahan_vector_add_at_matches_add():
    a = KahanVector(3)
    b = KahanVector(3)
    rng = np.random.default_rng(6)
    for _ in range(200):
        idx = int(rng.integers(0, 3))
        val = float(rng.standard_normal())
        a.add_at(idx, val)
        full = np.zeros(3)
        full[idx] = val
        b.add(full)
    assert np.array_equal(a.value, b.value)


def test_kahan_vector_merge():
    rng = np.random.default_rng(7)
    terms = rng.standard_normal((100, 2)) * 1e8
    whole = KahanVector(2)
    for t in terms:
        whole.add(t)
    p1, p2 = KahanVector(2), KahanVector(2)
    for t in terms[:50]:
        p1.add(t)
    for t in terms[50:]:
        p2.add(t)
    p1.merge(p2)
    assert np.allclose(p1.value, whole.value, atol=1e-6)


def test_naive_vector_interface():
    acc = NaiveVector(2)
    acc.add_at(0, 1.5)
    acc.add(np.array([0.5, 2.0]))
    other = NaiveVector(2)
    other.add_at(1, 1.0)
    acc.merge(other)
    assert acc.value.tolist() == [2.0, 3.0]
    # The ordered fold is the per-element add_at recurrence, in array order.
    dest = np.array([1, 0, 1, 1])
    values = np.array([0.1, 0.2, 0.3, 1e16])
    ordered = _ordered("naive", values, dest, n=2)
    looped = NaiveVector(2)
    for j, v in zip(dest, values):
        looped.add_at(int(j), float(v))
    assert np.array_equal(ordered.value, looped.value)
    # value is a snapshot, not a view of the register.
    snapshot = acc.value
    snapshot[0] = 99.0
    assert acc.value[0] == 2.0


def test_kahan_beats_naive_on_random_order():
    """The property Table II exploits: summation order perturbs naive sums
    far more than compensated ones."""
    rng = np.random.default_rng(11)
    values = rng.standard_normal(20_000) * 10.0 ** rng.integers(-6, 6, 20_000)
    reference = math.fsum(values)
    naive_spread = set()
    kahan_spread = set()
    for trial in range(5):
        perm = np.random.default_rng(trial).permutation(values.shape[0])
        naive = _ordered("naive", values[perm])
        kahan = _ordered("kahan", values[perm])
        naive_spread.add(float(naive.value[0]))
        kahan_spread.add(float(kahan.value[0]))
    naive_err = max(abs(v - reference) for v in naive_spread)
    kahan_err = max(abs(v - reference) for v in kahan_spread)
    assert kahan_err <= naive_err
    assert kahan_err <= 1e-12 * max(1.0, abs(reference))


def test_empty_sums():
    for cls in (KahanVector, NaiveVector):
        assert _fold(cls, []) == 0.0
    for summation in ("kahan", "naive"):
        acc = _ordered(summation, [], np.array([], dtype=np.int64), n=3)
        assert acc.value.tolist() == [0.0, 0.0, 0.0]
