"""The compiled batch fold (``fold_batch`` in ``kernels.c``) against its
references, bit for bit.

* Walk by walk (``add_walks_ordered``): the scalar ``add_walk`` oracle,
  straight into the registers or replayed over the virtual threads of a
  dynamic-queue schedule (fresh registers per thread, merged in thread
  order).
* One observation per sample (``add_batch``): a plain-Python reference
  of the sample means ``((0.0 + w_2k) + w_2k+1) / 2`` (``0.0 + w`` for
  single walks), their column sums from 0.0 in sample order, and one
  register add per batch; and, with two or more conductors, the NumPy
  ``np.add.at`` / ``sum(axis=0)`` formulation the fold replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.frw import RowAccumulator
from repro.frw.scheduler import jittered_durations, simulate_dynamic_queue
from repro.numerics import KahanVector, NaiveVector

SUMMATIONS = ("kahan", "naive")

#: Weights of mixed sign and magnitude, signed zeros and subnormals
#: included; squares and their sums stay finite.
weights = st.one_of(
    st.floats(min_value=-1e150, max_value=1e150, allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]),
)


@st.composite
def batches(draw, n_cond=None, even=False, max_walks=64):
    """``(n_cond, omega, dest, steps)``: destinations drawn from a few
    conductors, so repeats and mixed pairs are both common."""
    n_cond = n_cond or draw(st.integers(1, 5))
    n = draw(st.integers(0, max_walks))
    if even:
        n -= n % 2
    omega = np.array(draw(st.lists(weights, min_size=n, max_size=n)), dtype=np.float64)
    dest = np.array(
        draw(st.lists(st.integers(0, n_cond - 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    steps = np.array(
        draw(st.lists(st.integers(0, 500), min_size=n, max_size=n)), dtype=np.int64
    )
    return n_cond, omega, dest, steps


def _bits(a):
    return np.asarray(a, dtype=np.float64).reshape(-1).view(np.int64)


def _registers(acc):
    """Every register of an accumulator, as comparable bits."""
    regs = [_bits(acc.sum_w.total), _bits(acc.sum_w2.total)]
    if acc.summation == "kahan":
        regs += [_bits(acc.sum_w.compensation), _bits(acc.sum_w2.compensation)]
    return regs, acc.hits.tolist(), acc.walks, acc.total_steps


def _same(a, b):
    ra, ha, wa, sa = _registers(a)
    rb, hb, wb, sb = _registers(b)
    assert all(np.array_equal(x, y) for x, y in zip(ra, rb))
    assert (ha, wa, sa) == (hb, wb, sb)


def _prefilled(n_cond, summation, paired=False, seed=0):
    """An accumulator holding an earlier batch, so folds start from
    nonzero registers."""
    acc = RowAccumulator(n_cond, 0, summation=summation, paired=paired)
    rng = np.random.default_rng(seed)
    acc.add_batch(rng.standard_normal(8) * 1e3, rng.integers(0, n_cond, 8))
    return acc


# ----------------------------------------------------------------------
# Walk by walk: the scalar add_walk oracle
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(batch=batches(), summation=st.sampled_from(SUMMATIONS))
def test_ordered_fold_matches_add_walk(batch, summation):
    n_cond, omega, dest, steps = batch
    folded = _prefilled(n_cond, summation)
    oracle = _prefilled(n_cond, summation)
    folded.add_walks_ordered(omega, dest, steps)
    for w, d, s in zip(omega, dest, steps):
        oracle.add_walk(float(w), int(d), int(s))
    _same(folded, oracle)


@settings(max_examples=60, deadline=None)
@given(
    batch=batches(max_walks=96),
    summation=st.sampled_from(SUMMATIONS),
    n_threads=st.sampled_from([1, 3, 16]),
    machine=st.integers(0, 2**32 - 1),
)
def test_thread_replay_matches_add_walk(batch, summation, n_threads, machine):
    """The virtual-thread replay of an unpaired row (Alg. 2's FRW-R and
    FRW-NK): each thread's walks, in fetch order, into a fresh
    accumulator merged in thread order."""
    n_cond, omega, dest, steps = batch
    durations = jittered_durations(steps, np.random.default_rng(machine))
    threads = simulate_dynamic_queue(durations, n_threads).thread_order
    order = np.concatenate(threads)
    bounds = np.cumsum([0, *(t.shape[0] for t in threads)])
    folded = _prefilled(n_cond, summation)
    folded.add_walks_ordered(omega, dest, steps, order, bounds)
    oracle = _prefilled(n_cond, summation)
    for walks in threads:
        local = oracle.spawn()
        for i in walks:
            local.add_walk(float(omega[i]), int(dest[i]), int(steps[i]))
        oracle.merge(local)
    _same(folded, oracle)


def test_thread_merge_adds_the_compensation_after_the_total():
    """``KahanVector.merge`` adds the partial's total (with its Neumaier
    correction) before its compensation; here the other order would
    lose the 2**-60."""
    folded, oracle = RowAccumulator(2, 0), RowAccumulator(2, 0)
    for acc in (folded, oracle):
        acc.add_walk(2.0**60, 0)
        acc.add_walk(-1.0, 0)  # compensation -1
    omega, dest = np.array([1.0, 2.0**-60]), np.zeros(2, dtype=np.int64)
    folded.add_walks_ordered(omega, dest, None, [0, 1], [0, 2])
    local = oracle.spawn()
    for w in omega:
        local.add_walk(float(w), 0)
    oracle.merge(local)
    _same(folded, oracle)
    assert folded.sum_w.compensation[0] == 2.0**-60


# ----------------------------------------------------------------------
# One observation per sample: the pair-mean references
# ----------------------------------------------------------------------
def _mean_reference(acc, omega, dest, steps, group):
    """``add_batch`` in plain Python: per sample, its mean on each
    destination; per conductor, the column sums of the means and of
    their squares over every sample, from 0.0; then one register add."""
    n_cond = acc.n_conductors
    s1, s2 = [0.0] * n_cond, [0.0] * n_cond
    for k in range(0, len(omega), group):
        row = [0.0] * n_cond
        for i in range(k, k + group):
            row[int(dest[i])] = row[int(dest[i])] + float(omega[i])
        for j in range(n_cond):
            m = row[j] / group
            s1[j] = s1[j] + m
            s2[j] = s2[j] + m * m
    acc.sum_w.add(np.array(s1))
    acc.sum_w2.add(np.array(s2))
    np.add.at(acc.hits, dest, 1)
    acc._row.walks += len(omega)
    acc._row.total_steps += int(np.sum(steps))


def _numpy_reference(acc, omega, dest, steps, group):
    """``add_batch`` as NumPy wrote it before the fold: the zero-filled
    sample-by-conductor matrix, ``np.add.at`` and ``sum(axis=0)``."""
    n = omega.shape[0]
    gm = np.zeros((n // group, acc.n_conductors))
    np.add.at(gm, (np.arange(n) // group, dest), omega)
    gm /= group
    acc.sum_w.add(gm.sum(axis=0))
    acc.sum_w2.add((gm * gm).sum(axis=0))
    np.add.at(acc.hits, dest, 1)
    acc._row.walks += n
    acc._row.total_steps += int(np.sum(steps))


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    summation=st.sampled_from(SUMMATIONS),
    paired=st.booleans(),
)
def test_mean_fold_matches_references(data, summation, paired):
    n_cond, omega, dest, steps = data.draw(batches(even=paired))
    group = 2 if paired else 1
    folded = _prefilled(n_cond, summation, paired)
    folded.add_batch(omega, dest, steps)
    python = _prefilled(n_cond, summation, paired)
    _mean_reference(python, omega, dest, steps, group)
    _same(folded, python)
    if n_cond >= 2:  # one column is a contiguous (pairwise) NumPy sum
        numpy = _prefilled(n_cond, summation, paired)
        _numpy_reference(numpy, omega, dest, steps, group)
        _same(folded, numpy)


def test_signed_zero_pairs():
    """Pairs of signed zeros, on one destination and split over two."""
    omega = np.array([-0.0, -0.0, -0.0, 0.0, -0.0, -5e-324, 5e-324, -0.0])
    dest = np.array([0, 0, 0, 1, 1, 1, 0, 1])
    for summation in SUMMATIONS:
        folded = RowAccumulator(2, 0, summation=summation, paired=True)
        folded.add_batch(omega, dest)
        python = RowAccumulator(2, 0, summation=summation, paired=True)
        _mean_reference(python, omega, dest, np.zeros(8, dtype=np.int64), 2)
        _same(folded, python)


@pytest.mark.parametrize("summation", SUMMATIONS)
@pytest.mark.parametrize("paired", [False, True])
def test_empty_batch(summation, paired):
    acc = _prefilled(3, summation, paired)
    ref = _prefilled(3, summation, paired)
    empty = np.array([], dtype=np.float64)
    acc.add_batch(empty, empty.astype(np.int64), empty.astype(np.int64))
    _mean_reference(ref, empty, empty.astype(np.int64), empty, 2 if paired else 1)
    _same(acc, ref)
    if not paired:
        acc.add_walks_ordered(empty, empty.astype(np.int64))
        acc.add_walks_ordered(
            empty, empty.astype(np.int64), None, empty.astype(np.int64), [0, 0, 0]
        )
        _same(acc, ref)


# ----------------------------------------------------------------------
# Errors: raised before any register moves
# ----------------------------------------------------------------------
def _untouched(acc):
    regs, hits, walks, steps = _registers(acc)
    assert not any(r.any() for r in regs) and not any(hits)
    assert walks == steps == 0


@pytest.mark.parametrize("paired", [False, True])
def test_fold_errors(paired):
    acc = RowAccumulator(3, 0, paired=paired)
    with pytest.raises(ConfigError, match="length mismatch"):
        acc.add_batch(np.ones(4), np.zeros(2, dtype=np.int64))
    with pytest.raises(ConfigError, match="out of range"):
        acc.add_batch(np.ones(4), np.array([0, 1, 3, 0]))
    with pytest.raises(ConfigError, match="out of range"):
        acc.add_batch(np.ones(2), np.array([-1, 0]))
    if paired:
        with pytest.raises(ConfigError, match="whole pairs"):
            acc.add_batch(np.ones(3), np.zeros(3, dtype=np.int64))
    else:
        with pytest.raises(ConfigError, match="out of range"):
            acc.add_walks_ordered(np.ones(2), np.array([0, 5]))
        with pytest.raises(ConfigError, match="out of range"):
            acc.add_walks_ordered(np.ones(2), np.zeros(2, dtype=np.int64), None, [0, 2])
        with pytest.raises(ConfigError, match="out of range"):
            acc.add_walks_ordered(
                np.ones(2), np.zeros(2, dtype=np.int64), None, [1, 0], [0, 1]
            )
        with pytest.raises(ConfigError, match="out of range"):
            acc.add_walks_ordered(
                np.ones(2), np.zeros(2, dtype=np.int64), None, [1, 0], [0, 2, 1]
            )
        with pytest.raises(ConfigError, match="length mismatch"):
            acc.add_walks_ordered(np.ones(2), np.zeros(2, dtype=np.int64), None, [1])
    _untouched(acc)


def test_registers_keep_their_addresses():
    """The fold holds the registers' addresses, so every Python-side
    write (scalar adds, vector adds, merges) must stay in place."""
    for cls in (KahanVector, NaiveVector):
        vec = cls(3)
        before = [getattr(vec, name) for name in cls.__slots__]
        vec.add(np.ones(3))
        vec.add_at(1, 2.0)
        vec.merge(cls(3))
        assert all(a is getattr(vec, n) for a, n in zip(before, cls.__slots__))
    # A fold after a merge lands in the merged registers.
    rng = np.random.default_rng(5)
    omega, dest = rng.standard_normal(40), rng.integers(0, 3, 40)
    folded, oracle = RowAccumulator(3, 0), RowAccumulator(3, 0)
    for acc in (folded, oracle):
        part = acc.spawn()
        part.add_walk(3.0, 2, 1)
        acc.merge(part)
    folded.add_walks_ordered(omega, dest)
    for w, d in zip(omega, dest):
        oracle.add_walk(float(w), int(d))
    _same(folded, oracle)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    summation=st.sampled_from(SUMMATIONS),
    paired=st.booleans(),
    master=st.integers(0, 2),
)
def test_checkpoint_error_is_the_rows_entry(data, summation, paired, master):
    """``self_relative_error`` works on one entry's floats; it must be
    the bits of ``row().self_relative_error`` (none, one and many
    samples, zero and negative means)."""
    _, omega, dest, steps = data.draw(batches(n_cond=3, even=paired, max_walks=12))
    acc = RowAccumulator(3, master, summation=summation, paired=paired)
    acc.add_batch(omega, dest, steps)
    assert np.array_equal(
        _bits(acc.self_relative_error), _bits(acc.row().self_relative_error)
    )
