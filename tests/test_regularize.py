"""Tests for the Alg. 3 constrained-MLE regularization."""

import numpy as np
import pytest

from repro import CapacitanceMatrix, regularize
from repro.errors import RegularizationError
from repro.reliability import check_properties


def synthetic_truth(nm: int, n: int, seed: int) -> np.ndarray:
    """A physically valid Nm x N block: symmetric master part, non-positive
    couplings, zero row sums closed by the last column."""
    rng = np.random.default_rng(seed)
    coupling = -rng.uniform(0.1, 2.0, (nm, n))
    coupling = np.triu(coupling, k=1)
    block = coupling[:, :nm]
    sym = block + block.T
    full = np.concatenate([sym, coupling[:, nm:]], axis=1)
    for i in range(nm):
        full[i, i] = -(full[i].sum() - full[i, i])
    return full


def observe(truth: np.ndarray, noise: float, seed: int) -> CapacitanceMatrix:
    rng = np.random.default_rng(seed)
    nm, n = truth.shape
    sigma = noise * np.abs(truth) + noise * 0.05
    values = truth + sigma * rng.standard_normal((nm, n))
    return CapacitanceMatrix(
        values=values,
        masters=list(range(nm)),
        names=[f"c{j}" for j in range(n)],
        sigma2=sigma**2,
        hits=np.full((nm, n), 100, dtype=np.int64),
    )


def test_output_is_reliable():
    truth = synthetic_truth(6, 8, 0)
    obs = observe(truth, 0.05, 1)
    raw_report = check_properties(obs)
    assert raw_report.err2 > 1e-6  # the observation genuinely violates
    reg = regularize(obs)
    report = check_properties(reg)
    assert report.reliable
    assert report.err2 == 0.0
    assert report.err3 < 1e-12


def test_improves_accuracy_on_average():
    """Constrained estimation has a lower variance bound: across many noisy
    observations the regularized estimate should beat the raw one."""
    truth = synthetic_truth(5, 7, 2)
    raw_err = reg_err = 0.0
    for trial in range(30):
        obs = observe(truth, 0.08, 100 + trial)
        reg = regularize(obs)
        raw_err += np.abs(obs.values - truth).sum()
        reg_err += np.abs(reg.values - truth).sum()
    assert reg_err < raw_err


def test_unbiasedness():
    """E[C*] = C: the estimator is linear with data-independent weights."""
    truth = synthetic_truth(4, 5, 3)
    total = np.zeros_like(truth)
    trials = 300
    for trial in range(trials):
        obs = observe(truth, 0.1, 500 + trial)
        total += regularize(obs).values
    mean = total / trials
    scale = np.abs(truth).max()
    # Mean error shrinks ~1/sqrt(trials) of the per-trial noise.
    assert np.abs(mean - truth).max() < 0.05 * scale


def test_exact_input_is_fixed_point():
    truth = synthetic_truth(5, 6, 4)
    obs = observe(truth, 0.0, 5)
    obs.values = truth.copy()
    reg = regularize(obs)
    assert np.allclose(reg.values, truth, atol=1e-10)


def test_never_hit_entries_stay_zero():
    truth = synthetic_truth(4, 6, 6)
    obs = observe(truth, 0.05, 7)
    obs.values[0, 3] = 0.0
    obs.values[3, 0] = 0.0
    obs.hits[0, 3] = 0
    obs.hits[3, 0] = 0
    obs.sigma2[0, 3] = 0.0
    reg = regularize(obs)
    assert reg.values[0, 3] == 0.0
    assert reg.values[3, 0] == 0.0
    assert check_properties(reg).reliable


def test_one_sided_zero_excludes_pair():
    """Paper: ignore zeros *and their symmetric positions*."""
    truth = synthetic_truth(4, 5, 8)
    obs = observe(truth, 0.05, 9)
    obs.hits[1, 2] = 0
    obs.values[1, 2] = 0.0
    reg = regularize(obs)
    assert reg.values[1, 2] == 0.0
    assert reg.values[2, 1] == 0.0


def test_positive_couplings_folded_into_diagonal():
    truth = synthetic_truth(3, 4, 10)
    obs = observe(truth, 0.01, 11)
    # Force a positive coupling pair with tiny variance so it survives MLE.
    obs.values[0, 1] = 0.5
    obs.values[1, 0] = 0.5
    obs.sigma2[0, 1] = 1e-8
    obs.sigma2[1, 0] = 1e-8
    reg = regularize(obs)
    report = check_properties(reg)
    assert report.positive_couplings == 0
    assert report.err3 < 1e-12  # folding preserved the row sums
    assert reg.meta["positive_couplings_folded"] > 0


def least_norm_reference(cap: CapacitanceMatrix, diagonal_weight: float) -> np.ndarray:
    """Eq. (13)-(15) done the long way: fuse each two-sided master pair,
    form the whitened constraint matrix A explicitly, and take the
    minimum-norm solution of ``A y = b`` with ``np.linalg.lstsq``."""
    nm, n = cap.values.shape
    masters = list(cap.masters)
    row_of = {m: r for r, m in enumerate(masters)}
    variables = []  # (cells, fused value, fused variance)
    for r in range(nm):
        for j in range(n):
            if cap.hits[r, j] == 0:
                continue
            s = row_of.get(j)
            v = cap.sigma2[r, j]
            if s is None:
                variables.append(([(r, j)], cap.values[r, j], v))
            elif s == r:
                variables.append(([(r, j)], cap.values[r, j], v / diagonal_weight))
            elif r < s and cap.hits[s, masters[r]] > 0:
                w = cap.sigma2[s, masters[r]]
                fused = (w * cap.values[r, j] + v * cap.values[s, masters[r]]) / (v + w)
                variables.append(([(r, j), (s, masters[r])], fused, v * w / (v + w)))
    a = np.zeros((nm, len(variables)))
    b = np.zeros(nm)
    for k, (cells, c, v) in enumerate(variables):
        for r, _ in cells:
            a[r, k] = np.sqrt(v)
            b[r] -= c
    y = np.linalg.lstsq(a, b, rcond=None)[0]
    out = np.zeros((nm, n))
    for k, (cells, c, v) in enumerate(variables):
        for cell in cells:
            out[cell] = c + np.sqrt(v) * y[k]
    return out


def _subset(obs: CapacitanceMatrix, rows: list[int]) -> CapacitanceMatrix:
    return CapacitanceMatrix(
        values=obs.values[rows],
        masters=rows,
        names=obs.names,
        sigma2=obs.sigma2[rows],
        hits=obs.hits[rows],
    )


def _one_sided(obs: CapacitanceMatrix) -> CapacitanceMatrix:
    obs.hits[1, 2] = 0
    obs.values[1, 2] = 0.0
    obs.hits[3, 6] = 0  # a never-hit non-master entry too
    return obs


@pytest.mark.parametrize(
    "make, weight",
    [
        pytest.param(lambda obs: obs, 1.0, id="full"),
        pytest.param(lambda obs: _subset(obs, [0, 2, 5]), 1.0, id="subset"),
        pytest.param(_one_sided, 1.0, id="one_sided"),
        pytest.param(lambda obs: obs, 100.0, id="weighted"),
    ],
)
def test_matches_least_norm_reference(make, weight):
    truth = synthetic_truth(6, 9, 12)
    obs = make(observe(truth, 0.07, 13))
    reg = regularize(obs, diagonal_weight=weight)
    assert reg.meta["positive_couplings_folded"] == 0
    expected = least_norm_reference(obs, weight)
    scale = np.abs(expected).max()
    assert np.abs(reg.values - expected).max() <= 1e-12 * scale


def banded_observation(nm: int, band: int = 12, tail: int = 2) -> CapacitanceMatrix:
    """A noisy banded observation: each master couples to ``band`` masters
    on either side and to every one of ``tail`` non-master conductors."""
    rng = np.random.default_rng(nm)
    n = nm + tail
    i, j = np.meshgrid(np.arange(nm), np.arange(n), indexing="ij")
    hit = ((np.abs(i - j) <= band) & (j < nm) & (i != j)) | (j >= nm)
    values = np.where(hit, -rng.uniform(0.1, 1.0, (nm, n)), 0.0)
    sigma2 = (0.03 * values) ** 2
    diag = np.arange(nm)
    values[diag, diag] = -values.sum(axis=1) * (1 + 0.01 * rng.standard_normal(nm))
    sigma2[diag, diag] = (0.01 * values[diag, diag]) ** 2
    hit[diag, diag] = True
    return CapacitanceMatrix(
        values=values,
        masters=list(range(nm)),
        names=[f"c{k}" for k in range(n)],
        sigma2=sigma2,
        hits=np.where(hit, 50, 0),
    )


def test_case5_sized_banded_input():
    """Table I case 5 has 653 masters; Alg. 3 stays exact at that size."""
    obs = banded_observation(653)
    report = check_properties(regularize(obs))
    assert report.err2 == 0.0
    assert report.err3 <= 1e-15


def test_nan_value_is_rejected_with_its_entry():
    obs = observe(synthetic_truth(4, 6, 40), 0.05, 41)
    obs.values[2, 5] = np.nan
    with pytest.raises(RegularizationError, match=r"master 2, column 5"):
        regularize(obs)


def test_infinite_variance_is_rejected_with_its_entry():
    obs = _subset(observe(synthetic_truth(4, 6, 42), 0.05, 43), [1, 3])
    obs.sigma2[1, 0] = np.inf
    with pytest.raises(RegularizationError, match=r"master 3, column 0"):
        regularize(obs)


def test_diagonal_weight_pins_self_capacitance():
    truth = synthetic_truth(5, 6, 14)
    obs = observe(truth, 0.1, 15)
    plain = regularize(obs)
    pinned = regularize(obs, diagonal_weight=1e6)
    diag = np.arange(5)
    move_plain = np.abs(plain.values[diag, diag] - obs.values[diag, diag]).sum()
    move_pinned = np.abs(pinned.values[diag, diag] - obs.values[diag, diag]).sum()
    assert move_pinned < move_plain
    assert check_properties(pinned).reliable


def test_input_validation():
    truth = synthetic_truth(3, 4, 16)
    obs = observe(truth, 0.05, 17)
    no_sigma = obs.copy()
    no_sigma.sigma2 = None
    with pytest.raises(RegularizationError):
        regularize(no_sigma)
    bad_masters = obs.copy()
    bad_masters.masters = [0, 0, 2]
    with pytest.raises(RegularizationError):
        regularize(bad_masters)
    with pytest.raises(RegularizationError):
        regularize(obs, diagonal_weight=0.0)
    no_self = obs.copy()
    no_self.hits = obs.hits.copy()
    no_self.hits[0, 0] = 0
    with pytest.raises(RegularizationError):
        regularize(no_self)


def test_preserves_raw_matrix():
    truth = synthetic_truth(4, 5, 18)
    obs = observe(truth, 0.05, 19)
    before = obs.values.copy()
    regularize(obs)
    assert np.array_equal(obs.values, before)


def test_meta_recorded():
    truth = synthetic_truth(3, 4, 20)
    reg = regularize(observe(truth, 0.05, 21))
    assert reg.meta["regularized"] is True
    assert reg.meta["n_variables"] > 0


def test_subset_masters_supported():
    """Extracting a master subset (e.g. two nets of interest) regularizes
    fine: symmetry applies within the subset, everything else is single."""
    truth = synthetic_truth(4, 6, 30)
    obs = observe(truth, 0.05, 31)
    subset = CapacitanceMatrix(
        values=obs.values[[1, 3]],
        masters=[1, 3],
        names=obs.names,
        sigma2=obs.sigma2[[1, 3]],
        hits=obs.hits[[1, 3]],
    )
    reg = regularize(subset)
    # Symmetry within the subset and exact row sums.
    assert reg.values[0, 3] == reg.values[1, 1]
    assert np.abs(reg.values.sum(axis=1)).max() < 1e-12 * np.abs(truth).max()
