"""Coverage of the Eq. (9) error bars that the stopping rule and Alg. 3
consume.

Master 0 of three parallel wires is extracted once per FRW seed under the
Alg. 2 stopping rule, with antithetic groups on (200 seeds) and off
(100 seeds).  Batches are 200 walks and the tolerance is 4e-2, so the
sequential rule, not a walk cap, ends every run.  Each case also runs
on the default config's uniform schedule, a checkpoint every ``b0``
walks on vectors ``B`` wide: a batch size of 1600 and ``min_walks`` 50
give batches of ``b0`` = 100 walks, whose twice as frequent checkpoints
give the rule more chances to stop on a low variance estimate.  Each
row is compared with
a reference row made once at a disjoint seed (``coverage_reference.json``,
written by ``make_coverage_reference.py``):

    z = (C - C_ref) / sqrt(sigma2 + sigma2_ref)

If the bars are honest, z is standard normal.  On the diagonal and on the
largest wire-to-wire coupling, the fractions of runs with |z| <= 1 and
|z| <= 2 must sit within three binomial standard deviations of 0.683 and
0.954, the mean of z within three standard errors of 0, and its standard
deviation within three standard errors of 1.  Bars sqrt(2) too narrow
(variance over walks instead of antithetic groups) or too wide (a doubled
variance) fail these bands.
"""

import json
import math

import numpy as np
import pytest

from make_coverage_reference import MASTER, REFERENCE_PATH, REFERENCE_SEED, structure
from repro import FRWConfig
from repro.frw import build_context, extract_row_alg2, make_streams
from repro.frw.alg2_reproducible import RowProgress
from repro.frw.engine import run_segments
from repro.frw.parallel import checkpoint_walks

BATCH = 200
UNIFORM_BATCH = 1600
TOLERANCE = 4e-2
SEEDS = {True: range(1, 201), False: range(1, 101)}
#: Batches each unstopped seed runs per shared-vector round, and the width
#: of that vector.
ROUND = 5
WIDTH = 16_384
#: ``(k, P(|z| <= k))`` for a standard normal z.
NOMINAL = tuple((k, math.erf(k / math.sqrt(2.0))) for k in (1.0, 2.0))


def _config(antithetic: bool, uniform: bool) -> FRWConfig:
    return FRWConfig.frw_r(
        tolerance=TOLERANCE,
        batch_size=UNIFORM_BATCH if uniform else BATCH,
        min_walks=BATCH // 4 if uniform else BATCH,
        antithetic=antithetic,
    )


def _stopped_rows(antithetic: bool, uniform: bool, seeds) -> list:
    """``(row, stats)`` of every seed under the stopping rule, with every
    seed's walks sharing one wide vector.

    Each seed's :class:`RowProgress` absorbs its batches in batch order, as
    the batch driver feeds it, so each row is the one ``extract_row_alg2``
    returns (``test_shared_vector_rows_match_the_driver``) without the
    per-step overhead of a 200-walk vector.  A round gives every unstopped
    seed its next ``ROUND`` batches; batches past a seed's stop are
    dropped, as the driver discards them."""
    cfg = _config(antithetic, uniform)
    ctx = build_context(structure(), MASTER, cfg)
    progress = {s: RowProgress(ctx, cfg.with_(seed=s)) for s in seeds}
    lanes = {s: (ctx, make_streams(cfg.with_(seed=s), MASTER)) for s in seeds}
    b0 = checkpoint_walks(cfg)

    def uids(u: int) -> np.ndarray:
        return np.arange(u * b0, (u + 1) * b0, dtype=np.uint64)

    live, first = list(seeds), 0
    while live:
        segments = [
            (i, uids(u))
            for i in range(len(live))
            for u in range(first, first + ROUND)
        ]
        results = run_segments([lanes[s] for s in live], segments, WIDTH)
        for i, s in enumerate(live):
            for res in results[i * ROUND : (i + 1) * ROUND]:
                if progress[s].absorb(res):
                    break
        live = [s for s in live if not progress[s].done]
        first += ROUND
    return [progress[s].finalize() for s in seeds]


@pytest.fixture(
    scope="module",
    params=[(True, False), (False, False), (True, True), (False, True)],
    ids=["antithetic", "plain", "antithetic-uniform", "plain-uniform"],
)
def stopped(request):
    antithetic, uniform = request.param
    return antithetic, uniform, _stopped_rows(antithetic, uniform, SEEDS[antithetic])


def test_error_bars_reach_nominal_coverage(stopped):
    antithetic, _, runs = stopped
    reference = json.loads(REFERENCE_PATH.read_text())
    assert reference["seed"] == REFERENCE_SEED not in SEEDS[antithetic]
    ref_values = np.array(reference["values"])
    ref_sigma2 = np.array(reference["sigma2"])
    # The last conductor is the enclosure; the others are wires.
    wires = [j for j in range(ref_values.shape[0] - 1) if j != MASTER]
    coupling = max(wires, key=lambda j: abs(ref_values[j]))
    assert all(stats.converged for _, stats in runs)
    values = np.array([row.values for row, _ in runs])
    sigma2 = np.array([row.sigma2 for row, _ in runs])
    z = (values - ref_values) / np.sqrt(sigma2 + ref_sigma2)
    n = len(runs)
    for j in (MASTER, coupling):
        zj = z[:, j]
        summary = {
            f"|z|<={k:g}": float(np.mean(np.abs(zj) <= k)) for k, _ in NOMINAL
        }
        summary.update(mean=float(zj.mean()), sd=float(zj.std(ddof=1)))
        for k, p in NOMINAL:
            band = 3.0 * math.sqrt(p * (1.0 - p) / n)
            assert abs(summary[f"|z|<={k:g}"] - p) <= band, (j, summary)
        assert abs(summary["mean"]) <= 3.0 / math.sqrt(n), (j, summary)
        assert abs(summary["sd"] - 1.0) <= 3.0 / math.sqrt(2.0 * n), (j, summary)


def test_shared_vector_rows_match_the_driver(stopped):
    """The first two seeds' rows equal the batch driver's, byte for byte."""
    antithetic, uniform, runs = stopped
    cfg = _config(antithetic, uniform)
    ctx = build_context(structure(), MASTER, cfg)
    for seed, (row, stats) in zip(SEEDS[antithetic][:2], runs):
        ref, ref_stats = extract_row_alg2(ctx, cfg.with_(seed=seed))
        assert row.values.tobytes() == ref.values.tobytes()
        assert row.sigma2.tobytes() == ref.sigma2.tobytes()
        assert row.walks == ref.walks and stats.batches == ref_stats.batches
