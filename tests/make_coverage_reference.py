"""Regenerate ``coverage_reference.json``, the reference row of the
error-bar coverage test (``test_coverage.py``).

One extraction of master 0 of ``parallel_wires(n_wires=3)`` to a relative
standard error of 2e-3 on FRW seed 10000, which the coverage test never
uses.  The coverage test adds this row's own variance to every z score,
so the reference only has to be much tighter than the test's 4e-2 bars.

    PYTHONPATH=src python tests/make_coverage_reference.py

About 5.4M walks: half a minute on two CPUs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro import FRWConfig
from repro.frw import build_context, extract_row_alg2
from repro.structures.parallel_wires import parallel_wires

REFERENCE_PATH = Path(__file__).with_name("coverage_reference.json")
REFERENCE_SEED = 10_000
MASTER = 0


def structure():
    return parallel_wires(n_wires=3)


def make_reference() -> dict:
    cfg = FRWConfig.frw_r(seed=REFERENCE_SEED, tolerance=2e-3)
    row, stats = extract_row_alg2(build_context(structure(), MASTER, cfg))
    if not stats.converged:
        raise RuntimeError("reference did not converge")
    return {
        "structure": "parallel_wires(n_wires=3)",
        "master": MASTER,
        "seed": REFERENCE_SEED,
        "tolerance": cfg.tolerance,
        "antithetic": cfg.antithetic,
        "walks": row.walks,
        "values": row.values.tolist(),
        "sigma2": row.sigma2.tolist(),
    }


def main() -> int:
    reference = make_reference()
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"{reference['walks']} walks -> {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
