"""Sec. IV-C in practice: application-specific regularization variants.

Touchscreen-style flows care about specific mutual couplings and do not
need the zero row-sum property; IC sign-off flows want self-capacitances
pinned.  This example contrasts, on one raw extraction:

* plain Alg. 3 (full constrained MLE),
* symmetrization-only (the exact MLE without Property 3 — Eq. 13),
* diagonal-weighted Alg. 3 (self-capacitances pinned),
* the naive diagonal-replacement adjustment the paper warns against.

Run:  python examples/touchscreen_symmetrization.py
"""

import numpy as np

from repro import (
    FRWConfig,
    FRWSolver,
    naive_adjustment,
    regularize,
    symmetrize,
)
from repro.reliability import check_properties
from repro.structures import parallel_wires


def describe(tag, matrix, raw):
    report = check_properties(matrix)
    diag_shift = np.abs(
        np.diag(matrix.master_block) - np.diag(raw.master_block)
    ).max()
    print(
        f"  {tag:<22} Err2={report.err2:8.1e}  Err3={report.err3:8.1e}  "
        f"max self-cap shift={diag_shift:8.2e} fF"
    )


def main() -> None:
    # A touch-sensor-flavoured pattern: a grid of sense/drive bars.
    structure = parallel_wires(n_wires=6, width=1.2, spacing=0.8, length=14.0)
    config = FRWConfig.frw_r(seed=9, n_threads=8, tolerance=2e-2)
    with FRWSolver(structure, config) as solver:
        result = solver.extract()
    raw = result.matrix
    print("raw extraction:")
    describe("(none)", raw, raw)

    print("\npost-processing variants:")
    describe("Alg. 3 (full MLE)", regularize(raw), raw)
    describe("symmetrize only", symmetrize(raw), raw)
    describe("Alg. 3, diag x100", regularize(raw, diagonal_weight=100.0), raw)
    describe("naive adjustment", naive_adjustment(raw), raw)

    print(
        "\nnotes: symmetrization fixes Err2 only and never touches the\n"
        "diagonal; weighted Alg. 3 keeps all properties while pinning the\n"
        "self-capacitances; the naive adjustment rewrites the diagonal\n"
        "entirely from (noisy) couplings — the failure mode Sec. IV warns\n"
        "about."
    )


if __name__ == "__main__":
    main()
