"""Quickstart: extract the capacitance matrix of three parallel wires.

Builds a small custom structure with the public API, extracts it with the
reproducible + reliable solver (FRW-RR), checks the physical properties,
and cross-validates against the built-in FDM reference field solver.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    Box,
    Conductor,
    FDMExtractor,
    FRWConfig,
    FRWSolver,
    Structure,
    check_properties,
)


def main() -> None:
    # --- 1. Describe the geometry (lengths in um) --------------------------
    # Three 1x1 um wires, 1 um apart, 8 um long, inside a grounded box.
    wires = [
        Conductor.single(
            f"w{i + 1}", Box.from_bounds(2.0 * i, 2.0 * i + 1.0, 0.0, 8.0, 0.0, 1.0)
        )
        for i in range(3)
    ]
    structure = Structure(
        wires, enclosure=Box.from_bounds(-4, 9, -4, 12, -4, 5)
    )
    structure.validate(min_gap=0.5)
    print(structure.summary())

    # --- 2. Extract with FRW-RR -------------------------------------------
    config = FRWConfig.frw_rr(
        seed=2025,          # any run with this seed reproduces bit-for-bit
        n_threads=16,       # DOP does not change the result (Alg. 2)
        tolerance=1e-2,     # 1% standard error on self-capacitances
    )
    with FRWSolver(structure, config) as solver:
        result = solver.extract()
    print("\nCapacitance matrix (fF):")
    print(result.matrix.pretty())
    print(f"\nwalks: {result.total_walks}, wall: {result.wall_time:.2f}s, "
          f"regularization: {result.regularization_time * 1e3:.2f}ms")
    print(f"properties: {check_properties(result.matrix)}")

    # --- 3. Cross-check against the FDM reference solver -------------------
    print("\nFDM reference (this is the 'commercial tool' stand-in):")
    fdm = FDMExtractor(structure, resolution=(53, 65, 37), method="cg").extract()
    frw_row = result.matrix.values[0]
    fdm_row = fdm.capacitance[0]
    print(f"  FRW-RR row w1: {np.array2string(frw_row, precision=4)}")
    print(f"  FDM    row w1: {np.array2string(fdm_row, precision=4)}")
    rel = np.abs(frw_row - fdm_row).sum() / np.abs(fdm_row).sum()
    print(f"  weighted difference: {rel * 100:.2f}% "
          "(MC error + FDM discretisation error)")


if __name__ == "__main__":
    main()
