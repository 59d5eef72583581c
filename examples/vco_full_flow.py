"""Full extraction flow on the VCO-like analog structure (Table I case 3).

Demonstrates the complete Fig. 1 pipeline: structure -> parallel
reproducible extraction -> raw result with property violations -> Alg. 3
regularization -> reliable matrix, saved to JSON for downstream tools.

Run:  python examples/vco_full_flow.py
"""

from pathlib import Path

from repro import FRWConfig, FRWSolver
from repro.reliability import check_properties
from repro.structures import build_case, case_masters


def main() -> None:
    structure = build_case(3, "fast")
    masters = case_masters(structure)
    print(structure.summary())
    print(f"extracting {len(masters)} masters "
          f"({', '.join(structure.names[m] for m in masters[:6])}, ...)")

    config = FRWConfig.frw_rr(
        seed=42,
        n_threads=16,
        tolerance=3e-2,
        batch_size=4000,
    )
    with FRWSolver(structure, config) as solver:
        result = solver.extract(masters)

    raw_report = check_properties(result.raw_matrix)
    reg_report = check_properties(result.matrix)
    print("\nphysics-related reliability (Sec. II-A properties):")
    print(f"  raw FRW output : {raw_report}")
    print(f"  after Alg. 3   : {reg_report}")
    print(f"  regularization took {result.regularization_time * 1e3:.1f} ms "
          f"for {result.matrix.meta['n_variables']} capacitances")

    # The regularized matrix is safe for circuit simulation / macromodels:
    # symmetric, diagonally dominant with non-positive couplings, zero row
    # sums. Save it for downstream use.
    out = Path("results")
    out.mkdir(exist_ok=True)
    path = out / "vco_capacitance.json"
    result.matrix.save(path)
    print(f"\nreliable capacitance matrix written to {path}")

    # Show the strongest couplings of the first inductor turn.
    row = result.matrix.values[0]
    names = structure.names
    couplings = sorted(
        ((row[j], names[j]) for j in range(len(names)) if j != 0),
        key=lambda x: x[0],
    )
    print("\nstrongest couplings of ind1:")
    for value, name in couplings[:5]:
        print(f"  C(ind1, {name:>10}) = {value:9.4f} fF")


if __name__ == "__main__":
    main()
