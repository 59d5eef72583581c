"""Reproducibility demo: why Alg. 2 beats the Alg. 1 baseline.

Runs the same extraction at different degrees of parallelism (DOP) and on
two simulated machines, for both the baseline scheme of [1] (Alg. 1) and
the paper's reproducible scheme (Alg. 2 / FRW-R), then reports how many
decimal digits the results share.

Run:  python examples/reproducibility_demo.py
"""

from repro import FRWConfig, FRWSolver, reproducibility_indices
from repro.structures import build_case, case_masters


def repeated_runs(structure, masters, factory, dops, machines, antithetic=False):
    """Extract once per (DOP, machine) combination; return the matrices."""
    matrices = []
    for t, machine in zip(dops, machines):
        config = factory(
            seed=7,                 # the input seed never changes
            n_threads=t,
            machine_seed=machine,   # simulated machine timing noise
            tolerance=2e-2,
            batch_size=2000,
            min_walks=2000,
            # The paper's independent walks run the virtual-thread merge
            # replay; antithetic pairs are absorbed in UID order instead.
            antithetic=antithetic,
        )
        with FRWSolver(structure, config) as solver:
            result = solver.extract(masters)
        matrices.append(result.matrix.values)
        print(
            f"    T={t:>2} machine={machine}: "
            f"C11 = {result.matrix.values[0, 0]:.15f} fF"
        )
    return matrices


def main() -> None:
    structure = build_case(1, "fast")
    masters = case_masters(structure)
    dops = [1, 4, 16, 7]
    machines = [0, 1, 2, 3]

    print("Alg. 1 baseline [1] — varied DOP:")
    alg1 = repeated_runs(structure, masters, FRWConfig.alg1, dops, machines)
    stats1 = reproducibility_indices(alg1)
    print(f"  -> {stats1}  (the results are statistically different!)\n")

    print("FRW-R (Alg. 2, fine-grained reseeding + Kahan) — varied DOP:")
    frw_r = repeated_runs(structure, masters, FRWConfig.frw_r, dops, machines)
    stats2 = reproducibility_indices(frw_r)
    print(f"  -> {stats2}  (17 = bitwise identical)\n")

    print("FRW-R with antithetic pairs (the library default):")
    pairs = repeated_runs(
        structure, masters, FRWConfig.frw_r, dops, machines, antithetic=True
    )
    stats3 = reproducibility_indices(pairs)
    print(f"  -> {stats3}  (pair means absorbed in UID order: 17 for any DOP)")


if __name__ == "__main__":
    main()
