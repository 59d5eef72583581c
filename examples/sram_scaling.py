"""Multi-level parallelism on the SRAM array (Table I case 5, Sec. III-C).

With many master conductors, every master's batches interleave over one
pool of workers, so the workers stay busy while individual masters
converge after a batch or two.  Because every walk draws from its own
counter stream and every master absorbs its batches in batch order, the
rows do not depend on how many workers ran them.  This example extracts a
scaled SRAM array on one in-process worker and on two process workers and
checks that the rows are byte-identical.

Run:  python examples/sram_scaling.py
"""

import numpy as np

from repro import FRWConfig, FRWSolver
from repro.structures import case_masters, sram_like


def main() -> None:
    structure = sram_like(rows=2, cols=4)
    masters = case_masters(structure)
    print(structure.summary())
    print(f"{len(masters)} masters (wordlines, bitline pairs, cell stubs)\n")

    config = FRWConfig.frw_rr(seed=5, tolerance=4e-2, batch_size=3000)
    results = {}
    for label, layout in (
        ("1 worker (in process)", {"executor": "serial"}),
        ("2 process workers", {"executor": "process", "n_workers": 2}),
    ):
        with FRWSolver(structure, config.with_(**layout)) as solver:
            result = solver.extract(masters)
        sched = result.matrix.meta["schedule"]
        print(
            f"{label:<22}: wall {result.wall_time:6.2f} s, "
            f"{result.total_walks:,} walks, "
            f"{sched['dispatched_batches']} batches dispatched, "
            f"{sched['discarded_batches']} discarded"
        )
        results[label] = result

    one, two = results.values()
    assert np.array_equal(one.raw_matrix.values, two.raw_matrix.values)
    assert np.array_equal(one.matrix.values, two.matrix.values)
    print("\nrows are byte-identical at 1 and 2 workers")
    print(f"reliability after Alg. 3: {two.report}")


if __name__ == "__main__":
    main()
