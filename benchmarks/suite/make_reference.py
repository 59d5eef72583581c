"""Regenerate the committed references of the extraction workloads.

Each reference is one extraction of the workload's structure and config
at a quarter of its tolerance (about 16x the walks) on FRW seed 0, which
the benchmark never uses.  The benchmark checks every run against it
statistically (``workloads.reference_misses``), so a change that moves
row bits legitimately still passes.

    python3 benchmarks/suite/make_reference.py [case1_tol ...]

Rows are bit-identical across executors, so the process backend is used
for speed; a full regeneration takes a few minutes on two CPUs.
"""

from __future__ import annotations

import json
import os
import sys

from run import import_workloads

REFERENCE_SEED = 0


def make_reference(workloads, name: str) -> dict:
    spec = workloads.WORKLOADS[name]
    cfg = spec.config(
        REFERENCE_SEED, tolerance=spec.tolerance / 4, executor="process"
    )
    structure = spec.build()
    with workloads.FRWSolver(structure, cfg) as solver:
        result = solver.extract()
    if not result.converged:
        raise RuntimeError(f"{name}: reference did not converge")
    raw = result.raw_matrix
    return {
        "workload": name,
        "seed": REFERENCE_SEED,
        "tolerance": cfg.tolerance,
        "batch_size": cfg.batch_size,
        "walks": result.total_walks,
        "masters": list(raw.masters),
        "values": raw.values.tolist(),
        "sigma2": raw.sigma2.tolist(),
    }


def main(argv: list[str]) -> int:
    workloads = import_workloads()
    names = argv or [
        name
        for name, spec in workloads.WORKLOADS.items()
        if isinstance(spec, workloads.ExtractionSpec)
    ]
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    for name in names:
        reference = make_reference(workloads, name)
        path = os.path.join(workloads.REFERENCE_DIR, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(reference, fh, indent=1)
            fh.write("\n")
        print(f"{name}: {reference['walks']} walks -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
