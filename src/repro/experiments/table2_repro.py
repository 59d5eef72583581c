"""Table II — reproducibility indices under fixed and varied DOP.

Repeats extractions of a case on two simulated "machines" (different
scheduler timing-noise families) in the paper's two modes:

* **Fixed DOP**: ``T = 16`` for every run; only machine timing noise varies.
* **Varied DOP**: run ``r`` uses ``T = r + 1`` threads.

All runs share the same seed and input, so every pairwise comparison
measures pure numerical reproducibility; RI_min / RI_avg follow Eq. (6).
The paper's qualitative result — Alg. 1 reproduces only at fixed DOP while
FRW-NK/R/RR are DOP-independent, with Kahan lifting the index to (near)
bitwise — is asserted by the accompanying tests.
"""

from __future__ import annotations

import numpy as np

from ..analysis.tables import format_table
from ..frw import extract
from ..numerics import RIStats, reproducibility_indices
from ..structures import CASES, build_case, case_masters
from .common import ExperimentRecord, Stopwatch, environment_info, paper_config

#: Machine-seed bases for the two simulated machines.
MACHINE_BASES = (0, 100_000)

VARIANTS = ("alg1", "frw-nk", "frw-r", "frw-rr")


def run_mode(
    structure,
    masters,
    variant: str,
    mode: str,
    runs_per_machine: int,
    fixed_threads: int,
    seed: int,
    tolerance: float,
    batch_size: int,
) -> RIStats:
    """Execute the repeated extractions of one (variant, mode) cell."""
    matrices: list[np.ndarray] = []
    run_index = 0
    for base in MACHINE_BASES:
        for r in range(runs_per_machine):
            threads = fixed_threads if mode == "fixed" else (run_index % 32) + 1
            cfg = paper_config(
                variant,
                n_threads=threads,
                machine_seed=base + r,
                seed=seed,
                tolerance=tolerance,
                batch_size=batch_size,
                min_walks=batch_size,
            )
            result = extract(structure, cfg, masters)
            matrices.append(result.matrix.values.copy())
            run_index += 1
    return reproducibility_indices(matrices)


def run(
    case: int = 1,
    profile: str = "fast",
    runs_per_machine: int = 4,
    fixed_threads: int = 16,
    seed: int = 2025,
    variants: tuple[str, ...] = VARIANTS,
    tolerance: float | None = None,
    batch_size: int = 2000,
    masters: list[int] | None = None,
) -> ExperimentRecord:
    """Regenerate (a slice of) Table II.

    The paper runs 32 extractions per machine; the default here is 4 per
    machine (28 pairwise comparisons per cell), which exercises the same
    mechanism at a laptop-friendly budget.
    """
    structure = build_case(case, profile)
    all_masters = case_masters(structure)
    masters = masters if masters is not None else all_masters[: min(3, len(all_masters))]
    tol = tolerance if tolerance is not None else max(CASES[case].tolerance, 1e-2)
    rows = []
    with Stopwatch() as sw:
        for mode in ("fixed", "varied"):
            for variant in variants:
                stats = run_mode(
                    structure,
                    masters,
                    variant,
                    mode,
                    runs_per_machine,
                    fixed_threads,
                    seed,
                    tol,
                    batch_size,
                )
                rows.append(
                    [mode, case, variant, stats.ri_min, f"{stats.ri_avg:.1f}", stats.n_pairs]
                )
    record = ExperimentRecord(
        experiment=f"table2_case{case}_{profile}",
        params={
            "case": case,
            "profile": profile,
            "runs_per_machine": runs_per_machine,
            "fixed_threads": fixed_threads,
            "seed": seed,
            "tolerance": tol,
            "batch_size": batch_size,
            "masters": masters,
        },
        headers=["Mode", "Case", "Variant", "RI_min", "RI_avg", "pairs"],
        rows=rows,
        elapsed_seconds=sw.elapsed,
        environment=environment_info(),
        notes=[
            "Two simulated machines (distinct timing-noise families), "
            f"{runs_per_machine} runs each; RI = matched decimal digits (17 = bitwise).",
        ],
    )
    return record


def main(case: int = 1, profile: str = "fast") -> None:
    """Print the Table II slice for one case."""
    record = run(case=case, profile=profile)
    print(
        format_table(
            record.headers,
            record.rows,
            title=f"TABLE II — reproducibility indices (case {case})",
        )
    )
    record.save()


if __name__ == "__main__":
    main()
