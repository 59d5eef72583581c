"""Table III — reliability errors, capacitance errors, and runtimes.

For each case the experiment runs Alg. 1, FRW-R, and FRW-RR and reports the
Eq. (18) property deviations (Err2, Err3), the Eq. (17) capacitance error
versus a reference, the total runtime, and the regularization time
(T_post).  Two references are supported:

* ``"fdm"`` — the independent finite-difference field solver (the stand-in
  for the paper's commercial tool; its own discretisation error enters
  Err_cap).
* ``"frw"`` — a high-precision FRW-RR run at a ~3x tighter tolerance and
  a different seed; statistically independent of the measured runs, and
  free of discretisation bias, so the regularization's ~21% error
  reduction is visible at laptop budgets.
"""

from __future__ import annotations

import numpy as np

from ..analysis.tables import format_scientific, format_seconds, format_table
from ..fdm import FDMExtractor
from ..frw import FRWSolver
from ..reliability import capacitance_error, check_properties
from ..structures import build_case, case_masters
from .common import ExperimentRecord, Stopwatch, environment_info, paper_config

VARIANTS = ("alg1", "frw-r", "frw-rr")


def reference_matrix(
    structure, masters, kind: str, seed: int, tolerance: float, fdm_resolution: int
) -> np.ndarray | None:
    """Reference rows (Nm x N) for Err_cap, or None if unavailable."""
    if kind == "none":
        return None
    if kind == "fdm":
        sol = FDMExtractor(structure, resolution=fdm_resolution, method="auto").extract()
        return sol.capacitance[masters]
    if kind == "frw":
        cfg = paper_config(
            "frw-rr",
            seed=seed + 777,
            n_threads=1,
            tolerance=tolerance / 3.0,
            batch_size=20_000,
            min_walks=20_000,
        )
        result = FRWSolver(structure, cfg).extract(masters)
        return result.matrix.values
    raise ValueError(f"unknown reference kind {kind!r}")


def run(
    cases: list[int] | None = None,
    profile: str = "fast",
    variants: tuple[str, ...] = VARIANTS,
    seed: int = 11,
    n_threads: int = 16,
    tolerance: float = 2e-2,
    batch_size: int = 4000,
    reference: str = "frw",
    fdm_resolution: int = 33,
    max_masters: int | None = None,
) -> ExperimentRecord:
    """Regenerate Table III for the selected cases."""
    cases = cases if cases is not None else [1, 2, 3]
    rows = []
    notes = []
    errcap_by_variant: dict[str, list[float]] = {v: [] for v in variants}
    with Stopwatch() as sw:
        for case in cases:
            structure = build_case(case, profile)
            masters = case_masters(structure)
            if max_masters is not None:
                masters = masters[:max_masters]
            ref = reference_matrix(
                structure, masters, reference, seed, tolerance, fdm_resolution
            )
            for variant in variants:
                cfg = paper_config(
                    variant,
                    seed=seed,
                    n_threads=n_threads,
                    tolerance=tolerance,
                    batch_size=batch_size,
                    min_walks=batch_size,
                )
                result = FRWSolver(structure, cfg).extract(masters)
                report = check_properties(result.matrix)
                err_cap = (
                    capacitance_error(result.matrix, ref) if ref is not None else None
                )
                if err_cap is not None:
                    errcap_by_variant[variant].append(err_cap)
                rows.append(
                    [
                        case,
                        variant,
                        format_scientific(report.err2),
                        format_scientific(report.err3),
                        f"{err_cap * 100:.2f}%" if err_cap is not None else "-",
                        format_seconds(result.wall_time),
                        format_seconds(result.regularization_time)
                        if variant == "frw-rr"
                        else "-",
                    ]
                )
        if errcap_by_variant.get("frw-r") and errcap_by_variant.get("frw-rr"):
            base = np.mean(errcap_by_variant["frw-r"])
            reg = np.mean(errcap_by_variant["frw-rr"])
            notes.append(
                f"mean Err_cap: FRW-R {base * 100:.2f}% vs FRW-RR {reg * 100:.2f}% "
                f"({(1 - reg / base) * 100:.0f}% reduction; paper reports 21% on average)"
            )
    record = ExperimentRecord(
        experiment=f"table3_{profile}_{reference}",
        params={
            "cases": cases,
            "profile": profile,
            "variants": list(variants),
            "seed": seed,
            "n_threads": n_threads,
            "tolerance": tolerance,
            "batch_size": batch_size,
            "reference": reference,
        },
        headers=["Case", "Variant", "Err2", "Err3", "Err_cap", "T_total", "T_post"],
        rows=rows,
        notes=notes,
        elapsed_seconds=sw.elapsed,
        environment=environment_info(),
    )
    return record


def main(profile: str = "fast") -> None:
    """Print Table III."""
    record = run(profile=profile)
    print(
        format_table(
            record.headers, record.rows, title="TABLE III — reliability and accuracy"
        )
    )
    for note in record.notes:
        print(note)
    record.save()


if __name__ == "__main__":
    main()
