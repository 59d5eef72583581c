"""Table I — details about the test cases.

Regenerates the case inventory: Nm (master conductors), N (all conductors),
and Nc (non-zero capacitances).  Nm and N come from the generators and are
exact at the ``paper`` profile; Nc is measured by a quick extraction (count
of observed couplings, symmetrised), so it is reported for the profile that
was actually extracted.
"""

from __future__ import annotations

import numpy as np

from ..analysis.tables import format_table
from ..frw import extract
from ..structures import CASES, build_case, case_masters
from .common import ExperimentRecord, Stopwatch, environment_info, paper_config


def measure_nc(structure, masters, seed: int = 1, walks: int = 4000) -> int:
    """Count non-zero capacitances from a fixed-budget extraction.

    An entry (i, j) counts when row i observed hits on conductor j or row j
    observed hits on conductor i (couplings are symmetric); diagonal entries
    count once per master.
    """
    cfg = paper_config(
        "frw-r",
        seed=seed,
        batch_size=walks,
        min_walks=walks,
        max_walks=walks,
        tolerance=0.5,
    )
    result = extract(structure, cfg, masters)
    hits = result.matrix.hits
    nm, n = hits.shape
    seen = hits > 0
    seen_sym = seen.copy()
    seen_sym[:, :nm] |= seen[:, :nm].T
    return int(seen_sym.sum())


def run(
    profile: str = "fast",
    cases: list[int] | None = None,
    with_nc: bool = True,
) -> ExperimentRecord:
    """Regenerate Table I for the selected cases."""
    cases = cases if cases is not None else [1, 2, 3, 4, 5, 6]
    rows = []
    with Stopwatch() as sw:
        for number in cases:
            spec = CASES[number]
            structure = build_case(number, profile)
            masters = case_masters(structure)
            nc = (
                measure_nc(structure, masters)
                if with_nc and len(masters) <= 200
                else "-"
            )
            rows.append(
                [
                    number,
                    len(masters),
                    structure.n_conductors,
                    nc,
                    spec.paper_nm,
                    spec.paper_n,
                    spec.paper_nc,
                    spec.description,
                ]
            )
    record = ExperimentRecord(
        experiment=f"table1_{profile}",
        params={"profile": profile, "cases": cases, "with_nc": with_nc},
        headers=[
            "Case",
            "Nm",
            "N",
            "Nc(meas)",
            "Nm(paper)",
            "N(paper)",
            "Nc(paper)",
            "Description",
        ],
        rows=rows,
        elapsed_seconds=sw.elapsed,
        environment=environment_info(),
        notes=[
            f"profile={profile}: paper-profile generators reproduce the paper's "
            "Nm and N exactly; Nc is measured on the extracted profile.",
        ],
    )
    return record


def main(profile: str = "fast") -> None:
    """Print Table I."""
    record = run(profile)
    print(format_table(record.headers, record.rows, title="TABLE I — test cases"))
    record.save()


if __name__ == "__main__":
    main()
