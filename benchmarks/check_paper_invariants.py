"""Check the paper's invariants on the records of a reproduction run.

Usage::

    PYTHONPATH=src python -m repro.experiments.run_all --quick
    python3 benchmarks/check_paper_invariants.py [RESULTS_DIR]

``RESULTS_DIR`` (default ``results``) holds the JSON records that
``run_all`` saves.  The exit status is 1 unless every invariant holds:

* Table II: FRW-R and FRW-RR are bitwise reproducible (RI_min 17) with a
  fixed and a varied thread count, and Alg. 1 is not (RI_min < 17) once
  the thread count varies.
* Table III: the FRW-RR matrix is exactly symmetric (Err2 == 0) and its
  row sums vanish to machine precision (Err3 < 1e-15).
* Fig. 5: every modeled parallel efficiency is at most 1.

Nothing here depends on timing, so the check holds on any host.
"""

from __future__ import annotations

import json
import os
import sys

TABLE2 = "table2_case1_fast"
TABLE3 = "table3_fast_frw"
FIG5 = "fig5_case1_fast"

BITWISE_RI = 17
ERR3_BOUND = 1e-15


def parse_error(cell: str) -> float:
    """A Table III error cell: ``"0"``, ``"2.50%"`` or ``"4e-17"``."""
    cell = str(cell)
    return float(cell[:-1]) / 100 if cell.endswith("%") else float(cell)


def _rows(record: dict) -> list[dict]:
    return [dict(zip(record["headers"], row)) for row in record["rows"]]


def violations(records: dict[str, dict]) -> list[str]:
    """Every invariant the ``TABLE2``, ``TABLE3`` and ``FIG5`` records miss."""
    found = []
    ri = {(r["Mode"], r["Variant"]): int(r["RI_min"]) for r in _rows(records[TABLE2])}
    for mode in ("fixed", "varied"):
        for variant in ("frw-r", "frw-rr"):
            value = ri.get((mode, variant))
            if value != BITWISE_RI:
                found.append(
                    f"Table II {variant} {mode}: RI_min {value}, expected {BITWISE_RI}"
                )
    value = ri.get(("varied", "alg1"))
    if value is None or value >= BITWISE_RI:
        found.append(f"Table II alg1 varied: RI_min {value}, expected < {BITWISE_RI}")
    rr = [r for r in _rows(records[TABLE3]) if r["Variant"] == "frw-rr"]
    if not rr:
        found.append("Table III has no frw-rr row")
    for row in rr:
        err2, err3 = parse_error(row["Err2"]), parse_error(row["Err3"])
        if err2 != 0.0:
            found.append(f"Table III frw-rr case {row['Case']}: Err2 {err2:g}, expected 0")
        if not err3 < ERR3_BOUND:
            found.append(
                f"Table III frw-rr case {row['Case']}: Err3 {err3:g}, "
                f"expected < {ERR3_BOUND:g}"
            )
    for row in _rows(records[FIG5]):
        if not float(row["efficiency"]) <= 1.0:
            found.append(
                f"Fig. 5 {row['Variant']} T={row['T']}: efficiency "
                f"{row['efficiency']}, expected <= 1"
            )
    return found


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    directory = args[0] if args else "results"
    records = {}
    for name in (TABLE2, TABLE3, FIG5):
        with open(os.path.join(directory, f"{name}.json")) as fh:
            records[name] = json.load(fh)
    found = violations(records)
    for message in found:
        print(f"FAIL: {message}")
    if found:
        return 1
    print(f"paper invariants OK ({', '.join(records)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
