"""Check one benchmark-suite run against its committed counter gates.

Usage::

    python3 benchmarks/check_counters.py RUN_JSON GATES

``RUN_JSON`` holds the last stdout line of ``benchmarks/suite/run.py``;
``GATES`` names an entry of ``benchmarks/expected_counters.json``, which
records the command that run must be made with and its gates.  The exit
status is 1 unless the run reports ``correct: true`` and meets every gate.
The gated counters are hardware-independent and deterministic for the
default seed, so a lost fast path fails whatever the host's speed;
latency is printed for information only.
"""

from __future__ import annotations

import json
import operator
import os
import sys

EXPECTED = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "expected_counters.json"
)

#: Gate operators; ``==`` compares the value rounded to an integer.
OPS = {
    "==": lambda value, bound: round(value) == bound,
    "<=": operator.le,
    "<": operator.lt,
    ">=": operator.ge,
    ">": operator.gt,
}


def violations(run: dict, gates: list[dict]) -> list[str]:
    """Every way ``run`` misses ``correct: true`` or one of ``gates``."""
    found = [] if run.get("correct") is True else ["correct is not true"]
    for gate in gates:
        value = run["metrics"][gate["metric"]]["value"]
        if not OPS[gate["op"]](value, gate["value"]):
            found.append(
                f"{gate['metric']} = {value}, expected {gate['op']} "
                f"{gate['value']}: {gate['why']}"
            )
    return found


def main(argv: list[str] | None = None) -> int:
    run_path, name = sys.argv[1:] if argv is None else argv
    with open(EXPECTED) as fh:
        entry = json.load(fh)[name]
    with open(run_path) as fh:
        run = json.load(fh)
    found = violations(run, entry["gates"])
    for message in found:
        print(f"FAIL {name}: {message}")
    if found:
        print(f"gates were measured with: {entry['run']}")
        return 1
    metrics = run["metrics"]
    gated = ", ".join(
        f"{gate['metric']} {metrics[gate['metric']]['value']:g}"
        for gate in entry["gates"]
    )
    print(f"{name} OK: {run['attempted']} operations, {gated}")
    if "latency_ms" in metrics:  # traced runs report stage times instead
        print(f"latency_ms {metrics['latency_ms']['value']:.4g} (informational)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
