"""Time-to-tolerance benchmark of the FRW-RR solver and its service.

One workload per call, as the benchmark contract runs it::

    python3 benchmarks/suite/run.py --workload case1_tol --seed 9 --seconds 10 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  Without
``--workload`` every workload runs in both modes, each in a fresh
subprocess; the metrics are printed as a table and written to ``--out``.

The package is imported from ``src/`` of the checkout this file sits in;
without it the script exits with status 2.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
NAMES = ("case1_tol", "open_field_tol", "sram_tol", "service_mix")


def import_workloads():
    """The workloads module, bound to this checkout's package source."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"run.py: no package source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.abspath(repro.__file__)) != os.path.join(SRC, "repro"):
        print(f"run.py: imported {repro.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    import workloads

    return workloads


def run_one(args) -> int:
    workloads = import_workloads()
    outcome = workloads.run(
        args.workload, args.seed, float(args.seconds), bool(args.trace), ROOT
    )
    for problem in outcome.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    if not outcome.metrics:
        print("run.py: no metrics measured", file=sys.stderr)
        return 1
    result = workloads.result(outcome, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{args.workload:15s} {name:36s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own interpreter."""
    results = {}
    status = 0
    for name in NAMES:
        for trace in (0, 1):
            cmd = [
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} --trace {trace}: exit {proc.returncode}",
                      file=sys.stderr)
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            entry = results.setdefault(
                name, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            )
            entry["correct"] = entry["correct"] and result["correct"]
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            entry["metrics"].update(result["metrics"])
            status = status or int(not result["correct"])
    for name, entry in results.items():
        print(f"== {name}: attempted {entry['attempted']}, failed {entry['failed']}")
        for metric, m in entry["metrics"].items():
            print(f"  {metric:36s} {m['value']:14.6g} {m['unit']}")
    out = args.out or os.path.join(
        ROOT, ".bench_build", "suite", f"seed{args.seed}.json"
    )
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    summary = {"seed": args.seed, "seconds": args.seconds, "workloads": results}
    with open(out, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=9)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="JSON output of a run over all workloads")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
