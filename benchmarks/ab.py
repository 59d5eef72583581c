"""Paired A/B runs of the time-to-tolerance benchmark: parent against HEAD.

Usage::

    python3 benchmarks/ab.py --workload sram_tol --seed 9 --seconds 10 --pairs 10
    python3 benchmarks/ab.py ... --append BENCH_ab.json   # add the record
    python3 benchmarks/ab.py --workload case1_tol --seconds 0 --pairs 1 --dry

The parent (``--parent``, default ``HEAD~1``) is extracted with ``git
archive`` into a new temporary directory, which is removed afterwards;
``--dry`` runs this checkout on both sides instead, as a check of the
tool.  HEAD is this checkout, working-tree edits included: its ``rev``
reads ``<commit>+dirty`` when ``git status`` lists any change or
untracked file.  Each pair runs
``benchmarks/suite/run.py --trace 0`` once per side, alternating which
side goes first, and reads ``--metric`` (``latency_ms`` by default;
``BENCHMARK.json`` says which way it improves).  One ``--trace 1
--seconds 0`` run per side then reads the hardware-independent work
counters, which a change that keeps every bit must leave equal.

The last line of standard output is one JSON record: per side the values,
median and quartiles, and the run's ``walks_per_op``; the head side's wins
out of the pairs; the ratio of medians (head / parent); the host's CPUs;
both sides' counters and whether they are equal; and the median of every
end-to-end metric of the untraced runs, per side.  ``--append`` adds
the record to a JSON list, the repository's append-only ``BENCH_ab.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("benchmarks", "suite", "run.py")

#: Which way each end-to-end metric improves, as BENCHMARK.json declares.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BETTER = {m["name"]: m["better"] for m in json.load(_fh)["end_to_end"]}

#: Traced metrics that count work rather than time it: equal on both
#: sides of a change that keeps every walk's bits.
COUNTERS = (
    "engine.steps_per_walk",
    "engine.rng_dispatches",
    "index.far_field_rate",
    "index.candidates_per_near_point",
    "parallel.dispatches",
    "context.index_builds",
    "cross_master.discarded_batches",
    "estimator.batches",
    "service.solves",
    "service.full_hit_rate",
)

#: Keys every record holds (tests/test_ab.py checks them).
RECORD_KEYS = (
    "workload", "seed", "seconds", "metric", "better", "pairs", "parent",
    "head", "wins", "ratio", "gap_exceeds_parent_iqr", "host", "counters",
    "end_to_end", "date", "note",
)
SIDE_KEYS = ("rev", "values", "median", "q1", "q3", "walks_per_op")


def git(*args: str, cwd: str = ROOT) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, capture_output=True, text=True, check=True
    ).stdout.strip()


def extract(rev: str, dest: str) -> None:
    """Write the tree of commit ``rev`` into the new directory ``dest``."""
    os.mkdir(dest)
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"ab.py: git archive {rev} exited {archive.returncode}")


def suite_run(checkout: str, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """The JSON line of one suite run in ``checkout``."""
    cmd = [
        sys.executable, os.path.join(checkout, RUN), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"ab.py: {' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result.get("correct"):
        raise SystemExit(f"ab.py: {' '.join(cmd)} reported correct = false")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Median, first and third quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q1, q3


def side(rev: str, values: list[float], walks: list[float]) -> dict:
    median, q1, q3 = quartiles(values)
    return {
        "rev": rev, "values": values, "median": median, "q1": q1, "q3": q3,
        "walks_per_op": sorted(set(walks)),
    }


def compare(args, parent_dir: str, parent_rev: str, head_rev: str) -> dict:
    """Run the pairs and the counter runs; the record."""
    better = BETTER[args.metric]
    lower = better == "lower"
    runs: dict = {"parent": ([], []), "head": ([], [])}
    every: dict = {"parent": [], "head": []}
    wins = 0
    for k in range(args.pairs):
        order = ("parent", "head") if k % 2 == 0 else ("head", "parent")
        got = {}
        for name in order:
            checkout = parent_dir if name == "parent" else ROOT
            metrics = suite_run(checkout, args.workload, args.seed,
                                args.seconds, 0)
            got[name] = metrics[args.metric]
            runs[name][0].append(metrics[args.metric])
            runs[name][1].append(metrics["walks_per_op"])
            every[name].append(metrics)
        head_better = (got["head"] < got["parent"] if lower
                       else got["head"] > got["parent"])
        wins += int(head_better)
        print(f"pair {k + 1}/{args.pairs}: parent {got['parent']:.4g} "
              f"head {got['head']:.4g}", file=sys.stderr)
    counters = {}
    for name, checkout in (("parent", parent_dir), ("head", ROOT)):
        traced = suite_run(checkout, args.workload, args.seed, 0, 1)
        counters[name] = {c: traced[c] for c in COUNTERS if c in traced}
    parent = side(parent_rev, *runs["parent"])
    head = side(head_rev, *runs["head"])
    gap = (parent["median"] - head["median"] if lower
           else head["median"] - parent["median"])
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "metric": args.metric,
        "better": better,
        "pairs": args.pairs,
        "parent": parent,
        "head": head,
        "wins": wins,
        "ratio": head["median"] / parent["median"],
        "gap_exceeds_parent_iqr": gap > parent["q3"] - parent["q1"],
        "host": {
            "cpus": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "machine": platform.machine(),
            "processor": cpu_model(),
        },
        "counters": {
            **counters, "equal": counters["parent"] == counters["head"],
        },
        "end_to_end": {
            metric: {
                name: statistics.median(m[metric] for m in every[name])
                for name in every
            }
            for metric in every["head"][0]
        },
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "note": args.note,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def append(path: str, record: dict) -> None:
    """Add ``record`` to the JSON list at ``path`` (created if missing)."""
    records = []
    if os.path.exists(path):
        with open(path) as fh:
            records = json.load(fh)
    records.append(record)
    with open(path, "w") as fh:
        json.dump(records, fh, indent=2)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=9)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--metric", default="latency_ms", choices=sorted(BETTER))
    parser.add_argument("--parent", default="HEAD~1",
                        help="the parent revision (default HEAD~1)")
    parser.add_argument("--dry", action="store_true",
                        help="run this checkout on both sides (no parent checkout)")
    parser.add_argument("--append", help="JSON list to add the record to")
    parser.add_argument("--note", default="", help="free text for the record")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    head_rev = git("rev-parse", "HEAD")
    if git("status", "--porcelain"):
        head_rev += "+dirty"
    if args.dry:
        record = compare(args, ROOT, head_rev, head_rev)
    else:
        parent_rev = git("rev-parse", args.parent)
        scratch = tempfile.mkdtemp(prefix="repro-ab-")
        try:
            parent_dir = os.path.join(scratch, f"parent-{parent_rev[:12]}")
            extract(parent_rev, parent_dir)
            record = compare(args, parent_dir, parent_rev, head_rev)
        finally:
            shutil.rmtree(scratch)
    if args.append:
        append(args.append, record)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
