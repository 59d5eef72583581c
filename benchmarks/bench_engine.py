"""Engine throughput benchmark — emits BENCH_engine.json.

Measures walks/sec and steps/sec of the extraction hot path so future
changes can track the trajectory:

* ``engine_plain``        — per-batch ``run_walks`` (the seed's engine path).
* ``engine_pipelined``    — cross-batch ``run_walks_pipelined`` (refilled
  vector, same walks, bit-identical results) with the spatial fast path
  at its defaults.
* ``engine_pipelined_nofast`` — the same engine with the far-field fast
  path disabled (``far_field=False`` picks the pre-fast-path index), so
  the fast path's net effect on this case is visible in one entry.
* ``extract_seed_style``  — full ``extract_row`` with the seed's
  scheduling: per-batch engine + per-walk scalar merge replay.
* ``extract_default``     — full ``extract_row_alg2`` with the current
  defaults (pipelined engine + vectorised ordered merge replay; the
  thread/process executors engage automatically on multi-core hosts).
* ``open_field`` / ``open_field_nofast`` — the pipelined engine on an
  *open-field-dominated* case: thin wires in a roomy enclosure with a
  small ``h_cap`` so most steps are capped far-field steps, which is the
  workload the tier-1 bounds exist for.
* ``open_field_prefetch1`` — the same open-field case with the RNG
  prefetch ring disabled (``rng_prefetch_depth=1``), so the layer-8
  dispatch-amortisation win is visible as
  ``speedups.rng_prefetch_open_field`` in every entry (the walk bytes
  are identical — prefetching is bit-invisible).

**Every** variant reports the engine's per-stage timing breakdown
(rng / index_fast / index / sample / retire / bookkeeping) from
:class:`~repro.frw.engine.StageTimers` — seconds *and* per-stage kernel
dispatch counts — and the spatial index's far-field hit rate, so a
regression is attributable to a stage, not just a total.

The output file is a *trajectory*: every invocation appends a timestamped
entry (with git revision and host info) to the ``runs`` list instead of
overwriting the snapshot, so the perf history is tracked across PRs.  A
pre-trajectory single-snapshot file is converted into the first run on the
next append.  ``--warn-regression`` compares the fresh entry's
``engine_pipelined`` steps/sec against the previous trajectory entry and
prints a GitHub ``::warning::`` annotation when it regressed by more than
20% — warn-only, for noisy CI runners.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py [-o BENCH_engine.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import time
from datetime import datetime, timezone

import numpy as np

from repro import Box, Conductor, FRWConfig, Structure
from repro.frw import (
    StageTimers,
    build_context,
    extract_row_alg2,
    run_walks,
    run_walks_pipelined,
)
from repro.frw.alg2_reproducible import machine_rng, make_streams
from repro.frw.estimator import RowAccumulator
from repro.frw.scheduler import jittered_durations, simulate_dynamic_queue
from repro.rng import WalkStreams
from repro.structures import build_case

BATCH = 2048
N_BATCHES = 4
SEED = 9

# The open-field case: thin wires in a roomy enclosure with a small cap,
# so ~2/3 of all step queries land in provably-far cells.
OPEN_WALKS = 32768
OPEN_WIDTH = 8192
OPEN_H_CAP_FRACTION = 0.05
REGRESSION_WARN = 0.20


def build_open_field() -> Structure:
    """Three thin wires in a large empty enclosure."""
    wires = [
        Conductor.single(
            f"w{i}", Box.from_bounds(2.0 * i, 2.0 * i + 1.0, 0, 8, 0, 1)
        )
        for i in range(3)
    ]
    return Structure(
        wires, enclosure=Box.from_bounds(-20, 25, -20, 28, -20, 21)
    )


def _far_field_rate(ctx) -> float | None:
    stats = getattr(ctx.index, "stats", None)
    return None if stats is None else round(stats.far_field_rate, 4)


def _reset_stats(ctx) -> None:
    """Zero the index query counters so each variant's hit rate is its own."""
    stats = getattr(ctx.index, "stats", None)
    if stats is not None:
        stats.reset()


def _stage_dict(timers: StageTimers) -> dict:
    return {
        stage: round(value, 6) if isinstance(value, float) else value
        for stage, value in timers.as_dict().items()
    }


def _best_of(run, repeats: int = 3):
    """Best-of-N wall time; ``run`` returns (steps, timers)."""
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        res = run()
        secs = time.perf_counter() - t0
        if secs < best:
            best, out = secs, res
    steps, timers = out
    return best, steps, timers


def bench_engine_plain(ctx):
    _reset_stats(ctx)

    def run():
        timers = StageTimers()
        steps = 0
        streams = WalkStreams(SEED)
        for u in range(N_BATCHES):
            uids = np.arange(u * BATCH, (u + 1) * BATCH, dtype=np.uint64)
            res = run_walks(ctx, streams, uids, None, timers)
            steps += int(res.steps.sum())
        return steps, timers

    secs, steps, timers = _best_of(run)
    return secs, N_BATCHES * BATCH, steps, timers


def bench_engine_pipelined(
    ctx, n_walks=N_BATCHES * BATCH, width=BATCH, prefetch=None, repeats=3
):
    _reset_stats(ctx)
    uids = np.arange(n_walks, dtype=np.uint64)

    def run():
        timers = StageTimers()
        res = run_walks_pipelined(
            ctx,
            WalkStreams(SEED),
            uids,
            width=width,
            lookahead=2,
            timers=timers,
            prefetch=prefetch,
        )
        return int(res.steps.sum()), timers

    secs, steps, timers = _best_of(run, repeats)
    return secs, n_walks, steps, timers


def _extract_config(**overrides):
    return FRWConfig.frw_r(
        seed=SEED,
        n_threads=16,
        batch_size=BATCH,
        min_walks=N_BATCHES * BATCH,
        max_walks=N_BATCHES * BATCH,
        tolerance=1e-9,
        **overrides,
    )


def bench_extract_seed_style(structure):
    """The seed's full extraction loop: plain batches + scalar merge replay."""
    cfg = _extract_config(executor="serial", pipeline_lookahead=0)
    ctx = build_context(structure, 0, cfg)

    def run():
        timers = StageTimers()
        streams = make_streams(cfg, ctx.master)
        rng_machine = machine_rng(cfg, ctx.master)
        acc = RowAccumulator(ctx.n_conductors, ctx.master, summation=cfg.summation)
        for u in range(N_BATCHES):
            uids = np.arange(u * BATCH, (u + 1) * BATCH, dtype=np.uint64)
            results = run_walks(ctx, streams, uids, None, timers)
            durations = jittered_durations(
                results.steps, rng_machine, cfg.scheduler_jitter
            )
            schedule = simulate_dynamic_queue(durations, cfg.n_threads)
            for thread_order in schedule.thread_order:
                local = acc.spawn()
                for w in thread_order:
                    local.add_walk(
                        float(results.omega[w]),
                        int(results.dest[w]),
                        int(results.steps[w]),
                    )
                acc.merge(local)
        return acc.total_steps, timers

    secs, steps, timers = _best_of(run)
    return secs, N_BATCHES * BATCH, steps, timers, ctx


def bench_extract_default(structure):
    cfg = _extract_config()
    ctx = build_context(structure, 0, cfg)

    def run():
        timers = StageTimers()
        row, stats = extract_row_alg2(ctx, cfg, timers=timers)
        return stats.total_steps, timers

    secs, steps, timers = _best_of(run)
    return secs, N_BATCHES * BATCH, steps, timers, ctx


def _host_cpus() -> int:
    """CPUs this process may run on (affinity/cgroup aware) — the number
    that actually bounds engine throughput, unlike ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux host
        return os.cpu_count() or 1


def _git_rev() -> str:
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip()
            or "unknown"
        )
    except OSError:  # pragma: no cover - no git on host
        return "unknown"


def _load_trajectory(path: str, case: int) -> dict:
    """Load (or initialise) the trajectory file, converting a legacy
    single-snapshot payload into the first run entry."""
    header = {
        "benchmark": "engine_throughput",
        "case": case,
        "batch_size": BATCH,
        "n_batches": N_BATCHES,
        "runs": [],
    }
    if not os.path.exists(path):
        return header
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return header
    if "runs" in payload:
        payload.setdefault("benchmark", "engine_throughput")
        return payload
    # Legacy single snapshot: lift its measurement fields into runs[0].
    legacy = {
        k: payload[k]
        for k in ("host", "results", "speedups")
        if k in payload
    }
    legacy["note"] = "converted from single-snapshot format"
    header["case"] = payload.get("case", case)
    header["runs"] = [legacy]
    return header


def _record(results, name, secs, walks, steps, timers, ctx):
    results[name] = {
        "seconds": round(secs, 6),
        "walks": walks,
        "steps": steps,
        "walks_per_sec": round(walks / secs, 1),
        "steps_per_sec": round(steps / secs, 1),
        "stages": _stage_dict(timers),
        "far_field_rate": _far_field_rate(ctx),
    }
    rate = results[name]["far_field_rate"]
    print(
        f"{name:24s} {secs * 1e3:9.1f} ms   "
        f"{results[name]['walks_per_sec']:>10.0f} walks/s   "
        f"{results[name]['steps_per_sec']:>11.0f} steps/s   "
        f"ff_rate={'-' if rate is None else rate}"
    )


def _warn_on_regression(runs: list[dict]) -> None:
    """GitHub ``::warning::`` when ``engine_pipelined`` steps/sec dropped
    >20% against the previous trajectory entry (warn-only; CI timing is
    noisy and absolute numbers are not comparable across runners)."""
    if len(runs) < 2:
        print("no previous trajectory entry; skipping regression check")
        return
    prev = runs[-2].get("results", {}).get("engine_pipelined", {})
    curr = runs[-1].get("results", {}).get("engine_pipelined", {})
    prev_rate, curr_rate = prev.get("steps_per_sec"), curr.get("steps_per_sec")
    if not prev_rate or not curr_rate:
        return
    change = curr_rate / prev_rate - 1.0
    print(
        f"engine_pipelined steps/sec: {curr_rate:.0f} vs previous "
        f"{prev_rate:.0f} ({change:+.1%})"
    )
    if change < -REGRESSION_WARN:
        print(
            f"::warning title=Engine perf regression::engine_pipelined "
            f"steps/sec dropped {-change:.1%} vs the previous trajectory "
            f"entry ({curr_rate:.0f} vs {prev_rate:.0f}); timing on shared "
            f"runners is noisy, so this is informational only"
        )
    # Same check for the RNG-prefetch on-vs-off speedup: both variants run
    # in the same invocation, so their *ratio* is robust to runner speed —
    # a drop here means the prefetch ring itself regressed.
    prev_sp = runs[-2].get("speedups", {}).get("rng_prefetch_open_field")
    curr_sp = runs[-1].get("speedups", {}).get("rng_prefetch_open_field")
    if not prev_sp or not curr_sp:
        return
    sp_change = curr_sp / prev_sp - 1.0
    print(
        f"rng_prefetch_open_field speedup: {curr_sp:.3f}x vs previous "
        f"{prev_sp:.3f}x ({sp_change:+.1%})"
    )
    if sp_change < -REGRESSION_WARN:
        print(
            f"::warning title=RNG prefetch regression::the open-field "
            f"prefetch-on vs prefetch-off speedup dropped {-sp_change:.1%} "
            f"vs the previous trajectory entry ({curr_sp:.3f}x vs "
            f"{prev_sp:.3f}x)"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--output", default="BENCH_engine.json")
    parser.add_argument("--case", type=int, default=1)
    parser.add_argument(
        "--warn-regression",
        action="store_true",
        help="print a GitHub ::warning:: annotation when engine_pipelined "
        "steps/sec (or the rng_prefetch_open_field speedup) regressed "
        ">20%% vs the previous trajectory entry",
    )
    parser.add_argument(
        "--rng-prefetch-depth",
        type=int,
        default=None,
        help="RNG prefetch ring depth for the pipelined variants "
        "(default: the FRWConfig default; the open_field_prefetch1 "
        "baseline always runs at 1)",
    )
    args = parser.parse_args()

    structure = build_case(args.case, "fast")
    ctx = build_context(structure, 0, FRWConfig.frw_r(seed=SEED))
    ctx_nofast = build_context(
        structure, 0, FRWConfig.frw_r(seed=SEED, far_field=False)
    )
    open_structure = build_open_field()
    open_cfg = dict(seed=SEED, h_cap_fraction=OPEN_H_CAP_FRACTION)
    ctx_open = build_context(
        open_structure, 0, FRWConfig.frw_r(**open_cfg)
    )
    ctx_open_nofast = build_context(
        open_structure, 0, FRWConfig.frw_r(**open_cfg, far_field=False)
    )

    results = {}
    prefetch = args.rng_prefetch_depth
    secs, walks, steps, timers = bench_engine_plain(ctx)
    _record(results, "engine_plain", secs, walks, steps, timers, ctx)
    secs, walks, steps, timers = bench_engine_pipelined(ctx, prefetch=prefetch)
    _record(results, "engine_pipelined", secs, walks, steps, timers, ctx)
    secs, walks, steps, timers = bench_engine_pipelined(
        ctx_nofast, prefetch=prefetch
    )
    _record(
        results, "engine_pipelined_nofast", secs, walks, steps, timers,
        ctx_nofast,
    )
    for name, c, pf in [
        ("open_field", ctx_open, prefetch),
        ("open_field_nofast", ctx_open_nofast, prefetch),
        # The same engine with the prefetch ring disabled: the layer-8
        # dispatch-amortisation baseline (identical walk bytes).
        ("open_field_prefetch1", ctx_open, 1),
    ]:
        # Best-of-5 for the ~1s open-field runs: container noise bursts
        # outlast a single repeat, and the on/off prefetch ratio is only
        # meaningful when both sides caught a quiet window.
        secs, walks, steps, timers = bench_engine_pipelined(
            c, n_walks=OPEN_WALKS, width=OPEN_WIDTH, prefetch=pf, repeats=5
        )
        _record(results, name, secs, walks, steps, timers, c)
    secs, walks, steps, timers, c = bench_extract_seed_style(structure)
    _record(results, "extract_seed_style", secs, walks, steps, timers, c)
    secs, walks, steps, timers, c = bench_extract_default(structure)
    _record(results, "extract_default", secs, walks, steps, timers, c)

    trajectory = _load_trajectory(args.output, args.case)
    entry = {
        # det: allow(DET002) intentional wall-clock: benchmark trajectory
        # entries are timestamped metadata, never an input to computation.
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_rev": _git_rev(),
        "host": {
            "cpu_count": os.cpu_count(),
            # Schedulable CPUs (affinity/cgroup aware): 1-core-container
            # entries are self-describing without external context.
            "host_cpus": _host_cpus(),
            "machine": platform.machine(),
            "python": platform.python_version(),
        },
        "results": results,
        # Kept for trajectory continuity with pre-fast-path entries.
        "engine_pipelined_stages": results["engine_pipelined"]["stages"],
        "open_field_case": {
            "n_walks": OPEN_WALKS,
            "width": OPEN_WIDTH,
            "h_cap_fraction": OPEN_H_CAP_FRACTION,
        },
        "speedups": {
            "pipelined_vs_plain_engine": round(
                results["engine_pipelined"]["walks_per_sec"]
                / results["engine_plain"]["walks_per_sec"],
                3,
            ),
            "default_vs_seed_extract": round(
                results["extract_default"]["walks_per_sec"]
                / results["extract_seed_style"]["walks_per_sec"],
                3,
            ),
            "fast_path_on_case": round(
                results["engine_pipelined"]["steps_per_sec"]
                / results["engine_pipelined_nofast"]["steps_per_sec"],
                3,
            ),
            "fast_path_open_field": round(
                results["open_field"]["steps_per_sec"]
                / results["open_field_nofast"]["steps_per_sec"],
                3,
            ),
            "rng_prefetch_open_field": round(
                results["open_field"]["steps_per_sec"]
                / results["open_field_prefetch1"]["steps_per_sec"],
                3,
            ),
        },
    }
    runs = trajectory["runs"]
    if runs:
        base = runs[0].get("results", {}).get("engine_pipelined", {})
        base_rate = base.get("steps_per_sec")
        if base_rate:
            entry["speedups"]["pipelined_vs_first_run"] = round(
                results["engine_pipelined"]["steps_per_sec"] / base_rate, 3
            )
        prev_results = runs[-1].get("results", {})
        # Compare open_field against the previous entry's own open_field
        # when it has one (entries since the fast-path PR); the very first
        # comparison fell back to engine_pipelined and stays frozen in the
        # trajectory.
        prev = prev_results.get(
            "open_field", prev_results.get("engine_pipelined", {})
        )
        prev_rate = prev.get("steps_per_sec")
        if prev_rate:
            entry["speedups"]["open_field_pipelined_vs_prev_entry"] = round(
                results["open_field"]["steps_per_sec"] / prev_rate, 3
            )
    runs.append(entry)
    with open(args.output, "w") as fh:
        json.dump(trajectory, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("speedups:", entry["speedups"])
    print(f"appended run {len(runs)} to {args.output}")
    if args.warn_regression:
        _warn_on_regression(runs)


if __name__ == "__main__":
    main()
