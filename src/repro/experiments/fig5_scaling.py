"""Fig. 5 — total runtime vs the number of threads.

The paper measures wall time on a 16+ core server.  On this reproduction's
host parallel wall time is *modeled*: the virtual-thread scheduler records
per-thread work and per-batch makespans for any T (this is exact — it is
the same dynamic-queue schedule a real machine would execute), and the
measured single-core throughput of the first (T = 1) run converts work
units to seconds:

    modeled_time(T) = sum_batches makespan(T) * seconds_per_work_unit(T=1).

Speedup is the schedule's own ``work(T) / span(T)`` and efficiency is
speedup / T, so host drift between runs never enters them and efficiency
is at most 1 by construction; each run's own wall time is its own column.

This preserves everything Fig. 5 demonstrates — near-linear scaling of the
batch scheme, the ~2x advantage of the counter-based RNG over per-walk
Mersenne-Twister reseeding (which shows up directly in the measured
single-core throughput), and the negligible cost of regularization — while
being honest about the single-core host.  A dynamic-vs-static scheduling
ablation is included because load balancing is what makes the curve linear.
"""

from __future__ import annotations

import numpy as np

from ..analysis.tables import format_seconds, format_table
from ..frw import FRWSolver, jittered_durations, simulate_dynamic_queue, simulate_static_blocks
from ..structures import build_case, case_masters
from .common import ExperimentRecord, Stopwatch, environment_info, paper_config

VARIANTS = ("alg1", "frw-nc", "frw-r", "frw-rr")
DEFAULT_THREADS = (1, 2, 4, 8, 16, 32)


def run(
    case: int = 1,
    profile: str = "fast",
    variants: tuple[str, ...] = VARIANTS,
    thread_counts: tuple[int, ...] = DEFAULT_THREADS,
    seed: int = 7,
    tolerance: float = 2e-2,
    batch_size: int = 4000,
    masters: list[int] | None = None,
) -> ExperimentRecord:
    """Regenerate the Fig. 5 runtime-vs-threads series."""
    structure = build_case(case, profile)
    all_masters = case_masters(structure)
    masters = masters if masters is not None else all_masters[: min(2, len(all_masters))]
    rows = []
    notes = []
    with Stopwatch() as sw:
        for variant in variants:
            secs_per_unit = None
            for t in thread_counts:
                cfg = paper_config(
                    variant,
                    seed=seed,
                    n_threads=t,
                    tolerance=tolerance,
                    batch_size=batch_size,
                    min_walks=batch_size,
                    machine_seed=t,
                )
                result = FRWSolver(structure, cfg).extract(masters)
                total_work = sum(float(s.thread_work.sum()) for s in result.stats)
                span = sum(float(s.makespan) for s in result.stats)
                if secs_per_unit is None:
                    secs_per_unit = result.wall_time / total_work if total_work else 0.0
                modeled = span * secs_per_unit
                speedup = total_work / span if span else float("nan")
                rows.append(
                    [
                        variant,
                        t,
                        result.total_walks,
                        format_seconds(result.wall_time),
                        format_seconds(modeled),
                        f"{speedup:.2f}",
                        f"{speedup / t:.2f}",
                    ]
                )
        notes.append(_load_balance_note(structure, masters[0], seed, batch_size))
    record = ExperimentRecord(
        experiment=f"fig5_case{case}_{profile}",
        params={
            "case": case,
            "profile": profile,
            "variants": list(variants),
            "thread_counts": list(thread_counts),
            "seed": seed,
            "tolerance": tolerance,
            "batch_size": batch_size,
        },
        headers=[
            "Variant",
            "T",
            "walks",
            "wall(1-core)",
            "modeled parallel",
            "speedup",
            "efficiency",
        ],
        rows=rows,
        notes=notes,
        elapsed_seconds=sw.elapsed,
        environment=environment_info(),
    )
    return record


def _load_balance_note(structure, master, seed, batch_size, threads=16) -> str:
    """Quantify the dynamic-queue advantage over static blocks (Sec. III-C)."""
    from ..frw import build_context, make_streams, run_walks

    cfg = paper_config("frw-r", seed=seed, batch_size=batch_size)
    ctx = build_context(structure, master, cfg)
    res = run_walks(ctx, make_streams(cfg, master), np.arange(batch_size, dtype=np.uint64))
    durations = jittered_durations(res.steps, np.random.default_rng(0))
    dyn = simulate_dynamic_queue(durations, threads)
    stat = simulate_static_blocks(durations, threads)
    return (
        f"load balancing at T={threads}: dynamic-queue efficiency "
        f"{dyn.efficiency:.3f} vs static-block {stat.efficiency:.3f} "
        f"(makespan ratio {stat.makespan / dyn.makespan:.2f}x)"
    )


def main(case: int = 1, profile: str = "fast") -> None:
    """Print the Fig. 5 series."""
    record = run(case=case, profile=profile)
    print(
        format_table(
            record.headers,
            record.rows,
            title=f"FIG. 5 — runtime vs threads (case {case})",
        )
    )
    for note in record.notes:
        print(note)
    record.save()


if __name__ == "__main__":
    main()
