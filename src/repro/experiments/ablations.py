"""Ablation studies for the design choices behind FRW-RR.

Not a paper table, but the knobs Sec. III-C argues about deserve numbers:

* ``batch_size`` — Alg. 2 needs ``B >> T`` for parallel utilisation; the
  sweep shows scheduler efficiency vs B at fixed T.
* ``table_resolution`` — the cube-kernel discretisation is the engine's
  only systematic bias; the sweep shows the estimate stabilising as the
  table refines.
* ``absorption_fraction`` — the epsilon-shell absorption bias/cost
  trade-off: looser shells finish in fewer steps but perturb capacitances.
* ``interface_snap_fraction`` — when walks snap onto dielectric interfaces:
  affects step counts (cost), not correctness.

Each sweep returns an :class:`~repro.experiments.common.ExperimentRecord`.
"""

from __future__ import annotations

import numpy as np

from ..analysis.tables import format_table
from ..frw import (
    build_context,
    jittered_durations,
    make_streams,
    run_walks,
    simulate_dynamic_queue,
)
from ..structures import build_case
from .common import ExperimentRecord, Stopwatch, environment_info, paper_config


def _fixed_budget_row(structure, master, cfg, n_walks):
    """One fixed-budget extraction: estimate + mean steps."""
    ctx = build_context(structure, master, cfg)
    streams = make_streams(cfg, master)
    res = run_walks(ctx, streams, np.arange(n_walks, dtype=np.uint64))
    m = res.omega.shape[0]
    c_self = float(res.omega[res.dest == master].sum() / m)
    return c_self, float(res.steps.mean()), res


def batch_size_sweep(
    case: int = 1,
    threads: int = 16,
    batch_sizes: tuple[int, ...] = (100, 400, 1600, 6400, 25_600),
    seed: int = 13,
) -> ExperimentRecord:
    """Scheduler efficiency vs batch size at fixed T (the B >> T rule)."""
    structure = build_case(case, "fast")
    rows = []
    with Stopwatch() as sw:
        cfg = paper_config("frw-r", seed=seed)
        ctx = build_context(structure, 0, cfg)
        streams = make_streams(cfg, 0)
        rng = np.random.default_rng(0)
        for b in batch_sizes:
            res = run_walks(ctx, streams, np.arange(b, dtype=np.uint64))
            durations = jittered_durations(res.steps, rng)
            sched = simulate_dynamic_queue(durations, threads)
            rows.append(
                [b, threads, f"{b / threads:.0f}", f"{sched.efficiency:.3f}"]
            )
    return ExperimentRecord(
        experiment=f"ablation_batch_size_case{case}",
        params={"case": case, "threads": threads, "batch_sizes": list(batch_sizes)},
        headers=["B", "T", "B/T", "schedule efficiency"],
        rows=rows,
        elapsed_seconds=sw.elapsed,
        environment=environment_info(),
        notes=["Sec. III-C: choose B >> T so the dynamic queue stays busy."],
    )


def table_resolution_sweep(
    case: int = 1,
    resolutions: tuple[int, ...] = (4, 8, 16, 32, 64),
    n_walks: int = 60_000,
    seed: int = 13,
) -> ExperimentRecord:
    """Self-capacitance vs transition-table resolution (discretisation bias)."""
    structure = build_case(case, "fast")
    rows = []
    estimates = []
    with Stopwatch() as sw:
        for nf in resolutions:
            cfg = paper_config("frw-r", seed=seed, table_resolution=nf)
            c_self, mean_steps, _ = _fixed_budget_row(structure, 0, cfg, n_walks)
            estimates.append(c_self)
            rows.append([nf, f"{c_self:.5f}", f"{mean_steps:.2f}"])
    drift = abs(estimates[-1] - estimates[-2]) / abs(estimates[-1])
    return ExperimentRecord(
        experiment=f"ablation_table_resolution_case{case}",
        params={"case": case, "resolutions": list(resolutions), "n_walks": n_walks},
        headers=["nf (cells/edge)", "C11 (fF)", "mean steps"],
        rows=rows,
        elapsed_seconds=sw.elapsed,
        environment=environment_info(),
        notes=[f"last refinement moved C11 by {drift * 100:.3f}% (same seed)"],
    )


def absorption_sweep(
    case: int = 1,
    fractions: tuple[float, ...] = (2e-1, 5e-2, 1e-2, 2e-3, 4e-4),
    n_walks: int = 60_000,
    seed: int = 13,
) -> ExperimentRecord:
    """Capacitance and walk length vs absorption-shell tolerance."""
    structure = build_case(case, "fast")
    rows = []
    with Stopwatch() as sw:
        for frac in fractions:
            cfg = paper_config("frw-r", seed=seed, absorption_fraction=frac)
            c_self, mean_steps, _ = _fixed_budget_row(structure, 0, cfg, n_walks)
            rows.append([f"{frac:g}", f"{c_self:.5f}", f"{mean_steps:.2f}"])
    return ExperimentRecord(
        experiment=f"ablation_absorption_case{case}",
        params={"case": case, "fractions": list(fractions), "n_walks": n_walks},
        headers=["absorb_tol / delta", "C11 (fF)", "mean steps"],
        rows=rows,
        elapsed_seconds=sw.elapsed,
        environment=environment_info(),
        notes=["looser shells absorb early (shorter walks, biased up)"],
    )


def interface_snap_sweep(
    case: int = 2,
    fractions: tuple[float, ...] = (0.02, 0.05, 0.1, 0.2),
    n_walks: int = 30_000,
    seed: int = 13,
) -> ExperimentRecord:
    """Step count vs the interface-snap threshold on a layered case."""
    structure = build_case(case, "fast")
    rows = []
    with Stopwatch() as sw:
        for frac in fractions:
            cfg = paper_config("frw-r", seed=seed, interface_snap_fraction=frac)
            c_self, mean_steps, res = _fixed_budget_row(structure, 0, cfg, n_walks)
            rows.append(
                [f"{frac:g}", f"{c_self:.5f}", f"{mean_steps:.2f}", res.truncated]
            )
    return ExperimentRecord(
        experiment=f"ablation_interface_snap_case{case}",
        params={"case": case, "fractions": list(fractions), "n_walks": n_walks},
        headers=["snap fraction", "C11 (fF)", "mean steps", "truncated"],
        rows=rows,
        elapsed_seconds=sw.elapsed,
        environment=environment_info(),
        notes=[
            "earlier snapping takes bigger two-medium sphere steps: fewer "
            "cube-shrink iterations near interfaces at identical estimates",
        ],
    )


def main() -> None:
    """Run and print all ablation sweeps."""
    for record in (
        batch_size_sweep(),
        table_resolution_sweep(),
        absorption_sweep(),
        interface_snap_sweep(),
    ):
        print()
        print(format_table(record.headers, record.rows, title=record.experiment))
        for note in record.notes:
            print(f"note: {note}")
        record.save()


if __name__ == "__main__":
    main()
