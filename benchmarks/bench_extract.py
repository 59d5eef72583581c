"""Multi-master extraction benchmark — emits BENCH_extract.json.

Measures the end-to-end wall time of a full multi-master ``extract()`` on
a multi-conductor bus case in three schedules at the *same* worker count:

* ``serial_masters``       — the historical master-after-master loop
  (``interleave_masters=False``): one master's convergence tail idles the
  pool while the next master waits.
* ``interleaved_even``     — the cross-master scheduler with an even
  in-flight quota per unconverged master.
* ``interleaved_variance`` — the cross-master scheduler with
  variance-guided allocation (quota reweighted toward the
  least-converged masters when the share vector moves past the
  ``allocation_hysteresis`` threshold).

Both allocation policies are recorded on every run so the trajectory
tracks the gap between them (the default is ``even``; variance-guided
allocation must earn its keep here to be worth switching back on).

All three produce bit-identical capacitance rows (asserted here on every
run); the schedules trade wall time and speculative overshoot only.  The
entry also records the per-master schedule telemetry (dispatched /
discarded batches), the shared-asset cache counters — the structure's
spatial index must be built exactly once per extraction — and the spatial
index's query telemetry (far-field hit rate, candidates pruned).

The entry also records a **worker-scaling** section: the same extraction
on the serial engine and on the shared-memory process backend
(``--process-workers`` workers, default 4), with the executor's dispatch
telemetry — per-dispatch pickle bytes (the steady-state message is
``(manifest, uids)``, a few KB regardless of structure size) and
per-worker asset attach counts (each worker attaches each published
asset block — one index, one table — exactly once).  Process rows are asserted bit-identical to the
serial rows; the walks/sec ratio is recorded honestly — on a single-core
host the process backend *loses* to serial (pure dispatch overhead, no
parallel speedup), and the trajectory says so.

With ``--walks-to-tolerance`` the entry additionally records a
**walks_to_tolerance** section: the same bus extraction driven to a fixed
``Err_cap`` target with antithetic sampling off and on (group 2, depth 1
— the headline configuration), recording walks and wall seconds for each
and the walk-reduction ratio.  Both runs are asserted unsaturated (the
stopping rule, not ``max_walks``, must end them — a saturated comparison
would be meaningless) and a ``::warning::`` annotation is emitted when
the walk reduction drops below 1.2x so CI flags a variance-reduction
regression without failing on noisy runner timing.

Every entry carries a ``host_cpus`` field (the CPUs this process may
actually run on — affinity/cgroup aware), so scaling numbers recorded on
1-CPU hosts (like PR 6's 0.62x ``process_w4``) are self-describing in
the trajectory.

The output file is a *trajectory*: every invocation appends a timestamped
entry (git revision, host info) to the ``runs`` list, so the perf history
is tracked across PRs.

Usage::

    PYTHONPATH=src python benchmarks/bench_extract.py [-o BENCH_extract.json]
        [--walks-to-tolerance]
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

from repro import Box, Conductor, FRWConfig, FRWSolver, Structure

SEED = 9
BATCH = 1024
N_WIRES = 5
N_WORKERS = 4


def build_bus(n_wires: int = N_WIRES) -> Structure:
    """A parallel-wire bus: ``n_wires`` masters over a common enclosure."""
    wires = [
        Conductor.single(
            f"w{i}", Box.from_bounds(2.0 * i, 2.0 * i + 1.0, 0, 8, 0, 1)
        )
        for i in range(n_wires)
    ]
    hi = 2.0 * n_wires + 3.0
    return Structure(
        wires, enclosure=Box.from_bounds(-4, hi, -4, 12, -4, 5)
    )


def _config(**overrides) -> FRWConfig:
    return FRWConfig.frw_r(
        seed=SEED,
        n_threads=4,
        batch_size=BATCH,
        min_walks=2 * BATCH,
        max_walks=8 * BATCH,
        tolerance=1.5e-2,
        executor="thread",
        n_workers=N_WORKERS,
        **overrides,
    )


def run_schedule(structure: Structure, name: str, cfg: FRWConfig, repeats: int = 3):
    """Best-of-N wall time for one schedule; returns (entry, result)."""
    best = float("inf")
    result = None
    solver_stats = None
    for _ in range(repeats):
        with FRWSolver(structure, cfg) as solver:
            t0 = time.perf_counter()
            res = solver.extract()
            secs = time.perf_counter() - t0
            if secs < best:
                best, result = secs, res
                solver_stats = solver.assets.stats()
    sched = result.matrix.meta["schedule"]
    entry = {
        "seconds": round(best, 6),
        "walks": result.total_walks,
        "steps": result.total_steps,
        "walks_per_sec": round(result.total_walks / best, 1),
        "dispatched_batches": sched["dispatched_batches"],
        "discarded_batches": sched["discarded_batches"],
        "asset_cache": solver_stats,
        "query_stats": sched.get("query_stats"),
    }
    print(
        f"{name:22s} {best * 1e3:9.1f} ms   "
        f"{entry['walks_per_sec']:>10.0f} walks/s   "
        f"dispatched {entry['dispatched_batches']:>3d}   "
        f"discarded {entry['discarded_batches']:>3d}"
    )
    return entry, result


def run_worker_scaling(structure: Structure, process_workers: int):
    """Serial vs shared-memory process backend at the same extraction.

    Returns the scaling entry; asserts the process rows are byte-equal to
    the serial rows (the shared-context plane must be bit-invisible).
    """
    entries = {}
    serial_cfg = _config().with_(executor="serial")
    with FRWSolver(structure, serial_cfg) as solver:
        t0 = time.perf_counter()
        serial_res = solver.extract()
        serial_secs = time.perf_counter() - t0
    entries["serial"] = {
        "seconds": round(serial_secs, 6),
        "walks": serial_res.total_walks,
        "walks_per_sec": round(serial_res.total_walks / serial_secs, 1),
    }
    print(
        f"{'scaling serial':22s} {serial_secs * 1e3:9.1f} ms   "
        f"{entries['serial']['walks_per_sec']:>10.0f} walks/s"
    )

    proc_cfg = _config().with_(
        executor="process", n_workers=process_workers
    )
    with FRWSolver(structure, proc_cfg) as solver:
        t0 = time.perf_counter()
        proc_res = solver.extract()
        proc_secs = time.perf_counter() - t0
        executor = solver.walk_executor()
        dispatch = executor.dispatch_stats()
        workers = executor.worker_stats()
    key = f"process_w{process_workers}"
    entries[key] = {
        "seconds": round(proc_secs, 6),
        "walks": proc_res.total_walks,
        "walks_per_sec": round(proc_res.total_walks / proc_secs, 1),
        "dispatch": dispatch,
        "workers": workers,
    }
    print(
        f"{'scaling ' + key:22s} {proc_secs * 1e3:9.1f} ms   "
        f"{entries[key]['walks_per_sec']:>10.0f} walks/s   "
        f"pickle/dispatch {dispatch['pickle_bytes_per_dispatch']:>7.0f} B   "
        f"attaches {workers.get('total_attaches', 0)}"
    )

    assert np.array_equal(
        proc_res.raw_matrix.values, serial_res.raw_matrix.values
    ), "process rows differ from serial"
    entries["process_vs_serial"] = round(
        entries[key]["walks_per_sec"] / entries["serial"]["walks_per_sec"], 3
    )
    return entries


#: walks-to-tolerance section parameters: the target must be *reachable*
#: well inside the walk cap, otherwise both runs saturate at max_walks and
#: the comparison measures nothing.
TOL_TARGET = 3e-2
TOL_MAX_WALKS = 262144
TOL_BATCH = 512


def run_walks_to_tolerance(structure: Structure) -> dict:
    """Walks and wall time to a fixed ``Err_cap``, antithetic off vs on.

    Runs serially (walk counts are executor-invariant, and serial timing
    is the least noisy on shared runners).  Asserts neither run saturated
    ``max_walks``; emits a ``::warning::`` annotation if the walk
    reduction falls below 1.2x.
    """
    entries = {}
    for name, overrides in [
        ("antithetic_off", {}),
        ("antithetic_on", {"antithetic": True}),
    ]:
        cfg = _config(**overrides).with_(
            batch_size=TOL_BATCH,
            min_walks=2 * TOL_BATCH,
            max_walks=TOL_MAX_WALKS,
            tolerance=TOL_TARGET,
            executor="serial",
        )
        with FRWSolver(structure, cfg) as solver:
            t0 = time.perf_counter()
            res = solver.extract()
            secs = time.perf_counter() - t0
        assert res.converged, (
            f"{name} saturated max_walks={TOL_MAX_WALKS} before reaching "
            f"Err_cap={TOL_TARGET}; raise the cap or loosen the target"
        )
        entry = {
            "walks": res.total_walks,
            "seconds": round(secs, 6),
            "err_cap": round(
                max(r.self_relative_error for r in res.rows), 6
            ),
            "converged": res.converged,
        }
        if overrides:
            entry["group"] = cfg.antithetic_group
            entry["depth"] = cfg.antithetic_depth
        entries[name] = entry
        print(
            f"{'tolerance ' + name:22s} {secs * 1e3:9.1f} ms   "
            f"{res.total_walks:>8d} walks to Err_cap {TOL_TARGET:g}"
        )

    off, on = entries["antithetic_off"], entries["antithetic_on"]
    entries["tolerance"] = TOL_TARGET
    entries["walk_reduction"] = round(off["walks"] / on["walks"], 3)
    entries["time_reduction"] = round(off["seconds"] / on["seconds"], 3)
    print(
        f"walks-to-tolerance reduction: {entries['walk_reduction']}x walks, "
        f"{entries['time_reduction']}x wall time"
    )
    if entries["walk_reduction"] < 1.2:
        print(
            "::warning::antithetic walk reduction "
            f"{entries['walk_reduction']}x is below the 1.2x floor "
            f"({off['walks']} -> {on['walks']} walks at "
            f"Err_cap {TOL_TARGET:g})"
        )
    return entries


def _host_cpus() -> int:
    """CPUs this process may run on (affinity/cgroup aware)."""
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


def _load_trajectory(path: str) -> dict:
    header = {
        "benchmark": "extract_cross_master",
        "n_wires": N_WIRES,
        "batch_size": BATCH,
        "n_workers": N_WORKERS,
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
        payload.setdefault("benchmark", "extract_cross_master")
        return payload
    return header


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--output", default="BENCH_extract.json")
    parser.add_argument("--wires", type=int, default=N_WIRES)
    parser.add_argument(
        "--process-workers",
        type=int,
        default=N_WORKERS,
        help="worker count for the worker-scaling process-backend run",
    )
    parser.add_argument(
        "--walks-to-tolerance",
        action="store_true",
        help="also record the walks-to-tolerance section "
        "(antithetic off vs on at a fixed Err_cap target)",
    )
    args = parser.parse_args()

    structure = build_bus(args.wires)
    results = {}
    matrices = {}
    for name, cfg in [
        ("serial_masters", _config(interleave_masters=False)),
        ("interleaved_even", _config(allocation="even")),
        ("interleaved_variance", _config(allocation="variance")),
    ]:
        entry, res = run_schedule(structure, name, cfg)
        results[name] = entry
        matrices[name] = res.raw_matrix.values
        # The structure index must be built exactly once per extraction.
        assert entry["asset_cache"]["index_builds"] == 1, entry["asset_cache"]

    base = matrices["serial_masters"]
    for name, values in matrices.items():
        assert np.array_equal(values, base), f"{name} rows differ from serial"
    print("all schedules bit-identical to serial-masters rows")

    scaling = run_worker_scaling(structure, args.process_workers)

    tolerance_section = None
    if args.walks_to_tolerance:
        tolerance_section = run_walks_to_tolerance(structure)

    speedups = {
        "interleaved_vs_serial_masters": round(
            results["serial_masters"]["seconds"]
            / results["interleaved_variance"]["seconds"],
            3,
        ),
        "variance_vs_even_allocation": round(
            results["interleaved_even"]["seconds"]
            / results["interleaved_variance"]["seconds"],
            3,
        ),
    }
    print("speedups:", speedups)

    trajectory = _load_trajectory(args.output)
    entry = {
        # det: allow(DET002) intentional wall-clock: benchmark trajectory
        # entries are timestamped metadata, never an input to computation.
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_rev": _git_rev(),
        "host": {
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
        },
        "host_cpus": _host_cpus(),
        "results": results,
        "worker_scaling": scaling,
        "speedups": speedups,
        "bit_identical": True,
    }
    if tolerance_section is not None:
        entry["walks_to_tolerance"] = tolerance_section
    trajectory["runs"].append(entry)
    with open(args.output, "w") as fh:
        json.dump(trajectory, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"appended run {len(trajectory['runs'])} to {args.output}")


if __name__ == "__main__":
    main()
