"""The four workloads of the time-to-tolerance benchmark (see README.md).

Every number is measured from outside the package: the functions below
time calls into public entry points (``FRWSolver``, ``make_batch_runner``,
``RowProgress``, ``regularize``, the HTTP service) and read counters the
package already exposes (``result.matrix.meta["schedule"]``,
``PersistentExecutor.dispatch_stats()``, ``SharedAssets.query_stats()``,
``StageTimers``, ``GET /stats``).

A workload run returns an :class:`Outcome`: operations attempted and
failed, the reason for every failure, and every metric it measured.  An
operation is one extraction to tolerance or one service request; it fails
if it raises, does not converge, disagrees with the committed reference,
gives rows that differ bit-wise from another run of the same seed, or
leaves a shared-memory block or child process behind.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from time import perf_counter

import numpy as np

from repro import Box, Conductor, FRWConfig, FRWSolver, Structure
from repro.analysis.capmatrix import CapacitanceMatrix
from repro.frw import RowProgress, StageTimers, make_batch_runner, stream_spec
from repro.geometry import structure_from_dict
from repro.reliability import check_properties, regularize
from repro.service import (
    ServiceClient,
    ServiceError,
    TrafficGenerator,
    canonical_hash,
    canonicalize,
)
from repro.structures import build_case

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

#: End-to-end metrics (reported with ``--trace 0``): name -> unit.
END_TO_END = {
    "latency_ms": "ms",
    "walks_per_op": "count",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Per-layer metrics (reported with ``--trace 1``): name -> unit.  A layer
#: a workload does not exercise reports 0 (README.md, "Layers").
PER_LAYER = {
    "context.build_s": "s",
    "context.index_builds": "count",
    "parallel.register_s": "s",
    "parallel.published_mb": "MB",
    "parallel.dispatches": "count",
    "parallel.pickle_bytes_per_dispatch": "B",
    "parallel.speedup_vs_serial": "x",
    "engine.run_batch_s": "s",
    "engine.steps_per_s": "1/s",
    "engine.steps_per_walk": "count",
    "engine.rng_s": "s",
    "engine.index_fast_s": "s",
    "engine.index_s": "s",
    "engine.sample_s": "s",
    "engine.retire_s": "s",
    "engine.bookkeeping_s": "s",
    "engine.rng_dispatches": "count",
    "index.far_field_rate": "fraction",
    "index.candidates_per_near_point": "count",
    "cross_master.dispatched_batches": "count",
    "cross_master.discarded_batches": "count",
    "cross_master.useful_batch_frac": "fraction",
    "estimator.absorb_s": "s",
    "estimator.batches": "count",
    "reliability.regularize_s": "s",
    "reliability.check_properties_s": "s",
    "service.full_hit_rate": "fraction",
    "service.solves": "count",
    "service.canonicalize_ms": "ms",
    "service.server_p50_ms": "ms",
    "service.p90_ms": "ms",
    "service.cold_p50_ms": "ms",
    "service.warm_p50_ms": "ms",
    "loadgen.late_p90_ms": "ms",
    "loadgen.offered_rps": "1/s",
    "trace.unattributed_frac": "fraction",
    "trace.overhead_frac": "fraction",
}

STAGES = ("rng", "index_fast", "index", "sample", "retire", "bookkeeping")


# ----------------------------------------------------------------------
# Workload specs
# ----------------------------------------------------------------------
def open_field() -> Structure:
    """Three 1x8x1 wires deep inside a large enclosure: most index queries
    land in cells provably farther than the cube cap from every wire."""
    wires = [
        Conductor.single(
            f"w{i}", Box.from_bounds(2.0 * i, 2.0 * i + 1.0, 0, 8, 0, 1)
        )
        for i in range(3)
    ]
    return Structure(wires, enclosure=Box.from_bounds(-20, 25, -20, 28, -20, 21))


@dataclass(frozen=True)
class ExtractionSpec:
    """An extraction workload: a structure driven to ``tolerance``.

    Each run extracts ``subseeds`` FRW seeds derived from ``--seed`` (so
    seed-to-seed spread in walks to tolerance averages down), each from a
    fresh solver, round-robin until the time budget is spent and the first
    seed has run twice.
    """

    name: str
    build: object
    tolerance: float
    subseeds: int
    overrides: dict = field(default_factory=dict)

    def config(self, seed: int, **extra) -> FRWConfig:
        return FRWConfig.frw_rr(
            seed=seed, **{"tolerance": self.tolerance, **self.overrides, **extra}
        )


@dataclass(frozen=True)
class ServiceSpec:
    """The service workload: an open loop of seeded traffic."""

    name: str
    rate: float
    duplicate_rate: float
    interactive_fraction: float
    connections: int
    boots: int
    replay: int


WORKLOADS = {
    "case1_tol": ExtractionSpec(
        "case1_tol", lambda: build_case(1), tolerance=1.2e-2, subseeds=3
    ),
    "open_field_tol": ExtractionSpec(
        "open_field_tol",
        open_field,
        tolerance=2.2e-2,
        subseeds=3,
        overrides={"h_cap_fraction": 0.05, "executor": "serial"},
    ),
    "sram_tol": ExtractionSpec(
        "sram_tol",
        lambda: build_case(5),
        tolerance=7e-2,
        subseeds=2,
        overrides={"executor": "process"},
    ),
    "service_mix": ServiceSpec(
        "service_mix",
        rate=14.0,
        duplicate_rate=0.8,
        interactive_fraction=0.75,
        connections=2,
        boots=3,
        replay=8,
    ),
}


def subseeds(seed: int, count: int) -> list[int]:
    """FRW seeds of one run.  Always >= 1: seed 0 is kept for the
    references, so a run never checks itself against its own samples."""
    return [1 + 16 * seed + i for i in range(count)]


# ----------------------------------------------------------------------
# Outcome bookkeeping and checks
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    def record(self, problems: list[str]) -> None:
        """Count one operation; it failed if it has any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(samples)
    return float(ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1])


def peak_rss_mb() -> float:
    """Max resident set of this process and its reaped children, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def leaked_blocks(pid: int) -> list[str]:
    """Shared-memory context blocks a process published and left behind."""
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return []
    prefix = f"frwctx-{pid}-"
    return sorted(n for n in names if n.startswith(prefix))


def live_children(pid: int) -> list[int]:
    """Child processes of ``pid`` still alive, except multiprocessing's
    resource tracker (one per interpreter, by design alive until exit)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rpartition(")")[2].split()[1])
            if ppid != pid:
                continue
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmdline = fh.read()
        except (OSError, ValueError, IndexError):
            continue  # exited while we looked
        if b"multiprocessing.resource_tracker" not in cmdline:
            children.append(int(entry))
    return sorted(children)


def hygiene() -> list[str]:
    """Blocks and child processes this process has left behind."""
    pid = os.getpid()
    problems = [f"leaked shm block {name}" for name in leaked_blocks(pid)]
    problems += [f"live child process {c}" for c in live_children(pid)]
    return problems


#: Fewest absorbed walks for which an entry is checked against the reference.
MIN_HITS = 30


def load_reference(name: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{name}.json")) as fh:
        return json.load(fh)


def reference_misses(raw: CapacitanceMatrix, reference: dict) -> list[str]:
    """Entries that disagree statistically with the reference.

    Every raw entry with ``|C_ref| >= 1%`` of its row's reference diagonal
    must satisfy ``|C - C_ref| <= 5 sqrt(sigma^2 + sigma_ref^2)``.  Entries
    absorbed fewer than ``MIN_HITS`` times are skipped: their Eq. (9)
    variance comes from too few samples to serve as an error bar.
    """
    ref_values = np.asarray(reference["values"], dtype=np.float64)
    ref_sigma2 = np.asarray(reference["sigma2"], dtype=np.float64)
    if ref_values.shape != raw.values.shape or reference["masters"] != list(
        raw.masters
    ):
        return [f"reference shape {ref_values.shape} != {raw.values.shape}"]
    rows = np.arange(len(raw.masters))
    diag = np.abs(ref_values[rows, raw.masters])[:, None]
    checked = (np.abs(ref_values) >= 0.01 * diag) & (raw.hits >= MIN_HITS)
    bound = 5.0 * np.sqrt(raw.sigma2 + ref_sigma2)
    miss = checked & ~(np.abs(raw.values - ref_values) <= bound)
    return [
        f"C[{raw.masters[i]},{j}]={raw.values[i, j]:.6g} vs reference "
        f"{ref_values[i, j]:.6g} (bound {bound[i, j]:.3g})"
        for i, j in zip(*np.nonzero(miss))
    ]


def digest(raw: CapacitanceMatrix, matrix: CapacitanceMatrix) -> str:
    """Bit-exact fingerprint of the raw rows and the regularized matrix."""
    h = hashlib.sha256()
    for array in (raw.values, raw.sigma2, raw.hits, matrix.values):
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


# ----------------------------------------------------------------------
# Extraction workloads
# ----------------------------------------------------------------------
@dataclass
class Extraction:
    """One measured extraction and what the checks need from it."""

    raw: CapacitanceMatrix
    matrix: CapacitanceMatrix
    converged: bool
    walks: int
    steps: int
    wall_s: float
    layers: dict


def timed_extraction(structure: Structure, cfg: FRWConfig) -> Extraction:
    """Set up a solver as a user would, then time ``extract()`` alone.

    Set-up covers the solver, every master's context, the executor, and
    registering every context with it (``register`` dedups, so
    ``extract()`` does not publish again).
    """
    masters = list(range(len(structure.conductors)))
    t0 = perf_counter()
    with FRWSolver(structure, cfg) as solver:
        t1 = perf_counter()
        contexts = [solver.context(m) for m in masters]
        t2 = perf_counter()
        executor = solver.walk_executor()
        if executor is not None:
            for m, ctx in zip(masters, contexts):
                executor.register(ctx, stream_spec(cfg, m))
        t3 = perf_counter()
        result = solver.extract(masters)
        t4 = perf_counter()
        dispatch = executor.dispatch_stats() if executor is not None else {}
    schedule = result.matrix.meta["schedule"]
    dispatched = schedule["dispatched_batches"]
    layers = {
        "setup_s": t3 - t0,
        "context.build_s": t2 - t1,
        "context.index_builds": schedule["asset_cache"]["index_builds"],
        "parallel.register_s": t3 - t2,
        "parallel.published_mb": dispatch.get("published_nbytes", 0) / 1e6,
        "parallel.dispatches": dispatch.get("dispatches", 0),
        "parallel.pickle_bytes_per_dispatch": dispatch.get(
            "pickle_bytes_per_dispatch", 0.0
        ),
        "cross_master.dispatched_batches": dispatched,
        "cross_master.discarded_batches": schedule["discarded_batches"],
        "cross_master.useful_batch_frac": (
            (dispatched - schedule["discarded_batches"]) / dispatched
            if dispatched
            else 0.0
        ),
    }
    return Extraction(
        raw=result.raw_matrix,
        matrix=result.matrix,
        converged=result.converged,
        walks=result.total_walks,
        steps=result.total_steps,
        wall_s=t4 - t3,
        layers=layers,
    )


def traced_extraction(structure: Structure, cfg: FRWConfig) -> Extraction:
    """The same extraction rebuilt serially from public pieces, with every
    layer boundary timed.

    Per master: ``solver.context(m)``, ``make_batch_runner(..., timers=)``,
    then ``runner.run_batch(u)`` and ``RowProgress.absorb`` until the
    stopping rule fires, and ``finalize``; then Alg. 3 and the property
    check.  Rows are bit-identical to any executor's ``extract()``.
    """
    cfg = cfg.with_(executor="serial")
    masters = list(range(len(structure.conductors)))
    timers = StageTimers()
    run_batch_s = absorb_s = 0.0
    batches = 0
    rows, stats = [], []
    with FRWSolver(structure, cfg) as solver:
        t0 = perf_counter()
        contexts = [solver.context(m) for m in masters]
        t1 = perf_counter()
        for ctx in contexts:
            runner, _owned = make_batch_runner(ctx, cfg, None, timers=timers)
            progress = RowProgress(ctx, cfg)
            u, done = 0, False
            while not done:
                ta = perf_counter()
                results = runner.run_batch(u)
                tb = perf_counter()
                done = progress.absorb(results)
                tc = perf_counter()
                run_batch_s += tb - ta
                absorb_s += tc - tb
                batches += 1
                u += 1
            runner.close()
            row, stat = progress.finalize()
            rows.append(row)
            stats.append(stat)
        raw = CapacitanceMatrix(
            values=np.stack([r.values for r in rows]),
            masters=masters,
            names=structure.names,
            sigma2=np.stack([r.sigma2 for r in rows]),
            hits=np.stack([r.hits for r in rows]),
        )
        t2 = perf_counter()
        matrix = regularize(raw) if cfg.uses_regularization else raw
        t3 = perf_counter()
        check_properties(matrix)
        t4 = perf_counter()
        query = solver.assets.query_stats() or {}
        index_builds = solver.assets.stats()["index_builds"]
    walks = sum(s.walks for s in stats)
    steps = sum(s.total_steps for s in stats)
    wall = t4 - t1
    attributed = run_batch_s + absorb_s + (t3 - t2) + (t4 - t3)
    near = query.get("near_points", 0)
    layers = {
        "context.build_s": t1 - t0,
        "context.index_builds": index_builds,
        "engine.run_batch_s": run_batch_s,
        "engine.steps_per_s": steps / run_batch_s if run_batch_s else 0.0,
        "engine.steps_per_walk": steps / walks if walks else 0.0,
        "engine.rng_dispatches": timers.counts.get("rng", 0),
        "index.far_field_rate": query.get("far_field_rate", 0.0),
        "index.candidates_per_near_point": (
            query.get("candidates_visited", 0) / near if near else 0.0
        ),
        "estimator.absorb_s": absorb_s,
        "estimator.batches": batches,
        "reliability.regularize_s": t3 - t2,
        "reliability.check_properties_s": t4 - t3,
        "trace.unattributed_frac": 1.0 - attributed / wall,
    }
    for stage in STAGES:
        layers[f"engine.{stage}_s"] = getattr(timers, stage)
    return Extraction(
        raw=raw,
        matrix=matrix,
        converged=all(s.converged for s in stats),
        walks=walks,
        steps=steps,
        wall_s=wall,
        layers=layers,
    )


def run_extraction(
    spec: ExtractionSpec, seed: int, seconds: float, trace: bool
) -> Outcome:
    """Run one extraction workload for ``seconds`` of extractions.

    Extractions cycle through the run's FRW seeds until the time is spent
    and the first seed has run twice.  The first extraction of a seed is
    its bit-identity reference; with ``trace`` the very first extraction is
    the traced serial run, and only the ones after it are timed.
    """
    structure = spec.build()
    reference = load_reference(spec.name)
    seeds = subseeds(seed, spec.subseeds)
    out = Outcome()
    fingerprints: dict[int, str] = {}
    timed: dict[int, list[Extraction]] = {s: [] for s in seeds}
    first = None
    deadline = perf_counter() + seconds
    i = 0
    while i <= len(seeds) or perf_counter() < deadline:
        frw_seed = seeds[i % len(seeds)]
        traced = trace and i == 0
        i += 1
        try:
            extract = traced_extraction if traced else timed_extraction
            ex = extract(structure, spec.config(frw_seed))
        except Exception:  # one failed operation must not end the run
            out.record([f"seed {frw_seed}: {traceback.format_exc()}"])
            continue
        problems = hygiene()
        if not ex.converged:
            problems.append(f"seed {frw_seed}: did not converge")
        problems += reference_misses(ex.raw, reference)
        fp = digest(ex.raw, ex.matrix)
        if fingerprints.setdefault(frw_seed, fp) != fp:
            problems.append(f"seed {frw_seed}: rows differ from its first run")
        out.record(problems)
        print(
            f"{spec.name} seed {frw_seed}: {ex.wall_s:.4f} s, {ex.walks} walks, "
            f"{ex.steps} steps{' (traced)' if traced else ''}",
            file=sys.stderr,
        )
        if traced:
            first = ex
        else:
            timed[frw_seed].append(ex)

    if not all(timed[s] for s in seeds) or (trace and first is None):
        return out  # failures already recorded; no metrics without samples
    all_timed = [ex for s in seeds for ex in timed[s]]
    if not trace:
        out.metrics = {
            "latency_ms": 1e3 * statistics.median(ex.wall_s for ex in all_timed),
            "walks_per_op": statistics.fmean(timed[s][0].walks for s in seeds),
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": statistics.median(ex.layers["setup_s"] for ex in all_timed),
        }
        return out
    layers = dict(first.layers)
    for name in (
        "context.build_s",
        "parallel.register_s",
        "parallel.published_mb",
        "parallel.dispatches",
        "parallel.pickle_bytes_per_dispatch",
        "cross_master.dispatched_batches",
        "cross_master.discarded_batches",
        "cross_master.useful_batch_frac",
    ):
        layers[name] = statistics.median(ex.layers[name] for ex in all_timed)
    timed_first = statistics.median(ex.wall_s for ex in timed[seeds[0]])
    layers["parallel.speedup_vs_serial"] = first.wall_s / timed_first
    if spec.config(seeds[0]).executor == "serial":
        # Same executor on both sides, so the difference is the tracing.
        layers["trace.overhead_frac"] = first.wall_s / timed_first - 1.0
    out.metrics = layers
    return out


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------
class Server:
    """``python -m repro serve --port 0`` as a child process."""

    def __init__(self, src: str, port_file: str):
        self.port_file = port_file
        env = dict(os.environ)
        env["PYTHONPATH"] = src
        t0 = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--port-file", self.port_file],
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        self.port = self._wait_for_port(deadline=t0 + 60.0)
        self.boot_s = perf_counter() - t0
        self.client = ServiceClient(port=self.port, timeout=15.0)
        self.rss_mb = 0.0

    def _wait_for_port(self, deadline: float) -> int:
        while perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}")
            try:
                with open(self.port_file) as fh:
                    text = fh.read()
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):
                return int(text)
            time.sleep(0.002)
        self.kill()
        raise RuntimeError("server did not write its port file within 60 s")

    def stop(self) -> list[str]:
        """POST /shutdown and reap the process; returns hygiene problems."""
        pid = self.proc.pid
        problems = []
        try:
            self.client.shutdown()
        except (OSError, ServiceError) as exc:
            problems.append(f"shutdown request failed: {exc}")
        deadline = perf_counter() + 30.0
        while perf_counter() < deadline:
            reaped, status, usage = os.wait4(pid, os.WNOHANG)
            if reaped:
                # Reaped here for its rusage, so Popen must not wait again.
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                self.rss_mb = usage.ru_maxrss / 1024.0
                break
            time.sleep(0.01)
        else:
            self.kill()
            problems.append("server did not exit within 30 s of /shutdown")
        if self.proc.returncode != 0:
            problems.append(f"server exited with code {self.proc.returncode}")
        problems += [f"server left shm block {b}" for b in leaked_blocks(pid)]
        return problems

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()


def open_loop(client: ServiceClient, payloads, rate: float, connections: int) -> list:
    """Send ``payloads`` at ``rate`` per second over ``connections`` client
    threads.  Each record is ``(due, sent, done, response_or_error)``;
    latency counts from the due time, so a stall delays later requests.
    Requests still unsent a minute after the schedule ends are failed."""
    records: list = [None] * len(payloads)
    lock = threading.Lock()
    cursor = [0]
    start = perf_counter() + 0.05
    give_up = start + len(payloads) / rate + 60.0

    def sender() -> None:
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(payloads):
                return
            due = start + i / rate
            delay = due - perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = perf_counter()
            payload = payloads[i]
            if sent > give_up:
                records[i] = (due, sent, sent, TimeoutError("never sent"))
                continue
            try:
                reply = client.extract(
                    payload["structure"], payload["config"],
                    priority=payload["priority"],
                )
            except Exception as exc:  # recorded as a failed request
                reply = exc
            records[i] = (due, sent, perf_counter(), reply)

    threads = [threading.Thread(target=sender) for _ in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return records


def canonicalize_ms(payload: dict) -> float:
    t0 = perf_counter()
    form = canonicalize(structure_from_dict(payload["structure"]))
    canonical_hash(form, FRWConfig(**payload["config"]))
    return (perf_counter() - t0) * 1e3


def run_service(
    spec: ServiceSpec, seed: int, seconds: float, trace: bool, src: str, workdir: str
) -> Outcome:
    """Boot the server ``boots`` times (set-up time), then drive the last
    one with an open loop of ``rate * seconds`` requests."""
    out = Outcome()
    generator = TrafficGenerator(
        seed=seed + 8,
        duplicate_rate=spec.duplicate_rate,
        interactive_fraction=spec.interactive_fraction,
    )
    requests = generator.requests(max(20, round(spec.rate * seconds)))
    payloads = [payload for payload, _meta in requests]
    boots = []
    server = None
    try:
        for b in range(spec.boots):
            server = Server(src, os.path.join(workdir, f"port-{b}"))
            boots.append(server.boot_s)
            if b < spec.boots - 1:
                out.record(server.stop())
        records = open_loop(server.client, payloads, spec.rate, spec.connections)
        stats = server.client.stats()
        stopped = server.stop()
    finally:
        if server is not None:
            server.kill()

    latency, cold, warm, late = [], [], [], []
    walks = 0
    diagonals: dict[int, list[float]] = {}
    for (_payload, meta), (due, sent, done, reply) in zip(requests, records):
        late.append((sent - due) * 1e3)
        if isinstance(reply, Exception):
            out.record([f"request failed: {reply}"])
            continue
        ms = (done - due) * 1e3
        latency.append(ms)
        (warm if reply["cached"] else cold).append(ms)
        if not reply["cached"]:
            walks += sum(row["walks"] for row in reply["rows"])
        diagonal = sorted(row["values"][row["master"]] for row in reply["rows"])
        original = diagonals.setdefault(meta["unique_index"], diagonal)
        out.record(
            [] if diagonal == original
            else [f"duplicate of net {meta['unique_index']} changed its diagonal"]
        )
    out.record(stopped + hygiene())
    if not (latency and cold and warm):
        return out

    if not trace:
        out.metrics = {
            "latency_ms": statistics.median(latency),
            # Walks per request that ran the solver; hits run none.
            "walks_per_op": walks / len(cold),
            "peak_rss_mb": server.rss_mb,
            "setup_s": statistics.median(boots),
        }
        return out
    sends = [r[1] for r in records]
    metrics = {
        "service.full_hit_rate": stats["full_hits"] / len(records),
        "service.solves": stats["solves"],
        "service.canonicalize_ms": statistics.median(
            canonicalize_ms(p) for p in payloads
        ),
        "service.server_p50_ms": stats["latency"]["interactive"]["p50_ms"],
        "service.p90_ms": percentile(latency, 90),
        "service.cold_p50_ms": statistics.median(cold),
        "service.warm_p50_ms": statistics.median(warm),
        "loadgen.late_p90_ms": percentile(late, 90),
        "loadgen.offered_rps": (len(sends) - 1) / (max(sends) - min(sends)),
    }
    metrics.update(replay_layers(requests, spec.replay))
    out.metrics = metrics
    return out


#: Traced-run metrics that are ratios: averaged, not summed, over nets.
RATIOS = (
    "context.index_builds",
    "index.far_field_rate",
    "index.candidates_per_near_point",
    "trace.unattributed_frac",
)


def replay_layers(requests, count: int) -> dict:
    """Per-layer cost of the service's cold solves: the first ``count``
    distinct nets, canonicalized as the server does and traced in-process
    with the server's serial engine.  Times and counts are summed."""
    unique = [p for p, meta in requests if not meta["duplicate"]][:count]
    traced = [
        traced_extraction(
            canonicalize(structure_from_dict(p["structure"])).structure,
            FRWConfig(**p["config"]),
        )
        for p in unique
    ]
    layers = {}
    for name in sorted(traced[0].layers):
        values = [ex.layers[name] for ex in traced]
        layers[name] = statistics.fmean(values) if name in RATIOS else sum(values)
    steps = sum(ex.steps for ex in traced)
    layers["engine.steps_per_s"] = steps / layers["engine.run_batch_s"]
    layers["engine.steps_per_walk"] = steps / sum(ex.walks for ex in traced)
    return layers


def result(outcome: Outcome, trace: bool) -> dict:
    """The result object of one run: every end-to-end metric (``trace``
    false) or every per-layer metric, each with its unit."""
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to exit.

    Publishing a shared-memory context starts the tracker as a child of
    this process; left alone it exits only after this interpreter does, so
    the run would end with it still alive.  Stopping it is a no-op when it
    never started, and a later publish starts a fresh one.
    """
    resource_tracker._resource_tracker._stop()


def run(name: str, seed: int, seconds: float, trace: bool, root: str) -> Outcome:
    """Run one workload by name; ``root`` is the checkout to work in.

    Returns only once every process the run started has exited.
    """
    spec = WORKLOADS[name]
    workdir = os.path.join(root, ".bench_build", "suite", str(os.getpid()))
    try:
        if isinstance(spec, ExtractionSpec):
            return run_extraction(spec, seed, seconds, trace)
        os.makedirs(workdir, exist_ok=True)
        return run_service(
            spec, seed, seconds, trace, os.path.join(root, "src"), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        stop_resource_tracker()
