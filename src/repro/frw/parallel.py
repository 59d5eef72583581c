"""Real shared-memory executors and batch runners for walk computation.

The virtual-thread scheduler reproduces parallel *floating-point behaviour*;
this module provides actual concurrency for throughput.  The centrepiece is
:class:`PersistentExecutor`: a process pool (or one in-process worker)
that is created once, reused across batches *and* master conductors, and
shipped each :class:`~repro.frw.context.ExtractionContext` once —
replacing the historical pool-per-call pattern.  :meth:`PersistentExecutor.run_async` takes a list
of batches, possibly of several masters, and cuts their concatenated walk
UIDs into near-equal work items, at most one per worker by default.  Each
item runs its pieces through one shared engine vector in a worker process
(the engine makes ~110 small NumPy calls per step, so threads would only
contend for the GIL), and every batch reassembles in UID order, so the
extraction output is bit-identical to the serial engine —
real parallelism changes wall time only, which is exactly the
DOP-independence contract of Alg. 2.

Serial execution is the same rule with one worker: no pool, nothing
published, and every master's batches queue on the feed of one in-process
:class:`~repro.frw.engine.WalkPipeline` the executor owns.

On top of the executor sits :class:`BatchRunner`, one per master: the
batch source of the one Alg. 2 driver,
:func:`~repro.frw.cross_master.extract_rows_interleaved`.
``request(u)`` names batch ``u`` for ``run_async``, which the driver calls
once per allocation round with every master's new batches.  UIDs are a
pure function of the batch index and results reassemble in UID order, so
how batches are driven trades wall time only.

The process backend ships contexts through the **shared-memory context
plane** (:mod:`repro.frw.shm`): registering a context publishes its index
and cube table (each into one shared block per process, however many
masters reference it), and work-item messages carry only small manifests
+ the UID pieces — workers attach lazily and cache each asset block once,
so the pool is created once, steady-state dispatch is manifest-only, and
every start method (``fork``, ``spawn``, ``forkserver``) works.

Every path reuses the engine's slot arena across batches: a one-worker
executor keeps one arena for all its vectors, and work items — which go
through :func:`~repro.frw.engine.run_segments` in process workers — hit
its per-thread workspace cache, so steady-state batch execution allocates
no walk-state arrays anywhere.
"""

from __future__ import annotations

import bisect
import logging
import multiprocessing
import os
import pickle
import time
from collections import deque
from functools import partial
from itertools import count

import numpy as np

from ..config import EXECUTOR_KINDS, MP_START_METHODS, FRWConfig
from ..errors import ConfigError
from . import shm
from .context import ExtractionContext
from .engine import (
    ArenaWorkspace,
    StageTimers,
    WalkPipeline,
    WalkResults,
    concat_results,
    run_segments,
)

#: A stream spec is ``(rng_kind, seed, stream)`` — enough to rebuild a
#: per-walk stream provider anywhere (in this process or a worker
#: process), which is what makes "any worker can evaluate any walk" real.
#: Antithetic configs extend it to ``(rng_kind, seed, stream, group,
#: depth)``; the 3-tuple form is kept for antithetic-off configs so their
#: dispatch payloads and worker caches stay byte-identical to before.
StreamSpec = tuple


def stream_spec(config: FRWConfig, master: int) -> StreamSpec:
    """The stream spec of one master under a config (domain-separated)."""
    if config.antithetic:
        return (
            config.rng,
            config.seed,
            master,
            config.antithetic_group,
            config.antithetic_depth,
        )
    return (config.rng, config.seed, master)


def streams_from_spec(spec: StreamSpec):
    """Build a fresh per-walk stream provider from a spec."""
    kind, seed, stream = spec[:3]
    if kind == "mt":
        from ..rng import MTWalkStreams

        return MTWalkStreams(seed, stream)
    from ..rng import WalkStreams

    streams = WalkStreams(seed, stream)
    if len(spec) == 5:
        from ..rng import MirroredDraws

        streams = MirroredDraws(streams, spec[3], spec[4])
    return streams


def resolve_workers(n_workers: int) -> int:
    """Worker count with ``0`` meaning auto.

    Auto prefers ``os.sched_getaffinity(0)`` — the CPUs this process may
    actually run on — over ``os.cpu_count()``: in containers and under
    taskset/cgroup limits the two differ, and sizing a pool by the host
    count oversubscribes the allowed cores (or, with a restricted
    ``cpu_count``, undersizes it).  Falls back to the host count where
    affinity is not exposed (macOS, Windows).
    """
    if n_workers > 0:
        return int(n_workers)
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0)) or 1
        except OSError:  # pragma: no cover - exotic kernels
            pass
    return os.cpu_count() or 1


def resolve_start_method(method: str = "auto") -> str:
    """Concrete multiprocessing start method for the process backend.

    ``"auto"`` resolves to ``fork`` where the platform offers it (cheapest
    pool start) and ``spawn`` otherwise.  Explicit methods are validated
    against the platform's supported set.
    """
    if method not in MP_START_METHODS:
        raise ConfigError(
            f"mp_start_method must be one of {MP_START_METHODS}, got "
            f"{method!r}"
        )
    available = multiprocessing.get_all_start_methods()
    if method == "auto":
        return "fork" if "fork" in available else "spawn"
    if method not in available:  # pragma: no cover - platform dependent
        raise ConfigError(
            f"start method {method!r} is not supported on this platform "
            f"(available: {available})"
        )
    return method


def _pack(batches, items: int):
    """Cut the concatenated ``(key, uids)`` batches into ``items``
    near-equal work items (``1 <= items <= total walks``).

    Returns ``(work, slots)``: ``work[j]`` lists item ``j``'s ``(key,
    uids)`` segments in order, and ``slots[b]`` the ``(item, segment)``
    positions of batch ``b``'s pieces.  The cuts are ``floor(j * total /
    items)``, so ``items = k * c`` over ``k`` equal batches cuts each
    batch into ``c`` items of its own.
    """
    total = sum(uids.shape[0] for _, uids in batches)
    cuts = [j * total // items for j in range(items + 1)]
    work: list[list] = [[] for _ in range(items)]
    slots = []
    start = 0
    for key, uids in batches:
        stop = start + uids.shape[0]
        j = min(bisect.bisect_right(cuts, start), items) - 1
        pieces, a = [], start
        while True:
            b = min(stop, cuts[j + 1])
            pieces.append((j, len(work[j])))
            work[j].append((key, uids[a - start : b - start]))
            if b == stop:
                break
            a, j = b, j + 1
        slots.append(pieces)
        start = stop
    return work, slots


def _piece(get, segment: int):
    """Getter of one segment of a work item's result list."""
    return lambda: get()[segment]


# ----------------------------------------------------------------------
# Process-pool worker side: the parent publishes each context's assets into
# shared blocks (repro.frw.shm) and dispatches work items, each a list of
# (manifest, uids) segments.  Workers attach lazily — the first item naming
# an asset block maps it and rebuilds the asset over zero-copy views; every
# later item hits the attachment caches.  Works under fork, spawn, and
# forkserver.
# ----------------------------------------------------------------------
_LOG = logging.getLogger(__name__)

#: Upper bound on how long :meth:`PersistentExecutor.close` waits for
#: dispatched process-pool work items before terminating the pool.
CLOSE_DRAIN_S = 30.0

#: :meth:`PersistentExecutor.worker_stats` sends this many probes per
#: worker, each sleeping ``PROBE_DELAY_S`` seconds so they spread over
#: the pool.
PROBES_PER_WORKER = 4
PROBE_DELAY_S = 0.02


def _run_item(segments, width: int) -> list[WalkResults]:
    """Run one work item: ``[((ctx, spec), uids), ...]`` segments through
    one shared engine vector of at most ``width`` walks, one lane per
    distinct context and spec."""
    lanes, lane_of, fed = [], {}, []
    for (ctx, spec), uids in segments:
        lane = lane_of.setdefault((id(ctx), spec), len(lanes))
        if lane == len(lanes):
            lanes.append((ctx, streams_from_spec(spec)))
        fed.append((lane, uids))
    return run_segments(
        lanes, fed, min(width, sum(uids.shape[0] for _, uids in fed))
    )


def _shm_chunk(segments, width: int) -> list[WalkResults]:
    """Process-worker entry: attach each ``(manifest, uids)`` segment's
    context (cached per manifest) and run the work item."""
    return _run_item(
        [((shm.attach_context(m), m.spec), uids) for m, uids in segments],
        width,
    )


def _worker_probe(_: int) -> tuple[int, int]:
    """Identify the executing worker: ``(pid, asset blocks attached)``.

    Each probe sleeps briefly so a ``map(..., chunksize=1)`` of one probe
    per pool slot lands on distinct workers instead of racing onto one.
    """
    time.sleep(PROBE_DELAY_S)
    return os.getpid(), shm.attach_count()


class PendingBatch:
    """Handle to one dispatched walk batch (one UID set).

    ``waiters`` are blocking getters of the batch's pieces in UID order:
    one per work item holding a piece on a pool (an item may carry pieces
    of several batches), one that steps the shared vector on one worker,
    where ``unlaunched`` forgets the batch and returns its walks not yet
    launched.
    """

    __slots__ = ("uids", "_waiters", "_unlaunched", "_result")

    def __init__(self, uids: np.ndarray, waiters, unlaunched=None):
        self.uids = uids
        self._waiters = waiters
        self._unlaunched = unlaunched
        self._result: WalkResults | None = None

    def result(self) -> WalkResults:
        """Block until the batch completes; UID-ordered results."""
        if self._result is None:
            parts = [wait() for wait in self._waiters]
            self._result = (
                parts[0] if len(parts) == 1 else concat_results(self.uids, parts)
            )
            self._waiters = self._unlaunched = None
        return self._result

    def discard(self) -> int:
        """Drop the batch ungathered; returns how many of its walks were
        launched (on a pool, all of them)."""
        unlaunched = self._unlaunched() if self._unlaunched else 0
        self._waiters = self._unlaunched = None
        return self.uids.shape[0] - unlaunched


class PersistentExecutor:
    """A walk-execution pool created once and reused for a whole extraction.

    Parameters
    ----------
    backend:
        ``"serial"`` (one worker, the default) or ``"process"``.
    n_workers:
        Process-pool width; ``0`` means auto (host CPU count).
    mp_start_method:
        Start method of the process backend (``"auto"``, ``"fork"``,
        ``"spawn"``, ``"forkserver"``; see :func:`resolve_start_method`).

    Contexts are registered once per master (:meth:`register`); thereafter
    any number of batches can be dispatched with :meth:`run`.  With one
    worker there is no pool: batches of every master queue on one
    in-process vector, dropped once no handle is live; ``timers``
    (optional :class:`~repro.frw.engine.StageTimers`) times its stages.
    The process pool is created once and never restarts: registration
    publishes the context to the shared-memory plane and workers attach
    on first dispatch.  Dispatch telemetry (work items,
    pickled payload bytes) accumulates in :meth:`dispatch_stats`;
    :meth:`worker_stats` probes the live pool for worker PIDs and
    per-worker attachment counts.  A closed executor rejects further work
    with :class:`~repro.errors.ConfigError` instead of silently
    re-creating its pool or publishing blocks.
    """

    def __init__(
        self,
        backend: str = "serial",
        n_workers: int = 0,
        mp_start_method: str = "auto",
    ):
        # Set first so __del__/close stay safe if validation below raises.
        self._closed = True
        if backend not in EXECUTOR_KINDS:
            raise ConfigError(
                f"executor backend must be one of {EXECUTOR_KINDS}, got {backend!r}"
            )
        self.backend = backend
        self.n_workers = 1 if backend == "serial" else resolve_workers(n_workers)
        self.mp_start_method = mp_start_method
        self.timers: StageTimers | None = None
        # Resolve eagerly so a bad method/platform combination fails at
        # construction, not mid-extraction.
        self._start_method = (
            resolve_start_method(mp_start_method) if backend == "process" else None
        )
        self._process_pool = None
        # Dispatched process-pool work items not yet known to be finished.
        self._pending: list = []
        self._registry: dict[int, tuple[ExtractionContext, StreamSpec]] = {}
        self._keys: dict[tuple[int, StreamSpec], int] = {}
        self._manifests: dict[int, "shm.ContextManifest"] = {}
        self._ids = count()  # dispatch keys and one-worker batch seqs
        self._workspace: ArenaWorkspace | None = None
        self._reset_vector()
        self._closed = False
        self.dispatches = 0
        self.dispatch_pickle_bytes = 0

    def _check_open(self) -> None:
        if self._closed:
            raise ConfigError("PersistentExecutor is closed")

    # ------------------------------------------------------------------
    # Registration (context shipping)
    # ------------------------------------------------------------------
    def register(self, ctx: ExtractionContext, spec: StreamSpec) -> int:
        """Register a context + stream spec once; returns its dispatch key.

        On a process pool this *publishes* the context immediately (its
        assets' blocks on first reference); the pool keeps running and
        workers attach on first dispatch.  With one worker it is a dict
        insert.
        """
        self._check_open()
        ident = (id(ctx), spec)
        key = self._keys.get(ident)
        if key is not None:
            return key
        key = next(self._ids)
        self._registry[key] = (ctx, spec)
        self._keys[ident] = key
        if self.n_workers > 1:
            self._manifests[key] = shm.publish_context(ctx, spec)
        return key

    def release(self, contexts) -> None:
        """Forget these contexts' registrations (published process blocks
        stay until :meth:`close`)."""
        ids = {id(ctx) for ctx in contexts}
        for ident in [ident for ident in self._keys if ident[0] in ids]:
            del self._registry[self._keys.pop(ident)]

    # ------------------------------------------------------------------
    # One worker: one in-process vector shared by every master
    # ------------------------------------------------------------------
    def _reset_vector(self) -> None:
        self._pipe: WalkPipeline | None = None
        self._lanes: dict[int, int] = {}  # dispatch key -> lane
        self._queue: deque = deque()  # (seq, lane, uids) not yet fed
        self._fed: deque = deque()  # seqs fed, not yet emitted
        self._live: dict[int, WalkResults | None] = {}  # results once emitted

    def _submit(self, key: int, uids: np.ndarray, width: int) -> PendingBatch:
        lane = self._lanes.get(key)
        if lane is None:
            ctx, spec = self._registry[key]
            streams = streams_from_spec(spec)
            if self._pipe is None:
                if self._workspace is None:
                    self._workspace = ArenaWorkspace(width)
                self._pipe = WalkPipeline(
                    ((ctx, streams),),
                    self._feed,
                    width=width,
                    workspace=self._workspace,
                    timers=self.timers,
                )
                lane = 0
            else:
                lane = self._pipe.add_lane(ctx, streams)
            self._lanes[key] = lane
        seq = next(self._ids)
        self._queue.append((seq, lane, uids))
        self._live[seq] = None
        drop = partial(self._drop, seq, uids.shape[0])
        return PendingBatch(uids, [partial(self._gather, seq)], drop)

    def _feed(self, index: int):
        while self._queue:
            seq, lane, uids = self._queue.popleft()
            if seq in self._live:  # else discarded before it was fed
                self._fed.append(seq)
                return lane, uids
        return None

    def _gather(self, seq: int) -> WalkResults:
        while self._live[seq] is None:
            results = self._pipe.next_batch()
            done = self._fed.popleft()
            if done in self._live:
                self._live[done] = results
        return self._forget(seq)

    def _drop(self, seq: int, size: int) -> int:
        if seq not in self._fed:  # still queued, or already emitted
            unlaunched = size if self._live[seq] is None else 0
        else:
            unlaunched = self._pipe.unlaunched if seq == self._fed[-1] else 0
        self._forget(seq)
        return unlaunched

    def _forget(self, seq: int) -> WalkResults | None:
        results = self._live.pop(seq)
        if not self._live:
            self._reset_vector()
        return results

    # ------------------------------------------------------------------
    # Pool
    # ------------------------------------------------------------------
    def _processes(self):
        if self._process_pool is None:
            mp_ctx = multiprocessing.get_context(self._start_method)
            self._process_pool = mp_ctx.Pool(processes=self.n_workers)
        return self._process_pool

    # ------------------------------------------------------------------
    # Batch dispatch
    # ------------------------------------------------------------------
    def run(self, key: int, uids: np.ndarray) -> WalkResults:
        """Execute one batch of walks, reassembled in UID order."""
        return self.run_async([(key, uids)])[0].result()

    def run_async(
        self, batches: list[tuple[int, np.ndarray]], items: int | None = None
    ) -> list[PendingBatch]:
        """Dispatch ``(key, uids)`` batches without blocking; returns one
        handle per batch.

        The batches are concatenated in the given order and cut into at
        most ``items`` near-equal work items (default: one per worker); a
        batch may straddle two items.  Each item runs its pieces through
        one engine vector no wider than the largest batch
        (:func:`~repro.frw.engine.run_segments`), so the drain tails of the
        batches packed into it overlap instead of running back to back.
        The batches of one call must share their structure assets (one
        solver's masters do).

        A handle's :meth:`PendingBatch.result` reassembles its batch's
        pieces in UID order, so a gathered batch is bit-identical to the
        serial engine however it was packed.  With one worker (or fewer
        than two walks) each batch queues on the executor's one in-process
        vector instead, and runs only when a handle is gathered: a batch
        discarded before the vector reaches it is never launched.  Packing
        never changes results, only the schedule.
        """
        self._check_open()
        batches = [(key, np.asarray(uids, dtype=np.uint64)) for key, uids in batches]
        total = sum(uids.shape[0] for _, uids in batches)
        width = max((uids.shape[0] for _, uids in batches), default=1)
        if self.n_workers == 1 or total < 2:
            return [self._submit(key, uids, width) for key, uids in batches]
        work, slots = _pack(
            batches,
            max(1, min(self.n_workers if items is None else int(items), total)),
        )
        self.dispatches += len(work)
        payloads = [
            ([(self._manifests[key], uids) for key, uids in item], width)
            for item in work
        ]
        self.dispatch_pickle_bytes += sum(
            len(pickle.dumps(p, protocol=pickle.HIGHEST_PROTOCOL))
            for p in payloads
        )
        pool = self._processes()
        asyncs = [pool.apply_async(_shm_chunk, p) for p in payloads]
        self._pending = [a for a in self._pending if not a.ready()] + asyncs
        return [
            PendingBatch(uids, [_piece(asyncs[j].get, s) for j, s in pieces])
            for (_, uids), pieces in zip(batches, slots)
        ]

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def dispatch_stats(self) -> dict:
        """Cumulative dispatch telemetry.

        ``dispatches`` counts pool *work items*, not batches: one
        :meth:`run_async` call packs its batches into at most one item per
        worker, so an item may carry pieces of several masters' batches
        (the Alg. 2 driver's ``dispatched_batches`` counts batches).
        ``pickle_bytes`` counts the pickled payload of every work item, so
        ``pickle_bytes_per_dispatch`` measures the per-item payload — UIDs
        plus one manifest per master in the item, regardless of context
        size; packing more batches per item raises it while the total
        stays flat.  ``published_nbytes`` sums the distinct asset blocks
        this executor's manifests name.
        """
        n = max(1, self.dispatches)
        blocks = {
            ref.block: ref.nbytes
            for m in self._manifests.values()
            for ref in (m.index, m.table)
        }
        return {
            "dispatches": self.dispatches,
            "pickle_bytes": self.dispatch_pickle_bytes,
            "pickle_bytes_per_dispatch": round(
                self.dispatch_pickle_bytes / n, 1
            ),
            "published_contexts": len(self._manifests),
            "published_blocks": len(blocks),
            "published_nbytes": sum(blocks.values()),
        }

    def worker_stats(self) -> dict:
        """Best-effort process-pool probe: worker PIDs and attach counts.

        Maps :data:`PROBES_PER_WORKER` short sleep probes per worker across
        the pool (``chunksize=1`` so they spread over workers) and reports,
        per observed worker PID, how many shared asset blocks that worker
        has attached.  Empty without a process pool.  Scheduling decides
        which workers answer, so this is telemetry — results never feed
        back into walk values.
        """
        self._check_open()
        if self.n_workers == 1:
            return {}
        pool = self._processes()
        n = self.n_workers * PROBES_PER_WORKER
        rows = pool.map(_worker_probe, range(n), chunksize=1)
        attaches: dict[int, int] = {}
        for pid, count in rows:
            attaches[pid] = max(count, attaches.get(pid, 0))
        pids = sorted(attaches)
        return {
            "worker_pids": pids,
            "attach_counts": {str(pid): attaches[pid] for pid in pids},
            "total_attaches": sum(attaches[pid] for pid in pids),
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down and release published blocks (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._process_pool is not None:
            # Let dispatched items (speculative batches nobody will gather)
            # finish first.  A worker that terminate() kills while it sends
            # a result never releases the pool's result-queue lock, and
            # terminate() then deadlocks joining its task handler.  The wait
            # is bounded, so an item lost with a dead worker cannot hang it.
            deadline = time.monotonic() + CLOSE_DRAIN_S
            for pending in self._pending:
                pending.wait(max(0.0, deadline - time.monotonic()))
            self._pending = []
            self._process_pool.terminate()
            self._process_pool.join()
            self._process_pool = None
        # Unlink after the workers are gone: attached mappings die with
        # them, so no segment outlives the executor in /dev/shm.
        if self._manifests:
            for key in sorted(self._manifests):
                shm.release_manifest(self._manifests[key])
            self._manifests.clear()

    def __enter__(self) -> "PersistentExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except (OSError, RuntimeError, ValueError) as exc:
            # Pool teardown can race interpreter shutdown (half-collected
            # module globals, dead worker pipes).  Those failures are
            # expected here and only here; anything else should propagate.
            _LOG.debug("PersistentExecutor.__del__: close() failed: %r", exc)


# ----------------------------------------------------------------------
# One master's batch source for the Alg. 2 driver.
# ----------------------------------------------------------------------
class BatchRunner:
    """One master's batches on an executor: batch ``u`` holds UIDs
    ``[u*B, (u+1)*B)``, and :meth:`request` names it as the ``(key, uids)``
    pair :meth:`PersistentExecutor.run_async` takes, so the Alg. 2 driver
    can send a round's batches of all masters in one call.
    """

    def __init__(
        self,
        ctx: ExtractionContext,
        config: FRWConfig,
        executor: PersistentExecutor,
    ):
        self.batch_size = int(config.batch_size)
        self._executor = executor
        self._key = executor.register(ctx, stream_spec(config, ctx.master))

    def request(self, u: int) -> tuple[int, np.ndarray]:
        """Batch ``u`` as a ``run_async`` request ``(key, uids)``."""
        base = u * self.batch_size
        return self._key, np.arange(base, base + self.batch_size, dtype=np.uint64)

    def run_batch(self, u: int) -> WalkResults:
        """Run batch ``u`` and gather it."""
        return self._executor.run(*self.request(u))

    def close(self) -> None:
        """Nothing to release: the executor belongs to the caller."""


def make_batch_runner(
    ctx: ExtractionContext,
    config: FRWConfig,
    executor: PersistentExecutor | None = None,
    timers: StageTimers | None = None,
) -> tuple[BatchRunner, PersistentExecutor | None]:
    """The :class:`BatchRunner` of one master under a config.

    Returns ``(runner, owned_executor)``: ``owned_executor`` is the
    executor created here for the config when none was supplied (the
    caller must close it), else ``None``.  ``timers`` (optional) becomes
    the executor's one-worker stage timers; pool workers cannot report
    stages, so a pool leaves it untouched.
    """
    owned = None
    if executor is None:
        owned = executor = PersistentExecutor(
            config.executor, config.n_workers, config.mp_start_method
        )
    if timers is not None:
        executor.timers = timers
    return BatchRunner(ctx, config, executor), owned
