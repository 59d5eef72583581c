"""Real shared-memory executors and batch runners for walk computation.

The virtual-thread scheduler reproduces parallel *floating-point behaviour*;
this module provides actual concurrency for throughput.  The centrepiece is
:class:`PersistentExecutor`: a process or thread pool that is created once,
reused across batches *and* master conductors, and shipped each
:class:`~repro.frw.context.ExtractionContext` once — replacing the historical
pool-per-call pattern.  A batch's walk UIDs are split into chunks executed by
the pool (NumPy releases the GIL in its inner loops, so threads overlap on
multicore hosts; the process backend sidesteps the GIL entirely) and results
are reassembled in UID order, so the extraction output is bit-identical to
the serial engine — real parallelism changes wall time only, which is
exactly the DOP-independence contract of Alg. 2.

On top of the executor sits :class:`BatchRunner`, one per master: the
batch source of the one Alg. 2 driver,
:func:`~repro.frw.cross_master.extract_rows_interleaved`.
``dispatch(u, max_chunks)`` puts batch ``u`` in flight and returns a
:class:`PendingBatch` — through :meth:`PersistentExecutor.run_async` on a
pool, or as a lazy thunk over one persistent
:class:`~repro.frw.engine.WalkPipeline` without one.  UIDs are a pure
function of the batch index and results reassemble in UID order, so how
batches are driven trades wall time only.

The process backend ships contexts through the **shared-memory context
plane** (:mod:`repro.frw.shm`): registering a context publishes its index
and cube table (each into one shared block per process, however many
masters reference it), and per-batch messages carry only a small manifest
+ the UID chunk — workers attach lazily and cache each asset block once,
so the pool is created once, steady-state dispatch is manifest-only, and
every start method (``fork``, ``spawn``, ``forkserver``) works.

Every path reuses the engine's slot arena across batches: the serial
runner owns a persistent :class:`~repro.frw.engine.WalkPipeline` (one
arena, alive for the whole run), and chunk tasks that go through
:func:`~repro.frw.engine.run_walks` — thread-pool futures and process
workers alike — hit its per-thread workspace cache, so steady-state batch
execution allocates no walk-state arrays anywhere.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import pickle
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..config import EXECUTOR_KINDS, MP_START_METHODS, FRWConfig
from ..errors import ConfigError
from . import shm
from .context import ExtractionContext
from .engine import StageTimers, WalkPipeline, WalkResults, run_walks

#: A stream spec is ``(rng_kind, seed, stream)`` — enough to rebuild a
#: per-walk stream provider anywhere (in a worker thread or a worker
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


def _chunk_bounds(n: int, chunks: int) -> list[tuple[int, int]]:
    """``[0, n)`` split evenly into at most ``chunks`` pieces (the last
    one ragged)."""
    size = -(-n // max(1, chunks))
    return [(start, min(start + size, n)) for start in range(0, n, size)]


def _reassemble(uids: np.ndarray, parts: list[WalkResults]) -> WalkResults:
    omega = np.concatenate([p.omega for p in parts])
    dest = np.concatenate([p.dest for p in parts])
    steps = np.concatenate([p.steps for p in parts])
    truncated = sum(p.truncated for p in parts)
    return WalkResults(
        uids=uids, omega=omega, dest=dest, steps=steps, truncated=truncated
    )


# ----------------------------------------------------------------------
# Process-pool worker side: the parent publishes each context's assets into
# shared blocks (repro.frw.shm) and dispatches (manifest, uids) work items.
# Workers attach lazily — the first chunk naming an asset block maps it and
# rebuilds the asset over zero-copy views; every later chunk hits the
# attachment caches.  Works under fork, spawn, and forkserver.
# ----------------------------------------------------------------------
_LOG = logging.getLogger(__name__)

#: Upper bound on how long :meth:`PersistentExecutor.close` waits for
#: dispatched process-pool chunks before terminating the pool.
CLOSE_DRAIN_S = 30.0


def _shm_chunk(manifest, uids: np.ndarray) -> WalkResults:
    """Process-worker entry: attach the manifest's context (cached), build
    the chunk's stream provider from its spec, run."""
    ctx = shm.attach_context(manifest)
    return run_walks(ctx, streams_from_spec(manifest.spec), uids)


def _worker_probe(delay: float) -> tuple[int, int]:
    """Identify the executing worker: ``(pid, asset blocks attached)``.

    Each probe sleeps briefly so a ``map(..., chunksize=1)`` of one probe
    per pool slot lands on distinct workers instead of racing onto one.
    """
    time.sleep(float(delay))
    return os.getpid(), shm.attach_count()


class PendingBatch:
    """Handle to a dispatched walk batch (one UID set, maybe chunked).

    Either ``waiters`` (per-chunk blocking getters, e.g. future results)
    or ``thunk`` (a lazy whole-batch computation) backs the handle;
    :meth:`result` gathers and reassembles in UID order.  Lazy handles
    compute nothing until gathered, so speculative batches that a
    stopping rule obsoletes are free to drop.
    """

    __slots__ = ("uids", "_waiters", "_thunk", "_result")

    def __init__(self, uids: np.ndarray, waiters=None, thunk=None):
        self.uids = uids
        self._waiters = waiters
        self._thunk = thunk
        self._result: WalkResults | None = None

    def result(self) -> WalkResults:
        """Block until the batch completes; UID-ordered results."""
        if self._result is None:
            if self._waiters is not None:
                parts = [wait() for wait in self._waiters]
                self._result = (
                    parts[0]
                    if len(parts) == 1
                    else _reassemble(self.uids, parts)
                )
            else:
                self._result = self._thunk()
            self._waiters = None
            self._thunk = None
        return self._result


class PersistentExecutor:
    """A walk-execution pool created once and reused for a whole extraction.

    Parameters
    ----------
    backend:
        ``"thread"`` or ``"process"`` (``"serial"`` is accepted and makes
        :meth:`run` a plain engine call, for uniform call sites).
    n_workers:
        Pool width; ``0`` means auto (host CPU count).
    mp_start_method:
        Start method of the process backend (``"auto"``, ``"fork"``,
        ``"spawn"``, ``"forkserver"``; see :func:`resolve_start_method`).

    Contexts are registered once per master (:meth:`register`); thereafter
    any number of batches can be dispatched with :meth:`run`.  The process
    pool is created once and never restarts: registration publishes the
    context to the shared-memory plane and workers attach on first
    dispatch.  Dispatch telemetry (work items, pickled payload bytes)
    accumulates in :meth:`dispatch_stats`; :meth:`worker_stats` probes the
    live pool for worker PIDs and per-worker attachment counts.  A closed
    executor rejects further work with :class:`~repro.errors.ConfigError`
    instead of silently re-creating pools or publishing blocks.
    """

    def __init__(
        self,
        backend: str = "thread",
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
        self.n_workers = resolve_workers(n_workers)
        self.mp_start_method = mp_start_method
        # Resolve eagerly so a bad method/platform combination fails at
        # construction, not mid-extraction.
        self._start_method = (
            resolve_start_method(mp_start_method) if backend == "process" else None
        )
        self._thread_pool: ThreadPoolExecutor | None = None
        self._process_pool = None
        # Dispatched process-pool chunks not yet known to be finished.
        self._pending: list = []
        self._registry: dict[int, tuple[ExtractionContext, StreamSpec]] = {}
        self._keys: dict[tuple[int, StreamSpec], int] = {}
        self._manifests: dict[int, "shm.ContextManifest"] = {}
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

        On the process backend this *publishes* the context immediately
        (its assets' blocks on first reference); the pool (if any) keeps
        running and workers attach on first dispatch.
        """
        self._check_open()
        ident = (id(ctx), spec)
        key = self._keys.get(ident)
        if key is not None:
            return key
        key = len(self._registry)
        self._registry[key] = (ctx, spec)
        self._keys[ident] = key
        if self.backend == "process":
            self._manifests[key] = shm.publish_context(ctx, spec)
        return key

    # ------------------------------------------------------------------
    # Pools
    # ------------------------------------------------------------------
    def _threads(self) -> ThreadPoolExecutor:
        if self._thread_pool is None:
            self._thread_pool = ThreadPoolExecutor(
                max_workers=self.n_workers, thread_name_prefix="frw-walk"
            )
        return self._thread_pool

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
        return self.run_async(key, uids).result()

    def run_async(
        self, key: int, uids: np.ndarray, max_chunks: int | None = None
    ) -> "PendingBatch":
        """Dispatch one batch without blocking; returns a handle.

        The handle's :meth:`PendingBatch.result` reassembles the chunk
        results in UID order, so a gathered batch is bit-identical to the
        serial engine no matter how its chunks were scheduled.  On the
        serial fallback the handle is *lazy* — the walks run on the first
        ``result()`` call, so handles that are dropped (speculative
        batches past a stopping rule) cost nothing.

        The batch splits evenly into at most ``max_chunks`` work items
        (default: one per worker).  The Alg. 2 driver splits thread
        batches only as far as it needs to fill the pool — wide engine
        vectors beat fine chunking.  Chunking never changes results, only
        the schedule.
        """
        self._check_open()
        uids = np.asarray(uids, dtype=np.uint64)
        n = uids.shape[0]
        ctx, spec = self._registry[key]
        if self.backend == "serial" or self.n_workers == 1 or n < 2:
            return PendingBatch(
                uids, thunk=lambda: run_walks(ctx, streams_from_spec(spec), uids)
            )
        bounds = _chunk_bounds(
            n, self.n_workers if max_chunks is None else max_chunks
        )
        chunks = [uids[a:b] for a, b in bounds]
        self.dispatches += len(chunks)
        if self.backend == "thread":
            futures = [
                self._threads().submit(run_walks, ctx, streams_from_spec(spec), c)
                for c in chunks
            ]
            return PendingBatch(uids, waiters=[f.result for f in futures])
        pool = self._processes()
        manifest = self._manifests[key]
        payloads = [(manifest, c) for c in chunks]
        self.dispatch_pickle_bytes += sum(
            len(pickle.dumps(p, protocol=pickle.HIGHEST_PROTOCOL))
            for p in payloads
        )
        asyncs = [pool.apply_async(_shm_chunk, p) for p in payloads]
        self._pending = [a for a in self._pending if not a.ready()] + asyncs
        return PendingBatch(uids, waiters=[a.get for a in asyncs])

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def dispatch_stats(self) -> dict:
        """Cumulative dispatch telemetry.

        ``pickle_bytes`` counts the pickled payload of every process-pool
        work item (the thread backend ships references, not pickles), so
        ``pickle_bytes_per_dispatch`` directly measures the steady-state
        per-dispatch payload — manifest-only, regardless of context size.
        ``published_nbytes`` sums the distinct asset blocks this executor's
        manifests name.
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

    def worker_stats(self, probes_per_worker: int = 4, delay: float = 0.02) -> dict:
        """Best-effort process-pool probe: worker PIDs and attach counts.

        Maps short sleep probes across the pool (``chunksize=1`` so they
        spread over workers) and reports, per observed worker PID, how many
        shared asset blocks that worker has attached.  Empty for
        non-process backends.  Scheduling decides which workers answer, so
        this is telemetry — results never feed back into walk values.
        """
        self._check_open()
        if self.backend != "process":
            return {}
        pool = self._processes()
        n = max(1, self.n_workers) * max(1, int(probes_per_worker))
        rows = pool.map(_worker_probe, [delay] * n, chunksize=1)
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
        """Shut the pools down and release published blocks (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._thread_pool is not None:
            self._thread_pool.shutdown(wait=True)
            self._thread_pool = None
        if self._process_pool is not None:
            # Let dispatched chunks (speculative batches nobody will gather)
            # finish first.  A worker that terminate() kills while it sends
            # a result never releases the pool's result-queue lock, and
            # terminate() then deadlocks joining its task handler.  The wait
            # is bounded, so a chunk lost with a dead worker cannot hang it.
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
def executor_for(
    backend: str, n_workers: int, mp_start_method: str = "auto"
) -> PersistentExecutor | None:
    """A new pool for an engine configuration, or ``None`` when it runs
    serially (``backend="serial"`` or at most one worker)."""
    if backend == "serial" or resolve_workers(n_workers) <= 1:
        return None
    return PersistentExecutor(backend, n_workers, mp_start_method)


class BatchRunner:
    """One master's batches: ``dispatch(u, max_chunks) -> PendingBatch``.

    Batch ``u`` holds UIDs ``[u*B, (u+1)*B)``.  With an executor the batch
    goes to the pool through :meth:`PersistentExecutor.run_async`.
    Without one, the handle is a lazy thunk over one persistent
    :class:`~repro.frw.engine.WalkPipeline` whose freed slots refill from
    up to :data:`~repro.frw.engine.PIPELINE_LOOKAHEAD` batches ahead:
    thunks must be gathered in dispatch order, and a thunk never gathered
    costs nothing.  ``discarded_walks``, set at :meth:`close`, counts the
    walks that pipeline launched past the last gathered batch.
    """

    def __init__(
        self,
        ctx: ExtractionContext,
        config: FRWConfig,
        executor: PersistentExecutor | None = None,
        timers: StageTimers | None = None,
    ):
        self.batch_size = int(config.batch_size)
        self.discarded_walks = 0
        self._executor = executor
        self._pipe: WalkPipeline | None = None
        spec = stream_spec(config, ctx.master)
        if executor is not None:
            self._key = executor.register(ctx, spec)
        else:
            self._pipe = WalkPipeline(
                ctx,
                streams_from_spec(spec),
                self._uids,
                width=self.batch_size,
                timers=timers,
                group=config.antithetic_group if config.antithetic else 1,
            )

    def _uids(self, u: int) -> np.ndarray:
        base = u * self.batch_size
        return np.arange(base, base + self.batch_size, dtype=np.uint64)

    def dispatch(self, u: int, max_chunks: int | None = None) -> PendingBatch:
        """Put batch ``u`` in flight, split into at most ``max_chunks``
        work items on a pool."""
        uids = self._uids(u)
        if self._pipe is None:
            return self._executor.run_async(self._key, uids, max_chunks)
        return PendingBatch(uids, thunk=self._pipe.next_batch)

    def run_batch(self, u: int) -> WalkResults:
        """Dispatch batch ``u`` and gather it."""
        return self.dispatch(u).result()

    def close(self) -> None:
        """Count the serial pipeline's launched-ahead walks and drop it
        (the pool, if any, belongs to the caller)."""
        if self._pipe is not None:
            self.discarded_walks = self._pipe.launched_ahead
            self._pipe = None


def make_batch_runner(
    ctx: ExtractionContext,
    config: FRWConfig,
    executor: PersistentExecutor | None = None,
    timers: StageTimers | None = None,
) -> tuple[BatchRunner, PersistentExecutor | None]:
    """The :class:`BatchRunner` of one master under a config.

    Returns ``(runner, owned_executor)``: ``owned_executor`` is the pool
    :func:`executor_for` created here when none was supplied (the caller
    must close it), else ``None``.  ``timers`` (optional) accumulates the
    engine's per-stage wall time on the serial runner; pool workers cannot
    report stages, so executor-backed runners leave it untouched.
    """
    owned = None
    if executor is None:
        owned = executor = executor_for(
            config.executor, config.n_workers, config.mp_start_method
        )
    return BatchRunner(ctx, config, executor, timers), owned
