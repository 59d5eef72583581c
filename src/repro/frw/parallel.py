"""Real shared-memory executors and batch runners for walk computation.

The virtual-thread scheduler reproduces parallel *floating-point behaviour*;
this module provides actual concurrency for throughput.  Every worker is
one long-lived :class:`~repro.frw.engine.WalkPipeline`, which keeps its
own queue of batches and refills freed slots from the next queued batch
of any master.  :class:`PersistentExecutor` runs one in-process at one
worker, or one in each of ``n_workers`` long-lived worker processes fed
through their own pipes.  :meth:`~PersistentExecutor.submit` cuts a
batch into queue entries for the least-loaded workers, and
:meth:`~PersistentExecutor.next_done` returns the next batch whose entries
are all back, in UID order — bit-identical to the serial engine at any
worker count, cut or completion order, which is exactly the
DOP-independence contract of Alg. 2.  :class:`BatchRunner` names one
master's batches, a checkpoint every ``b0`` walks, for the Alg. 2
driver, :func:`~repro.frw.cross_master.extract_rows_interleaved`.

Process workers get contexts through the **shared-memory context plane**
(:mod:`repro.frw.shm`): registering a context publishes its index and cube
table (one shared block each per process, however many masters reference
them), and an entry carries only a small manifest and a UID range, which a
worker attaches once — so every start method (``fork``, ``spawn``,
``forkserver``) works.  A worker that dies raises
:class:`~repro.errors.WorkerLostError` from the waiting call.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import pickle
import time
from itertools import count
from multiprocessing.connection import wait

import numpy as np

from .. import native
from ..config import MP_START_METHODS, FRWConfig
from ..errors import ConfigError, WorkerLostError
from . import shm
from .context import ExtractionContext
from .engine import StageTimers, WalkPipeline, WalkResults, concat_results

#: A stream spec is ``(rng_kind, seed, stream, antithetic)`` — enough to
#: rebuild a per-walk stream provider anywhere (in this process or a
#: worker process), which is what makes "any worker can evaluate any walk"
#: real.
StreamSpec = tuple


def stream_spec(config: FRWConfig, master: int) -> StreamSpec:
    """The stream spec of one master under a config (domain-separated)."""
    return (config.rng, config.seed, master, config.antithetic)


def streams_from_spec(spec: StreamSpec):
    """Build a fresh per-walk stream provider from a spec."""
    kind, seed, stream, antithetic = spec
    if kind == "mt":
        from ..rng import MTWalkStreams

        return MTWalkStreams(seed, stream)
    from ..rng import WalkStreams

    streams = WalkStreams(seed, stream)
    if antithetic:
        from ..rng import MirroredDraws

        streams = MirroredDraws(streams)
    return streams


def resolve_workers(n_workers: int) -> int:
    """Worker count with ``0`` meaning auto; a negative count raises
    :class:`~repro.errors.ConfigError`.

    Auto is :func:`repro.native.usable_cpus`, the CPUs this process may
    actually run on: in containers and under taskset/cgroup limits the
    host count differs, and sizing a pool by it oversubscribes the
    allowed cores (or, with a restricted ``cpu_count``, undersizes it).
    """
    if n_workers < 0:
        raise ConfigError(f"n_workers must be >= 0, got {n_workers}")
    if n_workers > 0:
        return int(n_workers)
    return native.usable_cpus()


def resolve_start_method(method: str = "auto") -> str:
    """Concrete multiprocessing start method for worker processes.

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


# ----------------------------------------------------------------------
# Process workers: each runs one WalkPipeline from the messages on its pipe.
# ----------------------------------------------------------------------
_LOG = logging.getLogger(__name__)

#: How long :meth:`PersistentExecutor.close` lets its workers exit after
#: the stop message before it terminates them.
CLOSE_JOIN_S = 5.0


def _wire(uids: np.ndarray):
    """An entry's UIDs as sent: a contiguous run travels as ``(first,
    count)``, so a parent never blocks on a pipe its worker is not
    reading."""
    n = uids.shape[0]
    if n and np.array_equal(uids, uids[0] + np.arange(n, dtype=np.uint64)):
        return int(uids[0]), n
    return uids


def _worker_main(conn, n_workers: int) -> None:
    """Process-worker entry, one of ``n_workers``: its thread team gets
    its share of the CPUs (:func:`repro.native.share_cpus`).  Between
    batches, read every waiting
    ``("run", seq, manifest, uids, width)``, ``("drop", seq)``, ``("stats",)`` or
    ``("stop",)`` message (blocking only while idle), then step the vector
    to its next completed batch and send back ``(seq, results)``."""
    native.share_cpus(n_workers)
    vector = WalkPipeline()
    try:
        while True:
            while not vector.live or conn.poll():
                kind, *args = conn.recv()
                if kind == "run":
                    seq, manifest, uids, width = args
                    if isinstance(uids, tuple):
                        uids = np.arange(uids[0], sum(uids), dtype=np.uint64)
                    ctx = shm.attach_context(manifest)
                    streams = streams_from_spec(manifest.spec)
                    vector.submit(seq, manifest.name, ctx, streams, uids, width)
                elif kind == "drop":
                    vector.drop(args[0])
                elif kind == "stats":
                    conn.send((None, (os.getpid(), shm.attach_count())))
                else:
                    return
            conn.send(vector.next_batch())
    except EOFError:  # the parent is gone
        return


class PersistentExecutor:
    """A walk executor created once and reused for a whole extraction.

    Parameters
    ----------
    n_workers:
        Worker count; ``0`` means auto (:func:`resolve_workers`).  One
        worker runs in-process; more start a pool of worker processes.
    mp_start_method:
        Start method of the worker processes (``"auto"``, ``"fork"``,
        ``"spawn"``, ``"forkserver"``; see :func:`resolve_start_method`),
        validated here whatever the worker count.

    Contexts are registered once per master (:meth:`register`); then
    batches are queued with :meth:`submit` and collected with
    :meth:`next_done` (:meth:`run` does both for one batch).  With one
    worker every master's batches queue on one in-process vector, which
    runs only while a caller waits.  A pool starts its workers on first
    use and never restarts them.  A closed executor rejects further work
    with :class:`~repro.errors.ConfigError` instead of restarting
    workers or publishing blocks.
    """

    def __init__(self, n_workers: int = 1, mp_start_method: str = "auto"):
        # Set first so __del__/close stay safe if validation below raises.
        self._closed = True
        self._workers: list = []  # (Process, Connection), started on first use
        self.n_workers = resolve_workers(n_workers)
        self.mp_start_method = mp_start_method
        # Resolve eagerly so a bad method/platform combination fails at
        # construction, not mid-extraction.
        self._start_method = resolve_start_method(mp_start_method)
        self._vector = WalkPipeline() if self.n_workers == 1 else None
        # key -> [context, stream spec, the spec's stream provider]; the
        # provider is built on the key's first batch at one worker.
        self._registry: dict[int, list] = {}
        self._keys: dict[tuple[int, StreamSpec], int] = {}
        self._manifests: dict[int, "shm.ContextManifest"] = {}
        self._ids = count()  # dispatch keys, tickets and entry seqs
        self._queued = [0] * self.n_workers  # walks out on each worker
        # seq -> (ticket, worker, walks) of every entry not yet back.
        self._entries: dict[int, tuple[int, int, int]] = {}
        # ticket -> (uids, entry seqs, results back by seq).
        self._tickets: dict[int, tuple[np.ndarray, list[int], dict]] = {}
        self._finished: dict[int, WalkResults] = {}  # not yet collected
        self._closed = False
        self.dispatches = 0
        self.dispatch_pickle_bytes = 0

    @classmethod
    def for_config(cls, config: FRWConfig) -> "PersistentExecutor":
        """The executor a config asks for: ``executor="serial"`` is one
        worker, ``"process"`` is ``n_workers`` of them."""
        n_workers = 1 if config.executor == "serial" else config.n_workers
        return cls(n_workers, config.mp_start_method)

    def _check_open(self) -> None:
        if self._closed:
            raise ConfigError("PersistentExecutor is closed")

    # ------------------------------------------------------------------
    # Registration (context shipping)
    # ------------------------------------------------------------------
    def register(self, ctx: ExtractionContext, spec: StreamSpec) -> int:
        """Register a context + stream spec once; returns its dispatch key.

        With a pool this *publishes* the context immediately (its assets'
        blocks on first reference); the workers keep running and attach
        on first sight.  With one worker it is a dict insert, and the
        spec's stream provider is built on the first batch, once for
        every batch of the key.
        """
        self._check_open()
        ident = (id(ctx), spec)
        key = self._keys.get(ident)
        if key is not None:
            return key
        key = next(self._ids)
        self._registry[key] = [ctx, spec, None]
        self._keys[ident] = key
        if self._vector is None:
            self._manifests[key] = shm.publish_context(ctx, spec)
        return key

    def release(self, contexts) -> None:
        """Forget these contexts' registrations (published process blocks
        stay until :meth:`close`)."""
        ids = {id(ctx) for ctx in contexts}
        for ident in [ident for ident in self._keys if ident[0] in ids]:
            del self._registry[self._keys.pop(ident)]

    # ------------------------------------------------------------------
    # Worker processes
    # ------------------------------------------------------------------
    def _processes(self) -> list:
        if not self._workers:
            # Build or load the compiled kernels before any worker starts:
            # fork workers inherit the loaded library, and spawn and
            # forkserver workers load the cached build, so no worker
            # compiles.
            native.library()
            mp_ctx = multiprocessing.get_context(self._start_method)
            for _ in range(self.n_workers):
                conn, child = mp_ctx.Pipe()
                proc = mp_ctx.Process(
                    target=_worker_main,
                    args=(child, self.n_workers),
                    daemon=True,
                )
                proc.start()
                child.close()
                self._workers.append((proc, conn))
        return self._workers

    def _message(self, w: int, msg) -> int:
        """Send ``msg`` to worker ``w``; returns its pickled size."""
        data = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            self._processes()[w][1].send_bytes(data)
        except OSError as exc:
            raise WorkerLostError(f"process worker {w} is gone") from exc
        return len(data)

    def _recv(self, workers) -> tuple:
        """The next ``(seq, payload)`` any of ``workers`` sends; only a
        worker holds its end of its pipe, so its death reads as EOF."""
        conns = {self._workers[w][1]: w for w in workers}
        conn = wait(list(conns))[0]
        try:
            return conn.recv()
        except (EOFError, OSError):
            w = conns[conn]
            raise WorkerLostError(
                f"process worker {w} (pid {self._workers[w][0].pid}) died "
                "with batches in flight"
            ) from None

    # ------------------------------------------------------------------
    # Batch queue
    # ------------------------------------------------------------------
    def submit(
        self,
        key: int,
        uids: np.ndarray,
        pieces: int = 1,
        width: int | None = None,
    ) -> int:
        """Queue one batch without blocking; returns its ticket.  The
        batch is cut into ``pieces`` near-equal queue entries (at most one
        per walk), each sent to the worker with the fewest queued walks;
        :meth:`next_done` reassembles them in UID order.  ``width`` sizes
        the vector an entry starts on an idle worker (default: this
        batch's size); the batch driver passes its config's batch size."""
        self._check_open()
        uids = np.asarray(uids, dtype=np.uint64)
        n = uids.shape[0]
        width = n if width is None else int(width)
        pieces = max(1, min(int(pieces), n))
        ticket = next(self._ids)
        seqs = [next(self._ids) for _ in range(pieces)]
        self._tickets[ticket] = (uids, seqs, {})
        for j, seq in enumerate(seqs):
            part = uids[j * n // pieces : (j + 1) * n // pieces]
            w = self._queued.index(min(self._queued))
            if self._vector is not None:
                entry = self._registry[key]
                ctx, spec, streams = entry
                if streams is None:
                    streams = entry[2] = streams_from_spec(spec)
                self._vector.submit(seq, key, ctx, streams, part, width)
            else:
                msg = ("run", seq, self._manifests[key], _wire(part), width)
                self.dispatch_pickle_bytes += self._message(w, msg)
                self.dispatches += 1
            self._queued[w] += part.shape[0]
            self._entries[seq] = (ticket, w, part.shape[0])
        return ticket

    def _collect(self, seq: int, results: WalkResults) -> None:
        """File one entry that came back; its batch finishes with its last
        piece."""
        entry = self._entries.pop(seq, None)
        if entry is None:  # its batch was discarded
            return
        ticket, w, walks = entry
        self._queued[w] -= walks
        uids, seqs, parts = self._tickets[ticket]
        parts[seq] = results
        if len(parts) == len(seqs):
            del self._tickets[ticket]
            self._finished[ticket] = (
                results
                if len(seqs) == 1
                else concat_results(uids, [parts[s] for s in seqs])
            )

    def _pump(self) -> None:
        """Wait for one entry on any worker and file it."""
        if self._vector is not None:
            self._collect(*self._vector.next_batch())
        else:
            self._collect(*self._recv(range(self.n_workers)))

    def next_done(self) -> tuple[int, WalkResults]:
        """Wait for the next batch completed on any worker; returns
        ``(ticket, results)``, the results in UID order.  Across workers
        batches complete in any order; on one worker, in submission
        order."""
        self._check_open()
        while not self._finished:
            if not self._tickets:
                raise ConfigError("next_done() with no batch in flight")
            self._pump()
        ticket = next(iter(self._finished))
        return ticket, self._finished.pop(ticket)

    def run(
        self, key: int, uids: np.ndarray, width: int | None = None
    ) -> WalkResults:
        """Execute one batch, cut over every worker, and wait for it;
        reassembled in UID order."""
        ticket = self.submit(key, uids, self.n_workers, width)
        while ticket not in self._finished:
            self._pump()
        return self._finished.pop(ticket)

    def discard(self, ticket: int) -> int:
        """Drop a batch ungathered; returns how many of its walks were
        launched.  A piece still queued is never launched, and a piece
        launching launches no further walk; a piece out on a process
        worker is dropped there the same way, but the worker reports
        nothing back, so it counts whole."""
        uids, seqs, parts = self._tickets.pop(ticket)
        unlaunched = 0
        for seq in seqs:
            if seq in parts:
                continue
            _, w, walks = self._entries.pop(seq)
            self._queued[w] -= walks
            if self._vector is not None:
                unlaunched += self._vector.drop(seq)
            else:
                self._message(w, ("drop", seq))
        return uids.shape[0] - unlaunched

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def dispatch_stats(self) -> dict:
        """Cumulative dispatch telemetry.

        ``dispatches`` counts the queue entries sent to process workers
        (one per batch, or per piece of a cut batch) and ``pickle_bytes``
        their pickled messages: a manifest and a UID range each, whatever
        the context size.  ``published_nbytes`` sums the distinct asset
        blocks this executor's manifests name.
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
        """Every process worker's PID and how many shared asset blocks it
        has attached (starting the workers if need be); empty at one
        worker.  Telemetry only — it never feeds back into walk values."""
        self._check_open()
        if self._vector is not None:
            return {}
        for w in range(self.n_workers):
            self._message(w, ("stats",))
        attaches: dict[int, int] = {}
        for w in range(self.n_workers):
            seq, payload = self._recv([w])
            while seq is not None:  # a batch finished before the answer
                self._collect(seq, payload)
                seq, payload = self._recv([w])
            pid, n = payload
            attaches[pid] = n
        pids = sorted(attaches)
        return {
            "worker_pids": pids,
            "attach_counts": {str(pid): attaches[pid] for pid in pids},
            "total_attaches": sum(attaches.values()),
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the workers and release published blocks (idempotent).

        Each worker gets a stop message and :data:`CLOSE_JOIN_S` seconds
        to exit, during which whatever it still sends is read and dropped
        (so it is never stuck on a full pipe); then it is terminated."""
        if self._closed:
            return
        self._closed = True
        for _, conn in self._workers:
            try:
                conn.send(("stop",))
            except OSError:  # already gone
                pass
        deadline = time.monotonic() + CLOSE_JOIN_S
        for proc, conn in self._workers:
            while wait([conn], max(0.0, deadline - time.monotonic())):
                try:
                    conn.recv_bytes()
                except (EOFError, OSError):  # the worker has exited
                    break
            proc.terminate()
            proc.join()
            conn.close()
        self._workers = []
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
            # Teardown can race interpreter shutdown (half-collected
            # module globals, dead worker pipes).  Those failures are
            # expected here and only here; anything else should propagate.
            _LOG.debug("PersistentExecutor.__del__: close() failed: %r", exc)


# ----------------------------------------------------------------------
# One master's batch source for the Alg. 2 driver.
# ----------------------------------------------------------------------
def checkpoint_walks(config: FRWConfig) -> int:
    """Walks ``b0`` in every Alg. 2 batch, so between checkpoints: the
    smallest halving ``B / 2**k`` of the batch size above ``min_walks``
    (no earlier checkpoint could fire), even under antithetic pairs (no
    pair straddles a batch); ``B`` when ``min_walks >= B / 2``."""
    b = int(config.batch_size)
    while b % 2 == 0 and b // 2 > config.min_walks and not (
        config.antithetic and b % 4
    ):
        b //= 2
    return b


class BatchRunner:
    """One master's batches on an executor: batch ``u`` is the ``b0``
    UIDs from ``u * b0`` (:func:`checkpoint_walks`), run on vectors
    ``batch_size`` wide.  It depends only on the config and ``u``, so
    UIDs, checkpoints and rows are the same on every executor."""

    def __init__(
        self,
        ctx: ExtractionContext,
        config: FRWConfig,
        executor: PersistentExecutor,
    ):
        self.batch_size = int(config.batch_size)
        self.b0 = checkpoint_walks(config)
        self._executor = executor
        self._key = executor.register(ctx, stream_spec(config, ctx.master))

    def request(self, u: int) -> tuple[int, np.ndarray]:
        """Batch ``u`` as a ``submit`` request ``(key, uids)``."""
        return self._key, np.arange(u * self.b0, (u + 1) * self.b0, dtype=np.uint64)

    def run_batch(self, u: int) -> WalkResults:
        """Run batch ``u`` and gather it."""
        return self._executor.run(*self.request(u), self.batch_size)

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
    caller must close it), else ``None``.  ``timers`` (optional) times
    the stages of a one-worker executor's vector; process workers cannot
    report stages, so they leave it untouched.
    """
    owned = None
    if executor is None:
        owned = executor = PersistentExecutor.for_config(config)
    if timers is not None and executor._vector is not None:
        executor._vector.timers = timers
    return BatchRunner(ctx, config, executor), owned
