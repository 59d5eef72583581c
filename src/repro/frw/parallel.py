"""Walk executors and batch runners for walk computation.

The virtual-thread scheduler reproduces parallel *floating-point behaviour*;
this module provides actual concurrency for throughput.  Every worker is
one long-lived :class:`~repro.frw.engine.WalkPipeline`, which keeps its
own queue of batches and refills freed slots from the next queued batch
of any master.  :class:`PersistentExecutor` runs one in-process at one
worker, or one on each of ``n_workers`` worker threads fed through their
own queues: one ``advance`` call runs in C without the GIL from one batch
boundary to the next, so the threads' vectors step at once.
:meth:`~PersistentExecutor.submit` cuts a batch into queue entries for
the least-loaded workers, and :meth:`~PersistentExecutor.next_done`
returns the next batch whose entries are all back, in UID order —
bit-identical to the serial engine at any worker count, cut or completion
order, which is exactly the DOP-independence contract of Alg. 2.
:class:`BatchRunner` names one master's batches, a checkpoint every ``b0``
walks, for the Alg. 2 driver,
:func:`~repro.frw.cross_master.extract_rows_interleaved`.

Worker threads share the caller's address space: a registered context
and its stream provider reach them by reference.  An error a worker's
vector raises is re-raised, with its own type, by the waiting call.
"""

from __future__ import annotations

import logging
import queue
import sys
import threading
from itertools import count

import numpy as np

from .. import native
from ..config import FRWConfig
from ..errors import ConfigError
from .context import ExtractionContext
from .engine import StageTimers, WalkPipeline, WalkResults, concat_results

#: A stream spec is ``(rng_kind, seed, stream, antithetic)`` — enough to
#: rebuild a master's per-walk stream provider, which is what makes "any
#: worker can evaluate any walk" real.
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
    host count differs, and sizing the workers by it oversubscribes the
    allowed cores (or, with a restricted ``cpu_count``, undersizes them).
    """
    if n_workers < 0:
        raise ConfigError(f"n_workers must be >= 0, got {n_workers}")
    if n_workers > 0:
        return int(n_workers)
    return native.usable_cpus()


# ----------------------------------------------------------------------
# Worker threads: each runs one WalkPipeline from the messages on its queue.
# ----------------------------------------------------------------------
_LOG = logging.getLogger(__name__)


def _serve(inbox: queue.SimpleQueue, outbox: queue.SimpleQueue) -> None:
    """A worker thread's loop.  Between batches, take every waiting
    ``("run", seq, key, ctx, streams, uids, width)``, ``("drop", seq)`` or
    ``("stop",)`` message (blocking only while idle), then step the vector
    to its next completed batch and put ``(seq, results)`` on the shared
    outbox.  An error goes to the outbox as ``(lost, error)``, ``lost``
    listing the entries the vector held, and the worker carries on with
    a fresh vector."""
    vector = WalkPipeline()
    while True:
        queuing = []  # the entry being queued, until the vector holds it
        try:
            while not vector.live or not inbox.empty():
                kind, *args = inbox.get()
                if kind == "stop":
                    return
                if kind == "drop":
                    vector.drop(*args)
                    continue
                queuing = args[:1]
                vector.submit(*args)
                queuing = []
            outbox.put(vector.next_batch())
        except Exception as exc:  # re-raised by the waiting caller
            outbox.put(([*vector.live, *queuing], exc))
            vector = WalkPipeline()


_TEAM_LOCK = threading.Lock()
#: Worker threads running across every executor in this process.
_RUNNING = 0


def _share_team(workers: int) -> None:
    """Count ``workers`` more (or, negative, fewer) worker threads running
    and size the kernels' one thread team for all of them: their share
    of the CPUs, every CPU once none runs."""
    global _RUNNING
    with _TEAM_LOCK:
        _RUNNING += workers
        native.share_cpus(max(1, _RUNNING))


class PersistentExecutor:
    """A walk executor created once and reused for a whole extraction.

    Parameters
    ----------
    n_workers:
        Worker count; ``0`` means auto (:func:`resolve_workers`).  One
        worker runs in-process; more start that many worker threads.

    Contexts are registered once per master (:meth:`register`); then
    batches are queued with :meth:`submit` and collected with
    :meth:`next_done` (:meth:`run` does both for one batch).  With one
    worker every master's batches queue on one in-process vector, which
    runs only while a caller waits.  Worker threads start on first use
    and, until :meth:`close`, count among the worker threads of every
    executor that the kernels' one thread team shares the CPUs with
    (:func:`repro.native.share_cpus`); once none runs, the team has every
    CPU again.  A closed executor rejects further work with
    :class:`~repro.errors.ConfigError` instead of restarting workers.
    """

    def __init__(self, n_workers: int = 1):
        # Set first so __del__/close stay safe if validation below raises.
        self._closed = True
        self._workers: list = []  # (thread, inbox), started on first use
        self.n_workers = resolve_workers(n_workers)
        self._vector = WalkPipeline() if self.n_workers == 1 else None
        self._outbox: queue.SimpleQueue = queue.SimpleQueue()
        # key -> [context, stream spec, the spec's stream provider]; the
        # provider is built on the key's first batch.
        self._registry: dict[int, list] = {}
        self._keys: dict[tuple[int, StreamSpec], int] = {}
        self._ids = count()  # dispatch keys, tickets and entry seqs
        self._queued = [0] * self.n_workers  # walks out on each worker
        # seq -> (ticket, worker, walks) of every entry not yet back.
        self._entries: dict[int, tuple[int, int, int]] = {}
        # ticket -> (uids, entry seqs, results back by seq).
        self._tickets: dict[int, tuple[np.ndarray, list[int], dict]] = {}
        self._finished: dict[int, WalkResults] = {}  # not yet collected
        self._closed = False
        self.dispatches = 0

    @classmethod
    def for_config(cls, config: FRWConfig) -> "PersistentExecutor":
        """The executor a config asks for: ``executor="serial"`` is one
        worker, ``"process"`` is ``n_workers`` of them."""
        return cls(1 if config.executor == "serial" else config.n_workers)

    def _check_open(self) -> None:
        if self._closed:
            raise ConfigError("PersistentExecutor is closed")

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, ctx: ExtractionContext, spec: StreamSpec) -> int:
        """Register a context + stream spec once; returns its dispatch
        key.  A dict insert: every worker reads the context and the
        spec's stream provider (immutable, built on the key's first
        batch) by reference."""
        self._check_open()
        ident = (id(ctx), spec)
        key = self._keys.get(ident)
        if key is None:
            key = self._keys[ident] = next(self._ids)
            self._registry[key] = [ctx, spec, None]
        return key

    def release(self, contexts) -> None:
        """Forget these contexts' registrations."""
        ids = {id(ctx) for ctx in contexts}
        for ident in [ident for ident in self._keys if ident[0] in ids]:
            del self._registry[self._keys.pop(ident)]

    # ------------------------------------------------------------------
    # Worker threads
    # ------------------------------------------------------------------
    def _start(self) -> list:
        """The ``(thread, inbox)`` of every worker, started on first use."""
        if not self._workers:
            _share_team(self.n_workers)
            for w in range(self.n_workers):
                inbox = queue.SimpleQueue()
                thread = threading.Thread(
                    target=_serve,
                    args=(inbox, self._outbox),
                    name=f"repro-worker-{w}",
                    daemon=True,
                )
                thread.start()
                self._workers.append((thread, inbox))
        return self._workers

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
        entry = self._registry[key]
        ctx, spec, streams = entry
        if streams is None:
            streams = entry[2] = streams_from_spec(spec)
        ticket = next(self._ids)
        seqs = [next(self._ids) for _ in range(pieces)]
        self._tickets[ticket] = (uids, seqs, {})
        for j, seq in enumerate(seqs):
            part = uids[j * n // pieces : (j + 1) * n // pieces]
            w = self._queued.index(min(self._queued))
            if self._vector is not None:
                self._vector.submit(seq, key, ctx, streams, part, width)
            else:
                inbox = self._start()[w][1]
                inbox.put(("run", seq, key, ctx, streams, part, width))
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
        """Wait for one entry on any worker and file it.  An error a
        worker thread raised is raised here if it lost an entry still
        awaited; an error that lost only discarded entries is dropped."""
        if self._vector is not None:
            self._collect(*self._vector.next_batch())
            return
        seq, results = self._outbox.get()
        if not isinstance(results, Exception):
            self._collect(seq, results)
        elif any(lost in self._entries for lost in seq):
            raise results

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
        launching launches no further walk; a piece out on a worker
        thread is dropped there the same way, but the worker reports
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
                self._workers[w][1].put(("drop", seq))
        return uids.shape[0] - unlaunched

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def dispatch_stats(self) -> dict:
        """Cumulative dispatch telemetry: ``dispatches`` counts the queue
        entries sent to worker threads (one per batch, or per piece of a
        cut batch)."""
        return {"dispatches": self.dispatches}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop and join the worker threads, which then no longer share
        the kernels' thread team (idempotent).  A worker stops at its
        next batch boundary."""
        if self._closed:
            return
        self._closed = True
        for _, inbox in self._workers:
            inbox.put(("stop",))
        for thread, _ in self._workers:
            thread.join()
        if self._workers:
            _share_team(-self.n_workers)
        self._workers = []

    def __enter__(self) -> "PersistentExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self, _finalizing=sys.is_finalizing) -> None:  # pragma: no cover
        if _finalizing():
            # An executor left open at exit: its daemon workers cannot
            # take the GIL back to read a stop message, so a join would
            # hang the exit, which ends them anyway.
            return
        try:
            self.close()
        except (OSError, RuntimeError, ValueError) as exc:
            # Teardown can race interpreter shutdown (half-collected
            # module globals).  Those failures are expected here and only
            # here; anything else should propagate.
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
    the stages of a one-worker executor's vector; with worker threads it
    raises :class:`~repro.errors.ConfigError`, since one
    :class:`StageTimers` cannot take several vectors' stages at once.
    """
    owned = None
    if executor is None:
        owned = executor = PersistentExecutor.for_config(config)
    if timers is not None:
        if executor._vector is None:
            if owned is not None:
                owned.close()
            raise ConfigError(
                f"timers need a one-worker executor, got {executor.n_workers} "
                'workers; pass executor="serial" to time the stages'
            )
        executor._vector.timers = timers
    return BatchRunner(ctx, config, executor), owned
