"""The memoized extraction service: core engine + asyncio HTTP front door.

Layer 9 of the performance story (docs/PERFORMANCE.md): because rows are a
pure function of ``(canonical geometry, result-affecting config, seed)``,
a long-lived daemon can memoize them *permanently* — a repeated net is a
dictionary lookup, not a Monte-Carlo run.  The service is split in two:

* :class:`ExtractionService` — the synchronous core.  Canonicalizes each
  request, serves full hits straight from the result cache, and shards
  misses over a fleet of per-slot worker threads, each owning its own
  :class:`~repro.frw.parallel.PersistentExecutor`.  A freed slot serves
  the ``interactive`` class first; it takes ``bulk`` work while
  interactive work waits only when interactive already holds a slot and
  bulk holds none — bulk depth can never starve interactive latency, and
  with two or more slots neither class starves.
* :func:`run_server` — a stdlib-only ``asyncio`` HTTP/1.1 front door
  (``python -m repro.cli serve``).  JSON in, JSON out; response bodies are
  rendered with sorted keys so equal results are byte-equal on the wire.

Request config handling: only :data:`repro.config.RESULT_FIELDS` are read
from the request.  Engine fields (executor, worker count, ...) are
certified bit-invisible by the golden suites, so the server drops them and
solves on its slot's own executor — which is exactly why a request solved
under one engine is a valid cache hit for every other.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from http import HTTPStatus
from numbers import Integral

import numpy as np

from .. import __version__
from ..config import ENGINE_FIELDS, RESULT_FIELDS, FRWConfig
from ..errors import ConfigError, GeometryError
from ..frw.parallel import PersistentExecutor, resolve_workers
from ..frw.solver import FRWSolver
from ..geometry import structure_from_dict
from .cache import LRUCache
from .canonical import CanonicalForm, canonical_hash, canonicalize

_LOG = logging.getLogger(__name__)

#: Priority classes, in dispatch-preference order.
PRIORITY_CLASSES = ("interactive", "bulk")

#: Largest accepted request body (bytes) — a service limit, not a physics one.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Per-class latency samples retained for the stats endpoint.
LATENCY_WINDOW = 4096

#: How long a client may take to send one whole request before its
#: connection is closed unanswered.
READ_REQUEST_S = 30.0


@dataclass
class ServiceSettings:
    """Configuration of one service instance.

    ``frw-rr serve`` sets every field from a flag of the same name
    (``n_workers`` from ``--workers``, ``result_cache_entries`` from
    ``--result-cache``).  Each slot's executor has ``n_workers`` workers:
    one runs in-process, any other count, ``0`` (auto) included, starts
    that many worker threads.
    """

    host: str = "127.0.0.1"
    port: int = 8231
    slots: int = 1
    n_workers: int = 1
    result_cache_entries: int = 1024
    port_file: str | None = None

    def validate(self) -> None:
        if self.slots < 1:
            raise ConfigError(f"slots must be >= 1, got {self.slots}")
        if not (0 <= self.port <= 65535):
            raise ConfigError(f"port must be in [0, 65535], got {self.port}")
        if self.result_cache_entries < 1:
            raise ConfigError("cache bounds must be >= 1")
        resolve_workers(self.n_workers)


@dataclass
class _Job:
    """One queued extraction request."""

    future: Future
    form: CanonicalForm
    rhash: str
    config: FRWConfig
    masters: list[int]
    names: list[str]
    priority: str
    t_submit: float


def _row_payload(values, sigma2, hits, walks, total_steps) -> dict:
    """Canonical-order cache entry for one solved row (arrays, not lists)."""
    return {
        "values": np.asarray(values, dtype=np.float64),
        "sigma2": np.asarray(sigma2, dtype=np.float64),
        "hits": np.asarray(hits, dtype=np.int64),
        "walks": int(walks),
        "total_steps": int(total_steps),
    }


class ExtractionService:
    """Memoizing, priority-scheduled extraction engine (see module doc)."""

    def __init__(self, settings: ServiceSettings | None = None):
        self.settings = settings if settings is not None else ServiceSettings()
        self.settings.validate()
        self.results = LRUCache(self.settings.result_cache_entries)
        self._cond = threading.Condition()
        self._queues: dict[str, deque] = {
            cls: deque() for cls in PRIORITY_CLASSES
        }
        self._running = {cls: 0 for cls in PRIORITY_CLASSES}
        self.requests = {cls: 0 for cls in PRIORITY_CLASSES}
        self.full_hits = 0
        self.solves = 0
        self._latencies = {
            cls: deque(maxlen=LATENCY_WINDOW) for cls in PRIORITY_CLASSES
        }
        self._closing = False
        self._executors: dict[int, PersistentExecutor] = {}
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                args=(slot,),
                name=f"repro-service-slot-{slot}",
                daemon=True,
            )
            for slot in range(self.settings.slots)
        ]
        for thread in self._workers:
            thread.start()

    # -- request intake ------------------------------------------------

    def submit(self, request: dict) -> Future:
        """Queue one extraction request; returns a Future of the response.

        Full cache hits resolve immediately (no queueing, no solver) —
        that is the interactive fast path the benchmark's warm p50
        measures.  Misses are enqueued under the request's priority class.
        Recorded latency starts before parsing and, for full hits, ends
        after the response is rendered.
        """
        t0 = time.perf_counter()
        form, rhash, config, masters, names, priority = self._parse(request)
        future: Future = Future()
        with self._cond:
            if self._closing:
                raise ConfigError("service is shutting down")
            self.requests[priority] += 1
            cached = self._assemble_if_complete(form, rhash, masters)
            if cached is not None:
                self.full_hits += 1
                response = self._response(
                    form, rhash, cached, masters, names, cached=True
                )
                self._latencies[priority].append(time.perf_counter() - t0)
                future.set_result(response)
                return future
            self._queues[priority].append(
                _Job(
                    future=future,
                    form=form,
                    rhash=rhash,
                    config=config,
                    masters=masters,
                    names=names,
                    priority=priority,
                    t_submit=t0,
                )
            )
            self._cond.notify_all()
        return future

    def _parse(self, request: dict):
        """Validate and canonicalize one request payload."""
        if not isinstance(request, dict):
            raise ConfigError("request body must be a JSON object")
        if "structure" not in request:
            raise ConfigError("request is missing 'structure'")
        structure = structure_from_dict(request["structure"])
        raw_config = request.get("config", {})
        if not isinstance(raw_config, dict):
            raise ConfigError("'config' must be an object of FRWConfig fields")
        unknown = sorted(
            set(raw_config) - set(RESULT_FIELDS) - set(ENGINE_FIELDS)
        )
        if unknown:
            raise ConfigError(f"unknown config field(s): {', '.join(unknown)}")
        config = FRWConfig(
            **{k: raw_config[k] for k in RESULT_FIELDS if k in raw_config}
        )
        n = len(structure.conductors)
        masters = request.get("masters")
        if masters is None:
            masters = list(range(n))
        if not isinstance(masters, (list, tuple)) or any(
            isinstance(m, bool) or not isinstance(m, Integral) for m in masters
        ):
            raise ConfigError(
                f"masters must be a list of integer indices, got {masters!r}"
            )
        masters = [int(m) for m in masters]
        if not masters or len(set(masters)) != len(masters):
            raise ConfigError("masters must be a non-empty list of distinct indices")
        for m in masters:
            if not (0 <= m < n):
                raise ConfigError(f"master index {m} out of range [0, {n})")
        priority = request.get("priority", "interactive")
        if priority not in PRIORITY_CLASSES:
            raise ConfigError(
                f"priority must be one of {PRIORITY_CLASSES}, got {priority!r}"
            )
        form = canonicalize(structure)
        rhash = canonical_hash(form, config)
        names = [structure.conductors[m].name for m in range(n)]
        return form, rhash, config, masters, names, priority

    # -- priority scheduling -------------------------------------------

    def _pick_class(self) -> str | None:
        """Which class the freed slot should serve next (caller holds lock).

        Interactive first; with both classes queued, bulk gets the slot
        only while interactive already holds one and bulk holds none.
        """
        live = [cls for cls in PRIORITY_CLASSES if self._queues[cls]]
        if len(live) < 2:
            return live[0] if live else None
        if self._running["interactive"] and not self._running["bulk"]:
            return "bulk"
        return "interactive"

    # -- worker slots --------------------------------------------------

    def _slot_executor(self, slot: int) -> PersistentExecutor:
        """The slot-owned persistent executor (lazy)."""
        cfg = self.settings
        executor = self._executors.get(slot)
        if executor is None:
            executor = self._executors[slot] = PersistentExecutor(cfg.n_workers)
        return executor

    def _worker_loop(self, slot: int) -> None:
        while True:
            with self._cond:
                cls = self._pick_class()
                while cls is None:
                    if self._closing:
                        return
                    self._cond.wait()
                    cls = self._pick_class()
                job = self._queues[cls].popleft()
                self._running[cls] += 1
            try:
                response = self._solve(job, self._slot_executor(slot))
                job.future.set_result(response)
            except Exception as exc:
                job.future.set_exception(exc)
            finally:
                with self._cond:
                    self._running[cls] -= 1
                    self._latencies[cls].append(
                        time.perf_counter() - job.t_submit
                    )
                    self._cond.notify_all()

    # -- solve + memoize -----------------------------------------------

    def _assemble_if_complete(
        self, form: CanonicalForm, rhash: str, masters: list[int]
    ) -> dict | None:
        """Row payloads for all masters iff every one is cached.

        Membership is probed first (uncounted) so a partial hit does not
        skew the hit-rate; only a complete set does counted gets.  Caller
        holds the service lock.
        """
        keys = [(rhash, form.to_canonical[m]) for m in masters]
        if not all(key in self.results for key in keys):
            return None
        rows = {}
        for m, key in zip(masters, keys):
            payload = self.results.get(key)
            if payload is None:  # evicted between probe and get: treat as miss
                return None
            rows[m] = payload
        return rows

    def _solve(self, job: _Job, executor: PersistentExecutor) -> dict:
        """Solve the missing canonical rows, memoize, assemble the response."""
        form = job.form
        rows: dict[int, dict] = {}
        missing: list[int] = []
        with self._cond:
            for m in sorted(set(job.masters)):
                payload = self.results.get((job.rhash, form.to_canonical[m]))
                if payload is None:
                    missing.append(form.to_canonical[m])
                else:
                    rows[m] = payload
        if missing:
            missing.sort()
            # A box outside the enclosure or touching another net is a
            # client error (400).  Only a solve checks it: a hit's
            # canonical geometry has passed once already.
            form.structure.validate()
            solver = FRWSolver(form.structure, job.config, executor=executor)
            try:
                result = solver.extract(missing)
            finally:
                solver.close()
            solved = {
                row.master: _row_payload(
                    row.values, row.sigma2, row.hits, row.walks, row.total_steps
                )
                for row in result.rows
            }
            with self._cond:
                self.solves += 1
                for cm in sorted(solved):
                    self.results.put((job.rhash, cm), solved[cm])
            for m in job.masters:
                if m not in rows:
                    rows[m] = solved[form.to_canonical[m]]
        return self._response(
            form, job.rhash, rows, job.masters, job.names, cached=False
        )

    def _response(
        self,
        form: CanonicalForm,
        rhash: str,
        rows: dict[int, dict],
        masters: list[int],
        names: list[str],
        cached: bool,
    ) -> dict:
        """JSON-safe response with rows relabeled to the request's order.

        Cached payloads are in canonical conductor order;
        ``form.map_row_values`` permutes the columns back to the request's
        enumeration.  The permutation is exact integer reindexing and
        ``float64.tolist()`` round-trips through JSON losslessly, so equal
        cache entries render byte-equal bodies.
        """
        form_rows = []
        for m in masters:
            payload = rows[m]
            form_rows.append(
                {
                    "master": m,
                    "name": names[m],
                    "values": form.map_row_values(payload["values"]).tolist(),
                    "sigma2": form.map_row_values(payload["sigma2"]).tolist(),
                    "hits": form.map_row_values(payload["hits"]).tolist(),
                    "walks": payload["walks"],
                    "total_steps": payload["total_steps"],
                }
            )
        return {"canonical_hash": rhash, "cached": cached, "rows": form_rows}

    # -- telemetry + lifecycle -----------------------------------------

    def _percentiles(self, samples) -> dict:
        """Nearest-rank p50/p99: the ``ceil(q·n)``-th smallest sample."""
        if not samples:
            return {"count": 0, "p50_ms": None, "p99_ms": None}
        ordered = sorted(samples)
        n = len(ordered)
        return {
            "count": n,
            "p50_ms": round(ordered[(n - 1) // 2] * 1e3, 3),
            "p99_ms": round(ordered[(99 * n + 99) // 100 - 1] * 1e3, 3),
        }

    def stats(self) -> dict:
        """Counters for /stats: caches, queues, per-class latency."""
        with self._cond:
            return {
                "version": __version__,
                "slots": self.settings.slots,
                "n_workers": self.settings.n_workers,
                "requests": dict(self.requests),
                "full_hits": self.full_hits,
                "solves": self.solves,
                "queues": {
                    cls: len(self._queues[cls]) for cls in PRIORITY_CLASSES
                },
                "result_cache": self.results.stats(),
                "latency": {
                    cls: self._percentiles(self._latencies[cls])
                    for cls in PRIORITY_CLASSES
                },
            }

    def close(self) -> None:
        """Drain-free shutdown: stop workers, release executors (idempotent).

        Queued-but-unstarted jobs fail with :class:`ConfigError`; in-flight
        solves finish first (workers only exit between jobs).
        """
        with self._cond:
            if self._closing:
                return
            self._closing = True
            pending = [
                job for cls in PRIORITY_CLASSES for job in self._queues[cls]
            ]
            for cls in PRIORITY_CLASSES:
                self._queues[cls].clear()
            self._cond.notify_all()
        for job in pending:
            job.future.set_exception(ConfigError("service is shutting down"))
        for thread in self._workers:
            thread.join()
        for slot in sorted(self._executors):
            self._executors[slot].close()
        self._executors.clear()

    def __enter__(self) -> "ExtractionService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# asyncio HTTP front door (stdlib only)
# ----------------------------------------------------------------------

def _json_bytes(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def _http_response(status: int, body: bytes, keep_alive: bool) -> bytes:
    head = (
        f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
    )
    return head.encode() + body


class _BodyTooLarge(ValueError):
    """A declared request body over :data:`MAX_BODY_BYTES` (HTTP 413)."""


async def _read_request(reader: asyncio.StreamReader):
    """Parse one request: ``(method, path, body, keep_alive)``, or ``None``
    on EOF before a request line.

    A body is framed by one ``Content-Length`` only, so on a reused
    connection every reader agrees where a request ends: a
    ``Transfer-Encoding`` header or a repeated or non-numeric length is a
    ``ValueError`` (400, then the connection closes).  ``keep_alive`` is
    false for HTTP/1.0 and for a ``Connection: close`` request.
    """
    line = await reader.readline()
    if not line:
        return None
    parts = line.decode("latin-1").split()
    if len(parts) < 2:
        raise ValueError("malformed request line")
    method, path = parts[0].upper(), parts[1]
    keep_alive = parts[2:] == ["HTTP/1.1"]
    lengths = []
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.decode("latin-1").partition(":")
        name, value = name.strip().lower(), value.strip()
        if name == "content-length":
            lengths.append(value)
        elif name == "transfer-encoding":
            raise ValueError("Transfer-Encoding is not supported")
        elif name == "connection" and "close" in (
            token.strip() for token in value.lower().split(",")
        ):
            keep_alive = False
    if len(lengths) > 1:
        raise ValueError("more than one Content-Length header")
    if lengths and not (lengths[0].isascii() and lengths[0].isdigit()):
        raise ValueError(f"invalid Content-Length {lengths[0]!r}")
    length = int(lengths[0]) if lengths else 0
    if length > MAX_BODY_BYTES:
        raise _BodyTooLarge(f"body exceeds {MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(length) if length else b""
    return method, path, body, keep_alive


class ServiceServer:
    """Bind + serve loop; owns the ExtractionService lifecycle."""

    def __init__(self, settings: ServiceSettings):
        self.settings = settings
        self.service = ExtractionService(settings)
        self.bound_port: int | None = None
        self._stop: asyncio.Event | None = None
        # Connections waiting for their next request, which /shutdown
        # closes, and the tasks serving every connection.
        self._reading: set[asyncio.StreamWriter] = set()
        self._handlers: set[asyncio.Task] = set()

    async def _handle(self, reader, writer) -> None:
        """Serve requests on one connection until either side closes it.

        The connection closes on a client's ``Connection: close``, on
        HTTP/1.0, after any error status, on EOF, after ``READ_REQUEST_S``
        without a whole request, and at shutdown.
        """
        self._handlers.add(asyncio.current_task())
        try:
            keep_alive = True
            while keep_alive and not self._stop.is_set():
                self._reading.add(writer)
                try:
                    request = await asyncio.wait_for(
                        _read_request(reader), READ_REQUEST_S
                    )
                    if request is None:
                        return
                except asyncio.TimeoutError:  # idle or stalled: close unanswered
                    return
                except (ValueError, asyncio.IncompleteReadError) as exc:
                    request = None
                    status = 413 if isinstance(exc, _BodyTooLarge) else 400
                    payload = {"error": str(exc)}
                finally:
                    self._reading.discard(writer)
                if request is not None:
                    method, path, body, keep_alive = request
                    try:
                        status, payload = await self._route(method, path, body)
                    except Exception as exc:
                        # Whatever _route lets escape still gets a status line.
                        _LOG.exception("unhandled error serving a request")
                        status = 500
                        payload = {"error": f"{type(exc).__name__}: {exc}"}
                keep_alive = (
                    keep_alive and status < 400 and not self._stop.is_set()
                )
                writer.write(
                    _http_response(status, _json_bytes(payload), keep_alive)
                )
                await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
            self._handlers.discard(asyncio.current_task())

    async def _route(self, method: str, path: str, body: bytes):
        if method == "GET" and path == "/health":
            return 200, {"ok": True, "version": __version__}
        if method == "GET" and path == "/stats":
            return 200, self.service.stats()
        if method == "POST" and path == "/shutdown":
            assert self._stop is not None
            self._stop.set()
            return 200, {"ok": True, "stopping": True}
        if method == "POST" and path == "/extract":
            try:
                request = json.loads(body) if body else {}
            except (json.JSONDecodeError, RecursionError) as exc:
                return 400, {"error": f"invalid JSON body: {exc}"}
            try:
                future = self.service.submit(request)
            except (ConfigError, GeometryError, TypeError) as exc:
                return 400, {"error": str(exc)}
            try:
                response = await asyncio.wrap_future(future)
            except (ConfigError, GeometryError) as exc:
                return 400, {"error": str(exc)}
            except Exception as exc:
                return 500, {"error": f"{type(exc).__name__}: {exc}"}
            return 200, response
        return 404, {"error": f"no route for {method} {path}"}

    async def run(self, ready=None) -> None:
        """Serve until POST /shutdown (or ``ready``'s caller cancels us)."""
        self._stop = asyncio.Event()
        server = await asyncio.start_server(
            self._handle, self.settings.host, self.settings.port
        )
        self.bound_port = int(server.sockets[0].getsockname()[1])
        if self.settings.port_file:
            with open(self.settings.port_file, "w") as fh:
                fh.write(f"{self.bound_port}\n")
        if ready is not None:
            ready(self.bound_port)
        try:
            async with server:
                await self._stop.wait()
                # Close idle connections and let every handler finish, so
                # that Python 3.12's Server.wait_closed(), which waits for
                # all connections, returns, and no handler is cancelled
                # mid-read when the loop ends (3.11 logs that).
                for writer in list(self._reading):
                    writer.close()
                if self._handlers:
                    await asyncio.wait(self._handlers, timeout=READ_REQUEST_S)
        finally:
            self.service.close()


def run_server(settings: ServiceSettings, ready=None) -> None:
    """Blocking entry point used by ``repro.cli serve`` (and tests).

    ``ready(port)`` fires once the socket is bound — tests use it with
    ``--port 0`` to learn the ephemeral port without polling.
    """
    asyncio.run(ServiceServer(settings).run(ready=ready))
