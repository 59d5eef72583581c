"""Stdlib HTTP client for the extraction service.

A thin convenience over :mod:`http.client`, JSON in/out.  Each calling
thread keeps one persistent HTTP/1.1 connection and reuses it for every
call, so a cache hit costs one round trip, not a TCP handshake too.  If
the server has closed a reused connection (it drops connections idle
for ``READ_REQUEST_S``), the client reconnects and resends the request
once; that is safe because every route is a pure function of its
request, ``/extract`` included.  :meth:`ServiceClient.close` (or leaving
a ``with`` block) closes every thread's connection.  Request bodies are
rendered with sorted keys so identical requests are byte-equal on the
wire; ``extract_raw`` exposes the raw response bytes for the
byte-identity golden tests.

Example::

    from repro.service import ServiceClient
    with ServiceClient(port=8231) as client:
        response = client.extract(structure, config={"seed": 7, "max_walks": 2000})
    print(response["cached"], response["rows"][0]["values"])
"""

from __future__ import annotations

import json
import threading
from http.client import HTTPConnection

from ..config import RESULT_FIELDS, FRWConfig
from ..geometry import Structure, structure_to_dict


def config_payload(config: FRWConfig) -> dict:
    """The result-affecting projection of a config, as a JSON-safe dict.

    Engine fields are omitted deliberately: the server substitutes its own
    (they are bit-invisible), and omitting them keeps the request — and
    therefore the canonical hash inputs — identical across client engines.
    """
    return {name: getattr(config, name) for name in RESULT_FIELDS}


class ServiceError(RuntimeError):
    """Non-200 response from the service (message carries the body)."""

    def __init__(self, status: int, body: bytes):
        self.status = status
        self.body = body
        super().__init__(f"HTTP {status}: {body.decode(errors='replace')}")


class ServiceClient:
    """Client for one ``repro.cli serve`` endpoint (see module doc).

    Safe to share between threads: each thread gets its own connection.
    """

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8231, timeout: float = 60.0
    ):
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self._lock = threading.Lock()
        self._connections: dict[threading.Thread, HTTPConnection] = {}

    def _connection(self) -> HTTPConnection:
        """The calling thread's connection; closes those of dead threads."""
        me = threading.current_thread()
        with self._lock:
            conn = self._connections.get(me)
            if conn is None:
                for thread in [t for t in self._connections if not t.is_alive()]:
                    self._connections.pop(thread).close()
                conn = HTTPConnection(self.host, self.port, timeout=self.timeout)
                self._connections[me] = conn
        return conn

    def _request(self, method: str, path: str, payload: dict | None = None):
        body = (
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
            if payload is not None
            else b""
        )
        conn = self._connection()
        # An open socket has served a request before, so the server may
        # have closed it since; a fresh one failing is a real error.
        reused = conn.sock is not None
        try:
            try:
                return self._exchange(conn, method, path, body)
            except ConnectionError:
                if not reused:
                    raise
                conn.close()
            return self._exchange(conn, method, path, body)  # on a new socket
        except BaseException:
            conn.close()
            raise

    @staticmethod
    def _exchange(conn: HTTPConnection, method: str, path: str, body: bytes):
        conn.request(
            method, path, body=body, headers={"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        """Close every thread's connection; later calls reconnect."""
        with self._lock:
            connections = list(self._connections.values())
            self._connections.clear()
        for conn in connections:
            conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @staticmethod
    def _build_payload(
        structure,
        config=None,
        masters=None,
        priority: str = "interactive",
    ) -> dict:
        payload: dict = {
            "structure": (
                structure_to_dict(structure)
                if isinstance(structure, Structure)
                else structure
            ),
            "priority": priority,
        }
        if config is not None:
            payload["config"] = (
                config_payload(config)
                if isinstance(config, FRWConfig)
                else config
            )
        if masters is not None:
            payload["masters"] = list(masters)
        return payload

    def extract_raw(
        self, structure, config=None, masters=None, priority="interactive"
    ) -> tuple[int, bytes]:
        """``(status, body_bytes)`` of one /extract call — the raw wire
        bytes, for byte-identity assertions."""
        return self._request(
            "POST",
            "/extract",
            self._build_payload(structure, config, masters, priority),
        )

    def extract(
        self, structure, config=None, masters=None, priority="interactive"
    ) -> dict:
        """Extract rows; raises :class:`ServiceError` on non-200."""
        status, body = self.extract_raw(structure, config, masters, priority)
        if status != 200:
            raise ServiceError(status, body)
        return json.loads(body)

    def stats(self) -> dict:
        status, body = self._request("GET", "/stats")
        if status != 200:
            raise ServiceError(status, body)
        return json.loads(body)

    def health(self) -> dict:
        status, body = self._request("GET", "/health")
        if status != 200:
            raise ServiceError(status, body)
        return json.loads(body)

    def shutdown(self) -> dict:
        status, body = self._request("POST", "/shutdown")
        if status != 200:
            raise ServiceError(status, body)
        return json.loads(body)
