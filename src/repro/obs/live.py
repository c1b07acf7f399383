"""Embedded HTTP observability server (the live telemetry plane).

A stdlib-only asyncio HTTP/1.1 server a serve session (or any long-
running campaign) hosts on its own event loop to expose runtime state:

====================  =====================================================
Endpoint              Payload
====================  =====================================================
``GET /metrics``      Prometheus text exposition of the session registry.
``GET /healthz``      ``ok`` while the process is up (liveness).
``GET /readyz``       ``ready`` once the session loop is running, 503
                      before that (readiness).
``GET /status``       JSON per-tenant snapshot published at each tick
                      barrier: backlog, shedding, availability, latency
                      quantiles, retirement budget, policy counts.
``GET /slo``          JSON burn rates + alert states from the SLO engine.
``GET /ledger/tail``  Chunked stream of ledger JSONL lines as they are
                      appended (``?from=SEQ`` to skip history); the
                      stream ends when the session completes.
``POST /quitz``       Ask the host to stop lingering and exit cleanly.
====================  =====================================================

Determinism: handlers only *read* shared state; the session publishes
an immutable snapshot at each tick barrier. Nothing an HTTP client does
can reorder ledger writes or perturb the seeded arrival process, so a
scraped session still produces a byte-identical ledger.

Requests are parsed with ``asyncio.StreamReader.readuntil`` and
answered with ``Connection: close`` (one request per connection — these
are scrape endpoints, not a web framework). ``port=0`` binds an
ephemeral port, exposed via :attr:`ObservabilityServer.port` after
:meth:`~ObservabilityServer.start`.

Layering: this module must not import :mod:`repro.serve` — snapshots
arrive as plain dicts from whoever hosts the server.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SloEngine

__all__ = ["ObservabilityServer"]

_MAX_REQUEST_BYTES = 65536
_SERVER_NAME = "repro-obs"


class ObservabilityServer:
    """Asyncio HTTP server exposing a session's telemetry surfaces."""

    def __init__(
        self,
        registry: MetricsRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        slo: Optional[SloEngine] = None,
    ) -> None:
        self.registry = registry
        self.host = host
        self.requested_port = port
        self.slo = slo
        #: Set by ``POST /quitz`` — hosts use it to cut linger short.
        self.quit_event = asyncio.Event()
        self._server: Optional[asyncio.AbstractServer] = None
        self._ready = False
        self._complete = False
        self._snapshot: Dict[str, object] = {}
        self._ledger_lines: List[str] = []
        self._new_lines = asyncio.Condition()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections."""
        if self._server is not None:
            raise RuntimeError("observability server already started")
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.requested_port
        )

    @property
    def started(self) -> bool:
        """True once :meth:`start` has bound the listening socket."""
        return self._server is not None

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` ephemeral binds)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("observability server not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        return f"http://{self.host}:{self.port}"

    async def stop(self) -> None:
        """Stop accepting connections and release tail streams."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.mark_complete()

    def mark_ready(self) -> None:
        """Flip ``/readyz`` to 200 (the session loop is running)."""
        self._ready = True

    async def mark_complete(self) -> None:
        """Tell tail streams the ledger is final (ends ``/ledger/tail``)."""
        self._complete = True
        async with self._new_lines:
            self._new_lines.notify_all()

    # ------------------------------------------------------------------
    # Publishing (called by the host at each tick barrier)
    # ------------------------------------------------------------------
    async def publish(
        self,
        snapshot: Optional[Dict[str, object]] = None,
        ledger_lines: Optional[List[str]] = None,
    ) -> None:
        """Publish a new ``/status`` snapshot and/or fresh ledger lines."""
        if snapshot is not None:
            self._snapshot = snapshot
        if ledger_lines:
            self._ledger_lines.extend(ledger_lines)
            async with self._new_lines:
                self._new_lines.notify_all()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            method, target = await self._read_request(reader)
            await self._dispatch(method, target, writer)
        except (
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            ValueError,
            ConnectionError,
        ):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str]:
        head = await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), timeout=10.0
        )
        if len(head) > _MAX_REQUEST_BYTES:
            raise ValueError("request too large")
        request_line = head.split(b"\r\n", 1)[0].decode("latin-1")
        parts = request_line.split()
        if len(parts) != 3:
            raise ValueError(f"bad request line: {request_line!r}")
        method, target, _version = parts
        return method.upper(), target

    async def _dispatch(
        self, method: str, target: str, writer: asyncio.StreamWriter
    ) -> None:
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = parse_qs(split.query)
        if method == "POST" and path == "/quitz":
            self.quit_event.set()
            await _respond(writer, 200, "text/plain", "bye\n")
        elif method != "GET":
            await _respond(writer, 405, "text/plain", "method not allowed\n")
        elif path == "/metrics":
            await _respond(
                writer,
                200,
                "text/plain; version=0.0.4",
                self.registry.render_prometheus(),
            )
        elif path == "/healthz":
            await _respond(writer, 200, "text/plain", "ok\n")
        elif path == "/readyz":
            if self._ready:
                await _respond(writer, 200, "text/plain", "ready\n")
            else:
                await _respond(writer, 503, "text/plain", "starting\n")
        elif path == "/status":
            await _respond_json(writer, self._snapshot)
        elif path == "/slo":
            payload = self.slo.to_dict() if self.slo is not None else {}
            await _respond_json(writer, payload)
        elif path == "/ledger/tail":
            start = int(query.get("from", ["0"])[0])
            await self._stream_ledger(writer, max(0, start))
        else:
            await _respond(writer, 404, "text/plain", "not found\n")

    async def _stream_ledger(
        self, writer: asyncio.StreamWriter, start: int
    ) -> None:
        """Chunked-transfer stream of ledger lines from ``start`` on.

        Sends everything already appended, then blocks on the tick-
        barrier condition for fresh lines until the session completes.
        """
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Server: " + _SERVER_NAME.encode() + b"\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        cursor = start
        while True:
            lines = self._ledger_lines[cursor:]
            cursor += len(lines)
            if lines:
                body = ("".join(line + "\n" for line in lines)).encode("utf-8")
                writer.write(f"{len(body):x}\r\n".encode("ascii"))
                writer.write(body)
                writer.write(b"\r\n")
                await writer.drain()
            if self._complete and cursor >= len(self._ledger_lines):
                break
            async with self._new_lines:
                if cursor >= len(self._ledger_lines) and not self._complete:
                    await self._new_lines.wait()
        writer.write(b"0\r\n\r\n")
        await writer.drain()


async def _respond(
    writer: asyncio.StreamWriter, status: int, content_type: str, body: str
) -> None:
    reasons = {200: "OK", 404: "Not Found", 405: "Method Not Allowed",
               503: "Service Unavailable"}
    payload = body.encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {reasons.get(status, 'OK')}\r\n"
        f"Server: {_SERVER_NAME}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    writer.write(head.encode("latin-1") + payload)
    await writer.drain()


async def _respond_json(writer: asyncio.StreamWriter, payload: object) -> None:
    await _respond(
        writer,
        200,
        "application/json",
        json.dumps(payload, sort_keys=True) + "\n",
    )
