"""The asyncio HTTP front-end over the shared work-queue core.

Stdlib only: :func:`asyncio.start_server` plus a small hand-rolled
HTTP/1.1 layer (request line, headers, ``Content-Length`` body,
``Connection: close`` responses) — no third-party web framework, per
the repo's no-new-dependencies rule.

Endpoints
---------
``POST /analyze``
    Submit one task set (``"taskset"``) or a batch (``"tasksets"``) for
    analysis (see :mod:`repro.service.schema` for the body).  Responds
    202 with a job payload; with ``"wait": true`` the response blocks
    until the job settles and carries the results (200).  Duplicate
    submissions — byte-identical work, whether queued, running, or
    recently completed — coalesce onto the existing job: same
    ``job_id``, zero recompute.
``GET /jobs/{id}``
    Status/result of a job (404 when unknown or evicted).
``GET /jobs/{id}/events``
    Server-sent events (``text/event-stream``): ``progress`` events
    while the job runs, one terminal ``done`` event with the full job
    payload.
``GET /metrics``
    Live :class:`~repro.obs.metrics.MetricsRegistry` snapshot.
``GET /healthz``
    Process liveness (always 200 while the loop runs).
``GET /readyz``
    Readiness: 200 while the core is accepting work, 503 once draining
    or the pool/dispatcher died.

Shutdown: SIGTERM/SIGINT flip ``/readyz`` to 503, stop accepting new
submissions, wait for in-flight jobs to settle, then close — the
graceful-drain contract load balancers expect.
"""

from __future__ import annotations

import asyncio
import json
import signal
from typing import Any, Dict, Optional
from urllib.parse import urlsplit

from repro.obs.metrics import MetricsRegistry
from repro.pipeline.core import JobHandle, WorkQueueCore
from repro.pipeline.fault_tolerance import RetryPolicy
from repro.service.schema import (
    MAX_BODY_BYTES,
    WIRE_VERSION,
    WireError,
    error_payload,
    job_payload,
    parse_analyze_payload,
)

#: Reason phrases for the status codes this server emits.
_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Cap on request-head lines (request line or one header), bytes.
_MAX_LINE_BYTES = 16 * 1024

#: Seconds between SSE progress polls of a running job's ``done_count``.
DEFAULT_EVENT_INTERVAL = 0.05


class _HttpRequest:
    """One parsed request: method, path, query, headers, body."""

    def __init__(
        self,
        method: str,
        path: str,
        query: str,
        headers: Dict[str, str],
        body: bytes,
    ) -> None:
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body


class AnalysisService:
    """The HTTP server: routes requests onto a :class:`WorkQueueCore`.

    One service wraps one core; the core owns the cache, pool, retry
    policy and metrics, the service owns the sockets and the drain
    choreography.  Start it with :meth:`serve_forever` (blocking, with
    signal handlers) or :meth:`start`/:meth:`drain` from tests.
    """

    def __init__(
        self,
        core: WorkQueueCore,
        host: str = "127.0.0.1",
        port: int = 8787,
        *,
        metrics: Optional[MetricsRegistry] = None,
        event_interval: float = DEFAULT_EVENT_INTERVAL,
        drain_grace: float = 5.0,
    ) -> None:
        self.core = core
        self.host = host
        self.port = port
        self.metrics = metrics if metrics is not None else core.runner.metrics
        self.event_interval = event_interval
        self.drain_grace = drain_grace
        self._server: Optional[asyncio.base_events.Server] = None
        self._draining = False
        self._shutdown = asyncio.Event()
        self._open_connections = 0
        self._idle = asyncio.Event()
        self._idle.set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections (non-blocking)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        if self.port == 0:
            sockets = self._server.sockets
            if sockets:
                self.port = sockets[0].getsockname()[1]

    def request_shutdown(self) -> None:
        """Ask :meth:`serve_forever` to drain and exit (signal-safe)."""
        self._shutdown.set()

    @property
    def draining(self) -> bool:
        """True once shutdown began: ``/readyz`` is 503, submits are 503."""
        return self._draining

    async def drain(self) -> None:
        """Graceful shutdown: refuse new work, settle in-flight, close.

        ``/readyz`` flips to 503 immediately; jobs already queued or
        running settle; then the listener closes and open connections
        get :attr:`drain_grace` seconds to finish before the server
        stops waiting on them.
        """
        self._draining = True
        loop = asyncio.get_running_loop()
        while self.core.active_count() > 0:
            await asyncio.sleep(self.event_interval)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=self.drain_grace)
        except asyncio.TimeoutError:
            pass
        # Stop the dispatcher/pool off-loop: close() joins a thread.
        await loop.run_in_executor(None, self.core.close)

    async def serve_forever(self, *, install_signal_handlers: bool = True) -> None:
        """Run until SIGTERM/SIGINT (or :meth:`request_shutdown`), then drain."""
        if self._server is None:
            await self.start()
        loop = asyncio.get_running_loop()
        installed = []
        if install_signal_handlers:
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(signum, self.request_shutdown)
                    installed.append(signum)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass
        try:
            await self._shutdown.wait()
            await self.drain()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._open_connections += 1
        self._idle.clear()
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            try:
                await self._route(request, writer)
            except WireError as error:
                await self._send_json(
                    writer, error.status, error_payload(str(error))
                )
            except Exception as error:  # noqa: BLE001 - boundary: keep serving
                await self._send_json(
                    writer,
                    500,
                    error_payload(f"{type(error).__name__}: {error}"),
                )
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
            asyncio.LimitOverrunError,
        ):
            pass  # client went away mid-request; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._open_connections -= 1
            if self._open_connections == 0:
                self._idle.set()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[_HttpRequest]:
        """Parse one HTTP/1.1 request head + Content-Length body."""
        request_line = await reader.readline()
        if not request_line:
            return None
        if len(request_line) > _MAX_LINE_BYTES:
            raise WireError("request line too long", status=400)
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise WireError("malformed HTTP request line", status=400)
        method, target, _version = parts
        split = urlsplit(target)
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if len(line) > _MAX_LINE_BYTES:
                raise WireError("header line too long", status=400)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            raise WireError(f"bad Content-Length {length_text!r}") from None
        if length < 0:
            raise WireError(f"bad Content-Length {length_text!r}")
        if length > MAX_BODY_BYTES:
            raise WireError(
                f"request body exceeds {MAX_BODY_BYTES} bytes", status=413
            )
        body = await reader.readexactly(length) if length else b""
        return _HttpRequest(method.upper(), split.path, split.query, headers, body)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(
        self, request: _HttpRequest, writer: asyncio.StreamWriter
    ) -> None:
        method, path = request.method, request.path
        if path == "/healthz":
            await self._expect(method, "GET")
            await self._send_json(writer, 200, {"status": "ok"})
        elif path == "/readyz":
            await self._expect(method, "GET")
            ready = not self._draining and self.core.alive()
            detail = "draining" if self._draining else (
                "ok" if ready else "dead"
            )
            await self._send_json(
                writer, 200 if ready else 503, {"status": detail}
            )
        elif path == "/metrics":
            await self._expect(method, "GET")
            snapshot: Dict[str, Any] = (
                self.metrics.snapshot() if self.metrics is not None else {}
            )
            snapshot["service"] = {
                "jobs_executed": self.core.jobs_executed,
                "jobs_coalesced": self.core.jobs_coalesced,
                "jobs_active": self.core.active_count(),
                "stats": self.core.stats.to_dict(),
                "faults": self.core.faults.to_dict(),
            }
            await self._send_json(writer, 200, snapshot)
        elif path == "/analyze":
            await self._expect(method, "POST")
            await self._handle_analyze(request, writer)
        elif path.startswith("/jobs/"):
            await self._expect(method, "GET")
            remainder = path[len("/jobs/"):]
            if remainder.endswith("/events"):
                await self._handle_events(remainder[: -len("/events")], writer)
            else:
                await self._handle_job(remainder, writer)
        else:
            raise WireError(f"no route for {path}", status=404)

    async def _expect(self, method: str, expected: str) -> None:
        if method != expected:
            raise WireError(f"method {method} not allowed", status=405)

    async def _handle_analyze(
        self, request: _HttpRequest, writer: asyncio.StreamWriter
    ) -> None:
        if self._draining:
            raise WireError("server is draining", status=503)
        requests, wait = parse_analyze_payload(request.body)
        handle, coalesced = self.core.submit(requests)
        if wait:
            await self._wait_for(handle)
            await self._send_json(
                writer, 200, job_payload(handle, include_results=True)
            )
            return
        status = 200 if (coalesced and handle.is_done()) else 202
        await self._send_json(
            writer, status, job_payload(handle, include_results=handle.is_done())
        )

    async def _handle_job(
        self, job_id: str, writer: asyncio.StreamWriter
    ) -> None:
        handle = self.core.get_job(job_id)
        if handle is None:
            raise WireError(f"unknown job {job_id}", status=404)
        await self._send_json(writer, 200, job_payload(handle))

    async def _handle_events(
        self, job_id: str, writer: asyncio.StreamWriter
    ) -> None:
        """Stream ``progress`` SSE events, then one terminal ``done``."""
        handle = self.core.get_job(job_id)
        if handle is None:
            raise WireError(f"unknown job {job_id}", status=404)
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-store\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        writer.write(head.encode("ascii"))
        await writer.drain()
        last_done = -1
        while not handle.is_done():
            if handle.done_count != last_done:
                last_done = handle.done_count
                event = {
                    "job_id": handle.job_id,
                    "status": handle.state,
                    "done": last_done,
                    "total": handle.total,
                }
                writer.write(_sse("progress", event))
                await writer.drain()
            await self._wait_for(handle, timeout=self.event_interval)
        writer.write(_sse("done", dict(job_payload(handle))))
        await writer.drain()

    # ------------------------------------------------------------------
    # Thread <-> loop bridge
    # ------------------------------------------------------------------
    async def _wait_for(
        self, handle: JobHandle, timeout: Optional[float] = None
    ) -> None:
        """Await a job's settle event without blocking the loop.

        The dispatcher thread fires :meth:`JobHandle.add_done_callback`,
        which pings the loop via ``call_soon_threadsafe`` — no polling,
        so a thousand concurrent waiters cost a thousand idle futures,
        not a thousand busy loops.
        """
        if handle.is_done():
            return
        loop = asyncio.get_running_loop()
        settled = asyncio.Event()

        def _notify() -> None:
            loop.call_soon_threadsafe(settled.set)

        handle.add_done_callback(_notify)
        if timeout is None:
            await settled.wait()
        else:
            try:
                await asyncio.wait_for(settled.wait(), timeout=timeout)
            except asyncio.TimeoutError:
                pass

    # ------------------------------------------------------------------
    # Response writing
    # ------------------------------------------------------------------
    async def _send_json(
        self, writer: asyncio.StreamWriter, status: int, payload: Dict[str, Any]
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        writer.write(head.encode("ascii") + body)
        await writer.drain()


def _sse(event: str, data: Dict[str, Any]) -> bytes:
    """One server-sent event frame."""
    return f"event: {event}\ndata: {json.dumps(data)}\n\n".encode("utf-8")


def serve(
    host: str = "127.0.0.1",
    port: int = 8787,
    *,
    jobs: int = 1,
    cache: Optional[str] = None,
    quarantine: Optional[str] = None,
    retry: Optional[RetryPolicy] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> None:
    """Run the analysis service until SIGTERM/SIGINT (blocking).

    Builds a :class:`~repro.pipeline.core.WorkQueueCore` (``jobs``
    worker processes, optional disk ``cache`` directory and
    ``quarantine`` JSONL) plus an :class:`AnalysisService` on
    ``host:port``, then serves until a termination signal triggers the
    graceful drain.  This is the target of ``repro-mc serve`` and
    :func:`repro.api.serve`.
    """
    registry = metrics if metrics is not None else MetricsRegistry()
    core = WorkQueueCore(
        jobs=jobs,
        cache=cache,
        retry=retry,
        quarantine=quarantine,
        metrics=registry,
    )
    service = AnalysisService(core, host, port, metrics=registry)

    async def _main() -> None:
        await service.start()
        print(
            f"repro-mc service listening on http://{service.host}:{service.port} "
            f"(wire v{WIRE_VERSION}, jobs={jobs})",
            flush=True,
        )
        await service.serve_forever()

    try:
        asyncio.run(_main())
    finally:
        core.close()
