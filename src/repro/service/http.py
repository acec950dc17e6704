"""The stdlib-only HTTP core of the synthesis service, and the job API.

One request handler and one :class:`ThreadingHTTPServer` serve every
role; a role is a **route table** over an object answering the
:class:`JobApi` calls.  A single node serves :data:`JOB_ROUTES` over its
:class:`JobManager`; the fleet coordinator (:mod:`repro.cluster.http`)
serves the same table over the cluster, plus its worker/cache routes.

====== ============================ ===========================================
Method Path                         Meaning
====== ============================ ===========================================
POST   /v1/jobs                     submit (JSON body) → 202 + job status
GET    /v1/jobs                     list jobs (most recent last)
GET    /v1/jobs/{id}                job status; ``?result=1`` embeds the
                                    full synthesis result payload
GET    /v1/jobs/{id}/events         live progress stream — chunked JSONL of
                                    the typed pipeline events; ``?from=N``
                                    resumes after sequence number N
DELETE /v1/jobs/{id}                cancel
GET    /healthz                     liveness + instantaneous counters
GET    /metrics                     Prometheus text exposition
====== ============================ ===========================================

Admission refusals map straight from the exception contract in
:mod:`repro.service.queue`: :class:`BadRequest` → 400,
:class:`QueueFull`/:class:`RateLimited` → 429 (with ``Retry-After``),
:class:`Draining` → 503.  An injected ``service.queue`` fault surfaces as
a 503 so chaos runs look like a briefly unhealthy server, not a crash.

The event stream is plain HTTP/1.1 chunked transfer encoding — one JSON
object per line, terminated by a ``JobFinished`` event — so the stdlib
client (``http.client``) can follow it with nothing but ``readline()``.

Connections are kept alive, so an answer must leave the connection in
sync: Nagle's algorithm is off (headers and body go out in two writes,
which would otherwise wait on the peer's delayed ACK), a request body
no route read is drained after the answer (or the connection closed),
and a stopped server closes a kept-alive connection instead of
answering on it.
"""

from __future__ import annotations

import json
import threading
from contextlib import suppress
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Iterator, Protocol, Sequence
from urllib.parse import parse_qs, unquote, urlparse

from repro.model.serialize import plain
from repro.resilience.faults import InjectedFault
from repro.service.client import ServiceError
from repro.service.jobs import JobManager
from repro.service.queue import AdmissionError

#: Request bodies above this size are refused unread (400).
MAX_BODY_BYTES = 4 * 1024 * 1024


class JobApi(Protocol):
    """The calls behind the job routes.  Answers are JSON-ready dicts or
    records with a ``to_dict()``; None means no such job; a None item in
    an event stream asks for a keepalive.  :class:`JobManager` answers for
    one node, :class:`~repro.cluster.coordinator.ClusterCoordinator` for
    a fleet."""

    def submit(
        self, payload: Any, *, client: str, priority: int, job_id: str | None
    ) -> Any: ...
    def status(self, job_id: str, *, result: bool = False) -> dict[str, Any] | None: ...
    def jobs(self) -> Sequence[Any]: ...
    def cancel(self, job_id: str) -> Any: ...
    def relay_events(
        self, job_id: str, from_seq: int = 0
    ) -> Iterator[dict[str, Any] | None] | None: ...
    def stats(self) -> dict[str, Any]: ...
    def render_metrics(self) -> str: ...


class HttpError(Exception):
    """Raised by a route to answer ``status`` with ``{"error": message}``."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


#: What a route returns: ``(status, body)`` — JSON unless ``body`` is None
#: (empty) — or ``(status, text, content_type)``; a bare None means the
#: route already answered (the event stream).
Reply = tuple[Any, ...] | None
Route = tuple[str, tuple[str, ...], Callable[..., Reply]]


def route(method: str, pattern: str, handler: Callable[..., Reply]) -> Route:
    """One route-table row; each ``{name}`` path segment is captured and
    passed percent-decoded to ``handler(request, *captures)``."""
    return method, tuple(pattern.strip("/").split("/")), handler


class ApiHandler(BaseHTTPRequestHandler):
    """One request of any role; the route table and the object answering
    it live on ``self.server``."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    query: dict[str, list[str]] = {}
    body: bytes | None = None  # this request's body once read

    def version_string(self) -> str:
        return f"{self.server.banner} {self.sys_version}"  # type: ignore[attr-defined]

    # quiet by default; the daemon's own logging is the journal + metrics
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    @property
    def api(self) -> JobApi:
        return self.server.api  # type: ignore[attr-defined]

    # ----------------------------------------------------------- responses

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str | None,
        retry_after: float | None = None,
    ) -> None:
        try:
            self.send_response(status)
            if content_type is not None:
                self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            if retry_after is not None:
                self.send_header("Retry-After", str(max(1, round(retry_after))))
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True  # the client hung up before its answer

    def _send_json(self, status: int, payload: Any, *, retry_after: float | None = None) -> None:
        body = json.dumps(payload, default=lambda record: record.to_dict())
        self._send(status, body.encode(), "application/json", retry_after)

    # ------------------------------------------------------------ requests

    def read_body(self) -> bytes:
        """The request body, read once.  Its declared length is checked
        before the read: ``rfile.read(-1)`` would park this thread until
        the peer closes."""
        if self.body is None:
            length = self.headers.get("Content-Length") or "0"
            if not length.isdecimal() or int(length) > MAX_BODY_BYTES:
                self.close_connection = True
                raise HttpError(400, f"unreadable body: Content-Length not in 0..{MAX_BODY_BYTES}")
            self.body = self.rfile.read(int(length))
        return self.body

    def read_json(self) -> Any:
        raw = self.read_body()
        try:
            return json.loads(raw) if raw else {}
        except ValueError as exc:
            raise HttpError(400, f"unreadable body: {exc}") from exc

    def _client_id(self) -> str:
        """Fair-share identity: an explicit header beats the peer address
        (so load generators can emulate distinct tenants)."""
        return self.headers.get("X-Client-Id") or self.client_address[0]

    # ------------------------------------------------------------- routing

    def dispatch(self) -> None:
        self.body = None
        if self.server.socket.fileno() < 0:  # type: ignore[attr-defined]
            self.close_connection = True  # stopped: hang up instead of answering
            return
        self._route()
        with suppress(HttpError):  # too long to drain: the connection is closed instead
            self.read_body()  # a body no route read would be parsed as the next request

    def _route(self) -> None:
        parsed = urlparse(self.path)
        self.query = parse_qs(parsed.query)
        parts = [unquote(p) for p in parsed.path.split("/") if p]
        routes: tuple[Route, ...] = self.server.routes  # type: ignore[attr-defined]
        for method, pattern, handler in routes:
            if method == self.command and len(pattern) == len(parts):
                pairs = list(zip(pattern, parts))
                if all(seg == part or seg[0] == "{" for seg, part in pairs):
                    break
        else:
            self._send_json(404, {"error": f"no such resource: {parsed.path}"})
            return
        try:
            reply = handler(self, *(part for seg, part in pairs if seg[0] == "{"))
        except HttpError as exc:
            self._send_json(exc.status, {"error": str(exc)})
        except AdmissionError as exc:
            self._send_json(exc.status, {"error": str(exc)}, retry_after=exc.retry_after)
        except ServiceError as exc:  # a worker hop the coordinator proxied
            self._send_json(exc.status or 502, {"error": exc.message})
        else:
            if reply is None:
                return
            status, body, *content_type = reply
            if content_type:
                self._send(status, body.encode(), *content_type)
            elif body is None:
                self._send(status, b"", None)
            else:
                self._send_json(status, body)

    do_GET = do_POST = do_PUT = do_DELETE = dispatch  # noqa: N815

    # ------------------------------------------------------------ streaming

    def stream_events(self, events: Iterator[dict[str, Any] | None]) -> None:
        """Frame ``events`` as chunked NDJSON (a None item goes out as a
        keepalive comment-line) and end with the zero-length chunk."""
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("Cache-Control", "no-store")
        try:
            self.end_headers()
            for event in events:
                line = ": keepalive" if event is None else json.dumps(event, sort_keys=True)
                self._write_chunk(line.encode() + b"\n")
            self._write_chunk(b"")  # terminal zero-length chunk
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True  # client went away mid-stream

    def _write_chunk(self, data: bytes) -> None:
        self.wfile.write(f"{len(data):X}\r\n".encode() + data + b"\r\n")
        self.wfile.flush()


# ------------------------------------------------------------ the job routes


def _submit(request: ApiHandler) -> Reply:
    payload = request.read_json()
    priority = 0
    job_id: str | None = None
    if isinstance(payload, dict):
        try:  # JSON's own int: no "3", 2.7 or true cast into one
            priority = plain("int").decode(payload.get("priority", 0))
        except TypeError:
            raise HttpError(400, "'priority' must be an integer") from None
        # The cluster coordinator assigns ids at its door and forwards
        # them so status/journal identities line up fleet-wide.
        job_id = payload.pop("id", None)
        if job_id is not None and not (isinstance(job_id, str) and job_id):
            raise HttpError(400, "'id' must be a non-empty string")
    try:
        return 202, request.api.submit(
            payload, client=request._client_id(), priority=priority, job_id=job_id
        )
    except InjectedFault as exc:
        raise HttpError(503, f"injected fault: {exc}") from exc


def _known(job_id: str, answer: Any) -> Any:
    if answer is None:
        raise HttpError(404, f"no such job: {job_id}")
    return answer


def _status(request: ApiHandler, job_id: str) -> Reply:
    result = request.query.get("result", ["0"])[0] not in ("0", "false", "")
    return 200, _known(job_id, request.api.status(job_id, result=result))


def _cancel(request: ApiHandler, job_id: str) -> Reply:
    try:
        return 200, _known(job_id, request.api.cancel(job_id))
    except (ServiceError, OSError) as exc:
        raise HttpError(502, str(exc)) from exc


def _events(request: ApiHandler, job_id: str) -> Reply:
    try:
        after = int(request.query.get("from", ["0"])[0])
    except ValueError:
        raise HttpError(400, "'from' must be an integer") from None
    request.stream_events(_known(job_id, request.api.relay_events(job_id, after)))
    return None


def _metrics(request: ApiHandler) -> Reply:
    return 200, request.api.render_metrics(), "text/plain; version=0.0.4; charset=utf-8"


JOB_ROUTES: tuple[Route, ...] = (
    route("POST", "/v1/jobs", _submit),
    route("GET", "/v1/jobs", lambda request: (200, {"jobs": request.api.jobs()})),
    route("GET", "/v1/jobs/{id}", _status),
    route("GET", "/v1/jobs/{id}/events", _events),
    route("DELETE", "/v1/jobs/{id}", _cancel),
    route("GET", "/healthz", lambda request: (200, request.api.stats())),
    route("GET", "/metrics", _metrics),
)


# ---------------------------------------------------------------- the server


class ApiServer(ThreadingHTTPServer):
    """The one listener: a route table over the object answering it."""

    daemon_threads = True
    routes: tuple[Route, ...] = JOB_ROUTES
    banner = "repro-synth"

    def __init__(
        self, address: tuple[str, int], api: JobApi, *, verbose: bool = False
    ) -> None:
        super().__init__(address, ApiHandler)
        self.api = api
        self.verbose = verbose
        self._serve_thread = threading.Thread(
            target=self.serve_forever, name=self.banner, daemon=True
        )

    @property
    def port(self) -> int:
        return self.server_address[1]

    def start(self) -> None:
        """Serve on a background thread until :meth:`stop`."""
        self._serve_thread.start()

    def stop(self) -> None:
        """Close the listener and join the serving thread."""
        self.shutdown()
        self.server_close()
        self._serve_thread.join(5.0)


class ServiceServer(ApiServer):
    """A single node: the job routes over its JobManager."""

    api: JobManager


def run_server(
    manager: JobManager,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    verbose: bool = False,
) -> ServiceServer:
    """Start the manager and serve it on a background thread (port 0 picks
    an ephemeral port; see ``.port``); stop with :func:`shutdown_server`."""
    server = ServiceServer((host, port), manager, verbose=verbose)
    manager.start()
    server.start()
    return server


def shutdown_server(server: ServiceServer, timeout: float | None = 30.0) -> None:
    """Graceful stop: drain the manager (running jobs finish, queued jobs
    stay journaled), then close the listener."""
    server.api.drain(timeout=timeout)
    server.stop()


__all__ = [
    "JOB_ROUTES",
    "MAX_BODY_BYTES",
    "ApiHandler",
    "ApiServer",
    "HttpError",
    "JobApi",
    "Reply",
    "ServiceServer",
    "route",
    "run_server",
    "shutdown_server",
]
