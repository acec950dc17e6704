"""Stdlib client for the synthesis service.

:class:`ServiceClient` speaks the small JSON API of
:mod:`repro.service.http` over ``http.client`` — submit, poll, cancel,
scrape — and follows the chunked progress stream with automatic
reconnection: every event carries its sequence number, so a dropped
connection resumes with ``?from=<last seq + 1>`` under the process retry
policy (:mod:`repro.resilience`) and the caller sees each event exactly
once.

Every call rides a kept-alive connection: each thread keeps one per
host, takes it out of its pool for the length of an exchange and puts it
back only once the answer was read to the end, so an abandoned stream,
an exception or a ``Connection: close`` answer closes the connection
instead of leaving it out of sync.  A *reused* connection the server
dropped while idle is replaced once and the request resent; a fresh one
never retries.

Errors mirror the server's admission contract: any non-2xx answer raises
:class:`ServiceError` carrying the HTTP status and the server's
``error`` text, so CLI code can distinguish a 400 (fix your program)
from a 429 (back off and resubmit).
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from email.message import Message
from http.client import HTTPConnection, HTTPResponse, HTTPSConnection
from typing import Any, Callable, Iterator
from urllib.parse import urlsplit

from repro.resilience.retry import RetryPolicy, current_policy

#: This thread's idle connections, one per ``scheme://host:port`` (a
#: ``threading.local``'s ``__dict__`` is the calling thread's own).
_POOL = threading.local()


@contextmanager
def _response(
    method: str, url: str, body: bytes | None, headers: dict[str, str], timeout: float | None
) -> Iterator[HTTPResponse]:
    """Send one request on this thread's connection to the host and yield
    the answer.  The connection returns to the pool only when the answer
    was read to the end and the server keeps it open; every other exit
    closes it.  A reused connection the server closed while idle fails
    with a ``ConnectionResetError`` (``RemoteDisconnected`` is one) or a
    ``BrokenPipeError`` before any answer: it is replaced and the request
    sent once more."""
    parts = urlsplit(url)
    origin = f"{parts.scheme}://{parts.netloc}"
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    conn = vars(_POOL).pop(origin, None)
    reused = conn is not None
    while True:
        if conn is None:
            conn = (HTTPSConnection if parts.scheme == "https" else HTTPConnection)(parts.netloc)
        elif conn.sock is not None:
            conn.sock.settimeout(timeout)
        conn.timeout = timeout
        try:
            conn.request(method, target, body=body, headers=headers)
            response = conn.getresponse()
            break
        except BaseException as exc:
            conn.close()
            if not (reused and isinstance(exc, (ConnectionResetError, BrokenPipeError))):
                raise
            conn, reused = None, False
    try:
        yield response
    finally:
        if response.isclosed() and conn.sock is not None and origin not in vars(_POOL):
            vars(_POOL)[origin] = conn
        else:
            conn.close()


def http_exchange(
    method: str,
    url: str,
    *,
    body: bytes | None = None,
    headers: dict[str, str] | None = None,
    timeout: float | None = None,
) -> tuple[int, Message, bytes]:
    """One HTTP request/response on a kept-alive connection:
    ``(status, headers, body)``.

    Every *answered* status is returned, 4xx/5xx included — what a status
    means is the caller's policy.  Only a transport failure raises
    (``OSError``).
    """
    with _response(method, url, body, headers or {}, timeout) as response:
        return response.status, response.headers, response.read()


class ServiceError(Exception):
    """A non-2xx answer from the service; ``status`` is the HTTP code."""

    def __init__(
        self, status: int, message: str, *, retry_after: float | None = None
    ) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        self.retry_after = retry_after

    @classmethod
    def from_answer(cls, status: int, headers: Message, body: bytes) -> "ServiceError":
        """The server's ``{"error": ...}`` body and ``Retry-After`` header."""
        try:
            message = json.loads(body).get("error", body.decode())
        except ValueError:
            message = body.decode(errors="replace")
        retry_after = headers.get("Retry-After")
        return cls(status, message, retry_after=float(retry_after) if retry_after else None)


class ServiceClient:
    """One service endpoint.

    Args:
        base_url: e.g. ``http://127.0.0.1:8451`` (no trailing slash
            needed).
        client_id: fair-share identity sent as ``X-Client-Id``; None
            lets the server key on the peer address.
        timeout: per-request socket timeout in seconds.
    """

    def __init__(
        self,
        base_url: str,
        *,
        client_id: str | None = None,
        timeout: float = 30.0,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.client_id = client_id
        self.timeout = timeout

    # ------------------------------------------------------------ plumbing

    def _exchange(
        self,
        method: str,
        path: str,
        body: dict[str, Any] | None = None,
        *,
        client_id: str | None = None,
    ) -> bytes:
        """One call; the answer's body, or :class:`ServiceError` for a
        4xx/5xx."""
        headers = {}
        if body is not None:
            headers["Content-Type"] = "application/json"
        effective_id = client_id if client_id is not None else self.client_id
        if effective_id:
            headers["X-Client-Id"] = effective_id
        status, answer_headers, answer = http_exchange(
            method,
            self.base_url + path,
            body=None if body is None else json.dumps(body).encode(),
            headers=headers,
            timeout=self.timeout,
        )
        if status >= 400:
            raise ServiceError.from_answer(status, answer_headers, answer)
        return answer

    def _request(self, *call: Any, **options: Any) -> Any:
        """:meth:`_exchange` with the answer decoded as JSON."""
        return json.loads(self._exchange(*call, **options) or b"{}")

    # ----------------------------------------------------------------- api

    def submit(
        self, *, priority: int = 0, job_id: str | None = None, **fields: Any
    ) -> dict[str, Any]:
        """POST /v1/jobs; returns the job status dict (id, state, ...).

        Exactly one of ``source`` (restricted-C nest), ``design`` (a saved
        design-point payload) or ``network`` (a built-in network name or a
        JSON spec object) identifies the work; ``name`` and ``options``
        ride along.  A field given as None (or empty ``options``) is left
        out.  ``job_id`` preserves an externally assigned identity (the
        cluster coordinator's handoff).
        """
        body = {"priority": priority, "id": job_id, **fields}
        body["options"] = fields.get("options") or None
        return self._request("POST", "/v1/jobs", {k: v for k, v in body.items() if v is not None})

    def submit_payload(
        self, payload: dict[str, Any], *, client_id: str | None = None
    ) -> dict[str, Any]:
        """POST a raw, pre-built submission body verbatim (the coordinator
        forwards client payloads — and the submitting tenant's fair-share
        identity — without re-encoding them)."""
        return self._request("POST", "/v1/jobs", payload, client_id=client_id)

    def status(self, job_id: str, *, result: bool = False) -> dict[str, Any]:
        suffix = "?result=1" if result else ""
        return self._request("GET", f"/v1/jobs/{job_id}{suffix}")

    def jobs(self) -> list[dict[str, Any]]:
        return self._request("GET", "/v1/jobs")["jobs"]

    def cancel(self, job_id: str) -> dict[str, Any]:
        return self._request("DELETE", f"/v1/jobs/{job_id}")

    def health(self) -> dict[str, Any]:
        return self._request("GET", "/healthz")

    def metrics(self) -> str:
        return self._exchange("GET", "/metrics").decode()

    # ------------------------------------------------------------ streaming

    def events(
        self,
        job_id: str,
        *,
        from_seq: int = 0,
        policy: RetryPolicy | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> Iterator[dict[str, Any]]:
        """Follow a job's progress stream, reconnecting on drops.

        Yields each event dict exactly once, in sequence order, ending
        after the ``JobFinished`` event.  A broken connection re-opens
        the stream at ``?from=<next seq>`` under ``policy`` (the process
        default when None); the retry budget resets whenever the stream
        makes progress, so a long job with several blips still completes.
        """
        active = policy if policy is not None else current_policy()
        next_seq = from_seq
        failures = 0
        while True:
            made_progress = False
            try:
                for event in self._stream_once(job_id, next_seq):
                    made_progress = True
                    next_seq = int(event.get("seq", next_seq)) + 1
                    yield event
                    if event.get("event") == "JobFinished":
                        return
                # stream closed without JobFinished: the job was already
                # terminal server-side (replay complete) — confirm and stop
                status = self.status(job_id)
                if status["state"] in ("done", "failed", "cancelled"):
                    return
            except ServiceError:
                raise  # 404 etc. — not a transport blip
            except (OSError, ValueError) as exc:
                if made_progress:
                    failures = 0
                failures += 1
                if failures >= active.max_attempts:
                    raise ServiceError(
                        0, f"event stream lost after {failures} attempts: {exc}"
                    ) from exc
                delay = active.delay_for(failures + 1)
                if delay > 0:
                    sleep(delay)

    def _stream_once(self, job_id: str, from_seq: int) -> Iterator[dict[str, Any]]:
        headers = {"X-Client-Id": self.client_id} if self.client_id else {}
        # no timeout here: the server keepalives idle streams, and a
        # stuck connection surfaces as an OSError the retry loop owns
        url = f"{self.base_url}/v1/jobs/{job_id}/events?from={from_seq}"
        with _response("GET", url, None, headers, None) as response:
            if response.status >= 400:
                raise ServiceError.from_answer(response.status, response.headers, response.read())
            for raw in response:  # http.client decodes the chunked framing
                line = raw.decode().strip()
                if not line or line.startswith(":"):
                    continue  # keepalive
                event = json.loads(line)
                if event.get("event") == "JobFinished":
                    response.read()  # the terminal chunk: the connection stays in sync
                yield event

    # ---------------------------------------------------------- conveniences

    def wait(
        self,
        job_id: str,
        *,
        timeout: float | None = None,
        poll: float = 0.1,
    ) -> dict[str, Any]:
        """Poll until the job is terminal; returns the status with the
        result payload embedded (``?result=1``)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            status = self.status(job_id, result=True)
            if status["state"] in ("done", "failed", "cancelled"):
                return status
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(f"job {job_id} still {status['state']}")
            time.sleep(poll)


__all__ = ["ServiceClient", "ServiceError", "http_exchange"]
