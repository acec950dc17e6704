"""The wire contract of the job API.

The job API is one route table (`repro.service.http.JOB_ROUTES`)
answered by a `JobManager`; this suite holds what a client sees of it —
statuses, error bodies, headers and the chunked NDJSON framing, read off
the raw wire rather than through `ServiceClient` — and fuzzes the one
entry point for answers that are not JSON or are 5xx.
"""

import http.client
import json
import socket
import struct
import threading
import time
import uuid
from unittest import mock
from urllib.parse import quote, urlencode

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse.explore import DseConfig
from repro.flow.compile import compile_c_source
from repro.model.serialize import result_to_dict
from repro.service.client import ServiceClient
from repro.service import jobs
from repro.service.http import run_server, shutdown_server
from repro.service.jobs import JobManager

TINY = """
#pragma systolic
for (o = 0; o < 8; o++) for (i = 0; i < 4; i++) for (c = 0; c < 6; c++)
  for (r = 0; r < 6; r++) for (p = 0; p < 3; p++) for (q = 0; q < 3; q++)
    OUT[o][r][c] += W[o][i][p][q] * IN[i][r+p][c+q];
"""
FAST = {"cs": 0.0, "top_n": 2}


class Endpoint:
    """The front door plus the objects behind it."""

    def __init__(self, server, backend):
        self.server = server  # the HTTP server clients talk to
        self.backend = backend  # the JobManager answering its job routes
        self.address = ("127.0.0.1", server.port)
        self._finished = None

    def tenant(self):
        """A fresh fair-share identity: the node is rate limited to one
        submission per tenant so the 429 path is reachable on demand."""
        return f"tenant-{uuid.uuid4().hex[:8]}"

    def client(self, tenant=None):
        host, port = self.address
        return ServiceClient(f"http://{host}:{port}", client_id=tenant or self.tenant())

    def request(self, method, path, body=None, headers=None):
        """One raw exchange: (status, headers, parsed JSON or bytes)."""
        if isinstance(body, dict):
            body = json.dumps(body).encode()
        sent = {"X-Client-Id": self.tenant(), **(headers or {})}
        conn = http.client.HTTPConnection(*self.address, timeout=10)
        try:
            conn.request(method, path, body=body, headers=sent)
            response = conn.getresponse()
            raw = response.read()
            answer_headers = dict(response.getheaders())
        finally:
            conn.close()
        if answer_headers.get("Content-Type") == "application/json":
            return response.status, answer_headers, json.loads(raw)
        return response.status, answer_headers, raw

    def finished_job(self):
        client = self.client()
        job = client.submit(source=TINY, options=FAST)
        assert client.wait(job["id"], timeout=60.0)["state"] == "done"
        return job["id"]

    def finished_job_id(self):
        """One finished job, submitted once and then named again."""
        if self._finished is None:
            self._finished = self.finished_job()
        return self._finished


@pytest.fixture(scope="module", params=["single-node"])
def endpoint(request, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("contract")
    manager = JobManager(
        workers=1, queue_depth=64, cache=str(tmp / "cache"), rate=0.001, burst=1
    )
    node = run_server(manager)
    yield Endpoint(node, manager)
    shutdown_server(node)


class TestSubmit:
    def test_accepted_submission_is_202_with_the_job_status(self, endpoint):
        status, headers, job = endpoint.request(
            "POST", "/v1/jobs", {"source": TINY, "options": FAST, "priority": 3}
        )
        assert status == 202
        assert headers["Content-Type"] == "application/json"
        assert set(job) >= {"id", "state", "fingerprint", "coalesced", "priority"}
        assert job["priority"] == 3

    @pytest.mark.parametrize(
        "body, message",
        [
            pytest.param({"source": TINY, "priority": value}, "'priority' must be an integer",
                         id=f"body{index}-'priority' must be an integer")
            for index, value in [(0, "high"), (1, None), (4, "3"), (5, 2.7), (6, True)]
        ],
    )
    def test_invalid_priority_or_id_is_400(self, endpoint, body, message):
        status, _, answer = endpoint.request("POST", "/v1/jobs", body)
        assert (status, answer) == (400, {"error": message})

    def test_unreadable_json_is_400(self, endpoint):
        status, _, answer = endpoint.request("POST", "/v1/jobs", b"{not json")
        assert status == 400
        assert answer["error"].startswith("unreadable body: ")

    def test_malformed_program_is_400(self, endpoint):
        status, _, answer = endpoint.request(
            "POST", "/v1/jobs", {"source": "int main() {}"}
        )
        assert status == 400 and set(answer) == {"error"}

    @pytest.mark.parametrize("design", [[1, 2], "x", 7, {"format": "repro-design/1"}])
    def test_design_that_is_not_a_design_payload_is_400(self, endpoint, design):
        """Regression: a non-object ``design`` raised AttributeError in the
        decoder, killing the handler thread — the client saw the connection
        drop instead of an answer."""
        status, _, answer = endpoint.request("POST", "/v1/jobs", {"design": design})
        assert status == 400 and set(answer) == {"error"}
        assert "design" in answer["error"]

    @pytest.mark.parametrize("length",["-1", "-4096", "twelve", str(64 * 1024 * 1024)])
    def test_bad_content_length_is_400_without_reading(self, endpoint, length):
        """Regression: ``Content-Length: -1`` reached ``rfile.read(-1)``
        and parked the handler thread until the peer closed."""
        with socket.create_connection(endpoint.address, timeout=2.0) as sock:
            sock.sendall(
                b"POST /v1/jobs HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n"
                + f"Content-Length: {length}\r\n\r\n".encode()
            )
            # socket.timeout here = the old hang.  Read to EOF (the server
            # closes after refusing): headers and body may arrive apart.
            answer = b""
            while chunk := sock.recv(65536):
                answer += chunk
        assert answer.startswith(b"HTTP/1.1 400 ")
        assert b'{"error": "unreadable body: ' in answer

    def test_over_quota_tenant_gets_429_with_retry_after(self, endpoint):
        tenant = {"X-Client-Id": endpoint.tenant()}
        first, _, _ = endpoint.request(
            "POST", "/v1/jobs", {"source": TINY, "options": FAST}, tenant
        )
        status, headers, answer = endpoint.request(
            "POST", "/v1/jobs", {"source": TINY, "options": {"cs": 0.0, "top_n": 3}}, tenant
        )
        assert (first, status) == (202, 429)
        assert int(headers["Retry-After"]) >= 1
        assert set(answer) == {"error"}


class TestStatusAndCancel:
    def test_result_flag_embeds_the_in_process_payload(self, endpoint):
        job_id = endpoint.finished_job()
        _, _, plain = endpoint.request("GET", f"/v1/jobs/{job_id}")
        status, _, full = endpoint.request("GET", f"/v1/jobs/{job_id}?result=1")
        assert status == 200 and "result" not in plain
        served = full["result"]
        local = result_to_dict(
            compile_c_source(
                TINY,
                config=DseConfig(min_dsp_utilization=0.0, top_n=2),
                name=served["evaluation"]["design"]["nest"]["name"],
            )
        )
        local = json.loads(json.dumps(local))  # tuples become lists on the wire
        assert set(local) == set(served)
        assert {k: v for k, v in local.items() if k != "dse_seconds"} == {
            k: v for k, v in served.items() if k != "dse_seconds"
        }

    def test_listing_contains_the_job(self, endpoint):
        job_id = endpoint.finished_job()
        status, _, answer = endpoint.request("GET", "/v1/jobs")
        assert status == 200
        assert job_id in {job["id"] for job in answer["jobs"]}

    def test_delete_cancels(self, endpoint, monkeypatch):
        """The blocker holds the node's one worker until the DELETE has
        answered, so the second job is still queued when it lands."""
        started, release = threading.Event(), threading.Event()
        real_run = jobs.run

        def held_run(request, **kwargs):
            if request.config.top_n == 7:  # the blocker
                started.set()
                release.wait(60.0)
            return real_run(request, **kwargs)

        monkeypatch.setattr(jobs, "run", held_run)
        client = endpoint.client()
        try:
            blocker = client.submit(source=TINY, options={"cs": 0.0, "top_n": 7})
            assert started.wait(60.0)
            queued = endpoint.client().submit(source=TINY, options={"cs": 0.0, "top_n": 8})
            status, _, answer = endpoint.request("DELETE", f"/v1/jobs/{queued['id']}")
        finally:
            release.set()
        assert status == 200 and answer["id"] == queued["id"]
        assert client.wait(queued["id"], timeout=60.0)["state"] == "cancelled"
        assert client.wait(blocker["id"], timeout=60.0)["state"] == "done"

    @pytest.mark.parametrize(
        "method, path",
        [
            ("GET", "/v1/jobs/deadbeef"),
            ("GET", "/v1/jobs/deadbeef?result=1"),
            ("GET", "/v1/jobs/deadbeef/events"),
            ("DELETE", "/v1/jobs/deadbeef"),
        ],
    )
    def test_unknown_job_is_404(self, endpoint, method, path):
        status, _, answer = endpoint.request(method, path)
        assert (status, answer) == (404, {"error": "no such job: deadbeef"})

    @pytest.mark.parametrize("method", ["GET", "POST", "PUT", "DELETE"])
    def test_unknown_route_is_404(self, endpoint, method):
        status, _, answer = endpoint.request(method, "/v2/nope?x=1")
        assert (status, answer) == (404, {"error": "no such resource: /v2/nope"})

    def test_healthz_and_metrics(self, endpoint):
        status, _, health = endpoint.request("GET", "/healthz")
        assert status == 200 and health["status"] == "ok"
        status, headers, page = endpoint.request("GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"] == "text/plain; version=0.0.4; charset=utf-8"
        assert b"repro_service_jobs_submitted_total" in page


def read_event_stream(address, path):
    """GET ``path`` over a raw socket and undo the chunked framing by
    hand: (status line, headers, [chunk payloads up to the terminator])."""
    with socket.create_connection(address, timeout=30.0) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
        reader = sock.makefile("rb")
        status = reader.readline().decode().strip()
        headers = {}
        for line in iter(reader.readline, b"\r\n"):
            name, _, value = line.decode().partition(":")
            headers[name.strip()] = value.strip()
        chunks = []
        while True:
            size = int(reader.readline().strip(), 16)
            data = reader.read(size)
            assert reader.read(2) == b"\r\n"  # every chunk is CRLF-terminated
            if size == 0:
                return status, headers, chunks  # the terminal zero-length chunk
            chunks.append(data)


class TestEventStream:
    def test_headers_and_chunk_framing(self, endpoint):
        job_id = endpoint.finished_job()
        status, headers, chunks = read_event_stream(
            endpoint.address, f"/v1/jobs/{job_id}/events"
        )
        assert status == "HTTP/1.1 200 OK"
        assert headers["Content-Type"] == "application/x-ndjson"
        assert headers["Transfer-Encoding"] == "chunked"
        assert headers["Cache-Control"] == "no-store"
        assert "Content-Length" not in headers
        # one chunk = one newline-terminated line: an event or a keepalive
        assert all(chunk.endswith(b"\n") and chunk.count(b"\n") == 1 for chunk in chunks)
        events = [json.loads(c) for c in chunks if not c.startswith(b":")]
        assert events[0]["event"] == "JobQueued"
        assert events[-1]["event"] == "JobFinished"
        assert [e["seq"] for e in events] == list(range(len(events)))
        # keys are sorted on the wire, so equal events are equal bytes
        assert all(list(e) == sorted(e) for e in events)

    def test_from_resumes_after_a_sequence_number(self, endpoint):
        job_id = endpoint.finished_job()
        _, _, full = read_event_stream(endpoint.address, f"/v1/jobs/{job_id}/events")
        _, _, tail = read_event_stream(
            endpoint.address, f"/v1/jobs/{job_id}/events?from=3"
        )
        assert len(full) > 4 and tail == full[3:]

    def test_non_integer_from_is_400(self, endpoint):
        job_id = endpoint.finished_job()
        status, _, answer = endpoint.request("GET", f"/v1/jobs/{job_id}/events?from=x")
        assert (status, answer) == (400, {"error": "'from' must be a non-negative integer"})

    @pytest.mark.parametrize("after", ["-1", "+3", " 3", "\u0663", "3.0"])
    def test_from_that_is_not_ascii_digits_is_400(self, endpoint, after):
        """Regression: ``int()`` took ``-1``, and the event buffer was then
        sliced from its end — the stream repeated events out of order."""
        job_id = endpoint.finished_job()
        query = urlencode({"from": after})
        status, _, answer = endpoint.request("GET", f"/v1/jobs/{job_id}/events?{query}")
        assert (status, answer) == (400, {"error": "'from' must be a non-negative integer"})


#: What the fuzzed requests name: every route, over a known and an
#: unknown job, and any method on arbitrary percent-encoded text.
METHODS = st.sampled_from(["GET", "POST", "PUT", "DELETE"])
REQUESTS = st.one_of(
    st.sampled_from([
        ("POST", "/v1/jobs"), ("GET", "/v1/jobs"), ("GET", "/v1/jobs/{job}"),
        ("GET", "/v1/jobs/{job}/events"), ("DELETE", "/v1/jobs/{job}"),
        ("GET", "/v1/jobs/deadbeef/events"), ("DELETE", "/v1/jobs/deadbeef"),
        ("GET", "/healthz"), ("GET", "/metrics"), ("GET", "//v1//jobs/"),
    ]),
    st.tuples(METHODS, st.text(max_size=12).map(lambda text: "/" + quote(text))),
)
QUERY_VALUES = st.one_of(
    st.none(),
    st.sampled_from(["0", "1", "3", "-1", "+1", "", "true", "99999"]),
    st.text(max_size=4),
)
BODIES = st.one_of(
    st.sampled_from([
        b"", b"{}", b"[]", b"null", b"7", b'{"source": 1}', b'{"priority": "x"}',
        b'{"design": []}', b'{"network": 7}', b'{"source": "int x;", "options": {"top_n": 0}}',
    ]),
    st.binary(max_size=64),
)
#: "exact" declares the body's length; None sends no header and no body
#: (the body would be the next request); the rest are refused unread.
LENGTHS = st.sampled_from(["exact", None, "-1", "abc", "1e3", "\xb2", str(4 * 1024 * 1024 + 1)])
ANSWER_TYPES = {
    "application/json", "application/x-ndjson", "text/plain; version=0.0.4; charset=utf-8"
}


class TestFuzzedRequests:
    @settings(max_examples=300, deadline=None)
    @given(
        request=REQUESTS,
        after=QUERY_VALUES,
        result=QUERY_VALUES,
        length=LENGTHS,
        body=BODIES,
    )
    def test_no_answer_is_a_5xx_or_a_traceback(
        self, endpoint, request, after, result, length, body
    ):
        """ROADMAP 8(b): whatever a client sends, the answer is a status
        below 500 with a JSON (or stream / metrics) body, and no handler
        exception escapes to ``socketserver``'s traceback printer."""
        method, path = request
        job_id = endpoint.finished_job_id()
        query = urlencode({k: v for k, v in (("from", after), ("result", result)) if v is not None})
        target = path.replace("{job}", job_id) + (f"?{query}" if query else "")
        head = f"{method} {target} HTTP/1.1\r\nHost: t\r\nX-Client-Id: {endpoint.tenant()}\r\n"
        if length is None:
            body = b""
        else:
            head += f"Content-Length: {len(body) if length == 'exact' else length}\r\n"
        escaped = []
        # mock.patch, not monkeypatch: examples cannot share a function-scoped fixture
        with mock.patch.object(endpoint.server, "handle_error", lambda *r: escaped.append(r)), \
                mock.patch.object(jobs, "STREAM_POLL_SECONDS", 0.05):
            with socket.create_connection(endpoint.address, timeout=30.0) as sock:
                sock.sendall(head.encode("latin-1") + b"\r\n" + body)
                response = http.client.HTTPResponse(sock)
                response.begin()
                raw = response.read()
                # EOF from the server: its handling of this connection,
                # handle_error included, is over before the patch lifts
                sock.shutdown(socket.SHUT_WR)
                while sock.recv(65536):
                    pass
        kind = response.getheader("Content-Type")
        assert response.status < 500 and kind in ANSWER_TYPES, (response.status, kind, raw)
        assert b"Traceback" not in raw and escaped == []
        if kind == "application/json":
            answer = json.loads(raw)
            assert response.status < 400 or set(answer) == {"error"}
        elif kind == "application/x-ndjson":
            for line in raw.decode().splitlines():
                assert line.startswith(": keepalive") or isinstance(json.loads(line), dict)
        assert endpoint.request("GET", "/healthz")[0] == 200


class TestClientHangsUp:
    def test_no_traceback_when_the_client_leaves_before_its_answer(
        self, endpoint, monkeypatch
    ):
        """Regression: only the event stream guarded a vanished peer; a
        plain response written to a reset socket escaped the handler and
        ``socketserver`` printed a traceback on the daemon's stderr."""
        entered, release = threading.Event(), threading.Event()
        handler_threads = []
        real_stats = endpoint.backend.stats

        def slow_stats():
            handler_threads.append(threading.current_thread())
            entered.set()
            release.wait(10.0)
            return real_stats()

        escaped = []
        monkeypatch.setattr(endpoint.backend, "stats", slow_stats)
        monkeypatch.setattr(
            endpoint.server, "handle_error", lambda *request: escaped.append(request)
        )
        sock = socket.create_connection(endpoint.address, timeout=5.0)
        sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        assert entered.wait(5.0)
        # SO_LINGER 0: close() sends RST, so the server's write must fail
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()
        time.sleep(0.1)
        release.set()
        handler_threads[0].join(5.0)
        assert not handler_threads[0].is_alive()
        assert escaped == []
        # and the server still answers the next client
        monkeypatch.undo()
        assert endpoint.request("GET", "/healthz")[0] == 200
