"""End-to-end API tests against a live server on an ephemeral port.

One module-scoped server (warm stage cache) backs the read-mostly tests;
admission-control behaviours that need their own knobs (rate limits,
drain) spin up dedicated instances.
"""

import http.client
import json
import socket
import sys
import threading
import urllib.request

import pytest

from repro.service.client import ServiceClient, ServiceError
from repro.service.http import run_server, shutdown_server
from repro.service.jobs import JobManager

TINY = """
#pragma systolic
for (o = 0; o < 8; o++) for (i = 0; i < 4; i++) for (c = 0; c < 6; c++)
  for (r = 0; r < 6; r++) for (p = 0; p < 3; p++) for (q = 0; q < 3; q++)
    OUT[o][r][c] += W[o][i][p][q] * IN[i][r+p][c+q];
"""

FAST = {"cs": 0.0, "top_n": 2}


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("service") / "cache")


@pytest.fixture(scope="module")
def server(cache_dir):
    manager = JobManager(workers=2, queue_depth=64, cache=cache_dir)
    live = run_server(manager)
    yield live
    shutdown_server(live)


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(f"http://127.0.0.1:{server.port}", client_id="pytest")


class TestSubmitAndStatus:
    def test_submit_answers_202_shaped_status(self, client):
        job = client.submit(source=TINY, name="tiny", options=FAST)
        assert set(job) >= {"id", "state", "fingerprint", "coalesced"}
        done = client.wait(job["id"], timeout=30.0)
        assert done["state"] == "done"
        assert done["result"]["format"] == "repro-result/1"

    def test_status_without_result_flag_omits_payload(self, client):
        job = client.submit(source=TINY, options=FAST)
        client.wait(job["id"], timeout=30.0)
        assert "result" not in client.status(job["id"])

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.status("deadbeef")
        assert excinfo.value.status == 404

    def test_malformed_program_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit(source="int main() {}")
        assert excinfo.value.status == 400

    def test_unknown_route_is_404(self, client, server):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/v2/nope")
        assert excinfo.value.status == 404

    def test_job_listing_contains_submissions(self, client):
        job = client.submit(source=TINY, options=FAST)
        assert job["id"] in {entry["id"] for entry in client.jobs()}

    def test_healthz_reports_ok(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["workers"] == 2


class TestCoalescing:
    def test_eight_concurrent_identical_submissions_one_execution(
        self, tmp_path
    ):
        """The headline acceptance criterion, over the live wire."""
        manager = JobManager(workers=2, queue_depth=64, cache=str(tmp_path / "c"))
        live = run_server(manager)
        try:
            client = ServiceClient(f"http://127.0.0.1:{live.port}")
            ids = [None] * 8
            options = {"cs": 0.0, "top_n": 2}

            def go(n):
                ids[n] = client.submit(source=TINY, options=options)["id"]

            threads = [threading.Thread(target=go, args=(n,)) for n in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            payloads = []
            for job_id in ids:
                done = client.wait(job_id, timeout=30.0)
                assert done["state"] == "done"
                payloads.append(json.dumps(done["result"], sort_keys=True))
            assert len(set(payloads)) == 1  # bit-identical bytes for all 8
            health = client.health()
            assert health["executions"] == 1
            assert health["coalesce_hits"] >= 7
        finally:
            shutdown_server(live)


class TestEventStream:
    def test_stream_replays_and_terminates(self, client):
        job = client.submit(source=TINY, options=FAST)
        events = list(client.events(job["id"]))
        kinds = [e["event"] for e in events]
        assert kinds[0] == "JobQueued"
        assert "StageStarted" in kinds and "StageFinished" in kinds
        assert kinds[-1] == "JobFinished"
        assert [e["seq"] for e in events] == list(range(len(events)))

    def test_from_resumes_mid_stream(self, client):
        job = client.submit(source=TINY, options=FAST)
        full = list(client.events(job["id"]))
        tail = list(client.events(job["id"], from_seq=3))
        assert tail == full[3:]

    def test_reconnect_resumes_where_it_dropped(self, client, monkeypatch):
        job = client.submit(source=TINY, options=FAST)
        client.wait(job["id"], timeout=30.0)
        real = client._stream_once
        dropped = {"done": False}

        def flaky(job_id, from_seq):
            for n, event in enumerate(real(job_id, from_seq)):
                yield event
                if n == 2 and not dropped["done"]:
                    dropped["done"] = True
                    raise OSError("connection reset mid-stream")

        monkeypatch.setattr(client, "_stream_once", flaky)
        events = list(client.events(job["id"], sleep=lambda s: None))
        assert dropped["done"]
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(set(seqs))  # no duplicates, no gaps
        assert events[-1]["event"] == "JobFinished"

    def test_stream_of_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            list(client.events("deadbeef"))
        assert excinfo.value.status == 404

    def test_coalesced_job_streams_the_primary_events(self, client):
        first = client.submit(source=TINY, options=FAST)
        client.wait(first["id"], timeout=30.0)
        attached = client.submit(source=TINY, options=FAST)
        assert attached["coalesced"]
        events = list(client.events(attached["id"]))
        assert any(e["event"] == "StageFinished" for e in events)
        assert events[-1]["event"] == "JobFinished"


class TestCancel:
    def test_delete_cancels_a_job(self, monkeypatch):
        """The first job holds the one worker until the DELETE has
        answered, so the second is still queued when it lands."""
        from repro.service import jobs

        started, release = threading.Event(), threading.Event()
        real_run = jobs.run

        def held_run(request, **kwargs):
            if request.config.top_n == FAST["top_n"]:  # the first job
                started.set()
                release.wait(60.0)
            return real_run(request, **kwargs)

        monkeypatch.setattr(jobs, "run", held_run)
        manager = JobManager(workers=1, queue_depth=8, cache=None)
        live = run_server(manager)
        try:
            client = ServiceClient(f"http://127.0.0.1:{live.port}")
            try:
                first = client.submit(source=TINY, options=FAST)
                assert started.wait(60.0)
                queued = client.submit(source=TINY, options={"cs": 0.0, "top_n": 3})
                answer = client.cancel(queued["id"])
            finally:
                release.set()
            final = client.wait(queued["id"], timeout=30.0)
            assert final["state"] == "cancelled", (answer, final)
            assert client.wait(first["id"], timeout=30.0)["state"] == "done"
        finally:
            shutdown_server(live)

    def test_delete_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.cancel("deadbeef")
        assert excinfo.value.status == 404


class TestMetricsEndpoint:
    def test_exposes_every_advertised_series(self, client):
        job = client.submit(source=TINY, options=FAST)
        client.wait(job["id"], timeout=30.0)
        client.submit(source=TINY, options=FAST)  # one coalesce hit
        text = client.metrics()
        for needle in (
            "repro_service_queue_depth",
            "repro_service_in_flight",
            "repro_service_jobs_submitted_total",
            "repro_service_jobs_coalesced_total",
            "repro_service_stage_cache_hits_total",
            'repro_service_jobs_completed_total{state="done"}',
            "repro_service_stage_seconds_bucket",
            "repro_service_stage_seconds_sum",
            "repro_service_stage_seconds_count",
        ):
            assert needle in text, needle

    def test_histogram_buckets_are_cumulative(self, client):
        text = client.metrics()
        rows = [
            line
            for line in text.splitlines()
            if line.startswith("repro_service_stage_seconds_bucket")
            and 'stage="simulate"' in line
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in rows]
        assert counts == sorted(counts)
        assert 'le="+Inf"' in rows[-1]


class TestAdmissionOverHttp:
    def test_rate_limited_tenant_gets_429_with_retry_after(self, tmp_path):
        manager = JobManager(
            workers=1, queue_depth=8, cache=None, rate=0.001, burst=1
        )
        live = run_server(manager)
        try:
            client = ServiceClient(
                f"http://127.0.0.1:{live.port}", client_id="tenant"
            )
            client.submit(source=TINY, options=FAST)
            with pytest.raises(ServiceError) as excinfo:
                client.submit(source=TINY, options={"cs": 0.0, "top_n": 3})
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after >= 1
            # another tenant is unaffected
            other = ServiceClient(f"http://127.0.0.1:{live.port}", client_id="b")
            other.submit(source=TINY, options={"cs": 0.0, "top_n": 4})
        finally:
            shutdown_server(live)

    def test_queue_full_gets_429(self, tmp_path):
        manager = JobManager(workers=1, queue_depth=1, cache=None)
        live = run_server(manager)
        try:
            client = ServiceClient(f"http://127.0.0.1:{live.port}")
            # distinct jobs arrive far faster than the single worker can
            # drain a depth-1 queue, so one must bounce
            rejected = None
            for n in range(10):
                try:
                    client.submit(source=TINY, options={"cs": 0.0, "top_n": 2 + n})
                except ServiceError as exc:
                    rejected = exc
                    break
            assert rejected is not None and rejected.status == 429
        finally:
            shutdown_server(live)

    def test_injected_queue_fault_surfaces_as_503(self, tmp_path):
        from repro.resilience.faults import FaultPlan, activate, deactivate

        manager = JobManager(workers=1, queue_depth=8, cache=None)
        live = run_server(manager)
        activate(FaultPlan.parse("service.queue:crash:p=1", seed=1))
        try:
            client = ServiceClient(f"http://127.0.0.1:{live.port}")
            with pytest.raises(ServiceError) as excinfo:
                client.submit(source=TINY, options=FAST)
            assert excinfo.value.status == 503
            assert "injected" in excinfo.value.message
        finally:
            deactivate()
            shutdown_server(live)


class TestDrainOverHttp:
    def test_shutdown_finishes_running_and_journals_the_rest(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        cache = str(tmp_path / "cache")
        manager = JobManager(
            workers=1, queue_depth=64, cache=cache, journal=str(journal)
        )
        live = run_server(manager)
        client = ServiceClient(f"http://127.0.0.1:{live.port}")
        ids = [
            client.submit(source=TINY, options={"cs": 0.0, "top_n": 2 + n})["id"]
            for n in range(6)
        ]
        shutdown_server(live)  # SIGTERM path: drain + close listener
        states = {jid: manager.get(jid).state.value for jid in ids}
        unfinished = [jid for jid, s in states.items() if s == "queued"]
        assert all(s in ("done", "queued") for s in states.values())
        # the restarted server owes exactly the unfinished jobs
        second = JobManager(
            workers=2, queue_depth=64, cache=cache, journal=str(journal)
        )
        live2 = run_server(second)
        try:
            client2 = ServiceClient(f"http://127.0.0.1:{live2.port}")
            for jid in unfinished:
                assert client2.wait(jid, timeout=30.0)["state"] == "done"
            assert second.journal.pending() == []
        finally:
            shutdown_server(live2)


class TestRawHttp:
    """Wire-level details the stdlib client hides."""

    def test_unreadable_json_body_is_400(self, server):
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/v1/jobs",
            data=b"{not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_metrics_content_type_is_prometheus_text(self, server):
        with urllib.request.urlopen(
            f"http://127.0.0.1:{server.port}/metrics", timeout=10
        ) as response:
            assert response.headers["Content-Type"].startswith("text/plain")

    def test_event_stream_is_chunked_ndjson(self, server, client):
        job = client.submit(source=TINY, options=FAST)
        client.wait(job["id"], timeout=30.0)
        with urllib.request.urlopen(
            f"http://127.0.0.1:{server.port}/v1/jobs/{job['id']}/events",
            timeout=10,
        ) as response:
            assert response.headers["Content-Type"] == "application/x-ndjson"
            assert response.headers["Transfer-Encoding"] == "chunked"
            lines = [json.loads(l) for l in response.read().splitlines() if l]
        assert lines[-1]["event"] == "JobFinished"


@pytest.fixture
def counted(cache_dir, monkeypatch):
    """A fresh server on the warm cache whose accepted connections are
    kept, server side, in ``.accepted``."""
    live = run_server(JobManager(workers=1, queue_depth=64, cache=cache_dir))
    live.accepted = []
    real = live.get_request

    def accept():
        connection = real()
        live.accepted.append(connection[0])
        return connection

    monkeypatch.setattr(live, "get_request", accept)
    yield live
    shutdown_server(live)


class TestKeptAliveConnections:
    """Every call rides this thread's one connection per host; an answer
    leaves that connection in sync for the next call."""

    def test_a_followed_job_is_one_connection(self, counted):
        client = ServiceClient(f"http://127.0.0.1:{counted.port}")
        job = client.submit(source=TINY, options=FAST)
        events = list(client.events(job["id"]))
        final = client.status(job["id"], result=True)
        assert events[-1]["event"] == "JobFinished"
        assert final["state"] == "done" and final["result"]["format"] == "repro-result/1"
        assert client.health()["done"] == 1
        assert len(counted.accepted) == 1

    @pytest.mark.parametrize("method", ["GET", "POST"])
    def test_a_connection_closed_while_idle_is_replaced(self, counted, method):
        client = ServiceClient(f"http://127.0.0.1:{counted.port}")
        assert client.health()["status"] == "ok"
        counted.accepted[0].shutdown(socket.SHUT_RDWR)  # the server hangs up
        if method == "GET":
            assert client.health()["status"] == "ok"
        else:
            job = client.submit(source=TINY, options=FAST)
            assert [entry["id"] for entry in client.jobs()] == [job["id"]]  # sent once
        assert len(counted.accepted) == 2

    def test_a_stopped_server_hangs_up_on_a_kept_alive_connection(self, counted):
        client = ServiceClient(f"http://127.0.0.1:{counted.port}")
        assert client.health()["status"] == "ok"
        shutdown_server(counted)
        with pytest.raises(OSError):  # hung up on, then refused: no second retry
            client.health()
        assert len(counted.accepted) == 1

    def test_an_abandoned_stream_leaves_the_client_in_sync(self, client):
        job = client.submit(source=TINY, options=FAST)
        full = list(client.events(job["id"]))
        for event in client.events(job["id"]):
            break  # the stream's connection is closed, not pooled
        assert event == full[0]
        held = client.events(job["id"])
        assert next(held) == full[0]  # still open: other calls go elsewhere
        assert client.status(job["id"])["id"] == job["id"]
        assert list(client.events(job["id"])) == full
        assert list(held) == full[1:]

    def test_threads_sharing_a_client_never_cross_answers(self, client):
        ids = [client.submit(source=TINY, options={"cs": 0.0, "top_n": 2 + n})["id"]
               for n in range(3)]
        streams = {job_id: list(client.events(job_id)) for job_id in ids}
        crossed, barrier = [], threading.Barrier(len(ids))

        def poll(job_id):
            barrier.wait()
            try:
                for n in range(20):
                    answer = client.status(job_id, result=n % 2 == 1)
                    if answer["id"] != job_id:
                        crossed.append((job_id, answer["id"]))
                    if n % 5 == 0 and list(client.events(job_id)) != streams[job_id]:
                        crossed.append((job_id, "events"))
            except Exception as exc:  # noqa: BLE001 - a torn exchange is a crossing too
                crossed.append((job_id, repr(exc)))

        threads = [threading.Thread(target=poll, args=(job_id,)) for job_id in ids]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads' exchanges finely
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert crossed == []


class TestUnreadBodies:
    """A body no route reads is drained, so the next request on the same
    connection parses."""

    @pytest.mark.parametrize("method, path", [("POST", "/v1/nope"), ("GET", "/healthz")])
    def test_next_request_on_the_socket_is_answered(self, server, method, path):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            conn.request(method, path, body=b'{"ignored": true}')
            conn.getresponse().read()
            conn.request("GET", "/healthz")
            answer = conn.getresponse()
            assert answer.status == 200
            assert json.loads(answer.read())["status"] == "ok"
        finally:
            conn.close()
