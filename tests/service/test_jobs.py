"""Job-manager mechanics: parsing, coalescing, state machine, drain/resume.

Every test drives real synthesis — the tiny nest below costs ~25 ms cold
and ~15 ms from a warm stage cache, so even the 20-job drain/resume test
stays comfortably inside the fast suite.
"""

import json
import threading

import pytest

from repro.resilience.faults import FaultPlan, activate, deactivate
from repro.service.jobs import JobManager, JobRequest, JobState
from repro.service.queue import BadRequest, Draining, QueueFull, RateLimited

TINY = """
#pragma systolic
for (o = 0; o < 8; o++) for (i = 0; i < 4; i++) for (c = 0; c < 6; c++)
  for (r = 0; r < 6; r++) for (p = 0; p < 3; p++) for (q = 0; q < 3; q++)
    OUT[o][r][c] += W[o][i][p][q] * IN[i][r+p][c+q];
"""

FAST = {"cs": 0.0, "top_n": 2}


def payload(**overrides):
    body = {"source": TINY, "name": "tiny", "options": dict(FAST)}
    body["options"].update(overrides.pop("options", {}))
    body.update(overrides)
    return body


TINY_NETWORK = {
    "name": "tinynet",
    "input": {"channels": 3, "height": 11, "width": 11},
    "layers": [
        {"op": "conv", "name": "c1", "out_channels": 4, "kernel": 3, "stride": 2},
        {"op": "conv", "name": "c2", "out_channels": 4, "kernel": 3, "pad": 1,
         "groups": "depthwise"},
    ],
}


def network_payload(**overrides):
    body = {"network": TINY_NETWORK, "options": dict(FAST)}
    body["options"].update(overrides.pop("options", {}))
    body.update(overrides)
    return body


@pytest.fixture
def manager(tmp_path):
    mgr = JobManager(workers=2, queue_depth=32, cache=str(tmp_path / "cache"))
    mgr.start()
    yield mgr
    mgr.drain(timeout=30.0)


class TestJobRequestParsing:
    def test_source_and_design_are_exclusive(self):
        with pytest.raises(ValueError, match="exactly one"):
            JobRequest.from_payload({"source": TINY, "design": {}})
        with pytest.raises(ValueError, match="exactly one"):
            JobRequest.from_payload({})

    def test_network_is_exclusive_with_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            JobRequest.from_payload(
                {"source": TINY, "network": TINY_NETWORK, "options": dict(FAST)}
            )

    def test_network_payload_parses(self):
        request = JobRequest.from_payload(network_payload())
        assert request.nest is None
        assert request.network is not None
        assert request.name == "tinynet"  # defaults to the network name
        assert [l.name for l in request.network.conv_layers] == ["c1", "c2"]

    def test_builtin_network_by_name(self):
        request = JobRequest.from_payload(
            {"network": "alexnet", "options": dict(FAST)}
        )
        assert request.network.name == "alexnet"
        with pytest.raises(ValueError, match="built-in network"):
            JobRequest.from_payload({"network": "skynet", "options": dict(FAST)})

    def test_bad_network_spec_rejected_with_diagnostics(self):
        bad = {"network": {"layers": []}, "options": dict(FAST)}
        with pytest.raises(ValueError, match="SA140"):
            JobRequest.from_payload(bad)

    def test_network_rejects_sim_backend(self):
        with pytest.raises(ValueError, match="single-nest"):
            JobRequest.from_payload(
                network_payload(options={"sim_backend": "fast"})
            )

    def test_non_object_body_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            JobRequest.from_payload([1, 2, 3])

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="unknown options.*turbo"):
            JobRequest.from_payload(payload(options={"turbo": True}))

    def test_unknown_device_rejected(self):
        with pytest.raises(ValueError, match="device"):
            JobRequest.from_payload(payload(options={"device": "vaporware9000"}))

    def test_unknown_sim_backend_rejected(self):
        with pytest.raises(ValueError, match="sim_backend"):
            JobRequest.from_payload(payload(options={"sim_backend": "quantum"}))

    def test_missing_pragma_rejected_unless_waived(self):
        bare = TINY.replace("#pragma systolic", "")
        with pytest.raises(ValueError, match="pragma"):
            JobRequest.from_payload({"source": bare})
        request = JobRequest.from_payload(
            {"source": bare, "options": {"require_pragma": False}}
        )
        assert request.nest is not None

    def test_unparsable_source_rejected(self):
        with pytest.raises(ValueError):
            JobRequest.from_payload({"source": "int main() { return 0; }"})

    def test_design_payload_parses(self):
        from repro.model.serialize import design_to_dict
        from tests.model.test_serialize import sample_design

        request = JobRequest.from_payload(
            {"design": design_to_dict(sample_design()), "name": "saved"}
        )
        assert request.name == "saved"

    def test_options_map_onto_config(self):
        request = JobRequest.from_payload(
            payload(options={"cs": 0.5, "top_n": 7, "strict": True, "clock": 300.0})
        )
        assert request.config.min_dsp_utilization == 0.5
        assert request.config.top_n == 7
        assert request.strict
        assert request.platform.assumed_clock_mhz == 300.0


class TestFingerprint:
    def test_identical_payloads_collide(self):
        a = JobRequest.from_payload(payload())
        b = JobRequest.from_payload(payload())
        assert a.fingerprint() == b.fingerprint()

    def test_name_does_not_change_identity(self):
        # two users submitting the same nest under different labels must
        # still coalesce
        a = JobRequest.from_payload(payload(name="alice"))
        b = JobRequest.from_payload(payload(name="bob"))
        assert a.fingerprint() == b.fingerprint()

    def test_any_knob_changes_identity(self):
        base = JobRequest.from_payload(payload()).fingerprint()
        assert JobRequest.from_payload(
            payload(options={"top_n": 3})
        ).fingerprint() != base
        assert JobRequest.from_payload(
            payload(options={"sim_backend": "fast"})
        ).fingerprint() != base
        assert JobRequest.from_payload(
            payload(options={"datatype": "fixed16"})
        ).fingerprint() != base


class TestExecution:
    def test_submit_runs_to_done_with_result(self, manager):
        job = manager.submit(payload())
        done = manager.wait(job.id, timeout=30.0)
        assert done.state is JobState.DONE
        assert done.result is not None
        assert done.result_payload["format"] == "repro-result/1"
        assert done.error is None
        kinds = [e["event"] for e in done.events]
        assert kinds[0] == "JobQueued"
        assert "JobStarted" in kinds
        assert "StageFinished" in kinds
        assert kinds[-1] == "JobFinished"

    def test_network_job_runs_unified_dse(self, manager):
        from repro.pipeline.codecs import UNIFIED_FORMAT, decode_unified

        jobs = [manager.submit(network_payload()) for _ in range(3)]
        for job in jobs:
            done = manager.wait(job.id, timeout=60.0)
            assert done.state is JobState.DONE
            assert done.result_payload["format"] == UNIFIED_FORMAT
        result = decode_unified(jobs[0].result_payload)
        assert [layer.name for layer in result.layers] == ["c1", "c2"]
        stats = manager.stats()
        assert stats["executions"] == 1  # identical network jobs coalesce
        assert stats["coalesce_hits"] == 2

    def test_bad_request_is_refused_at_the_door(self, manager):
        with pytest.raises(BadRequest):
            manager.submit({"source": "not a nest"})
        assert manager.stats()["queue_depth"] == 0

    def test_coalescing_eight_identical_costs_one_execution(self, manager):
        jobs = [manager.submit(payload()) for _ in range(8)]
        payloads = []
        for job in jobs:
            done = manager.wait(job.id, timeout=30.0)
            assert done.state is JobState.DONE
            payloads.append(json.dumps(done.result_payload, sort_keys=True))
        assert len(set(payloads)) == 1  # bit-identical
        stats = manager.stats()
        assert stats["executions"] == 1
        assert stats["coalesce_hits"] == 7

    def test_concurrent_identical_submissions_coalesce(self, manager):
        ids = []
        lock = threading.Lock()

        def go():
            job = manager.submit(payload())
            with lock:
                ids.append(job.id)

        threads = [threading.Thread(target=go) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for job_id in ids:
            assert manager.wait(job_id, timeout=30.0).state is JobState.DONE
        assert manager.stats()["executions"] == 1
        assert manager.stats()["coalesce_hits"] >= 7

    def test_distinct_requests_do_not_coalesce(self, manager):
        a = manager.submit(payload())
        b = manager.submit(payload(options={"top_n": 3}))
        assert manager.wait(a.id, timeout=30.0).state is JobState.DONE
        assert manager.wait(b.id, timeout=30.0).state is JobState.DONE
        assert manager.stats()["executions"] == 2
        assert manager.stats()["coalesce_hits"] == 0

    def test_completed_job_serves_later_identical_submissions(self, manager):
        first = manager.submit(payload())
        manager.wait(first.id, timeout=30.0)
        again = manager.submit(payload())
        assert again.state is JobState.DONE  # attached to the DONE primary
        assert again.result_payload is first.result_payload  # shared, not copied
        assert manager.stats()["executions"] == 1

    def test_worker_fault_is_retried_to_success(self, manager):
        # fires on the first decision, then never again -> attempt 2 succeeds
        activate(FaultPlan.parse("service.worker:crash:times=1", seed=3))
        try:
            job = manager.submit(payload())
            done = manager.wait(job.id, timeout=30.0)
            assert done.state is JobState.DONE
        finally:
            deactivate()
        retried = [e for e in done.events if e["event"] == "StageRetried"]
        assert retried and retried[0]["stage"] == "service.worker"

    def test_exhausted_retries_fail_the_job_and_evict_the_fingerprint(
        self, manager
    ):
        activate(FaultPlan.parse("service.worker:crash:p=1", seed=3))
        try:
            job = manager.submit(payload())
            failed = manager.wait(job.id, timeout=30.0)
            assert failed.state is JobState.FAILED
            assert "InjectedFault" in failed.error
        finally:
            deactivate()
        # the failed primary must not capture future submissions
        retry = manager.submit(payload())
        assert manager.wait(retry.id, timeout=30.0).state is JobState.DONE


class TestAdmission:
    def test_queue_full_rejects(self, tmp_path):
        mgr = JobManager(workers=1, queue_depth=2, cache=None)  # not started
        mgr.submit(payload())
        mgr.submit(payload(options={"top_n": 3}))
        with pytest.raises(QueueFull) as excinfo:
            mgr.submit(payload(options={"top_n": 4}))
        assert excinfo.value.status == 429
        # identical work still coalesces even against a full queue
        attached = mgr.submit(payload())
        assert attached.coalesced

    def test_rate_limit_rejects_with_retry_after(self):
        mgr = JobManager(workers=1, queue_depth=8, cache=None, rate=0.001, burst=1)
        mgr.submit(payload(), client="tenant")
        with pytest.raises(RateLimited) as excinfo:
            mgr.submit(payload(options={"top_n": 3}), client="tenant")
        assert excinfo.value.retry_after > 0
        # a different tenant is untouched
        mgr.submit(payload(options={"top_n": 4}), client="other")

    def test_draining_rejects(self, tmp_path):
        mgr = JobManager(workers=1, queue_depth=8, cache=str(tmp_path / "c"))
        mgr.start()
        mgr.drain(timeout=10.0)
        with pytest.raises(Draining):
            mgr.submit(payload())


class TestCancellation:
    def test_cancel_queued_job(self):
        mgr = JobManager(workers=1, queue_depth=8, cache=None)  # workers idle
        job = mgr.submit(payload())
        cancelled = mgr.cancel(job.id)
        assert cancelled.state is JobState.CANCELLED
        # its fingerprint is free again
        fresh = mgr.submit(payload())
        assert not fresh.coalesced

    def test_cancelled_job_gives_back_its_queue_slot(self):
        mgr = JobManager(workers=1, queue_depth=1, cache=None)  # not started
        first = mgr.submit(payload())
        assert mgr.cancel(first.id).state is JobState.CANCELLED
        assert mgr.stats()["queue_depth"] == 0
        second = mgr.submit(payload(options={"top_n": 3}))  # was QueueFull
        assert second.state is JobState.QUEUED

    def test_drain_hands_back_only_live_jobs(self):
        mgr = JobManager(workers=1, queue_depth=8, cache=None)  # not started
        kept = mgr.submit(payload())
        dropped = mgr.submit(payload(options={"top_n": 3}))
        mgr.cancel(dropped.id)
        assert mgr.drain(timeout=1.0) == [kept]
        assert [e["event"] for e in dropped.events] == ["JobQueued", "JobFinished"]

    def test_cancel_attached_job_leaves_primary_running(self, manager):
        primary = manager.submit(payload())
        attached = manager.submit(payload())
        if attached.coalesced and not attached.state.terminal:
            manager.cancel(attached.id)
            assert attached.state is JobState.CANCELLED
        done = manager.wait(primary.id, timeout=30.0)
        assert done.state is JobState.DONE

    def test_cancel_unknown_job_returns_none(self, manager):
        assert manager.cancel("deadbeef") is None


class TestCacheThreading:
    """The resolved CacheStore is threaded through the manager into the
    pipeline — the environment is read once at construction, never again
    per stage or per job."""

    def test_env_change_mid_run_does_not_redirect_writes(self, tmp_path, monkeypatch):
        from repro.pipeline.cache import CACHE_ENV_VAR

        chosen = tmp_path / "chosen"
        hijack = tmp_path / "hijack"
        mgr = JobManager(workers=1, cache=str(chosen))
        mgr.start()
        try:
            monkeypatch.setenv(CACHE_ENV_VAR, str(hijack))
            nest = mgr.submit(payload())
            net = mgr.submit(network_payload())
            assert mgr.wait(nest.id, timeout=60.0).state is JobState.DONE
            assert mgr.wait(net.id, timeout=120.0).state is JobState.DONE
        finally:
            mgr.drain(timeout=30.0)
        assert list(chosen.rglob("*.json"))  # writes landed where resolved
        assert not hijack.exists()  # env var was never re-read

    def test_sqlite_spec_threads_through_to_the_engine(self, tmp_path):
        db = tmp_path / "stages.db"
        mgr = JobManager(workers=1, cache=f"sqlite:{db}")
        mgr.start()
        try:
            assert mgr.cache is not None and mgr.cache.store.kind == "sqlite"
            job = mgr.submit(payload())
            assert mgr.wait(job.id, timeout=60.0).state is JobState.DONE
            assert mgr.stats()["cache_backend"] == "sqlite"
        finally:
            mgr.drain(timeout=30.0)
        assert db.exists()
        # a second manager over the same database replays from it
        again = JobManager(workers=1, cache=f"sqlite:{db}")
        again.start()
        try:
            job = again.submit(payload())
            assert again.wait(job.id, timeout=60.0).state is JobState.DONE
            assert again.cache.hits > 0
        finally:
            again.drain(timeout=30.0)

    def test_explicit_job_id_is_idempotent(self, manager):
        first = manager.submit(payload(), job_id="resumed-1")
        again = manager.submit(payload(), job_id="resumed-1")
        assert again is first
        done = manager.wait("resumed-1", timeout=30.0)
        assert done.state is JobState.DONE
        assert manager.stats()["executions"] == 1


class TestDrainResume:
    def test_drain_loses_no_accepted_jobs(self, tmp_path):
        """The SIGTERM acceptance: 20 distinct jobs, drain mid-flight,
        restart on the same journal — every job reaches DONE."""
        journal = tmp_path / "journal.jsonl"
        cache = str(tmp_path / "cache")
        first = JobManager(
            workers=1, queue_depth=64, cache=cache, journal=str(journal)
        )
        first.start()
        ids = [
            first.submit(payload(options={"top_n": 2 + n})).id for n in range(20)
        ]
        requeued = first.drain(timeout=60.0)  # SIGTERM arrives mid-workload
        states = {jid: first.get(jid).state for jid in ids}
        finished = [jid for jid, s in states.items() if s is JobState.DONE]
        pending = [jid for jid, s in states.items() if not s.terminal]
        assert len(finished) + len(pending) == 20  # nothing FAILED/lost
        assert {j.id for j in requeued} <= set(pending)
        journaled = {e["id"] for e in first.journal.pending()}
        assert journaled == set(pending)  # exactly the unfinished remainder

        second = JobManager(
            workers=2, queue_depth=64, cache=cache, journal=str(journal)
        )
        resumed = second.start()
        assert resumed == len(pending)
        try:
            for jid in pending:
                done = second.wait(jid, timeout=60.0)
                assert done is not None and done.state is JobState.DONE, jid
        finally:
            second.drain(timeout=60.0)
        assert second.journal.pending() == []

    def test_resume_preserves_job_ids_and_payloads(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        mgr = JobManager(workers=1, queue_depth=8, cache=None, journal=str(journal))
        job = mgr.submit(payload(), client="c1", priority=4)  # never started
        second = JobManager(
            workers=1,
            queue_depth=8,
            cache=str(tmp_path / "cache"),
            journal=str(journal),
        )
        assert second.start() == 1
        try:
            resumed = second.get(job.id)
            assert resumed is not None
            assert resumed.client == "c1"
            assert resumed.priority == 4
            assert second.wait(job.id, timeout=30.0).state is JobState.DONE
        finally:
            second.drain(timeout=30.0)


    def test_resumed_follower_is_journaled_once(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        first = JobManager(workers=1, queue_depth=8, cache=None, journal=str(journal))
        first.submit(payload())
        follower = first.submit(payload())
        assert follower.coalesced
        second = JobManager(
            workers=1, queue_depth=8, cache=str(tmp_path / "c"), journal=str(journal)
        )
        assert second.start() == 2
        try:
            accepts = [
                entry
                for entry in map(json.loads, journal.read_text().splitlines())
                if entry["op"] == "accept" and entry["id"] == follower.id
            ]
            assert len(accepts) == 1
        finally:
            second.drain(timeout=30.0)


class TestMetricsRendering:
    def test_render_exposes_the_advertised_series(self, manager):
        job = manager.submit(payload())
        manager.wait(job.id, timeout=30.0)
        manager.submit(payload())  # a coalesce hit
        text = manager.render_metrics()
        for needle in (
            "repro_service_queue_depth",
            "repro_service_in_flight",
            "repro_service_jobs_submitted_total",
            "repro_service_jobs_coalesced_total",
            'repro_service_jobs_completed_total{state="done"}',
            "repro_service_stage_seconds_bucket",
            'le="+Inf"',
        ):
            assert needle in text, needle
        assert text.endswith("\n")


class TestDrainSubmitRace:
    """Regression for the SA602 finding: ``submit`` used to read
    ``_draining`` outside the lock and ``drain`` emptied the queue
    outside it, so a submission racing a drain could be accepted into a
    queue that had already been swept — a silently lost job."""

    def test_drain_arriving_mid_submit_is_refused(self, monkeypatch):
        mgr = JobManager(workers=1, queue_depth=8, cache=None)  # not started
        real = JobRequest.fingerprint
        fired = []

        def drain_between_check_and_push(self):
            # Runs after submit()'s fast-path drain check but before the
            # locked push — the exact race window.
            if not fired:
                fired.append(True)
                mgr.drain(timeout=1.0)
            return real(self)

        monkeypatch.setattr(JobRequest, "fingerprint", drain_between_check_and_push)
        with pytest.raises(Draining):
            mgr.submit(payload())
        # nothing slipped into the already-swept queue
        assert mgr.drain(timeout=1.0) == []

    def test_draining_property_reflects_drain(self, tmp_path):
        mgr = JobManager(workers=1, queue_depth=8, cache=str(tmp_path / "c"))
        mgr.start()
        assert mgr.draining is False
        mgr.drain(timeout=10.0)
        assert mgr.draining is True
