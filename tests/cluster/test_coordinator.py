"""Coordinator membership and heartbeat bookkeeping — unit-level, no
HTTP: registration is pure ring/journal state, and ``check_heartbeats``
takes an explicit clock."""

import pytest

from repro.cluster.coordinator import ClusterCoordinator
from repro.service.queue import AdmissionError

SMALL_SRC = """
#pragma systolic
for (o = 0; o < 8; o++) for (i = 0; i < 4; i++) for (c = 0; c < 6; c++)
  for (r = 0; r < 6; r++) for (p = 0; p < 3; p++) for (q = 0; q < 3; q++)
    OUT[o][r][c] += W[o][i][p][q] * IN[i][r+p][c+q];
"""


@pytest.fixture
def coord(tmp_path):
    c = ClusterCoordinator(
        journal=str(tmp_path / "coord.jsonl"),
        heartbeat_interval=0.5,
        heartbeat_misses=3,
    )
    yield c
    c.close()


class TestRegistration:
    def test_register_returns_the_heartbeat_contract(self, coord):
        contract = coord.register("w0", "http://127.0.0.1:1")
        assert contract["node"] == "w0"
        assert contract["interval"] == 0.5
        assert contract["misses"] == 3
        assert "w0" in contract["nodes"]
        assert "w0" in coord.ring

    def test_join_is_recorded_as_sa701(self, coord):
        coord.register("w0", "http://127.0.0.1:1")
        assert any(d["code"] == "SA701" for d in coord.degradations)
        assert coord.metrics.counter_sum("nodes_joined_total") == 1

    def test_reregistration_is_not_a_second_join(self, coord):
        coord.register("w0", "http://127.0.0.1:1")
        coord.register("w0", "http://127.0.0.1:1")
        assert coord.metrics.counter_sum("nodes_joined_total") == 1
        assert len(coord.ring) == 1

    def test_empty_node_id_is_refused(self, coord):
        with pytest.raises(AdmissionError):
            coord.register("", "http://127.0.0.1:1")

    def test_deregister_removes_from_the_ring(self, coord):
        coord.register("w0", "http://127.0.0.1:1")
        assert coord.deregister("w0") is True
        assert "w0" not in coord.ring
        assert coord.deregister("w0") is False


class TestHeartbeats:
    def test_heartbeat_of_unknown_node_is_false(self, coord):
        assert coord.heartbeat("ghost") is False

    def test_heartbeat_of_registered_node_is_true(self, coord):
        coord.register("w0", "http://127.0.0.1:1")
        assert coord.heartbeat("w0") is True

    def test_silence_past_the_budget_loses_the_node(self, coord):
        import time

        coord.register("w0", "http://127.0.0.1:1")
        base = time.monotonic()
        assert coord.check_heartbeats(now=base + 1.0) == []  # within budget
        lost = coord.check_heartbeats(now=base + 2.0)  # > 0.5 * 3
        assert lost == ["w0"]
        assert "w0" not in coord.ring
        assert any(d["code"] == "SA702" for d in coord.degradations)
        assert coord.metrics.counter_sum("nodes_lost_total") == 1

    def test_beats_keep_the_node_alive(self, coord):
        import time

        coord.register("w0", "http://127.0.0.1:1")
        coord.heartbeat("w0")
        assert coord.check_heartbeats(now=time.monotonic() + 1.0) == []

    def test_lost_node_heartbeat_answers_false_until_reregistration(self, coord):
        import time

        coord.register("w0", "http://127.0.0.1:1")
        coord.check_heartbeats(now=time.monotonic() + 10.0)
        assert coord.heartbeat("w0") is False  # must re-register
        coord.register("w0", "http://127.0.0.1:1")
        assert coord.heartbeat("w0") is True
        # rejoin after loss is a fresh join
        assert coord.metrics.counter_sum("nodes_joined_total") == 2


class TestAdmission:
    def test_submit_with_no_workers_is_refused(self, coord):
        with pytest.raises(AdmissionError):
            coord.submit({"source": "x"}, client="t", priority=0)

    def test_malformed_payload_is_refused_at_the_door(self, coord):
        coord.register("w0", "http://127.0.0.1:1")
        with pytest.raises(AdmissionError):
            coord.submit({"nonsense": True}, client="t", priority=0)
        assert coord.metrics.counter_sum("rejected_total") >= 1

    def test_unknown_job_status_is_none(self, coord):
        assert coord.status("nope") is None
        assert coord.relay_events("nope", 0) is None


class _ReentrantWorker:
    """A worker client whose submit hop lets the monitor sweep run in
    the middle of it, as the monitor thread may."""

    def __init__(self, coord):
        self.coord = coord
        self.submits = 0

    def submit_payload(self, body, *, client_id=None):
        self.submits += 1
        if self.submits == 1:
            self.coord.flush_orphans()
        return {"id": body["id"], "state": "queued"}


class TestSubmitHop:
    def test_a_job_in_its_submit_hop_is_not_an_orphan(self, coord):
        """A sweep during the hop must not forward the job a second time:
        the duplicate spends the tenant's fair-share token, and the
        client's own submission is then answered 429."""
        coord.register("w0", "http://127.0.0.1:1")
        worker = coord._nodes["w0"].client = _ReentrantWorker(coord)
        status = coord.submit({"source": SMALL_SRC}, client="tenant")
        assert status["node"] == "w0"
        assert worker.submits == 1
        assert coord.flush_orphans() == 0


class TestStats:
    def test_stats_shape(self, coord):
        coord.register("w0", "http://127.0.0.1:1")
        stats = coord.stats()
        assert stats["role"] == "coordinator"
        assert list(stats["ring_nodes"]) == ["w0"]
        # a registered node whose /healthz is unreachable reports not-alive
        assert stats["nodes"]["w0"]["alive"] is False
        assert stats["nodes"]["w0"]["url"] == "http://127.0.0.1:1"
        assert stats["status"] == "degraded"
        assert stats["pending"] == 0
        for key in ("submitted", "coalesce_hits", "executions", "done"):
            assert key in stats["fleet"]

    def test_metrics_page_renders_cluster_gauges(self, coord):
        coord.register("w0", "http://127.0.0.1:1")
        page = coord.render_metrics()
        assert "repro_service_cluster_nodes 1" in page
        assert "cluster_pending_jobs 0" in page
