"""Stateful properties of the fleet: ``ClusterCoordinator`` + ring +
in-process workers.

Each worker is a real (stepped) ``JobManager`` behind
:class:`InProcessNode`, a stand-in for the node client that answers its
calls the way the worker's HTTP face would, JSON round trip included —
no socket.  The coordinator's clock is the machine's: heartbeats are
stamped with it and ``check_heartbeats(now=...)`` sweeps with it, so a
node is lost exactly when the machine lets it fall silent.  Rules
register, deregister, silence and rejoin nodes, submit, cancel, sweep
orphans and settle, in any order.  Invariants, at quiescent points:

* every accepted id settles exactly once in the coordinator's journal
  — its observed terminal state never changes — or stays journaled,
  across any number of reassignments;
* ids are preserved: the coordinator answers for an id with that id,
  and its owner holds a job under it;
* a job cancelled through the coordinator settles as ``cancelled``;
* the journal's accept − done is exactly the unsettled set.
"""

import json
import shutil
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    multiple,
    rule,
    run_state_machine_as_test,
)

from repro.cluster import coordinator as coordinator_module
from repro.cluster.coordinator import ClusterCoordinator
from repro.service.client import ServiceError
from repro.service.queue import AdmissionError, Draining
from tests.service import test_job_machine as node_machine
from tests.service.test_job_machine import (
    MACHINE_SETTINGS,
    VARIANTS,
    SteppedManager,
    journal_records,
    payload,
)

warm_cache = node_machine.warm_cache  # the module-scoped fixture, shared

NODES = ("w0", "w1", "w2")
TERMINAL = ("done", "failed", "cancelled")


def wire(value):
    return json.loads(json.dumps(value))


class InProcessNode:
    """The node client's calls, answered by an in-process manager."""

    def __init__(self, manager: SteppedManager) -> None:
        self.manager = manager

    def submit_payload(self, body, *, client_id=None):
        body = wire(body)
        job_id = body.pop("id", None)
        try:
            job = self.manager.submit(
                body,
                client=client_id or "",
                priority=int(body.get("priority", 0)),
                job_id=job_id,
            )
        except AdmissionError as exc:
            raise ServiceError(exc.status, str(exc), retry_after=exc.retry_after) from exc
        return wire(job.to_dict())

    def status(self, job_id, *, result=False):
        return wire(self._known(job_id, self.manager.status(job_id, result=result)))

    def cancel(self, job_id):
        return wire(self._known(job_id, self.manager.cancel(job_id)).to_dict())

    def jobs(self):
        return wire([job.to_dict() for job in self.manager.jobs()])

    def health(self):
        return wire(self.manager.stats())

    @staticmethod
    def _known(job_id, answer):
        if answer is None:
            raise ServiceError(404, f"no such job: {job_id}")
        return answer


class FleetMachine(RuleBasedStateMachine):
    def __init__(self, cache: str) -> None:
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="fleet-machine-"))
        self.clock = 1000.0
        self.nodes = {
            node: InProcessNode(
                SteppedManager(
                    workers=1,
                    queue_depth=64,
                    cache=cache,
                    journal=str(self.dir / f"{node}.jsonl"),
                )
            )
            for node in NODES
        }
        self.patches = [
            mock.patch.object(
                coordinator_module,
                "ServiceClient",
                lambda url, timeout: self.nodes[url.rsplit("/", 1)[-1]],
            ),
            mock.patch.object(
                coordinator_module,
                "time",
                SimpleNamespace(monotonic=lambda: self.clock, time=lambda: self.clock),
            ),
        ]
        for patch in self.patches:
            patch.start()
        self.journal = self.dir / "coordinator.jsonl"
        self.coord = ClusterCoordinator(
            journal=str(self.journal), heartbeat_interval=1.0, heartbeat_misses=1
        )
        self.live: set[str] = set()
        self.accepted: dict[str, str] = {}  # id -> variant
        self.settled: dict[str, str] = {}  # id -> observed terminal state
        self.cancelled: set[str] = set()  # cancel accepted, not yet effective

    def teardown(self) -> None:
        for patch in reversed(self.patches):
            patch.stop()
        shutil.rmtree(self.dir, ignore_errors=True)

    def observe(self, job_id: str, answer: dict) -> None:
        """Check one status or cancel answer; a terminal one settles."""
        assert answer["id"] == job_id
        state = answer["state"]
        if job_id in self.settled:
            assert state == self.settled[job_id], (job_id, state, self.settled[job_id])
        elif state in TERMINAL:
            self.settled[job_id] = state
        if job_id in self.cancelled and state in TERMINAL:
            assert state == "cancelled", (job_id, state)
        owner = answer.get("node")
        if job_id not in self.settled:
            assert owner is None or owner in self.live, (job_id, owner)
        if owner is not None:
            assert self.nodes[owner].manager.get(job_id) is not None, (job_id, owner)

    # ------------------------------------------------------ membership

    @rule(node=st.sampled_from(NODES))
    def register(self, node):
        """A node joins, or rejoins after it was lost."""
        contract = self.coord.register(node, f"http://fleet/{node}")
        self.live.add(node)
        assert sorted(contract["nodes"]) == sorted(self.live)

    @rule(node=st.sampled_from(NODES))
    def deregister(self, node):
        assert self.coord.deregister(node) is (node in self.live)
        self.live.discard(node)

    @rule(beating=st.sets(st.sampled_from(NODES)))
    def heartbeats(self, beating):
        """Let one beat budget pass; the live nodes that beat stay, the
        rest are lost."""
        self.clock += self.coord.heartbeat_interval * self.coord.heartbeat_misses + 1.0
        for node in sorted(beating):
            assert self.coord.heartbeat(node) is (node in self.live)
        lost = self.coord.check_heartbeats(now=self.clock)
        assert sorted(lost) == sorted(self.live - beating)
        self.live &= beating

    # --------------------------------------------------------------- jobs

    jobs = Bundle("jobs")

    @rule(target=jobs, variant=st.sampled_from(sorted(VARIANTS)))
    def submit(self, variant):
        """Returns the accepted id (nothing when refused)."""
        if not self.live:
            with pytest.raises(Draining):
                self.coord.submit(payload(variant))
            return multiple()
        status = self.coord.submit(payload(variant))
        job_id = status["id"]
        assert job_id not in self.accepted
        assert status["node"] in self.live
        assert self.nodes[status["node"]].manager.get(job_id) is not None
        self.accepted[job_id] = variant
        return job_id

    @rule(job_id=jobs)
    def cancel(self, job_id):
        answer = self.coord.cancel(job_id)
        self.observe(job_id, answer)
        if answer["state"] not in TERMINAL:
            self.cancelled.add(job_id)  # it must still settle as cancelled

    @rule()
    def sweep_orphans(self):
        self.coord.flush_orphans()

    @rule()
    def settle(self):
        """Run every worker's queue (lost nodes keep computing: they are
        cut off, not dead), then poll every id through the coordinator."""
        for node in self.nodes.values():
            node.manager.run_queued()
        for job_id in list(self.accepted):
            answer = self.coord.status(job_id)
            self.observe(job_id, answer)
            if self.live and answer.get("node") is not None:
                assert answer["state"] in TERMINAL, answer

    # ------------------------------------------------------- invariants

    @invariant()
    def the_journal_settles_each_id_once_and_owes_the_rest(self):
        records = journal_records(self.journal)
        accepts = [e["id"] for e in records if e["op"] == "accept"]
        dones = [e["id"] for e in records if e["op"] == "done"]
        assert len(accepts) == len(set(accepts))
        assert len(dones) == len(set(dones)), "an id settled twice"
        assert set(accepts) == set(self.accepted)
        # the coordinator settles unobserved only a cancel whose owner died
        assert set(self.settled) <= set(dones) <= set(self.settled) | self.cancelled

    @invariant()
    def the_fleet_views_match_the_ledger(self):
        """``/healthz`` owes what the journal owes, over the live ring, and
        the merged job list comes from live nodes only."""
        stats = self.coord.stats()
        owed = journal_records(self.journal)
        owed_ids = {e["id"] for e in owed if e["op"] == "accept"} - {
            e["id"] for e in owed if e["op"] == "done"
        }
        assert stats["pending"] == len(owed_ids)
        assert sorted(stats["ring_nodes"]) == sorted(self.live)
        assert {job["node"] for job in self.coord.jobs()} <= self.live


def test_fleet_state_machine(warm_cache):
    run_state_machine_as_test(lambda: FleetMachine(warm_cache), settings=MACHINE_SETTINGS)


@pytest.fixture
def fleet(warm_cache):
    machine = FleetMachine(warm_cache)
    yield machine
    machine.teardown()


class TestShrunkCounterexamples:
    """Sequences the machine found against the coordinator, replayed
    rule by rule."""

    def test_a_settled_job_keeps_its_state_after_its_owner_leaves(self, fleet):
        fleet.register("w0")
        fleet.submit("infeasible")
        fleet.settle()  # settles as failed
        fleet.deregister("w0")
        fleet.settle()  # used to read "queued", awaiting reassignment
        fleet.the_journal_settles_each_id_once_and_owes_the_rest()

    def test_a_cancel_outlives_its_owner(self, fleet):
        fleet.register("w0")
        primary = fleet.submit("top3")
        fleet.submit("top3")  # coalesces onto it at w0, so w0 defers the cancel
        fleet.cancel(primary)
        fleet.deregister("w0")
        fleet.register("w1")
        fleet.settle()  # used to run it on w1 through to "done"
        fleet.the_journal_settles_each_id_once_and_owes_the_rest()
