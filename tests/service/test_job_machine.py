"""Stateful properties of one node: ``JobManager`` + ``JobJournal``.

A hypothesis state machine submits distinct and duplicate jobs, cancels
them, drains the manager, restarts it on the same journal and lets the
workers run, in any order.  The workers run on the test's own thread
(:class:`SteppedManager`), so every point between two steps is
quiescent and the invariants never wait on thread timing:

* every accepted id settles exactly once — its terminal state and
  payload never change, and its id is never live again — or it stays
  journaled across a restart;
* coalesced followers get payloads byte-identical to their primary;
* each job's event ``seq`` is gap-free and nothing follows
  ``JobFinished``;
* the journal's accept − done is exactly the live set;
* ``drain()`` hands back only non-terminal jobs, and the queue holds
  exactly the queued primaries.

Every job runs real synthesis over one stage cache warmed at module
scope (~3 ms a job); one variant fails in its DSE, so failed primaries
and their followers are covered too.
"""

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    multiple,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.flow.request import SynthesisRequest, run
from repro.service.jobs import JobManager, JobState
from repro.service.queue import Draining, QueueFull

TINY = """
#pragma systolic
for (o = 0; o < 8; o++) for (i = 0; i < 4; i++) for (c = 0; c < 6; c++)
  for (r = 0; r < 6; r++) for (p = 0; p < 3; p++) for (q = 0; q < 3; q++)
    OUT[o][r][c] += W[o][i][p][q] * IN[i][r+p][c+q];
"""

#: Distinct requests; ``infeasible`` fails in phase 1 (NoFeasibleDesign).
VARIANTS = {
    "top2": {"cs": 0.0, "top_n": 2},
    "top3": {"cs": 0.0, "top_n": 3},
    "top4": {"cs": 0.0, "top_n": 4},
    "infeasible": {"cs": 1.0},
}

QUEUE_DEPTH = 2

MACHINE_SETTINGS = settings(
    max_examples=100,
    stateful_step_count=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def payload(variant: str) -> dict:
    return {"source": TINY, "name": variant, "options": dict(VARIANTS[variant])}


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    cache = str(tmp_path_factory.mktemp("stage-cache"))
    for variant in VARIANTS:
        if variant != "infeasible":
            run(SynthesisRequest.from_payload(payload(variant)), cache=cache)
    return cache


class SteppedManager(JobManager):
    """A manager whose workers run only when stepped, on the caller's
    thread, through the worker loop's own body."""

    def _worker_loop(self) -> None:
        return

    def run_queued(self) -> None:
        while (job := self._queue.pop(timeout=0)) is not None:
            self._execute(job)


def journal_records(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line]


def payload_bytes(job) -> str:
    return json.dumps(job.result_payload, sort_keys=True)


def check_events(job) -> None:
    """Gap-free ``seq``; ``JobFinished`` at most once, last, and present
    with the job's state once a primary is terminal."""
    events = job.events
    assert [e["seq"] for e in events] == list(range(len(events))), job.id
    finished = [i for i, e in enumerate(events) if e["event"] == "JobFinished"]
    assert finished in ([], [len(events) - 1]), (job.id, events)
    if job.state.terminal and not job.coalesced:
        assert finished, (job.id, events)
        assert events[-1]["state"] == job.state.value


class JobMachine(RuleBasedStateMachine):
    def __init__(self, cache: str) -> None:
        super().__init__()
        self.cache = cache
        self.dir = Path(tempfile.mkdtemp(prefix="job-machine-"))
        self.journal = self.dir / "journal.jsonl"
        self.accepted: dict[str, str] = {}  # id -> variant
        self.settled: dict[str, tuple[str, str]] = {}  # id -> (state, payload)
        self.manager = self._new_manager()
        assert self.manager.start() == 0

    def _new_manager(self) -> SteppedManager:
        return SteppedManager(
            workers=1, queue_depth=QUEUE_DEPTH, cache=self.cache, journal=str(self.journal)
        )

    def teardown(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    # ------------------------------------------------------------ model

    def live_primaries(self, variant: str) -> list:
        """Non-coalesced jobs a new submission of ``variant`` may attach to."""
        fingerprint = SynthesisRequest.from_payload(payload(variant)).fingerprint()
        return [
            job
            for job in self.manager.jobs()
            if not job.coalesced
            and job.fingerprint == fingerprint
            and job.state in (JobState.QUEUED, JobState.RUNNING, JobState.DONE)
        ]

    def queued_primaries(self) -> list:
        return [
            job
            for job in self.manager.jobs()
            if job.state is JobState.QUEUED and not job.coalesced
        ]

    # ------------------------------------------------------------ rules

    jobs = Bundle("jobs")

    @rule(target=jobs, variant=st.sampled_from(sorted(VARIANTS)))
    def submit(self, variant):
        """Returns the accepted id (nothing when refused)."""
        if self.manager.draining:
            with pytest.raises(Draining):
                self.manager.submit(payload(variant))
            return multiple()
        primaries = self.live_primaries(variant)
        assert len(primaries) <= 1, "two live primaries for one fingerprint"
        full = len(self.queued_primaries()) >= QUEUE_DEPTH
        if not primaries and full:
            with pytest.raises(QueueFull):
                self.manager.submit(payload(variant))
            return multiple()
        job = self.manager.submit(payload(variant))
        assert job.id not in self.accepted
        self.accepted[job.id] = variant
        if primaries:
            assert job.primary_id == primaries[0].id
        else:
            assert not job.coalesced and job.state is JobState.QUEUED
        return job.id

    @rule(target=jobs, job_id=jobs)
    def submit_duplicate(self, job_id):
        return self.submit(self.accepted[job_id])

    @rule(job_id=jobs)
    def cancel(self, job_id):
        job = self.manager.get(job_id)
        if job is None:  # settled before a restart
            assert self.manager.cancel(job_id) is None
            return
        before = job.state
        attached = [
            j for j in self.manager.jobs() if j.primary_id == job.id and not j.state.terminal
        ]
        assert self.manager.cancel(job.id) is job
        if before.terminal:
            assert job.state is before
        elif attached and not job.coalesced:
            assert job.state is before  # followers depend on its execution
        else:
            assert job.state is JobState.CANCELLED

    @precondition(lambda self: not self.manager.draining)
    @rule()
    def drain(self):
        queued = self.queued_primaries()
        requeued = self.manager.drain(timeout=1.0)
        assert all(not job.state.terminal for job in requeued)
        assert {job.id for job in requeued} == {job.id for job in queued}
        for job in requeued:
            assert job.events[-1]["event"] == "JobRequeued"

    @rule()
    def restart(self):
        done = self._done_ids()
        records = journal_records(self.journal)
        owed = [e["id"] for e in records if e["op"] == "accept" and e["id"] not in done]
        self.manager = self._new_manager()
        assert self.manager.start() == len(owed)
        assert sorted(job.id for job in self.manager.jobs()) == sorted(owed)

    @precondition(lambda self: not self.manager.draining)
    @rule()
    def run_workers(self):
        self.manager.run_queued()
        assert all(job.state.terminal for job in self.manager.jobs())

    # ------------------------------------------------------- invariants

    def _done_ids(self) -> set[str]:
        return {e["id"] for e in journal_records(self.journal) if e["op"] == "done"}

    @invariant()
    def events_are_gap_free_and_end_at_the_terminator(self):
        for job in self.manager.jobs():
            check_events(job)

    @invariant()
    def every_id_settles_once_or_stays_journaled(self):
        jobs = {job.id: job for job in self.manager.jobs()}
        for job in jobs.values():
            if job.state.terminal:
                seen = (job.state.value, payload_bytes(job))
                assert self.settled.setdefault(job.id, seen) == seen, job.id
            else:
                assert job.id not in self.settled, f"{job.id} settled, then live again"
        records = journal_records(self.journal)
        pending = {e["id"] for e in records if e["op"] == "accept"} - self._done_ids()
        for jid in self.accepted:
            assert jid in self.settled or jid in pending, jid
        completed = self.manager.metrics.counter_sum("jobs_completed_total")
        assert completed == sum(job.state.terminal for job in jobs.values())

    @invariant()
    def journal_debt_is_the_live_set(self):
        records = journal_records(self.journal)
        for op in ("accept", "done"):
            ids = [e["id"] for e in records if e["op"] == op]
            assert len(ids) == len(set(ids)), f"an id journaled {op} twice"
        accepted = {e["id"] for e in records if e["op"] == "accept"}
        assert self._done_ids() <= accepted
        live = {job.id for job in self.manager.jobs() if not job.state.terminal}
        assert accepted - self._done_ids() == live

    @invariant()
    def followers_carry_their_primarys_payload(self):
        for job in self.manager.jobs():
            primary = self.manager.get(job.primary_id) if job.coalesced else None
            if primary is not None and job.state is JobState.DONE:
                assert payload_bytes(job) == payload_bytes(primary)

    @invariant()
    def the_queue_holds_exactly_the_queued_primaries(self):
        if not self.manager.draining:
            assert self.manager.stats()["queue_depth"] == len(self.queued_primaries())


def test_job_manager_state_machine(warm_cache):
    run_state_machine_as_test(lambda: JobMachine(warm_cache), settings=MACHINE_SETTINGS)
