"""The job manager: queueing, coalescing, and a synthesis worker pool.

This is the heart of ``systolic-synth serve``.  A submission arrives as a
plain JSON payload (restricted-C ``source``, a saved ``design``, or a
whole ``network`` — a built-in model name or a declarative JSON spec for
the importer — plus platform/DSE ``options``) and is parsed *at
admission* into the flow's request type
(:class:`repro.flow.request.SynthesisRequest`, known here as
:class:`JobRequest`), which validates it against the one option table
and identifies it by a **content fingerprint** — the stage cache's own
key function over the subject, platform, DSE knobs and simulator backend,
salted with the code version.  Two consequences fall out of
fingerprinting at admission:

* **request coalescing** — a submission whose fingerprint matches an
  in-flight (queued/running) or already-completed job *attaches* to it
  instead of consuming a queue slot and a worker: N identical
  submissions cost one synthesis, and every attached job receives the
  primary's bit-identical result payload;
* **cheap rejection** — unparsable programs are refused with a 400 at
  the door, before they can occupy the queue.

Jobs move through a small state machine::

    QUEUED ──> RUNNING ──> DONE
       │           │  └──> FAILED
       └───────────┴─────> CANCELLED

Workers are plain threads handing each request to the flow's one runner
(:func:`repro.flow.request.run`) over a shared :class:`StageCache`; an injected
``service.worker`` fault is retried under the process retry policy
(:mod:`repro.resilience`), so chaos plans degrade gracefully here like
everywhere else in the flow.  Accepted work is journaled
(:class:`~repro.service.queue.JobJournal`) and the drain path finishes
running jobs while requeueing the rest — a restarted manager resumes
them with their original job ids.
"""

from __future__ import annotations

import secrets
import threading
import time
from enum import Enum
from typing import Any, Iterator

from repro.model.serialize import record_of
from repro.flow.request import SynthesisRequest as JobRequest, run
from repro.pipeline.cache import CacheStore, StageCache
from repro.pipeline.events import PipelineEvent, StageFinished
from repro.resilience.faults import InjectedFault, maybe_inject
from repro.resilience.retry import call_with_retry, current_policy
from repro.service.metrics import ServiceMetrics
from repro.service.queue import (
    BadRequest,
    BoundedJobQueue,
    Draining,
    FairShareBuckets,
    JobJournal,
    QueueFull,
    RateLimited,
)

#: How long an event stream waits for news before asking for a keepalive
#: comment-line (keeps intermediaries from timing the stream out).
STREAM_POLL_SECONDS = 5.0

_DRAINING = "server is draining; resubmit to the restarted instance"


class JobState(str, Enum):
    """Lifecycle of one submission."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


class Job:
    """One submission's record: identity, state, events, and result."""

    def __init__(
        self,
        job_id: str,
        request: JobRequest,
        payload: dict[str, Any],
        *,
        client: str = "",
        priority: int = 0,
        fingerprint: str | None = None,
    ) -> None:
        self.id = job_id
        self.request = request
        self.payload = payload
        self.client = client
        self.priority = priority
        self.fingerprint = fingerprint or request.fingerprint()
        self.state = JobState.QUEUED
        self.error: str | None = None
        # SynthesisResult for nest jobs, MultiLayerResult for network jobs.
        self.result: Any = None
        self.result_payload: dict[str, Any] | None = None
        self.primary_id: str | None = None  # set when coalesced onto another job
        self.cancel_requested = False
        self.created_at = time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.events: list[dict[str, Any]] = []
        self.cond = threading.Condition()

    @property
    def coalesced(self) -> bool:
        return self.primary_id is not None

    def to_dict(self, *, include_result: bool = False) -> dict[str, Any]:
        """The status view the HTTP API returns."""
        data: dict[str, Any] = {
            "id": self.id,
            "state": self.state.value,
            "name": self.request.name,
            "client": self.client,
            "priority": self.priority,
            "fingerprint": self.fingerprint,
            "coalesced": self.coalesced,
            "primary": self.primary_id,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
        }
        if include_result and self.result_payload is not None:
            data["result"] = self.result_payload
        return data


class JobManager:
    """Bounded queue + coalescing index + worker pool + journal.

    Args:
        workers: synthesis worker threads.
        queue_depth: admission bound; a full queue answers 429.
        cache: shared stage cache (:data:`repro.pipeline.cache.CacheSpec`
            semantics — None disables, True selects the default dir,
            a path roots it there).
        rate / burst: per-client fair-share token bucket (None = no
            rate limiting).
        journal: path of the accepted-work ledger (None = no durability).
        pipeline_jobs: DSE process fan-out *inside* each worker (kept at
            1 by default — the service parallelizes across jobs, not
            within them).
        completed_index_size: how many finished fingerprints stay
            attachable (the in-memory result cache for coalescing).
        retain_jobs: terminal job records kept for status polling before
            the oldest are evicted.
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        queue_depth: int = 64,
        cache: StageCache | CacheStore | str | bool | None = None,
        rate: float | None = None,
        burst: float | None = None,
        journal: str | None = None,
        pipeline_jobs: int = 1,
        completed_index_size: int = 256,
        retain_jobs: int = 1024,
    ) -> None:
        from repro.pipeline.cache import resolve_cache

        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.pipeline_jobs = pipeline_jobs
        self.cache = resolve_cache(cache)
        self.metrics = ServiceMetrics()
        self.journal = JobJournal(journal) if journal else None
        self._queue = BoundedJobQueue(queue_depth)
        self._buckets = (
            FairShareBuckets(rate, burst if burst is not None else max(1.0, rate))
            if rate is not None
            else None
        )
        self._lock = threading.RLock()
        self._jobs: dict[str, Job] = {}
        self._index: dict[str, str] = {}  # fingerprint -> primary job id
        self._attachments: dict[str, list[str]] = {}  # primary id -> attached ids
        self._completed_index_size = completed_index_size
        self._retain_jobs = retain_jobs
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._draining = False
        self._started = False
        self._in_flight = 0
        self._executions = 0

    # ----------------------------------------------------------- lifecycle

    def start(self) -> int:
        """Resume journaled work and launch the worker pool; returns the
        number of jobs resumed from the journal."""
        resumed = 0
        if self.journal is not None:
            for entry in self.journal.pending():
                try:
                    self.submit(
                        entry.get("payload") or {},
                        client=str(entry.get("client", "")),
                        priority=int(entry.get("priority", 0)),
                        job_id=str(entry["id"]),
                        admission=False,
                    )
                    resumed += 1
                except BadRequest:
                    # The payload no longer parses (code drift across the
                    # restart): settle the debt so it cannot wedge the
                    # journal forever.
                    self.journal.record_done(str(entry["id"]))
                    self.metrics.inc("jobs_resume_failures_total")
            self.journal.compact()
        self._started = True
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"synth-worker-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        return resumed

    def drain(self, timeout: float | None = None) -> list[Job]:
        """Graceful shutdown: refuse new work, let running jobs finish,
        and hand back what never started (it stays journaled, so a
        restarted manager picks it up).  Returns the requeued jobs."""
        with self._lock:
            # The flag flip and the queue drain must be one atomic step:
            # draining outside the lock would race submit(), which checks
            # the flag and pushes under it — a push landing between the
            # two would be accepted but never run (a silently lost job).
            self._draining = True
            requeued = self._queue.drain()
        for job in requeued:
            self._emit(job, {"event": "JobRequeued", "id": job.id})
        self._stop.set()
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in self._threads:
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            thread.join(remaining)
        if self.journal is not None:
            self.journal.compact()
        return requeued

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    # ----------------------------------------------------------- admission

    def submit(
        self,
        payload: dict[str, Any],
        *,
        client: str = "",
        priority: int = 0,
        job_id: str | None = None,
        admission: bool = True,
    ) -> Job:
        """Admit one submission.

        Args:
            payload: the JSON body (``source`` | ``design`` | ``network``, plus
                ``options``).
            client: fair-share identity (one token bucket per value).
            priority: higher pops first.
            job_id: preserve an existing id (journal resume).
            admission: False bypasses rate limiting and the queue bound
                (resume path only — accepted work must requeue).

        Raises:
            Draining, RateLimited, BadRequest, QueueFull: refusals, each
                carrying its HTTP status.
            InjectedFault: an active ``service.queue`` chaos plan fired.
        """
        with self._lock:
            if self._draining:
                raise Draining(_DRAINING)
        maybe_inject("service.queue")
        if admission and self._buckets is not None:
            wait = self._buckets.try_acquire(client)
            if wait > 0.0:
                self.metrics.inc("rejected_total", reason="rate_limited")
                raise RateLimited(
                    f"client {client!r} is over its fair share; retry in {wait:.2f}s",
                    retry_after=wait,
                )
        try:
            request = JobRequest.from_payload(payload)
        except ValueError as exc:
            self.metrics.inc("rejected_total", reason="bad_request")
            raise BadRequest(str(exc)) from exc
        fingerprint = request.fingerprint()
        with self._lock:
            # Authoritative drain re-check: the early test above is only a
            # fast path, and drain() may have flipped the flag while we
            # were parsing the payload.  drain() flips and empties the
            # queue under this same lock, so once we are past this point
            # our push cannot land in an already-drained queue.
            if self._draining:
                raise Draining(_DRAINING)
            if job_id is not None:
                # An id this manager already holds names that job (the
                # journal is at-least-once): the existing record stands.
                existing = self._jobs.get(job_id)
                if existing is not None:
                    return existing
            self.metrics.inc("jobs_submitted_total")
            job = Job(
                job_id or secrets.token_hex(8),
                request,
                payload,
                client=client,
                priority=priority,
                fingerprint=fingerprint,
            )
            primary = self._live_primary(fingerprint)
            if primary is not None and primary.id != job.id:
                self._attach(job, primary, admission=admission)
                return job
            self._jobs[job.id] = job
            pushed = self._queue.push(priority, job, force=not admission)
            if not pushed:
                del self._jobs[job.id]
                self.metrics.inc("rejected_total", reason="queue_full")
                raise QueueFull(
                    f"queue is at its depth bound ({self._queue.maxsize})",
                    retry_after=1.0,
                )
            # Journal every fresh acceptance.  Only the resume path
            # (admission=False) skips: its entries are already in the
            # ledger and re-appending them would double the debt.
            if self.journal is not None and admission:
                self.journal.record_accept(
                    job.id, payload, client=client, priority=priority
                )
            self._index[fingerprint] = job.id
            self._attachments.setdefault(job.id, [])
            self._prune_index()
            self._emit(job, {"event": "JobQueued", "id": job.id})
            return job

    def _live_primary(self, fingerprint: str) -> Job | None:
        """The attachable job for this fingerprint: queued, running, or
        successfully done.  Failed/cancelled primaries are evicted so a
        resubmission gets a fresh run."""
        primary_id = self._index.get(fingerprint)
        if primary_id is None:
            return None
        primary = self._jobs.get(primary_id)
        if primary is None or primary.state in (JobState.FAILED, JobState.CANCELLED):
            self._index.pop(fingerprint, None)
            return None
        return primary

    def _attach(self, job: Job, primary: Job, *, admission: bool) -> None:
        job.primary_id = primary.id
        job.state = primary.state
        self._jobs[job.id] = job
        self.metrics.inc("jobs_coalesced_total")
        # A resumed follower (admission=False) is already in the ledger.
        if self.journal is not None and admission:
            self.journal.record_accept(
                job.id, job.payload, client=job.client, priority=job.priority
            )
        if primary.state is JobState.DONE:
            job.result = primary.result
            job.result_payload = primary.result_payload
            job.finished_at = time.time()
            self.metrics.inc("jobs_completed_total", state=JobState.DONE.value)
            if self.journal is not None:
                self.journal.record_done(job.id)
        else:
            self._attachments.setdefault(primary.id, []).append(job.id)
        if not primary.state.terminal:
            # a terminal primary's stream already ended with JobFinished;
            # nothing may follow the terminator
            self._emit(
                primary,
                {"event": "JobCoalesced", "id": job.id, "primary": primary.id},
            )

    def _prune_index(self) -> None:
        if len(self._index) <= self._completed_index_size:
            return
        terminal = [
            (self._jobs[jid].finished_at or 0.0, fp)
            for fp, jid in self._index.items()
            if jid in self._jobs and self._jobs[jid].state.terminal
        ]
        terminal.sort()
        excess = len(self._index) - self._completed_index_size
        for _, fp in terminal[:excess]:
            self._index.pop(fp, None)

    # ------------------------------------------------------------- queries

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.created_at)

    def status(self, job_id: str, *, result: bool = False) -> dict[str, Any] | None:
        """One job's wire-level status view (None = unknown job)."""
        job = self.get(job_id)
        return None if job is None else job.to_dict(include_result=result)

    def relay_events(
        self, job_id: str, from_seq: int = 0
    ) -> Iterator[dict[str, Any] | None] | None:
        """Follow a job's events from sequence number ``from_seq`` until
        its ``JobFinished`` (None = unknown job).  A coalesced job follows
        its primary's buffer; a None item marks
        :data:`STREAM_POLL_SECONDS` without news."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            source = self._jobs.get(job.primary_id or job_id, job)
        return self._follow(job_id, source, from_seq)

    def _follow(
        self, job_id: str, source: Job, after: int
    ) -> Iterator[dict[str, Any] | None]:
        while True:
            with source.cond:
                if len(source.events) <= after:
                    source.cond.wait(STREAM_POLL_SECONDS)
                events = source.events[after:]
            yield from events
            after += len(events)
            if any(e.get("event") == "JobFinished" for e in events):
                return
            if not events:
                # the job may have finished before we subscribed, or the
                # stream may simply be idle mid-stage
                current = self.get(job_id)
                if current is None or (
                    current.state.terminal and len(source.events) <= after
                ):
                    return
                yield None

    def wait(self, job_id: str, timeout: float | None = None) -> Job | None:
        """Block until the job reaches a terminal state (or timeout)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                job = self._jobs.get(job_id)
                if job is None or job.state.terminal:
                    return job
                source = self._jobs.get(job.primary_id or job_id, job)
            remaining = 0.1
            if deadline is not None:
                remaining = min(remaining, deadline - time.monotonic())
                if remaining <= 0:
                    return job
            with source.cond:
                source.cond.wait(remaining)

    def stats(self) -> dict[str, Any]:
        """Instantaneous service counters (the /healthz body)."""
        with self._lock:
            done = self.metrics.counter("jobs_completed_total", state="done")
            failed = self.metrics.counter("jobs_completed_total", state="failed")
            cancelled = self.metrics.counter(
                "jobs_completed_total", state="cancelled"
            )
            stats: dict[str, Any] = {
                "queue_depth": len(self._queue),
                "in_flight": self._in_flight,
                "workers": self.workers,
                "draining": self._draining,
                "submitted": int(self.metrics.counter("jobs_submitted_total")),
                "coalesce_hits": int(self.metrics.counter("jobs_coalesced_total")),
                "executions": self._executions,
                "done": int(done),
                "failed": int(failed),
                "cancelled": int(cancelled),
                "cache_hits": self.cache.hits if self.cache is not None else 0,
                "cache_misses": self.cache.misses if self.cache is not None else 0,
                "cache_backend": (
                    self.cache.store.kind if self.cache is not None else "none"
                ),
            }
        stats["status"] = "draining" if stats["draining"] else "ok"
        return stats

    def render_metrics(self) -> str:
        """The Prometheus ``/metrics`` page."""
        with self._lock:
            gauges = {
                "queue_depth": float(len(self._queue)),
                "in_flight": float(self._in_flight),
                "draining": 1.0 if self._draining else 0.0,
            }
            if self.cache is not None:
                self.metrics.inc(
                    "stage_cache_hits_total",
                    self.cache.hits - self.metrics.counter("stage_cache_hits_total"),
                )
                self.metrics.inc(
                    "stage_cache_misses_total",
                    self.cache.misses
                    - self.metrics.counter("stage_cache_misses_total"),
                )
        return self.metrics.render(gauges)

    # ---------------------------------------------------------- cancellation

    def cancel(self, job_id: str) -> Job | None:
        """Cancel one job.

        Queued jobs cancel immediately; running jobs are marked and their
        record flips to CANCELLED on completion (the synthesis itself is
        not interruptible mid-stage); attached jobs detach without
        disturbing the primary.  Returns the job, or None when unknown.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state.terminal:
                return job
            if job.primary_id is not None:
                attached = self._attachments.get(job.primary_id, [])
                if job.id in attached:
                    attached.remove(job.id)
                self._finish_job(job, JobState.CANCELLED)
                return job
            attachments = self._attachments.get(job.id, [])
            if job.state is JobState.QUEUED and not attachments:
                # Free its queue slot now: a cancelled job must neither
                # turn later submissions away nor be handed back by drain().
                self._queue.remove(job)
                self._index.pop(job.fingerprint, None)
                self._finish_job(job, JobState.CANCELLED)
                self._emit(job, {"event": "JobFinished", "id": job.id,
                                 "state": JobState.CANCELLED.value})
                return job
            # Running, or queued-with-attachments: the execution must
            # proceed (other clients depend on it); only this record is
            # marked for cancellation.
            job.cancel_requested = True
            return job

    # ------------------------------------------------------------- workers

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            job = self._queue.pop(timeout=0.2)
            if job is None:
                continue
            self._execute(job)

    def _execute(self, job: Job) -> None:
        request = job.request
        with self._lock:
            if job.state.terminal:
                return  # cancelled while queued
            attachments = list(self._attachments.get(job.id, ()))
            if job.cancel_requested and not attachments:
                self._index.pop(job.fingerprint, None)
                self._finish_job(job, JobState.CANCELLED)
                self._emit(job, {"event": "JobFinished", "id": job.id,
                                 "state": JobState.CANCELLED.value})
                return
            job.state = JobState.RUNNING
            job.started_at = time.time()
            for attached_id in attachments:
                attached = self._jobs.get(attached_id)
                if attached is not None:
                    attached.state = JobState.RUNNING
                    attached.started_at = job.started_at
            self._in_flight += 1
        self._emit(job, {"event": "JobStarted", "id": job.id})

        def bridge(event: PipelineEvent) -> None:
            self._emit(job, event.to_dict())
            if isinstance(event, StageFinished):
                self.metrics.observe_stage(event.stage, event.seconds)

        policy = current_policy()

        def attempt() -> Any:
            maybe_inject("service.worker")
            return run(
                request, jobs=self.pipeline_jobs, cache=self.cache, observers=(bridge,)
            )

        def on_retry(attempt_no: int, exc: Exception) -> None:
            self.metrics.inc("worker_retries_total")
            self._emit(
                job,
                {
                    "event": "StageRetried",
                    "stage": "service.worker",
                    "attempt": attempt_no,
                    "max_attempts": policy.max_attempts,
                    "reason": f"{type(exc).__name__}: {exc}",
                },
            )

        try:
            result = call_with_retry(
                attempt,
                policy=policy,
                retry_on=(InjectedFault,),
                on_retry=on_retry,
            )
            error = None
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            result = None
            error = f"{type(exc).__name__}: {exc}"
        with self._lock:
            self._in_flight -= 1
            self._executions += 1
            attachments = list(self._attachments.pop(job.id, ()))
            if result is not None:
                payload = record_of(result).encode(result)
                outcome = JobState.DONE
            else:
                payload = None
                outcome = JobState.FAILED
                self._index.pop(job.fingerprint, None)
            primary_outcome = (
                JobState.CANCELLED if job.cancel_requested else outcome
            )
            self._finish_job(
                job, primary_outcome, result=result, payload=payload, error=error
            )
            for attached_id in attachments:
                attached = self._jobs.get(attached_id)
                if attached is None or attached.state.terminal:
                    continue
                self._finish_job(
                    attached, outcome, result=result, payload=payload, error=error
                )
            self._prune_jobs()
        self._emit(
            job,
            {
                "event": "JobFinished",
                "id": job.id,
                "state": primary_outcome.value,
                "error": error,
            },
        )

    def _finish_job(
        self,
        job: Job,
        state: JobState,
        *,
        result: Any = None,
        payload: dict[str, Any] | None = None,
        error: str | None = None,
    ) -> None:
        """Terminal transition (caller holds the lock): record, notify
        waiters, settle the journal."""
        job.state = state
        job.result = result
        job.result_payload = payload
        job.error = error
        job.finished_at = time.time()
        self.metrics.inc("jobs_completed_total", state=state.value)
        if self.journal is not None:
            self.journal.record_done(job.id)
        with job.cond:
            job.cond.notify_all()

    def _prune_jobs(self) -> None:
        if len(self._jobs) <= self._retain_jobs:
            return
        terminal = sorted(
            (j for j in self._jobs.values() if j.state.terminal),
            key=lambda j: j.finished_at or 0.0,
        )
        excess = len(self._jobs) - self._retain_jobs
        live_ids = set(self._index.values())
        for job in terminal:
            if excess <= 0:
                break
            if job.id in live_ids:
                continue  # still the attachable result for its fingerprint
            del self._jobs[job.id]
            excess -= 1

    # -------------------------------------------------------------- events

    def _emit(self, job: Job, event: dict[str, Any]) -> None:
        """Append one event to ``job``'s buffer (primary jobs only) and
        wake streaming connections."""
        with job.cond:
            entry = {"seq": len(job.events), "ts": time.time(), **event}
            job.events.append(entry)
            job.cond.notify_all()


__all__ = [
    "Job",
    "JobManager",
    "JobRequest",
    "JobState",
]
