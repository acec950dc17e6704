"""Synthesis-as-a-service: a long-running daemon over the staged pipeline.

The service layer turns the push-button flow into a shared resource:
submissions are fingerprinted and coalesced (N identical requests cost
one synthesis), admission is bounded and fair-share rate limited, and
progress streams live over HTTP as the typed pipeline events.

Modules:
    jobs: job manager — state machine, coalescing index, worker pool.
    queue: bounded priority queue, token buckets, restart journal.
    http: stdlib ThreadingHTTPServer API (submit/status/stream/metrics).
    client: http.client client on kept-alive per-thread connections,
        with reconnecting event streams.
    metrics: Prometheus text-format counters and latency histograms.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import Job, JobManager, JobRequest, JobState
from repro.service.queue import (
    AdmissionError,
    BadRequest,
    BoundedJobQueue,
    Draining,
    FairShareBuckets,
    JobJournal,
    QueueFull,
    RateLimited,
)

__all__ = [
    "AdmissionError",
    "BadRequest",
    "BoundedJobQueue",
    "Draining",
    "FairShareBuckets",
    "Job",
    "JobJournal",
    "JobManager",
    "JobRequest",
    "JobState",
    "QueueFull",
    "RateLimited",
    "ServiceClient",
    "ServiceError",
]
