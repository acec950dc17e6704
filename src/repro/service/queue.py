"""Admission control and durability for the synthesis service.

Three pieces, all service-agnostic and individually testable:

* :class:`BoundedJobQueue` — a thread-safe priority queue with a hard
  depth bound.  A full queue rejects instead of blocking (429-style
  backpressure); the drain path atomically empties it so a shutting-down
  server can journal what it never started.
* :class:`FairShareBuckets` — per-client token buckets.  Every client
  gets the same refill rate and burst, so one chatty tenant cannot
  starve the rest; the unserved caller learns how long to back off
  (``Retry-After``).
* :class:`JobJournal` — an append-only JSONL ledger of accepted work.
  Every accepted job writes an ``accept`` record, every finished one a
  ``done`` record; the set difference is exactly the work a restarted
  server owes its clients.  Appends are flushed per record and a torn
  trailing line (crash mid-append) is ignored on read, so the journal
  degrades to *at-least-once* — re-running a journaled job is safe
  because synthesis is deterministic and stage-cached.

The admission exceptions double as the HTTP error contract: each carries
the status code the API layer should answer with.
"""

from __future__ import annotations

import heapq
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable


class AdmissionError(Exception):
    """A submission the service refuses; ``status`` is the HTTP answer."""

    status = 503

    def __init__(self, message: str, *, retry_after: float | None = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class BadRequest(AdmissionError):
    """The submission payload is malformed (unparsable source, unknown
    device, conflicting fields)."""

    status = 400


class QueueFull(AdmissionError):
    """The job queue is at its depth bound — classic backpressure."""

    status = 429


class RateLimited(AdmissionError):
    """The client exhausted its fair-share token bucket."""

    status = 429


class Draining(AdmissionError):
    """The server is shutting down and no longer accepts work."""

    status = 503


class BoundedJobQueue:
    """Priority queue with a depth bound and an atomic drain.

    Higher ``priority`` pops first; FIFO within a priority level (a
    monotonic sequence number breaks ties, so equal-priority jobs never
    compare the payload objects themselves).
    """

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError("queue depth must be >= 1")
        self.maxsize = maxsize
        self._heap: list[tuple[int, int, Any]] = []
        self._seq = 0
        self._cond = threading.Condition()

    def __len__(self) -> int:
        with self._cond:
            return len(self._heap)

    def push(self, priority: int, item: Any, *, force: bool = False) -> bool:
        """Enqueue; returns False when full (unless ``force``, used by the
        journal-resume path, which must never drop accepted work)."""
        with self._cond:
            if not force and len(self._heap) >= self.maxsize:
                return False
            heapq.heappush(self._heap, (-priority, self._seq, item))
            self._seq += 1
            self._cond.notify()
            return True

    def pop(self, timeout: float | None = None) -> Any | None:
        """Dequeue the highest-priority item, or None on timeout."""
        with self._cond:
            if not self._heap:
                self._cond.wait(timeout)
            if not self._heap:
                return None
            return heapq.heappop(self._heap)[2]

    def remove(self, item: Any) -> None:
        """Take one item out if it is still queued (a cancelled job gives
        back its slot)."""
        with self._cond:
            self._heap = [entry for entry in self._heap if entry[2] is not item]
            heapq.heapify(self._heap)

    def drain(self) -> list[Any]:
        """Atomically remove and return everything still queued, in pop
        order (the shutdown path journals these for the next server)."""
        with self._cond:
            items = [entry[2] for entry in sorted(self._heap)]
            self._heap.clear()
            return items


class FairShareBuckets:
    """Per-client token buckets with a shared rate and burst.

    Args:
        rate: tokens (submissions) replenished per second per client.
        burst: bucket capacity — the size of an allowed burst.
        clock: injectable monotonic clock for tests.
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0 or burst < 1:
            raise ValueError("rate must be > 0 and burst >= 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._buckets: dict[str, tuple[float, float]] = {}  # client -> (tokens, at)
        self._lock = threading.Lock()

    def try_acquire(self, client: str = "") -> float:
        """Consume one token for ``client``.

        Returns:
            0.0 when admitted, otherwise the seconds until the next token
            becomes available (the caller's ``Retry-After``).
        """
        now = self._clock()
        with self._lock:
            tokens, at = self._buckets.get(client, (self.burst, now))
            tokens = min(self.burst, tokens + (now - at) * self.rate)
            if tokens >= 1.0:
                self._buckets[client] = (tokens - 1.0, now)
                return 0.0
            self._buckets[client] = (tokens, now)
            return (1.0 - tokens) / self.rate


class JobJournal:
    """Append-only JSONL ledger of accepted and finished jobs."""

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()

    def record_accept(
        self,
        job_id: str,
        payload: dict[str, Any],
        *,
        client: str = "",
        priority: int = 0,
        node: str = "",
    ) -> None:
        """Persist an accepted submission (its full request payload rides
        along, so a restarted server can resubmit it verbatim).  The
        cluster coordinator stamps ``node`` — which worker owns the job —
        so a dead node's debt can be reassigned by fingerprint."""
        entry: dict[str, Any] = {
            "op": "accept",
            "id": job_id,
            "payload": payload,
            "client": client,
            "priority": priority,
        }
        if node:
            entry["node"] = node
        self._append(entry)

    def record_done(self, job_id: str) -> None:
        """Mark a job finished (DONE, FAILED or CANCELLED — any terminal
        state settles the debt)."""
        self._append({"op": "done", "id": job_id})

    def _append(self, entry: dict[str, Any]) -> None:
        line = json.dumps(entry, sort_keys=True)
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a") as fh:
                fh.write(line + "\n")
                fh.flush()

    def _read(self) -> list[dict[str, Any]]:
        try:
            text = self.path.read_text()
        except FileNotFoundError:
            return []
        entries = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                continue  # torn trailing line from a crash mid-append
            if isinstance(entry, dict) and "op" in entry and "id" in entry:
                entries.append(entry)
        return entries

    def pending(self) -> list[dict[str, Any]]:
        """Accepted-but-unfinished entries, in acceptance order — the
        work a restarted server must resume."""
        with self._lock:
            entries = self._read()
        done = {e["id"] for e in entries if e["op"] == "done"}
        return [e for e in entries if e["op"] == "accept" and e["id"] not in done]

    def compact(self) -> int:
        """Rewrite the file down to its pending accepts; returns how many
        records survive.  Called after a drain and on startup so the
        ledger does not grow without bound."""
        with self._lock:
            entries = self._read()
            done = {e["id"] for e in entries if e["op"] == "done"}
            keep = [
                e for e in entries if e["op"] == "accept" and e["id"] not in done
            ]
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(self.path.suffix + ".tmp")
            with tmp.open("w") as fh:
                for entry in keep:
                    fh.write(json.dumps(entry, sort_keys=True) + "\n")
            tmp.replace(self.path)
            return len(keep)


__all__ = [
    "AdmissionError",
    "BadRequest",
    "BoundedJobQueue",
    "Draining",
    "FairShareBuckets",
    "JobJournal",
    "QueueFull",
    "RateLimited",
]
