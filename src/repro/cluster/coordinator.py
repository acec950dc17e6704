"""Fleet state and routing: the brain of ``serve --role coordinator``.

The coordinator owns four things:

* the **ring** — registered workers consistent-hashed so each coalescing
  fingerprint has exactly one owner (:mod:`repro.cluster.ring`);
* the **ledger** — every forwarded job lands in the same crash-safe
  JSONL :class:`~repro.service.queue.JobJournal` the single-node service
  uses, stamped with its owning node, and is settled when a terminal
  status is observed — the accept/done set difference is exactly the
  fleet's outstanding debt;
* the **heartbeat monitor** — a worker that misses K beats is declared
  lost (SA702), removed from the ring, and its unsettled jobs are
  re-forwarded *by fingerprint* to the next owner (SA703) with their
  original ids, so clients polling the coordinator never lose a job;
* the **shared cache** — the backing :class:`~repro.pipeline.cache.CacheStore`
  behind ``/v1/cache``, which workers replicate into write-through.

Locking discipline: the coordinator lock guards membership, assignment
and counters only.  Every HTTP hop to a worker happens outside the lock
(blocking under it would stall the whole control plane); loops
re-take the lock to observe membership changes between hops.
"""

from __future__ import annotations

import secrets
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.pipeline.cache import CacheStore
from repro.service.client import ServiceClient, ServiceError
from repro.flow.request import SynthesisRequest as JobRequest
from repro.service.metrics import ServiceMetrics
from repro.service.queue import BadRequest, Draining, JobJournal
from repro.cluster.ring import HashRing

#: Default seconds between worker heartbeats.
HEARTBEAT_INTERVAL = 2.0

#: Consecutive missed beats before a worker is declared lost.
HEARTBEAT_MISSES = 3

_TERMINAL = ("done", "failed", "cancelled")

#: The worker /healthz counters the fleet /healthz sums.
_FLEET_COUNTERS = (
    "submitted", "coalesce_hits", "executions", "done", "failed", "cache_hits", "cache_misses"
)


@dataclass
class WorkerNode:
    """One registered worker."""

    node_id: str
    url: str
    client: ServiceClient
    registered_at: float = field(default_factory=time.time)
    last_beat: float = field(default_factory=time.monotonic)
    beats: int = 0
    lost: bool = False


@dataclass
class PendingJob:
    """One forwarded-but-unsettled job (the reassignment unit)."""

    payload: dict[str, Any]
    client: str
    priority: int
    fingerprint: str
    node: str | None  # None = orphaned, waiting for a worker
    last_status: dict[str, Any] | None = None
    submitting: bool = False  # the submit hop is out: not an orphan yet
    cancel_requested: bool = False  # the owner accepted a cancel it has not applied


class ClusterCoordinator:
    """Routes jobs onto the fleet and keeps them alive across node loss.

    Args:
        store: backend served at ``/v1/cache`` (None disables the shared
            cache — workers then run on their local stores only).
        journal: path of the fleet's accept/done ledger (None = no
            durability across coordinator restarts).
        heartbeat_interval / heartbeat_misses: liveness contract handed
            to workers at registration; a worker silent for
            ``interval * misses`` seconds is lost.
        client_timeout: per-hop socket timeout for worker calls.
    """

    def __init__(
        self,
        *,
        store: CacheStore | None = None,
        journal: str | None = None,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
        heartbeat_misses: int = HEARTBEAT_MISSES,
        client_timeout: float = 30.0,
    ) -> None:
        self.store = store
        self.journal = JobJournal(journal) if journal else None
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_misses = heartbeat_misses
        self.client_timeout = client_timeout
        self.ring = HashRing()
        self.metrics = ServiceMetrics()
        self.degradations: list[dict[str, str]] = []
        self._nodes: dict[str, WorkerNode] = {}
        self._pending: dict[str, PendingJob] = {}
        self._settled: dict[str, str] = {}  # job id -> terminal state
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._monitor: threading.Thread | None = None

    # ----------------------------------------------------------- lifecycle

    def start(self) -> int:
        """Load journaled debt (as orphans, flushed when workers join) and
        launch the heartbeat monitor; returns the number resumed."""
        resumed = 0
        if self.journal is not None:
            for entry in self.journal.pending():
                payload = entry.get("payload") or {}
                try:
                    fingerprint = JobRequest.from_payload(payload).fingerprint()
                except ValueError:
                    # Code drift across the restart: settle the debt so it
                    # cannot wedge the ledger forever.
                    self.journal.record_done(str(entry["id"]))
                    self.metrics.inc("jobs_resume_failures_total")
                    continue
                with self._lock:
                    self._pending[str(entry["id"])] = PendingJob(
                        payload=payload,
                        client=str(entry.get("client", "")),
                        priority=int(entry.get("priority", 0)),
                        fingerprint=fingerprint,
                        node=None,
                    )
                resumed += 1
            self.journal.compact()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="cluster-monitor", daemon=True
        )
        self._monitor.start()
        return resumed

    def close(self) -> None:
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(5.0)
        if self.journal is not None:
            self.journal.compact()

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_interval / 2.0):
            self.check_heartbeats()
            self.flush_orphans()

    # ---------------------------------------------------------- membership

    def register(self, node_id: str, url: str) -> dict[str, Any]:
        """A worker announces itself (idempotent; re-registration after a
        loss re-adds it to the ring)."""
        if not node_id or not url:
            raise BadRequest("registration needs 'node' and 'url'")
        client = ServiceClient(url, timeout=self.client_timeout)
        with self._lock:
            node = self._nodes.get(node_id)
            fresh = node is None or node.lost
            if node is None:
                node = self._nodes[node_id] = WorkerNode(node_id, url, client)
            node.url, node.client = url, client
            node.lost = False
            node.last_beat = time.monotonic()
            self.ring.add(node_id)
            if fresh:
                self.metrics.inc("nodes_joined_total", node=node_id)
                self._note("SA701", f"node {node_id} joined from {url}")
            contract = {
                "node": node_id,
                "interval": self.heartbeat_interval,
                "misses": self.heartbeat_misses,
                "nodes": list(self.ring.nodes()),
            }
        self.flush_orphans()
        return contract

    def deregister(self, node_id: str) -> bool:
        """Graceful leave: the node's unsettled jobs are reassigned now."""
        with self._lock:
            node = self._nodes.get(node_id)
            if node is None or node.lost:
                return False
        self._lose_node(node_id, reason="deregistered")
        return True

    def heartbeat(self, node_id: str) -> bool:
        """Record one beat; False means the coordinator does not know the
        node (it restarted) and the worker must re-register."""
        with self._lock:
            node = self._nodes.get(node_id)
            if node is None or node.lost:
                return False
            node.last_beat = time.monotonic()
            node.beats += 1
            self.metrics.inc("heartbeats_total", node=node_id)
            return True

    def check_heartbeats(self, now: float | None = None) -> list[str]:
        """Declare workers silent for ``interval * misses`` lost; returns
        the node ids lost on this sweep (unit-testable without threads)."""
        budget = self.heartbeat_interval * self.heartbeat_misses
        at = time.monotonic() if now is None else now
        with self._lock:
            overdue = [
                node.node_id
                for node in self._nodes.values()
                if not node.lost and at - node.last_beat > budget
            ]
        for node_id in overdue:
            self._lose_node(node_id, reason="missed heartbeats")
        return overdue

    def _lose_node(self, node_id: str, *, reason: str) -> None:
        with self._lock:
            node = self._nodes.get(node_id)
            if node is None or node.lost:
                return
            node.lost = True
            self.ring.remove(node_id)
            self.metrics.inc("nodes_lost_total", node=node_id)
            self._note("SA702", f"node {node_id} lost ({reason})")
            stranded = [
                (jid, pend)
                for jid, pend in self._pending.items()
                if pend.node == node_id and jid not in self._settled
            ]
            for _, pend in stranded:
                pend.node = None  # orphaned until re-forwarded
        for jid, pend in stranded:
            if pend.cancel_requested:
                # The client cancelled it; the cancel died with the owner,
                # so settle it here rather than run it elsewhere.
                self._settle(jid, "cancelled")
                continue
            owner = self._forward(jid, pend)
            if owner is not None:
                self.metrics.inc("jobs_reassigned_total", node=owner)
                self._note(
                    "SA703",
                    f"job {jid} reassigned {node_id} -> {owner} by fingerprint",
                )

    def flush_orphans(self) -> int:
        """Re-forward jobs stranded without an owner; returns how many
        found a home."""
        with self._lock:
            orphans = [
                (jid, pend)
                for jid, pend in self._pending.items()
                if pend.node is None and not pend.submitting and jid not in self._settled
            ]
        placed = 0
        for jid, pend in orphans:
            if self._forward(jid, pend) is not None:
                placed += 1
        return placed

    def _note(self, code: str, reason: str) -> None:
        """Record one SA7xx fleet event (caller holds the lock or accepts
        best-effort ordering)."""
        self.degradations.append({"code": code, "reason": reason})
        del self.degradations[:-64]

    # ------------------------------------------------------------- routing

    def submit(
        self,
        payload: dict[str, Any],
        *,
        client: str = "",
        priority: int = 0,
        job_id: str | None = None,
    ) -> dict[str, Any]:
        """Admit one submission at the fleet door.

        Parses (cheap 400 before anything is queued anywhere), hashes the
        coalescing fingerprint onto the ring, forwards with an explicit
        id, and journals the acceptance.  Raises the same admission
        exceptions as the single-node manager.
        """
        try:
            fingerprint = JobRequest.from_payload(payload).fingerprint()
        except ValueError as exc:
            self.metrics.inc("rejected_total", reason="bad_request")
            raise BadRequest(str(exc)) from exc
        jid = job_id or secrets.token_hex(8)
        pend = PendingJob(
            payload=dict(payload),
            client=client,
            priority=priority,
            fingerprint=fingerprint,
            node=None,
            submitting=True,
        )
        # Registered before the forward so a node loss racing the hop
        # still sees this job; ``submitting`` keeps the orphan sweep from
        # forwarding it a second time meanwhile (the duplicate would spend
        # the tenant's fair-share token and this hop would answer 429).
        # Removed again on refusal — a client that got an error was never
        # promised anything.
        with self._lock:
            self._pending[jid] = pend
        try:
            owner = self._forward(jid, pend, raise_refusals=True)
        except Exception:
            with self._lock:
                self._pending.pop(jid, None)
            raise
        finally:
            pend.submitting = False
        if owner is None:
            with self._lock:
                self._pending.pop(jid, None)
            raise Draining("no live workers registered; retry shortly")
        with self._lock:
            self.metrics.inc("jobs_submitted_total")
        if self.journal is not None:
            self.journal.record_accept(
                jid, payload, client=client, priority=priority, node=owner
            )
        status = dict(pend.last_status or {})
        status.setdefault("id", jid)
        status["node"] = owner
        return status

    def _forward(
        self, jid: str, pend: PendingJob, *, raise_refusals: bool = False
    ) -> str | None:
        """Push one job to its ring owner, walking the preference list as
        nodes fail; returns the accepting node id (None = orphaned).

        ``raise_refusals`` propagates worker admission refusals (429
        backpressure must reach the submitting client); the reassignment
        path leaves the job orphaned instead and retries on the next
        monitor sweep.
        """
        attempted: set[str] = set()
        while True:
            with self._lock:
                owner_id = self.ring.owner(pend.fingerprint)
                node = self._nodes.get(owner_id) if owner_id else None
                if node is None or node.lost or owner_id in attempted:
                    return None
            body = dict(pend.payload)
            body["id"] = jid
            if pend.priority:
                body["priority"] = pend.priority
            try:
                answer = node.client.submit_payload(
                    body, client_id=pend.client or None
                )
            except ServiceError as exc:
                if exc.status < 500 and raise_refusals:
                    raise _refusal(exc) from exc
                if exc.status < 500:
                    return None  # backpressured; stay orphaned, retry later
                attempted.add(node.node_id)
                self._lose_node(node.node_id, reason=f"refused with {exc.status}")
                continue
            except OSError:
                attempted.add(node.node_id)
                self._lose_node(node.node_id, reason="unreachable on forward")
                continue
            with self._lock:
                pend.node = node.node_id
                pend.last_status = answer
                self.metrics.inc("jobs_forwarded_total", node=node.node_id)
            return node.node_id

    # ------------------------------------------------------------- queries

    def _route(
        self, job_id: str
    ) -> tuple[PendingJob | None, str | None, WorkerNode | None]:
        """One job's pending record, settled state and live owner (None
        when it has none or lost it)."""
        with self._lock:
            pend = self._pending.get(job_id)
            node = self._nodes.get(pend.node) if pend is not None and pend.node else None
            live = None if node is None or node.lost else node
            return pend, self._settled.get(job_id), live

    def status(self, job_id: str, *, result: bool = False) -> dict[str, Any] | None:
        """Proxy one job's status from its owner (None = unknown job).

        A job mid-handoff (owner lost, not yet re-forwarded) reports as
        queued rather than vanishing; a terminal answer settles the
        ledger, and a settled job whose owner is gone keeps answering
        with its settled state."""
        pend, settled, node = self._route(job_id)
        if settled is not None and node is None:
            return {"id": job_id, "state": settled, "settled": True}
        if pend is None:
            return None
        if node is None:
            return {
                "id": job_id,
                "state": "queued",
                "node": None,
                "detail": "owner lost; awaiting reassignment",
            }
        try:
            answer = node.client.status(job_id, result=result)
        except ServiceError as exc:
            if exc.status == 404:
                # The owner changed between our snapshot and the hop, or
                # the forward is still in flight after a reassignment.
                return {"id": job_id, "state": "queued", "node": node.node_id}
            raise
        except OSError:
            self._lose_node(node.node_id, reason="unreachable on status")
            return {"id": job_id, "state": "queued", "node": None}
        answer["node"] = node.node_id
        if answer.get("state") in _TERMINAL:
            self._settle(job_id, str(answer["state"]))
        return answer

    def _settle(self, job_id: str, state: str = "done") -> None:
        """Mark one job terminal in the ledger (idempotent).  The pending
        record stays for result proxying; only the oldest settled entries
        are pruned so memory stays bounded."""
        with self._lock:
            if job_id in self._settled:
                return
            self._settled[job_id] = state
            while len(self._settled) > 4096:
                oldest = next(iter(self._settled))
                del self._settled[oldest]
                self._pending.pop(oldest, None)
        if self.journal is not None:
            self.journal.record_done(job_id)

    def cancel(self, job_id: str) -> dict[str, Any] | None:
        pend, settled, node = self._route(job_id)
        if settled is not None and node is None:
            return {"id": job_id, "state": settled, "settled": True}
        if pend is None:
            return None
        if node is None:
            # Orphaned: cancel locally — it never reached a worker.
            self._settle(job_id, "cancelled")
            return {"id": job_id, "state": "cancelled", "node": None}
        answer = node.client.cancel(job_id)
        if answer.get("state") in _TERMINAL:
            self._settle(job_id, str(answer["state"]))
        else:
            pend.cancel_requested = True  # applied when the owner runs it
        answer["node"] = node.node_id
        return answer

    def jobs(self) -> list[dict[str, Any]]:
        """The fleet's job list: every live worker's view, node-tagged."""
        with self._lock:
            nodes = [n for n in self._nodes.values() if not n.lost]
        merged: list[dict[str, Any]] = []
        for node in nodes:
            try:
                for job in node.client.jobs():
                    job["node"] = node.node_id
                    merged.append(job)
            except (ServiceError, OSError):
                continue
        merged.sort(key=lambda j: j.get("created_at") or 0.0)
        return merged

    def stats(self) -> dict[str, Any]:
        """The fleet /healthz body: aggregated worker counters plus the
        coordinator's own routing state."""
        with self._lock:
            nodes = dict(self._nodes)
            ring_nodes = list(self.ring.nodes())
            pending, orphaned = self._outstanding()
            settled = len(self._settled)
        per_node: dict[str, Any] = {}
        totals = dict.fromkeys(_FLEET_COUNTERS, 0)
        now = time.monotonic()
        for node_id, node in sorted(nodes.items()):
            view: dict[str, Any] = {
                "url": node.url,
                "alive": not node.lost,
                "beats": node.beats,
                "last_beat_age": round(now - node.last_beat, 3),
            }
            if not node.lost:
                try:
                    health = node.client.health()
                except (ServiceError, OSError):
                    view["alive"] = False
                else:
                    for key in totals:
                        totals[key] += int(health.get(key, 0))
                    view["health"] = health
            per_node[node_id] = view
        return {
            "role": "coordinator",
            "status": "ok" if any(v["alive"] for v in per_node.values()) else "degraded",
            "nodes": per_node,
            "ring_nodes": ring_nodes,
            "pending": pending,
            "orphaned": orphaned,
            "settled": settled,
            "forwarded": int(self.metrics.counter_sum("jobs_forwarded_total")),
            "reassigned": int(self.metrics.counter_sum("jobs_reassigned_total")),
            "degradations": list(self.degradations),
            "fleet": totals,
        }

    def _outstanding(self) -> tuple[int, int]:
        """Unsettled jobs as ``(pending, orphaned)``; caller holds the lock."""
        owners = [p.node for jid, p in self._pending.items() if jid not in self._settled]
        return len(owners), owners.count(None)

    def render_metrics(self) -> str:
        with self._lock:
            live = sum(1 for n in self._nodes.values() if not n.lost)
            pending, orphaned = self._outstanding()
        gauges = {
            "cluster_nodes": float(live),
            "cluster_pending_jobs": float(pending),
            "cluster_orphaned_jobs": float(orphaned),
        }
        return self.metrics.render(gauges)

    # ----------------------------------------------------------- streaming

    def relay_events(
        self, job_id: str, from_seq: int = 0
    ) -> Iterator[dict[str, Any]] | None:
        """Relay a job's event stream from its owning worker.

        Returns None for an unknown job.  On the steady path events pass
        through with their sequence numbers intact; across a failover the
        re-executed job's fresh events are renumbered to continue the
        relay's monotone sequence (the worker-side number rides along as
        ``origin_seq``), so a resuming client's ``?from=N`` cursor stays
        meaningful.
        """
        with self._lock:
            if job_id not in self._pending and job_id not in self._settled:
                return None
        return self._relay(job_id, from_seq)

    def _relay(self, job_id: str, from_seq: int) -> Iterator[dict[str, Any]]:
        out_seq = from_seq
        upstream_seq = from_seq
        deadline_idle = time.monotonic() + 600.0
        while True:
            with self._lock:
                pend = self._pending.get(job_id)
                node = (
                    self._nodes.get(pend.node)
                    if pend is not None and pend.node
                    else None
                )
                settled = self._settled.get(job_id)
            if pend is None:
                if settled is not None:
                    yield {
                        "seq": out_seq,
                        "event": "JobFinished",
                        "id": job_id,
                        "state": settled,
                    }
                return
            if node is None or node.lost:
                if time.monotonic() > deadline_idle:
                    return
                time.sleep(0.2)  # mid-handoff; wait for reassignment
                continue
            try:
                for event in node.client._stream_once(job_id, upstream_seq):
                    relayed = dict(event)
                    origin = int(event.get("seq", upstream_seq))
                    upstream_seq = origin + 1
                    if origin != out_seq:
                        relayed["origin_seq"] = origin
                    relayed["seq"] = out_seq
                    out_seq += 1
                    deadline_idle = time.monotonic() + 600.0
                    yield relayed
                    if event.get("event") == "JobFinished":
                        self._settle(job_id, str(event.get("state", "done")))
                        return
                # Stream closed without a terminator: the job was already
                # terminal upstream; confirm via status and stop.
                answer = self.status(job_id)
                if answer is None or answer.get("state") in _TERMINAL:
                    return
            except ServiceError as exc:
                if exc.status == 404:
                    time.sleep(0.2)  # forward in flight after reassignment
                    continue
                return
            except (OSError, ValueError):
                # The owner died mid-stream; the monitor will reassign and
                # the re-execution's events restart at 0 upstream.
                upstream_seq = 0
                time.sleep(0.2)
                continue


def _refusal(exc: ServiceError) -> Exception:
    """Map a worker's admission answer back onto the local exception
    contract so the coordinator's HTTP face re-raises it faithfully."""
    from repro.service import queue as q

    mapped: dict[int, type[q.AdmissionError]] = {400: q.BadRequest, 429: q.QueueFull}
    cls = mapped.get(exc.status, q.AdmissionError)
    return cls(exc.message, retry_after=exc.retry_after)


__all__ = [
    "HEARTBEAT_INTERVAL",
    "HEARTBEAT_MISSES",
    "ClusterCoordinator",
    "PendingJob",
    "WorkerNode",
]
