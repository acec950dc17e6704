"""The worker-side agent: registration, heartbeats, replicated cache.

``serve --role worker`` runs an ordinary single-node service (the same
:class:`~repro.service.jobs.JobManager` + HTTP server as standalone
serve) and attaches a :class:`WorkerAgent` that

* registers the node with the coordinator (retrying until it appears —
  fleets boot in any order),
* beats on the coordinator's advertised interval (the ``cluster.heartbeat``
  fault point drops beats deterministically, which is how the chaos
  suite rehearses false-loss and rejoin),
* re-registers automatically when the coordinator answers 404 (it
  restarted and forgot the fleet),
* and stamps node identity + heartbeat counters into the manager's
  ``/healthz`` via ``stats_extra``.

The agent never touches job flow: routing is entirely the coordinator's
business, and a worker keeps serving its local API (useful for
debugging a single shard) whether or not the coordinator is reachable.
"""

from __future__ import annotations

import json
import threading
from typing import Any

from repro.cluster.coordinator import HEARTBEAT_INTERVAL
from repro.resilience.faults import InjectedFault, maybe_inject
from repro.service.client import http_exchange
from repro.service.jobs import JobManager


class WorkerAgent:
    """Keeps one worker registered and beating.

    Args:
        manager: the node's job manager (for stats/degradation hooks).
        coordinator_url: e.g. ``http://127.0.0.1:9300``.
        node_id: stable fleet identity (defaults to ``host:port`` of the
            advertised URL).
        advertise_url: the URL the coordinator should proxy to.
        interval: fallback beat period until registration hands back the
            coordinator's contract.
        timeout: per-call socket timeout.
    """

    def __init__(
        self,
        manager: JobManager,
        *,
        coordinator_url: str,
        advertise_url: str,
        node_id: str | None = None,
        interval: float = HEARTBEAT_INTERVAL,
        timeout: float = 10.0,
    ) -> None:
        self.manager = manager
        self.coordinator_url = coordinator_url.rstrip("/")
        self.advertise_url = advertise_url
        self.node_id = node_id or advertise_url.split("//", 1)[-1].rstrip("/")
        self.interval = interval
        self.timeout = timeout
        self.registered = False
        self.beats_sent = 0
        self.beats_dropped = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------ plumbing

    def _post(self, path: str, body: dict[str, Any] | None = None) -> tuple[int, dict[str, Any]]:
        """POST to the coordinator: ``(status, JSON answer)``; ``OSError``
        when it is unreachable."""
        status, _, answer = http_exchange(
            "POST",
            self.coordinator_url + path,
            body=json.dumps(body or {}).encode(),
            headers={"Content-Type": "application/json"},
            timeout=self.timeout,
        )
        try:
            return status, json.loads(answer or b"{}")
        except ValueError:
            return status, {}

    # ----------------------------------------------------------- lifecycle

    def register(self) -> bool:
        """One registration attempt; adopts the coordinator's heartbeat
        contract on success."""
        try:
            status, contract = self._post(
                "/v1/workers", {"node": self.node_id, "url": self.advertise_url}
            )
        except OSError:
            self.registered = False
            return False
        if status != 200:
            self.registered = False
            return False
        self.interval = float(contract.get("interval", self.interval))
        self.registered = True
        self.manager.stats_extra.update(
            {
                "node": self.node_id,
                "coordinator": self.coordinator_url,
                "registered": True,
            }
        )
        return True

    def beat_once(self) -> bool:
        """Send one heartbeat; returns False when it did not land (dropped
        by an injected fault, coordinator down, or unknown node —
        re-registration is attempted on the next loop turn)."""
        try:
            maybe_inject("cluster.heartbeat")
        except InjectedFault:
            self.beats_dropped += 1
            self.manager.metrics.inc("heartbeats_dropped_total")
            return False
        try:
            status, _ = self._post(f"/v1/workers/{self.node_id}/heartbeat")
        except OSError:
            self.registered = False
            return False
        if status == 404:
            # Coordinator restarted and forgot us; rejoin on the spot.
            self.registered = False
            return self.register()
        if status != 200:
            return False
        self.beats_sent += 1
        self.manager.metrics.inc("heartbeats_sent_total")
        return True

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            if not self.registered:
                self.register()
                continue
            self.beat_once()

    def start(self) -> None:
        """Register (retrying in the loop if the coordinator is not up
        yet) and start beating."""
        self.register()
        self._thread = threading.Thread(
            target=self._loop, name=f"heartbeat-{self.node_id}", daemon=True
        )
        self._thread.start()

    def stop(self, *, deregister: bool = True) -> None:
        """Stop beating; optionally leave the fleet gracefully so pending
        jobs are reassigned immediately instead of after K misses."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(self.interval * 2 + 1.0)
        if deregister and self.registered:
            try:
                http_exchange(
                    "DELETE",
                    f"{self.coordinator_url}/v1/workers/{self.node_id}",
                    timeout=self.timeout,
                )
            except OSError:
                pass  # the coordinator will notice via missed beats
        self.registered = False


def make_worker_cache(
    local_root: str, coordinator_url: str, manager: JobManager | None = None
) -> Any:
    """The fleet worker's cache spec: a local filesystem store replicated
    write-through to the coordinator's shared store, degradations wired
    into the manager's SA704 bookkeeping."""
    from repro.cluster.netstore import HttpCacheStore, ReplicatedStore
    from repro.pipeline.cache import FilesystemStore, StageCache

    def on_degraded(reason: str) -> None:
        if manager is not None:
            manager.note_degradation("SA704", f"cache replication degraded: {reason}")
            manager.metrics.inc("replication_degraded_total")

    store = ReplicatedStore(
        FilesystemStore(local_root),
        HttpCacheStore(coordinator_url),
        on_degraded=on_degraded,
    )
    return StageCache(store=store)


__all__ = ["WorkerAgent", "make_worker_cache"]
