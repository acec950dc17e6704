"""Network cache backends: the coordinator-served store and write-through
fleet replication.

:class:`HttpCacheStore` speaks the coordinator's tiny ``/v1/cache`` API
(GET/PUT/DELETE one text entry per ``(stage, key)``) over ``http.client`` and
satisfies the :class:`~repro.pipeline.cache.CacheStore` contract: absent
entries are ``None``, transport trouble is ``OSError`` (the policy layer
retries it), writes are atomic because the far side commits them
atomically.

:class:`ReplicatedStore` is what a fleet worker actually mounts: a fast
local store in front, the coordinator store behind, write-through on
put and read-through with local backfill on get — so a stage computed
on any node is a hit on every node, and a coordinator outage merely
degrades the node to its local store (SA704, surfaced through the
``on_degraded`` callback and rehearsable via the ``cluster.replicate``
fault point)."""

from __future__ import annotations

import json
import threading
import urllib.parse
from pathlib import Path
from typing import Callable

from repro.pipeline.cache import CacheStore
from repro.resilience.faults import InjectedFault, maybe_inject
from repro.service.client import http_exchange


class HttpCacheStore:
    """One remote cache endpoint, e.g. ``http://127.0.0.1:9300``.

    The base URL may be the coordinator root (``/v1/cache`` is appended)
    or anything already ending in ``/v1/cache``.
    """

    kind = "http"

    def __init__(self, base_url: str, *, timeout: float = 10.0) -> None:
        base = base_url.rstrip("/")
        if not base.endswith("/v1/cache"):
            base = base + "/v1/cache"
        self.base_url = base
        self.timeout = timeout

    def describe(self) -> str:
        return self.base_url

    def _url(self, stage: str, key: str) -> str:
        return f"{self.base_url}/{urllib.parse.quote(stage, safe='')}/{urllib.parse.quote(key, safe='')}"

    def _call(self, method: str, url: str, text: str | None = None) -> tuple[int, bytes]:
        """One exchange with the endpoint: ``(status, body)``; ``OSError``
        when it is unreachable."""
        status, _, body = http_exchange(
            method,
            url,
            body=None if text is None else text.encode(),
            headers={} if text is None else {"Content-Type": "application/json"},
            timeout=self.timeout,
        )
        return status, body

    def read(self, stage: str, key: str) -> str | None:
        status, body = self._call("GET", self._url(stage, key))
        if status == 200:
            return body.decode()
        if status == 404:
            return None
        raise OSError(f"cache read answered HTTP {status}")

    def write(self, stage: str, key: str, text: str) -> None:
        status, _ = self._call("PUT", self._url(stage, key), text)
        if status not in (200, 204):
            raise OSError(f"cache write answered HTTP {status}")

    def quarantine(self, stage: str, key: str) -> str | None:
        try:
            status, _ = self._call("DELETE", self._url(stage, key) + "?quarantine=1")
        except OSError:
            return None
        if status == 200:
            return f"{self._url(stage, key)}#quarantined"
        return None

    def purge(self) -> int:
        status, body = self._call("DELETE", self.base_url)
        if status != 200:
            raise OSError(f"cache purge answered HTTP {status}")
        try:
            return int(json.loads(body).get("removed", 0))
        except ValueError:
            return 0


class ReplicatedStore:
    """Local store in front, fleet store behind, write-through both ways.

    * ``read``: local hit wins; a remote hit is backfilled into the
      local store so the next probe is free.
    * ``write``: the local write is authoritative (its errors propagate
      so the policy layer retries); replication to the remote is
      best-effort and a failure only *degrades* — the node keeps
      computing against its local store.
    * ``quarantine``: both sides, so a corrupt entry cannot re-replicate.
    * ``purge``: local only — the fleet store is shared and owned by the
      coordinator.

    Every remote interaction is guarded by the ``cluster.replicate``
    fault point; the first failure of a streak fires ``on_degraded``
    (the worker wires this to an SA704 diagnostic and a metric), and a
    later success re-arms it.
    """

    kind = "replicated"

    def __init__(
        self,
        local: CacheStore,
        remote: CacheStore,
        *,
        on_degraded: Callable[[str], None] | None = None,
    ) -> None:
        self.local = local
        self.remote = remote
        self.on_degraded = on_degraded
        self.replication_failures = 0
        self._degraded = False
        self._lock = threading.Lock()

    def describe(self) -> str:
        return f"{self.local.describe()} replicated to {self.remote.describe()}"

    # ------------------------------------------------------- degradation

    def _remote_failed(self, action: str, exc: Exception) -> None:
        with self._lock:
            self.replication_failures += 1
            first_of_streak = not self._degraded
            self._degraded = True
        if first_of_streak and self.on_degraded is not None:
            # callback runs outside the lock: it may log, count, or emit
            self.on_degraded(f"{action}: {type(exc).__name__}: {exc}")

    def _remote_ok(self) -> None:
        with self._lock:
            self._degraded = False

    @property
    def degraded(self) -> bool:
        with self._lock:
            return self._degraded

    # ------------------------------------------------------------- store

    def read(self, stage: str, key: str) -> str | None:
        text = self.local.read(stage, key)
        if text is not None:
            return text
        try:
            maybe_inject("cluster.replicate")
            text = self.remote.read(stage, key)
        except (OSError, InjectedFault) as exc:
            self._remote_failed("read", exc)
            return None
        self._remote_ok()
        if text is not None:
            try:
                self.local.write(stage, key, text)  # backfill
            except OSError:
                pass  # the local store is sick; the hit still counts
        return text

    def write(self, stage: str, key: str, text: str) -> None:
        self.local.write(stage, key, text)
        try:
            maybe_inject("cluster.replicate")
            self.remote.write(stage, key, text)
        except (OSError, InjectedFault) as exc:
            self._remote_failed("write", exc)
        else:
            self._remote_ok()

    def quarantine(self, stage: str, key: str) -> Path | str | None:
        moved = self.local.quarantine(stage, key)
        try:
            maybe_inject("cluster.replicate")
            remote_moved = self.remote.quarantine(stage, key)
        except (OSError, InjectedFault) as exc:
            self._remote_failed("quarantine", exc)
            remote_moved = None
        return moved if moved is not None else remote_moved

    def purge(self) -> int:
        return self.local.purge()


__all__ = ["HttpCacheStore", "ReplicatedStore"]
