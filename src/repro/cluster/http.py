"""The coordinator's HTTP face: the single-node job API plus fleet and
cache endpoints.

A client pointed at the coordinator sees the same contract as a single
node because it *is* the same code — the job routes (``/v1/jobs...``,
``/healthz``, ``/metrics``), the request handler and the server are
:mod:`repro.service.http`'s, answered here by the
:class:`ClusterCoordinator` (fingerprint-routed submits, proxied status
and cancel, relayed event streams, aggregated fleet counters) — which is
what lets :class:`~repro.service.client.ServiceClient` drive a whole
fleet unchanged.  This module adds only what is the fleet's own:

====== ================================== ==================================
Method Path                               Meaning
====== ================================== ==================================
POST   /v1/workers                        worker registration
POST   /v1/workers/{node}/heartbeat       one beat
DELETE /v1/workers/{node}                 graceful leave (reassigns jobs)
GET    /v1/workers                        fleet membership view
GET    /v1/cache/{stage}/{key}            shared-cache read (text payload)
PUT    /v1/cache/{stage}/{key}            shared-cache write (write-through)
DELETE /v1/cache/{stage}/{key}            quarantine one entry
DELETE /v1/cache                          purge live entries
====== ================================== ==================================
"""

from __future__ import annotations

from typing import Callable

from repro.cluster.coordinator import ClusterCoordinator
from repro.pipeline.cache import CacheStore
from repro.service.http import JOB_ROUTES, ApiHandler, ApiServer, HttpError, Reply, route


def _coordinator(request: ApiHandler) -> ClusterCoordinator:
    return request.server.api  # type: ignore[attr-defined]


def _register(request: ApiHandler) -> Reply:
    body = request.read_json()
    node, url = str(body.get("node") or ""), str(body.get("url") or "")
    return 200, _coordinator(request).register(node, url)


def _heartbeat(request: ApiHandler, node: str) -> Reply:
    if _coordinator(request).heartbeat(node):
        return 200, {"node": node, "ok": True}
    return 404, {"error": f"unknown node {node!r}; re-register", "ok": False}


def _deregister(request: ApiHandler, node: str) -> Reply:
    if not _coordinator(request).deregister(node):
        raise HttpError(404, f"unknown node {node!r}")
    return 200, {"node": node, "removed": True}


def _cache_route(operation: Callable[..., Reply]) -> Callable[..., Reply]:
    """A shared-cache route: ``operation`` also receives the store (404
    when none is configured) and its I/O errors answer 500."""

    def handler(request: ApiHandler, *entry: str) -> Reply:
        store = _coordinator(request).store
        if store is None:
            raise HttpError(404, "no shared cache configured")
        try:
            return operation(request, store, *entry)
        except OSError as exc:
            raise HttpError(500, str(exc)) from exc

    return handler


@_cache_route
def _cache_get(request: ApiHandler, store: CacheStore, stage: str, key: str) -> Reply:
    text = store.read(stage, key)
    outcome = "miss" if text is None else "hit"
    _coordinator(request).metrics.inc("cache_requests_total", op="get", result=outcome)
    if text is None:
        raise HttpError(404, "cache miss")
    return 200, text, "application/json"


@_cache_route
def _cache_put(request: ApiHandler, store: CacheStore, stage: str, key: str) -> Reply:
    try:
        text = request.read_body().decode()
    except ValueError as exc:
        raise HttpError(400, str(exc)) from exc
    store.write(stage, key, text)
    _coordinator(request).metrics.inc("cache_requests_total", op="put", result="ok")
    return 204, None


@_cache_route
def _cache_quarantine(request: ApiHandler, store: CacheStore, stage: str, key: str) -> Reply:
    moved = store.quarantine(stage, key)
    if moved is None:
        raise HttpError(404, "no such entry")
    return 200, {"quarantined": str(moved)}


@_cache_route
def _cache_purge(request: ApiHandler, store: CacheStore) -> Reply:
    return 200, {"removed": store.purge()}


FLEET_ROUTES = (
    route("POST", "/v1/workers", _register),
    route("POST", "/v1/workers/{node}/heartbeat", _heartbeat),
    route("DELETE", "/v1/workers/{node}", _deregister),
    route("GET", "/v1/workers", lambda r: (200, {"workers": _coordinator(r).stats()["nodes"]})),
    route("GET", "/v1/cache/{stage}/{key}", _cache_get),
    route("PUT", "/v1/cache/{stage}/{key}", _cache_put),
    route("DELETE", "/v1/cache/{stage}/{key}", _cache_quarantine),
    route("DELETE", "/v1/cache", _cache_purge),
)


class CoordinatorServer(ApiServer):
    """The fleet: the job routes and the fleet's own over a coordinator."""

    api: ClusterCoordinator
    routes = JOB_ROUTES + FLEET_ROUTES
    banner = "repro-synth-coordinator"


def run_coordinator(
    coordinator: ClusterCoordinator,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    verbose: bool = False,
) -> CoordinatorServer:
    """Start the coordinator and serve it on a background thread (port 0
    picks an ephemeral port; see ``.port``)."""
    server = CoordinatorServer((host, port), coordinator, verbose=verbose)
    coordinator.start()
    server.start()
    return server


def shutdown_coordinator(server: CoordinatorServer, timeout: float | None = 30.0) -> None:
    """Stop the monitor, close the listener."""
    server.api.close()
    server.stop()


__all__ = [
    "FLEET_ROUTES",
    "CoordinatorServer",
    "run_coordinator",
    "shutdown_coordinator",
]
