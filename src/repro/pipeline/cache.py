"""Content-addressed stage cache over pluggable stores.

Every cacheable stage result is keyed by a stable SHA-256 over

* the stage name,
* the loop nest (value serialization, not object identity),
* the platform (device, datatype, memory system, frequency surrogate and
  calibration constants),
* the :class:`~repro.dse.explore.DseConfig` knobs,
* a code-version fingerprint (hash of every ``repro`` source file), so a
  code change silently invalidates the whole cache instead of replaying
  stale results.

The *policy* layer (:class:`StageCache`) owns hashing, retries, fault
injection, JSON parsing, quarantine accounting and probe statistics; the
*mechanism* is a :class:`CacheStore` backend.  Three backends ship:

* :class:`FilesystemStore` — JSON files under
  ``~/.cache/repro-systolic/<stage>/`` (overridable per call, via
  ``$REPRO_SYSTOLIC_CACHE_DIR``, or ``$XDG_CACHE_HOME``); writes are
  atomic (temp file + ``os.replace``) so concurrent compiles never
  observe torn entries.
* :class:`SqliteStore` — a single-file SQLite database (``sqlite:PATH``
  spec), WAL-journaled, one connection per thread.
* ``repro.cluster.netstore.HttpCacheStore`` — the coordinator-served
  network backend (``http(s)://...`` spec), resolved lazily so the
  pipeline never imports the cluster tier unless asked to.

Whatever the backend, the cache is a best-effort accelerator, never a
correctness dependency: a corrupt or unreadable entry is *quarantined*
(moved aside — ``<key>.json.corrupt`` on the filesystem, a shadow table
in SQLite — for post-mortem) and degrades to a cache miss, I/O is
retried under the default :mod:`repro.resilience` policy, and the
``cache.read`` / ``cache.write`` fault points let the chaos suite
rehearse every one of those paths deterministically.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sqlite3
import tempfile
import threading
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Protocol, runtime_checkable

from repro.resilience.faults import InjectedFault, corrupt_text, maybe_inject
from repro.resilience.retry import RetryPolicy, call_with_retry

_CODE_VERSION: str | None = None

CACHE_ENV_VAR = "REPRO_SYSTOLIC_CACHE_DIR"


def default_cache_dir() -> Path:
    """Resolve the cache root: env override, XDG, then ``~/.cache``."""
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-systolic"


def code_version() -> str:
    """Fingerprint of the installed ``repro`` sources (cached per process)."""
    global _CODE_VERSION
    if _CODE_VERSION is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
        _CODE_VERSION = digest.hexdigest()
    return _CODE_VERSION


@lru_cache(maxsize=256)
def _field_names(cls: type) -> tuple[str, ...] | None:
    """The fields an instance of ``cls`` lowers to (None: not a dataclass)."""
    return tuple(f.name for f in dataclasses.fields(cls)) if dataclasses.is_dataclass(cls) else None


def stable_fingerprint(value: Any, memo: dict[int, tuple[Any, Any]] | None = None) -> Any:
    """Lower an arbitrary value-object graph to canonical JSON-able data.

    Dataclasses (Platform, DseConfig, LoopNest, ...) reduce to their field
    dicts, tuples to lists, dict keys are stringified; the result feeds
    ``json.dumps(sort_keys=True)`` so logically equal values always hash
    equal.  ``memo`` (``id -> (object, lowered)``, shared by the calls of
    one pipeline run) lowers each dataclass object once; it holds the
    object itself, so no other object can reuse that ``id`` while the
    memo lives.
    """
    names = _field_names(type(value))  # a class itself lowers to its repr
    if names is not None:
        if memo is not None and id(value) in memo:
            return memo[id(value)][1]
        lowered = {name: stable_fingerprint(getattr(value, name), memo) for name in names}
        lowered["__type__"] = type(value).__name__
        if memo is not None:
            memo[id(value)] = (value, lowered)
        return lowered
    if isinstance(value, dict):
        return {str(k): stable_fingerprint(v, memo) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [stable_fingerprint(v, memo) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


@runtime_checkable
class CacheStore(Protocol):
    """Mechanism behind :class:`StageCache`: raw text storage by (stage, key).

    Contract (relied on by the shared backend property suite):

    * ``read`` returns the stored text, or ``None`` when the entry is
      absent; transient trouble raises :class:`OSError` (the policy
      layer retries it).
    * ``write`` stores text atomically with respect to concurrent
      readers and writers of the *same* entry — a reader never observes
      a torn interleaving of two writes; failures raise ``OSError``.
    * ``quarantine`` atomically moves an entry aside (returning a
      location token for post-mortem) or returns ``None`` when the
      entry vanished meanwhile; under a quarantine race exactly one
      caller receives a non-``None`` result.
    * ``purge`` removes every live entry (quarantined ones survive for
      post-mortem) and returns the number removed.
    """

    kind: str

    def describe(self) -> str:
        """Human-readable location (shown in stats/diagnostics)."""
        ...

    def read(self, stage: str, key: str) -> str | None: ...

    def write(self, stage: str, key: str, text: str) -> None: ...

    def quarantine(self, stage: str, key: str) -> Path | str | None: ...

    def purge(self) -> int: ...


class FilesystemStore:
    """The original backend: one JSON file per entry under ``root``."""

    kind = "filesystem"

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)

    def describe(self) -> str:
        return str(self.root)

    def _path(self, stage: str, key: str) -> Path:
        return self.root / stage / f"{key}.json"

    def read(self, stage: str, key: str) -> str | None:
        # bytes, not text mode: universal-newline translation would turn
        # a stored "\r" into "\n" and break round-trip fidelity
        try:
            return self._path(stage, key).read_bytes().decode()
        except FileNotFoundError:
            return None

    def write(self, stage: str, key: str, text: str) -> None:
        path = self._path(stage, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(text.encode())
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    def quarantine(self, stage: str, key: str) -> Path | None:
        path = self._path(stage, key)
        target = path.with_suffix(path.suffix + ".corrupt")
        try:
            # os.replace is atomic: under a quarantine race exactly one
            # mover succeeds, the rest see the entry already gone.
            os.replace(path, target)
        except OSError:
            return None
        return target

    def purge(self) -> int:
        removed = 0
        if self.root.is_dir():
            for path in self.root.rglob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed


class SqliteStore:
    """Single-file SQLite backend (``sqlite:PATH``), one connection per thread.

    WAL journaling lets concurrent readers proceed under a writer;
    quarantine moves the row into a shadow ``quarantined`` table inside
    a ``BEGIN IMMEDIATE`` transaction so racing movers serialize and
    exactly one wins.
    """

    kind = "sqlite"

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self._local = threading.local()
        with self._connect() as conn:
            conn.execute(
                "CREATE TABLE IF NOT EXISTS entries ("
                "stage TEXT NOT NULL, key TEXT NOT NULL, payload TEXT NOT NULL,"
                " PRIMARY KEY (stage, key))"
            )
            conn.execute(
                "CREATE TABLE IF NOT EXISTS quarantined ("
                "stage TEXT NOT NULL, key TEXT NOT NULL, payload TEXT NOT NULL,"
                " PRIMARY KEY (stage, key))"
            )

    def _connect(self) -> sqlite3.Connection:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(self.path, timeout=10.0)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        return conn

    def _conn(self) -> sqlite3.Connection:
        conn: sqlite3.Connection | None = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._connect()
            self._local.conn = conn
        return conn

    def describe(self) -> str:
        return f"sqlite:{self.path}"

    def read(self, stage: str, key: str) -> str | None:
        try:
            row = self._conn().execute(
                "SELECT payload FROM entries WHERE stage = ? AND key = ?",
                (stage, key),
            ).fetchone()
        except sqlite3.Error as exc:  # transient: surface as retriable I/O
            raise OSError(str(exc)) from exc
        return None if row is None else str(row[0])

    def write(self, stage: str, key: str, text: str) -> None:
        try:
            with self._conn() as conn:
                conn.execute(
                    "INSERT OR REPLACE INTO entries (stage, key, payload)"
                    " VALUES (?, ?, ?)",
                    (stage, key, text),
                )
        except sqlite3.Error as exc:
            raise OSError(str(exc)) from exc

    def quarantine(self, stage: str, key: str) -> str | None:
        conn = self._conn()
        try:
            conn.execute("BEGIN IMMEDIATE")
            try:
                moved = conn.execute(
                    "INSERT OR REPLACE INTO quarantined (stage, key, payload)"
                    " SELECT stage, key, payload FROM entries"
                    " WHERE stage = ? AND key = ?",
                    (stage, key),
                ).rowcount
                if moved:
                    conn.execute(
                        "DELETE FROM entries WHERE stage = ? AND key = ?",
                        (stage, key),
                    )
                conn.commit()
            except BaseException:
                conn.rollback()
                raise
        except sqlite3.Error:
            return None
        if not moved:
            return None
        return f"{self.describe()}#quarantined/{stage}/{key}"

    def purge(self) -> int:
        try:
            with self._conn() as conn:
                return int(conn.execute("DELETE FROM entries").rowcount)
        except sqlite3.Error as exc:
            raise OSError(str(exc)) from exc

    def close(self) -> None:
        conn: sqlite3.Connection | None = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None


class StageCache:
    """Persistent JSON store addressed by content hashes.

    Attributes:
        store: the :class:`CacheStore` backend holding the raw entries.
        hits / misses: per-instance probe statistics.
    """

    #: Retry budget for one cache read/write (I/O is cheap; keep the
    #: backoff tight so a sick filesystem degrades fast, not slowly).
    IO_POLICY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05)

    def __init__(
        self,
        root: Path | str | None = None,
        *,
        store: CacheStore | None = None,
    ) -> None:
        if store is not None and root is not None:
            raise ValueError("pass either a filesystem root or a store, not both")
        if store is None:
            store = FilesystemStore(Path(root) if root is not None else default_cache_dir())
        self.store: CacheStore = store
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        self.write_failures = 0
        # One instance may be shared by many worker threads (the service's
        # worker pool runs pipelines concurrently over a single cache).
        # Entry I/O itself needs no mutual exclusion — stores commit
        # entries atomically — so the lock guards only the statistics
        # counters and quarantine bookkeeping, never I/O (blocking with
        # it held would stall every worker).
        self._lock = threading.RLock()

    @property
    def root(self) -> Path | None:
        """Filesystem root when backed by one, else None."""
        return getattr(self.store, "root", None)

    @staticmethod
    def key_for(stage: str, *parts: Any, memo: dict[int, tuple[Any, Any]] | None = None) -> str:
        """Content hash of (stage, code version, *parts) — the one hashing
        recipe: stage-cache keys and a request's coalescing fingerprint.
        ``memo`` (see :func:`stable_fingerprint`) lets the keys of one
        pipeline run lower each part object once; the key is the same
        with or without it."""
        material = json.dumps(
            [stage, code_version(), [stable_fingerprint(p, memo) for p in parts]],
            sort_keys=True,
        )
        return hashlib.sha256(material.encode()).hexdigest()

    def get(
        self, stage: str, key: str, *, on_corrupt: Callable[[str], None] | None = None
    ) -> dict[str, Any] | None:
        """Return the stored payload, or None on miss — never raise.

        An unreadable entry (I/O error, injected ``cache.read`` crash) is
        retried under :attr:`IO_POLICY` and then treated as a miss; an
        entry that reads but does not parse is *corrupt* and is moved
        aside (quarantined) so the next run recomputes instead of
        tripping over it again, and ``on_corrupt`` hears why.
        """

        def read() -> str | None:
            text = self.store.read(stage, key)
            if text is not None and maybe_inject("cache.read") == "corrupt":
                text = corrupt_text(text)
            return text

        # The retried read (which sleeps between attempts) runs *outside*
        # the lock: writers land entries atomically, so a concurrent
        # reader never needs mutual exclusion against them.  The lock
        # only guards the statistics counters.
        try:
            text = call_with_retry(
                read, policy=self.IO_POLICY, retry_on=(OSError, InjectedFault)
            )
        except (OSError, InjectedFault):
            text = None
        if text is None:
            with self._lock:
                self.misses += 1
            return None
        try:
            payload = json.loads(text)
        except ValueError:
            payload = None
        if not isinstance(payload, dict):
            self.quarantine(stage, key)
            with self._lock:
                self.misses += 1
            if on_corrupt is not None:
                on_corrupt("entry does not parse as a JSON object")
            return None
        with self._lock:
            self.hits += 1
        return payload

    def put(self, stage: str, key: str, payload: dict[str, Any]) -> None:
        """Atomically persist a payload; IO failures are non-fatal.

        Stores commit entries atomically (temp file + ``os.replace`` on
        the filesystem, a transaction in SQLite), so a concurrent reader
        (or a crash mid-write) never observes a torn entry.  An injected
        ``cache.write`` corrupt fault writes garbled text — exercising
        the read-side quarantine.
        """
        text = json.dumps(payload)

        def write() -> None:
            body = text
            if maybe_inject("cache.write") == "corrupt":
                body = corrupt_text(body)
            self.store.write(stage, key, body)

        # Like get(): the write (atomic inside the store, and sleeping
        # between retry attempts) happens outside the lock so a slow or
        # faulted backend cannot stall every other worker thread; only
        # the failure counter needs the lock.
        try:
            call_with_retry(
                write, policy=self.IO_POLICY, retry_on=(OSError, InjectedFault)
            )
        except (OSError, InjectedFault):
            with self._lock:
                self.write_failures += 1

    def quarantine(self, stage: str, key: str) -> Path | str | None:
        """Move a corrupt entry aside for post-mortem; returns its new
        location (None when the entry vanished meanwhile)."""
        moved = self.store.quarantine(stage, key)
        if moved is None:
            return None
        with self._lock:
            self.quarantined += 1
        return moved

    def clear(self) -> int:
        """Delete every stored entry; returns the number removed."""
        return self.store.purge()

    def stats(self) -> dict[str, Any]:
        """Probe statistics plus the backend identity."""
        with self._lock:
            return {
                "backend": self.store.kind,
                "location": self.store.describe(),
                "hits": self.hits,
                "misses": self.misses,
                "quarantined": self.quarantined,
                "write_failures": self.write_failures,
            }


CacheSpec = StageCache | CacheStore | Path | str | bool | None
"""How callers select a stage cache — everything :func:`resolve_cache`
accepts: None/False = off, True = the default directory, a path or
store spec, a :class:`CacheStore`, or a :class:`StageCache` instance."""


def _store_from_spec(spec: str) -> CacheStore | None:
    """Map a store-URL spec to a backend, or None for plain paths."""
    if spec.startswith("sqlite:"):
        path = spec[len("sqlite:") :]
        if path.startswith("//"):
            path = path[2:]
        return SqliteStore(path)
    if spec.startswith(("http://", "https://")):
        # Lazy: the pipeline layer must not import the cluster tier
        # unless a network store is actually requested.
        from repro.cluster.netstore import HttpCacheStore

        return HttpCacheStore(spec)
    return None


def resolve_cache(cache: CacheSpec) -> StageCache | None:
    """Normalize the user-facing ``cache`` argument.

    ``None``/``False`` disable caching, ``True`` selects the default
    directory, a path roots a filesystem cache there, ``sqlite:PATH``
    and ``http(s)://HOST`` specs select the SQLite / coordinator-served
    network backends, a :class:`CacheStore` is wrapped, and an existing
    :class:`StageCache` passes through.
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return StageCache()
    if isinstance(cache, StageCache):
        return cache
    if isinstance(cache, (str, Path)):
        store = _store_from_spec(cache) if isinstance(cache, str) else None
        return StageCache(cache) if store is None else StageCache(store=store)
    if isinstance(cache, CacheStore):
        return StageCache(store=cache)
    raise TypeError(f"cannot resolve cache from {type(cache).__name__}")


__all__ = [
    "CACHE_ENV_VAR",
    "CacheSpec",
    "CacheStore",
    "FilesystemStore",
    "SqliteStore",
    "StageCache",
    "code_version",
    "default_cache_dir",
    "resolve_cache",
    "stable_fingerprint",
]
