"""Typed progress events of the pipeline engine.

Every stage emits start/finish events (and, for the long-running DSE
stages, progress ticks) through an observer hook: any callable taking a
single event object.  Two observers ship with the engine:

* :class:`ProgressPrinter` — the human-readable CLI progress line
  (one line per event, written to stderr by default);
* :class:`JsonlTraceWriter` — a machine-readable JSONL trace
  (``systolic-synth --trace-json run.jsonl``), one event per line.

Events are plain frozen dataclasses so observers can match on type; the
``to_dict()`` form adds an ``"event"`` discriminator for JSON consumers.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, IO, Iterable

Observer = Callable[["PipelineEvent"], None]


@dataclass(frozen=True)
class PipelineEvent:
    """Base class: something happened in stage ``stage``."""

    stage: str

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form with an ``event`` type discriminator."""
        data: dict[str, Any] = {"event": type(self).__name__}
        data.update(dataclasses.asdict(self))
        return data


@dataclass(frozen=True)
class StageStarted(PipelineEvent):
    """A stage began executing (or probing its cache).

    Attributes:
        index: 0-based position in the pipeline.
        total: number of stages in the pipeline.
    """

    index: int = 0
    total: int = 0


@dataclass(frozen=True)
class StageFinished(PipelineEvent):
    """A stage completed.

    Attributes:
        seconds: wall time of the stage (cache probe included).
        cached: True when the result came from the stage cache.
        info: stage-specific summary (configs enumerated, pruned by the
            branch-and-bound, realized clock, ...).
    """

    seconds: float = 0.0
    cached: bool = False
    info: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class StageProgress(PipelineEvent):
    """A long-running stage reporting partial progress.

    Attributes:
        done: work items finished (e.g. configurations tuned).
        total: work items known (e.g. configurations enumerated).
        message: optional free-form detail.
    """

    done: int = 0
    total: int = 0
    message: str = ""


@dataclass(frozen=True)
class CacheProbe(PipelineEvent):
    """Outcome of a content-addressed cache lookup for one stage.

    Attributes:
        key: the content hash probed.
        hit: whether a stored result was found.
    """

    key: str = ""
    hit: bool = False


@dataclass(frozen=True)
class StageRetried(PipelineEvent):
    """A stage (or a work item inside it) failed and is being retried.

    Attributes:
        attempt: how many attempts have failed so far.
        max_attempts: the retry budget (0 = unbounded / not applicable).
        reason: what went wrong on the failed attempt.
    """

    attempt: int = 1
    max_attempts: int = 0
    reason: str = ""


@dataclass(frozen=True)
class FaultInjected(PipelineEvent):
    """A fault-injection plan fired at a fault point during this stage.

    Attributes:
        point: the registered fault point (e.g. ``dse.worker``).
        kind: ``crash`` | ``corrupt`` | ``delay``.
    """

    point: str = ""
    kind: str = ""


@dataclass(frozen=True)
class StageDegraded(PipelineEvent):
    """A stage recovered by switching to a degraded mode.

    Attributes:
        code: the ``SA5xx`` diagnostic code describing the degradation.
        reason: what failed.
        fallback: the mode the stage degraded to (``recompute``,
            ``serial``, ``fast-backend``, ...).
    """

    code: str = ""
    reason: str = ""
    fallback: str = ""


#: ``event`` discriminator -> class, for rehydrating streamed events.
EVENT_TYPES: dict[str, type[PipelineEvent]] = {
    cls.__name__: cls for cls in PipelineEvent.__subclasses__()
}


def event_from_dict(data: dict[str, Any]) -> PipelineEvent | None:
    """Rebuild a typed event from its :meth:`PipelineEvent.to_dict` form.

    The inverse of the JSONL trace / service-stream wire format.  Unknown
    discriminators (service lifecycle records, events from a newer
    server) and malformed payloads return None rather than raising —
    stream consumers skip what they cannot type.
    """
    cls = EVENT_TYPES.get(str(data.get("event")))
    if cls is None:
        return None
    fields = {f.name for f in dataclasses.fields(cls)}
    kwargs = {key: value for key, value in data.items() if key in fields}
    try:
        return cls(**kwargs)
    except TypeError:
        return None


class EventBus:
    """Fans events out to observers; observer errors never kill the run.

    Subscribe/unsubscribe are thread-safe: the service's streaming
    endpoint attaches one observer per live connection while pipeline
    worker threads emit concurrently, so the observer list is mutated
    under a lock and ``emit`` iterates a snapshot (an observer added or
    removed mid-emit takes effect from the next event on).
    """

    def __init__(self, observers: Iterable[Observer] = ()) -> None:
        self._observers = list(observers)
        self._lock = threading.Lock()

    def subscribe(self, observer: Observer) -> None:
        with self._lock:
            self._observers.append(observer)

    def unsubscribe(self, observer: Observer) -> None:
        """Detach an observer; unknown observers are ignored (a stream
        torn down twice must not raise)."""
        with self._lock:
            try:
                self._observers.remove(observer)
            except ValueError:
                pass

    def emit(self, event: PipelineEvent) -> None:
        with self._lock:
            observers = tuple(self._observers)
        for observer in observers:
            try:
                observer(event)
            except Exception:  # noqa: BLE001 - observers are best-effort
                pass

    __call__ = emit


class ProgressPrinter:
    """Human-readable one-line-per-event progress, for the CLI."""

    def __init__(self, stream: IO[str] | None = None) -> None:
        self.stream = stream

    def _out(self) -> IO[str]:
        return self.stream if self.stream is not None else sys.stderr

    def __call__(self, event: PipelineEvent) -> None:
        if isinstance(event, CacheProbe):
            line = f"cache hit ({event.key[:12]})" if event.hit else ""
        elif isinstance(event, StageProgress):
            line = f"{event.done}/{event.total} {event.message}".rstrip()
        elif isinstance(event, StageRetried):
            budget = f"/{event.max_attempts}" if event.max_attempts else ""
            line = f"retry {event.attempt}{budget}: {event.reason}"
        elif isinstance(event, FaultInjected):
            line = f"fault injected: {event.point} ({event.kind})"
        elif isinstance(event, StageDegraded):
            line = f"degraded to {event.fallback} [{event.code}]: {event.reason}"
        elif isinstance(event, StageFinished):
            detail = "".join(f"  {key}={value}" for key, value in sorted(event.info.items()))
            origin = " (cached)" if event.cached else ""
            line = f"done in {event.seconds:.2f}s{origin}{detail}"
        else:
            return  # StageStarted: the finish line carries everything worth a line
        if line:
            print(f"[{event.stage}] {line}", file=self._out())


class JsonlTraceWriter:
    """Writes every event as one JSON line (``--trace-json``)."""

    def __init__(self, path) -> None:
        from pathlib import Path

        self.path = Path(path)
        self._fh: IO[str] | None = None

    def __call__(self, event: PipelineEvent) -> None:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("a")
        self._fh.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlTraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = [
    "CacheProbe",
    "EVENT_TYPES",
    "EventBus",
    "FaultInjected",
    "JsonlTraceWriter",
    "event_from_dict",
    "Observer",
    "PipelineEvent",
    "ProgressPrinter",
    "StageDegraded",
    "StageFinished",
    "StageProgress",
    "StageRetried",
    "StageStarted",
]
