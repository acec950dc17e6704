"""Seeded, deterministic fault injection for the synthesis pipeline.

A :class:`FaultPlan` names which *fault points* misbehave and how.  Each
registered point sits on one unreliable boundary of the flow:

==================== =====================================================
point                boundary
==================== =====================================================
``cache.read``       reading a content-addressed stage-cache entry
``cache.write``      persisting a stage-cache entry
``dse.worker``       one task inside a DSE worker process
``testbench.compile``invoking the system C compiler on the testbench
``testbench.run``    executing the compiled testbench binary
``rtl.compile``      invoking iverilog on the emitted Verilog + testbench
``rtl.run``          executing the compiled simulation under vvp
``sim.step``         one block step of a wavefront simulator run
``service.queue``    admitting a job into the synthesis service's queue
``service.worker``   one job execution inside a service worker thread
==================== =====================================================

Three fault *kinds* cover the failure modes worth rehearsing:

* ``crash`` (alias ``raise``) — raise :class:`InjectedFault` at the
  point, simulating an I/O error, a killed worker or a hung tool;
* ``corrupt`` — the call site receives a corrupted payload (garbled
  cache JSON, a truncated source file, ...) via :func:`corrupt_text` /
  :func:`corrupt_payload`;
* ``delay`` — sleep a configurable number of seconds, exercising the
  timeout budgets.

Whether a given invocation fires is decided by a per-point
``random.Random(f"{seed}:{point}")`` stream, so a plan with a fixed seed
produces the same fault sequence on every run of the same code path —
chaos tests are reproducible, not flaky.

Activation is layered: an explicitly :func:`activate`-ed plan (or the
:func:`injected` context manager) wins; otherwise the
``REPRO_FAULT_PLAN`` / ``REPRO_FAULT_SEED`` environment variables are
consulted lazily, which is also how DSE worker *processes* inherit the
plan.  The spec grammar (CLI ``--inject-fault`` and the env var) is::

    point:kind[:p=<float>][:times=<int>][:delay=<seconds>]

with multiple specs separated by ``;`` (or repeated ``--inject-fault``
flags), e.g. ``dse.worker:crash:p=0.3;cache.write:corrupt``.
"""

from __future__ import annotations

import os
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

FAULT_PLAN_ENV_VAR = "REPRO_FAULT_PLAN"
FAULT_SEED_ENV_VAR = "REPRO_FAULT_SEED"

FAULT_POINTS: tuple[str, ...] = (
    "cache.read",
    "cache.write",
    "dse.worker",
    "testbench.compile",
    "testbench.run",
    "rtl.compile",
    "rtl.run",
    "sim.step",
    "service.queue",
    "service.worker",
)

FAULT_KINDS: tuple[str, ...] = ("crash", "corrupt", "delay")

_KIND_ALIASES = {"raise": "crash"}

Listener = Callable[[str, str], None]
"""Observer hook: called with (point, kind) every time a fault fires."""


class InjectedFault(RuntimeError):
    """The exception a ``crash``-kind fault raises at its fault point.

    Attributes:
        point: the fault point that fired.
        kind: always ``"crash"`` (kept for symmetry with the listener
            signature).
    """

    def __init__(self, point: str, kind: str = "crash") -> None:
        super().__init__(f"injected fault at {point} ({kind})")
        self.point = point
        self.kind = kind

    def __reduce__(self):  # picklable across process-pool boundaries
        return (InjectedFault, (self.point, self.kind))


@dataclass(frozen=True)
class FaultSpec:
    """One fault point's misbehaviour.

    Attributes:
        point: registered fault point name.
        kind: ``crash`` | ``corrupt`` | ``delay``.
        probability: chance each invocation fires (deterministic per
            seed; 1.0 = always).
        times: stop firing after this many triggers (None = unlimited).
        delay_seconds: sleep duration for ``delay`` faults.
    """

    point: str
    kind: str
    probability: float = 1.0
    times: int | None = None
    delay_seconds: float = 0.01

    def __post_init__(self) -> None:
        kind = _KIND_ALIASES.get(self.kind, self.kind)
        object.__setattr__(self, "kind", kind)
        if self.point not in FAULT_POINTS:
            raise ValueError(
                f"unknown fault point {self.point!r}; "
                f"registered points: {', '.join(FAULT_POINTS)}"
            )
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"kinds: {', '.join(FAULT_KINDS)} (alias raise=crash)"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("fault probability must be in [0, 1]")
        if self.times is not None and self.times < 1:
            raise ValueError("times must be >= 1")

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse one ``point:kind[:p=..][:times=..][:delay=..]`` spec."""
        parts = [p.strip() for p in text.split(":") if p.strip()]
        if len(parts) < 2:
            raise ValueError(
                f"fault spec {text!r} must look like 'point:kind[:p=0.5]'"
            )
        point, kind = parts[0], parts[1]
        kwargs: dict[str, Any] = {}
        for option in parts[2:]:
            if "=" not in option:
                raise ValueError(f"malformed fault option {option!r} in {text!r}")
            name, _, value = option.partition("=")
            name = name.strip()
            if name == "p":
                kwargs["probability"] = float(value)
            elif name == "times":
                kwargs["times"] = int(value)
            elif name == "delay":
                kwargs["delay_seconds"] = float(value)
            else:
                raise ValueError(f"unknown fault option {name!r} in {text!r}")
        return cls(point, kind, **kwargs)

    def to_spec(self) -> str:
        """The canonical spec string (round-trips through :meth:`parse`)."""
        parts = [self.point, self.kind]
        if self.probability != 1.0:
            parts.append(f"p={self.probability}")
        if self.times is not None:
            parts.append(f"times={self.times}")
        if self.kind == "delay" and self.delay_seconds != 0.01:
            parts.append(f"delay={self.delay_seconds}")
        return ":".join(parts)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of fault specs — the unit of activation.

    Attributes:
        specs: the faults to inject (at most one spec per point).
        seed: seeds every per-point decision stream.
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        points = [s.point for s in self.specs]
        dupes = {p for p in points if points.count(p) > 1}
        if dupes:
            raise ValueError(f"duplicate fault specs for {sorted(dupes)}")

    @classmethod
    def parse(cls, text: str, *, seed: int = 0) -> "FaultPlan":
        """Parse a ``;``-separated plan string (the env-var format)."""
        specs = tuple(
            FaultSpec.parse(part)
            for part in text.split(";")
            if part.strip()
        )
        return cls(specs=specs, seed=seed)

    def to_spec(self) -> str:
        """The canonical plan string for ``REPRO_FAULT_PLAN``."""
        return ";".join(spec.to_spec() for spec in self.specs)

    def spec_for(self, point: str) -> FaultSpec | None:
        for spec in self.specs:
            if spec.point == point:
                return spec
        return None


class FaultInjector:
    """Executable form of a plan: per-point decision streams + counters.

    Attributes:
        plan: the activated plan.
        fired: (point, kind) log of every fault that actually fired.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.fired: list[tuple[str, str]] = []
        self._streams: dict[str, random.Random] = {}
        self._trigger_counts: dict[str, int] = {}
        self._lock = threading.Lock()

    def _stream(self, point: str) -> random.Random:
        if point not in self._streams:
            self._streams[point] = random.Random(f"{self.plan.seed}:{point}")
        return self._streams[point]

    def poll(self, point: str) -> FaultSpec | None:
        """Decide whether this invocation of ``point`` fires a fault.

        Consumes one draw from the point's decision stream (so the fault
        sequence is a pure function of the seed and the invocation
        order) and honours the spec's ``times`` budget.
        """
        spec = self.plan.spec_for(point)
        if spec is None:
            return None
        with self._lock:
            if spec.times is not None and self._trigger_counts.get(point, 0) >= spec.times:
                return None
            draw = self._stream(point).random()
            if draw >= spec.probability:
                return None
            self._trigger_counts[point] = self._trigger_counts.get(point, 0) + 1
            self.fired.append((point, spec.kind))
        return spec


# ------------------------------------------------------------- activation

_ACTIVE: FaultInjector | None = None
_ENV_INJECTOR: tuple[str, FaultInjector] | None = None
_LISTENERS: list[Listener] = []


def activate(plan: FaultPlan, *, export_env: bool = False) -> FaultInjector:
    """Install a plan process-wide; returns its injector.

    Args:
        plan: the faults to inject from now on.
        export_env: also publish the plan via ``REPRO_FAULT_PLAN`` /
            ``REPRO_FAULT_SEED`` so child processes (DSE pool workers)
            inherit it regardless of the pool start method.
    """
    global _ACTIVE
    _ACTIVE = FaultInjector(plan)
    if export_env:
        os.environ[FAULT_PLAN_ENV_VAR] = plan.to_spec()
        os.environ[FAULT_SEED_ENV_VAR] = str(plan.seed)
    return _ACTIVE


def deactivate(*, clear_env: bool = False) -> None:
    """Remove any explicitly activated plan (env plans resume applying).

    Args:
        clear_env: also drop the ``REPRO_FAULT_PLAN`` / ``REPRO_FAULT_SEED``
            environment variables (undoing ``activate(export_env=True)``).
    """
    global _ACTIVE
    _ACTIVE = None
    if clear_env:
        os.environ.pop(FAULT_PLAN_ENV_VAR, None)
        os.environ.pop(FAULT_SEED_ENV_VAR, None)


def active_injector() -> FaultInjector | None:
    """The injector in effect: the activated one, else the env-var plan.

    The environment form is how worker processes inherit the plan: the
    CLI exports ``REPRO_FAULT_PLAN`` / ``REPRO_FAULT_SEED`` before any
    pool spawns, and every process consults them lazily here.  The
    env-built injector is cached per plan string so its decision streams
    and ``times`` budgets persist across calls.
    """
    global _ENV_INJECTOR
    if _ACTIVE is not None:
        return _ACTIVE
    text = os.environ.get(FAULT_PLAN_ENV_VAR)
    if not text:
        return None
    seed = int(os.environ.get(FAULT_SEED_ENV_VAR, "0") or "0")
    cache_key = f"{seed}|{text}"
    if _ENV_INJECTOR is None or _ENV_INJECTOR[0] != cache_key:
        _ENV_INJECTOR = (cache_key, FaultInjector(FaultPlan.parse(text, seed=seed)))
    return _ENV_INJECTOR[1]


@contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultInjector]:
    """Context manager: activate ``plan`` for the duration of the block."""
    global _ACTIVE
    previous = _ACTIVE
    injector = activate(plan)
    try:
        yield injector
    finally:
        _ACTIVE = previous


def add_listener(listener: Listener) -> None:
    """Subscribe to every fired fault (used to emit FaultInjected events)."""
    _LISTENERS.append(listener)


def remove_listener(listener: Listener) -> None:
    """Unsubscribe a listener previously added."""
    try:
        _LISTENERS.remove(listener)
    except ValueError:
        pass


def _notify(point: str, kind: str) -> None:
    for listener in list(_LISTENERS):
        try:
            listener(point, kind)
        except Exception:  # noqa: BLE001 - listeners are best-effort
            pass


def maybe_inject(point: str, *, sleep: Callable[[float], None] = time.sleep) -> str | None:
    """Fire the active plan's fault at ``point``, if any.

    Returns:
        ``"corrupt"`` when the call site must corrupt its payload
        (apply :func:`corrupt_text` / :func:`corrupt_payload` itself —
        only the site knows what its payload is), None otherwise.

    Raises:
        InjectedFault: for a ``crash`` fault.
    """
    injector = active_injector()
    if injector is None:
        return None
    spec = injector.poll(point)
    if spec is None:
        return None
    _notify(point, spec.kind)
    if spec.kind == "crash":
        raise InjectedFault(point)
    if spec.kind == "delay":
        sleep(spec.delay_seconds)
        return None
    return "corrupt"


# ------------------------------------------------------------- corruption

def corrupt_text(text: str) -> str:
    """Deterministically garble a text payload (truncate + poison).

    The result is guaranteed to differ from the input and to be invalid
    JSON, so parsers at the call site fail loudly rather than consuming
    half a payload.
    """
    return text[: max(0, len(text) // 2)] + "\x00{corrupt"


def corrupt_payload(payload: dict[str, Any]) -> dict[str, Any]:
    """A structurally broken stand-in for a decoded payload dict."""
    return {"__corrupt__": True, "keys_lost": sorted(map(str, payload))}


__all__ = [
    "FAULT_KINDS",
    "FAULT_PLAN_ENV_VAR",
    "FAULT_POINTS",
    "FAULT_SEED_ENV_VAR",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "Listener",
    "activate",
    "active_injector",
    "add_listener",
    "corrupt_payload",
    "corrupt_text",
    "deactivate",
    "injected",
    "maybe_inject",
    "remove_listener",
]
