"""Retry policies: bounded attempts, exponential backoff, deterministic
jitter, and a per-attempt timeout budget.

:func:`call_with_retry` is applied to every unreliable call in the
flow — external tools (:func:`run_tool`: gcc and the testbench binary
in :mod:`repro.codegen.testbench`, iverilog and vvp in
:mod:`repro.sim.rtl` — the one place the flow shells out), cache I/O in
:mod:`repro.pipeline.cache`, wavefront-simulator execution in the
simulate stage.  Backoff jitter is seeded (a pure function of
``(seed, attempt)``), so retry schedules — like injected faults — are
reproducible run to run.

The module-level default policy is what the CLI's ``--max-retries``
flag adjusts (:func:`configure_retries`); call sites that need their own
budget pass an explicit :class:`RetryPolicy`.
"""

from __future__ import annotations

import random
import subprocess
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence, TypeVar

from repro.analysis.diagnostics import RESILIENCE_TOOL_TIMEOUT, Diagnostic, Severity
from repro.resilience.faults import InjectedFault, maybe_inject

T = TypeVar("T")

#: Hard per-attempt budgets for external compile / run invocations.
DEFAULT_COMPILE_TIMEOUT = 120.0
DEFAULT_RUN_TIMEOUT = 600.0

OnRetry = Callable[[int, Exception], None]
"""Hook called before each re-attempt with (attempt number, error)."""


@dataclass(frozen=True)
class RetryPolicy:
    """How often and how patiently to retry one unreliable operation.

    Attributes:
        max_attempts: total tries, first included (1 = no retries).
        base_delay: backoff before attempt 2, doubling per attempt.
        max_delay: backoff ceiling.
        jitter: fractional jitter added to each backoff (0.25 = up to
            +25%), drawn deterministically from ``(seed, attempt)``.
        timeout: per-attempt time budget in seconds of every external
            tool invocation (:func:`run_tool`; None = the site's own
            default).
        seed: seeds the jitter stream.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.25
    timeout: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0 or self.jitter < 0:
            raise ValueError("delays and jitter must be non-negative")

    def delay_for(self, attempt: int) -> float:
        """Backoff before re-attempt ``attempt`` (attempt 2 is the first
        retry).  Deterministic: same policy, same attempt, same delay."""
        if attempt < 2:
            return 0.0
        backoff = min(self.max_delay, self.base_delay * 2.0 ** (attempt - 2))
        fraction = random.Random(f"{self.seed}:{attempt}").random()
        return backoff * (1.0 + self.jitter * fraction)


#: The process-wide default policy (see :func:`configure_retries`).
DEFAULT_POLICY = RetryPolicy()

_current = DEFAULT_POLICY


def configure_retries(
    *,
    max_attempts: int | None = None,
    base_delay: float | None = None,
    timeout: float | None = None,
) -> RetryPolicy:
    """Adjust the process-wide default policy (CLI ``--max-retries``).

    Only the given fields change; returns the new default.
    """
    global _current
    changes: dict = {}
    if max_attempts is not None:
        changes["max_attempts"] = max_attempts
    if base_delay is not None:
        changes["base_delay"] = base_delay
    if timeout is not None:
        changes["timeout"] = timeout
    _current = replace(_current, **changes)
    return _current


def current_policy() -> RetryPolicy:
    """The process-wide default policy in effect."""
    return _current


def reset_retries() -> None:
    """Restore the built-in default policy (CLI teardown, test isolation)."""
    global _current
    _current = DEFAULT_POLICY


def call_with_retry(
    fn: Callable[[], T],
    *,
    policy: RetryPolicy | None = None,
    retry_on: tuple[type[BaseException], ...] = (Exception,),
    on_retry: OnRetry | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> T:
    """Run ``fn`` under a retry policy.

    Args:
        fn: the operation (re-invoked from scratch each attempt).
        policy: attempt/backoff budget (the process default if None).
        retry_on: exception types worth another attempt; anything else
            propagates immediately.
        on_retry: hook fired before each re-attempt (event emission).
        sleep: injectable for tests.

    Raises:
        The last error once every attempt is exhausted.
    """
    active = policy if policy is not None else _current
    attempt = 0
    while True:
        attempt += 1
        try:
            return fn()
        except retry_on as exc:
            if attempt >= active.max_attempts:
                raise
            if on_retry is not None:
                on_retry(attempt, exc)
            delay = active.delay_for(attempt + 1)
            if delay > 0:
                sleep(delay)


class ToolUnavailable(RuntimeError):
    """An external tool delivered no verdict on any attempt — nothing
    was checked, so callers degrade or skip instead of reporting a
    functional failure.

    Attributes:
        kind: ``"missing"`` (no such executable), ``"timeout"`` (over
            budget) or ``"failed"`` (could not be invoked).
        diagnostic: structured ``SAxxx`` description; None as raised by
            :func:`run_tool` — each call site re-raises its own subclass
            through :meth:`diagnosed` with the code that applies there.
    """

    def __init__(self, diagnostic: Diagnostic | str, kind: str = "failed") -> None:
        super().__init__(getattr(diagnostic, "message", diagnostic))
        self.diagnostic = diagnostic if isinstance(diagnostic, Diagnostic) else None
        self.kind = kind

    @classmethod
    def diagnosed(
        cls, cause: "ToolUnavailable", code: str, hints: dict[str, str]
    ) -> "ToolUnavailable":
        """``cause`` as this site's error: ``SA505`` for a timeout, else
        ``code``, with the site's hint for that kind of failure."""
        if cause.kind == "timeout":
            code = RESILIENCE_TOOL_TIMEOUT
        hint = hints.get(cause.kind)
        return cls(Diagnostic(code, Severity.WARNING, str(cause), hint=hint), cause.kind)


def run_tool(
    argv: Sequence[str],
    *,
    fault_point: str,
    timeout: float,
    policy: RetryPolicy | None = None,
    on_retry: OnRetry | None = None,
    cwd: Path | None = None,
    corrupted: Callable[[], Sequence[str]] | None = None,
) -> subprocess.CompletedProcess:
    """Run one external tool: hard timeout, retries, one failure type.

    Every attempt polls ``fault_point`` and is bounded by ``timeout``
    seconds (``policy.timeout``, when set, overrides it); OS errors,
    timeouts and injected faults are retried under ``policy`` (the
    process default if None), ``on_retry`` firing before each re-attempt.
    ``corrupted`` builds the command to run instead when the fault point
    answers ``"corrupt"`` — only the site knows which file on the
    command line is its payload.

    Returns:
        the completed process, stdout/stderr captured as text; a
        non-zero exit is the tool's verdict, not an error.

    Raises:
        ToolUnavailable: missing, over budget or uninvokable every time.
    """
    active = policy if policy is not None else _current
    if active.timeout is not None:
        timeout = active.timeout
    tool = Path(argv[0]).name

    def attempt() -> subprocess.CompletedProcess:
        command = argv
        if maybe_inject(fault_point) == "corrupt" and corrupted is not None:
            command = corrupted()
        return subprocess.run(
            command, cwd=cwd, capture_output=True, text=True, timeout=timeout
        )

    transient = (OSError, subprocess.TimeoutExpired, InjectedFault)
    try:
        return call_with_retry(attempt, policy=active, retry_on=transient, on_retry=on_retry)
    except FileNotFoundError as exc:
        raise ToolUnavailable(f"{tool} is not available: {exc}", "missing") from exc
    except subprocess.TimeoutExpired as exc:
        raise ToolUnavailable(f"{tool} exceeded its {timeout:.0f}s budget", "timeout") from exc
    except (OSError, InjectedFault) as exc:
        raise ToolUnavailable(f"could not invoke {tool}: {exc}") from exc


__all__ = [
    "DEFAULT_COMPILE_TIMEOUT",
    "DEFAULT_POLICY",
    "DEFAULT_RUN_TIMEOUT",
    "OnRetry",
    "RetryPolicy",
    "ToolUnavailable",
    "call_with_retry",
    "configure_retries",
    "current_policy",
    "reset_retries",
    "run_tool",
]
