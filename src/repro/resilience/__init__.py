"""Fault injection, retry policies and graceful degradation.

The synthesis pipeline treats its compile/verify sub-steps — cache I/O,
DSE worker processes, the gcc-executed testbench, the wavefront
simulators — as unreliable external services.  This package provides the
machinery that makes every failure surface a *tested degradation path*
instead of a crash:

* :mod:`repro.resilience.faults` — a seeded, deterministic fault-injection
  registry with named fault points (``FAULT_POINTS``: ``cache.read``,
  ``dse.worker``, ``testbench.compile``, ``rtl.compile``, ``sim.step``,
  ...) that can raise, corrupt payloads, or delay.  Activated via
  :class:`FaultPlan` objects, the ``REPRO_FAULT_PLAN`` environment
  variable, or the ``--inject-fault`` CLI flag.
* :mod:`repro.resilience.retry` — :func:`call_with_retry` under a
  retry policy (max attempts, exponential backoff with deterministic
  jitter, a per-attempt timeout budget for subprocess calls) and
  ``run_tool``, the one place the flow shells out (gcc, the testbench
  binary, iverilog, vvp): hard timeout, retries, and a typed
  ``ToolUnavailable`` when the tool never delivers a verdict.

The recovery behaviours themselves live at the fault sites (cache
quarantine in :mod:`repro.pipeline.cache`, worker resubmission and the
serial fallback in :mod:`repro.dse.parallel`, toolchain degradation in
:mod:`repro.pipeline.stages`); every recovery is observable as a
``StageRetried`` / ``FaultInjected`` / ``StageDegraded`` pipeline event
and, where user-facing, an ``SA5xx`` diagnostic.  See
``docs/resilience.md`` for the full degradation matrix.
"""

from repro.resilience.faults import (
    FAULT_KINDS,
    FAULT_PLAN_ENV_VAR,
    FAULT_POINTS,
    FAULT_SEED_ENV_VAR,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    activate,
    active_injector,
    add_listener,
    corrupt_payload,
    corrupt_text,
    deactivate,
    injected,
    maybe_inject,
    remove_listener,
)
from repro.resilience.retry import (
    DEFAULT_POLICY,
    RetryPolicy,
    call_with_retry,
    configure_retries,
    current_policy,
    reset_retries,
)

__all__ = [
    "DEFAULT_POLICY",
    "FAULT_KINDS",
    "FAULT_PLAN_ENV_VAR",
    "FAULT_POINTS",
    "FAULT_SEED_ENV_VAR",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "RetryPolicy",
    "activate",
    "active_injector",
    "add_listener",
    "call_with_retry",
    "configure_retries",
    "corrupt_payload",
    "corrupt_text",
    "current_policy",
    "deactivate",
    "injected",
    "maybe_inject",
    "remove_listener",
    "reset_retries",
]
