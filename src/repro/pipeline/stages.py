"""The six named stages of the synthesis pipeline.

``parse → legality-check → dse-phase1 → dse-phase2 → codegen → simulate``

Each stage is a thin adapter from the engine's Stage protocol onto the
existing layer APIs (front end, :mod:`repro.analysis`, the two-phase DSE,
the code generators and the performance simulator).  The expensive stages
(DSE, codegen, simulate) declare cache key parts and JSON codecs; parse
and legality-check always run — they are cheap and they *produce* the
loop nest the cache keys hash.

The whole-network flow is a one-stage pipeline on the same engine:
``unified-dse`` (:class:`UnifiedDseStage`).
"""

from __future__ import annotations

from typing import Any

from repro.model.serialize import measurement_from_dict, measurement_to_dict, plain
from repro.pipeline.codecs import (
    Phase2Entry,
    decode_phase1,
    decode_phase2,
    decode_unified,
    encode_phase1,
    encode_phase2,
    encode_unified,
)
from repro.pipeline.context import ARTIFACT_FIELDS, SynthesisContext
from repro.pipeline.engine import StageBase
from repro.pipeline.events import EventBus, StageDegraded, StageProgress, StageRetried


class ParseStage(StageBase):
    """Front end: restricted-C text to a loop nest (no-op when the
    context already carries a nest, i.e. ``synthesize_nest`` entry)."""

    name = "parse"

    def run(self, ctx: SynthesisContext, events: EventBus) -> SynthesisContext:
        if ctx.nest is not None:
            return ctx
        if ctx.source is None:
            raise ValueError("pipeline needs either C source or a loop nest")
        from repro.analysis.nest_check import nest_from_source

        nest = nest_from_source(
            ctx.source, name=ctx.name, require_pragma=ctx.require_pragma, strict=ctx.strict
        )
        return ctx.evolve(nest=nest)

    def info(self, ctx: SynthesisContext) -> dict[str, Any]:
        assert ctx.nest is not None
        return {"nest": ctx.nest.name, "loops": ctx.nest.depth}


class LegalityStage(StageBase):
    """Static nest legality (strict mode only; see ``repro.analysis``)."""

    name = "legality-check"

    def run(self, ctx: SynthesisContext, events: EventBus) -> SynthesisContext:
        if ctx.strict:
            from repro.analysis.nest_check import check_nest

            assert ctx.nest is not None
            # Layer-derived nests legitimately carry strided subscripts
            # (the stride-folding transformation introduces them).
            check_nest(ctx.nest, allow_strided=True).raise_if_errors()
        return ctx

    def info(self, ctx: SynthesisContext) -> dict[str, Any]:
        return {"checked": ctx.strict}


class _SearchStage(StageBase):
    """What the two DSE search stages share: the search's progress
    reports become :class:`StageProgress` events, and its pool workers
    are treated as unreliable — a crashed task is resubmitted (surfaced
    as :class:`StageRetried` and recorded as SA502) and, past the
    resubmission budget or a broken pool, replayed serially in the
    parent (:class:`StageDegraded`, SA503) — bit-identical either way,
    because each task is a pure function of its candidate."""

    def search(self, ctx: SynthesisContext, events: EventBus, fn, subject, **options):
        """Run ``fn(subject, platform, config, **options, jobs=..., <hooks>)``;
        returns (its result, the context with any degradations added)."""
        from repro.dse.parallel import MAX_RESUBMITS

        degradations: list[tuple[str, str]] = []

        def progress(done: int, total: int) -> None:
            events.emit(
                StageProgress(self.name, done=done, total=total, message="configs")
            )

        def on_retry(attempt: int, reason: str) -> None:
            events.emit(
                StageRetried(
                    self.name,
                    attempt=attempt,
                    max_attempts=MAX_RESUBMITS + 1,
                    reason=reason,
                )
            )
            degradations.append(("SA502", reason))

        def on_degrade(reason: str) -> None:
            events.emit(
                StageDegraded(self.name, code="SA503", reason=reason, fallback="serial")
            )
            degradations.append(("SA503", reason))

        result = fn(
            subject,
            ctx.platform,
            ctx.config,
            **options,
            jobs=ctx.jobs,
            progress=progress,
            on_retry=on_retry,
            on_degrade=on_degrade,
        )
        return result, ctx.evolve(degradations=ctx.degradations + tuple(degradations))


class DsePhase1Stage(_SearchStage):
    """Analytical filtering: enumerate configurations, tune tilings,
    keep the top-N — fanned out over ``ctx.jobs`` worker processes."""

    name = "dse-phase1"

    def run(self, ctx: SynthesisContext, events: EventBus) -> SynthesisContext:
        from repro.dse.explore import phase1

        assert ctx.nest is not None
        result, ctx = self.search(ctx, events, phase1, ctx.nest, strict=ctx.strict)
        return ctx.evolve(phase1=result)

    def cache_parts(self, ctx: SynthesisContext) -> tuple | None:
        return (ctx.nest, ctx.platform, ctx.config, ctx.strict)

    def dump(self, ctx: SynthesisContext) -> dict[str, Any] | None:
        assert ctx.phase1 is not None
        return encode_phase1(ctx.phase1)

    def load(self, payload: dict[str, Any], ctx: SynthesisContext) -> SynthesisContext:
        return ctx.evolve(phase1=decode_phase1(payload))

    def info(self, ctx: SynthesisContext) -> dict[str, Any]:
        result = ctx.phase1
        assert result is not None
        return {
            "configs": result.configs_enumerated,
            "tuned": result.configs_tuned,
            "pruned": result.configs_enumerated - result.configs_tuned,
            "tilings": result.tilings_evaluated,
        }


class DsePhase2Stage(_SearchStage):
    """Implementation phase: realize clocks, pick the on-board winner
    (the one output the flow reads, and the one its entry holds).  A
    cache-served phase 1 is the search summary, without the finalists
    this phase reads: behind it, a phase-2 miss searches again."""

    name = "dse-phase2"

    def run(self, ctx: SynthesisContext, events: EventBus) -> SynthesisContext:
        from repro.dse.explore import phase1, phase2

        first = ctx.phase1
        assert first is not None
        # Every feasible configuration is a finalist until the top N are
        # full: a phase 1 that tuned one but holds none is the cached summary.
        if first.configs_tuned and not first.finalists:
            first, ctx = self.search(ctx, events, phase1, ctx.nest, strict=ctx.strict)
        return ctx.evolve(best=phase2(first, ctx.platform, strict=ctx.strict).best)

    def cache_parts(self, ctx: SynthesisContext) -> tuple | None:
        return (ctx.nest, ctx.platform, ctx.config, ctx.strict, "phase2")

    def dump(self, ctx: SynthesisContext) -> dict[str, Any] | None:
        assert ctx.best is not None
        return encode_phase2(Phase2Entry(ctx.best))

    def load(self, payload: dict[str, Any], ctx: SynthesisContext) -> SynthesisContext:
        return ctx.evolve(best=decode_phase2(payload, ctx.nest).best)

    def info(self, ctx: SynthesisContext) -> dict[str, Any]:
        best = ctx.best
        assert best is not None
        return {
            "winner": str(best.design.shape),
            "frequency_mhz": round(best.performance.frequency_mhz, 1),
            "gops": round(best.throughput_gops, 1),
        }


NETWORK_ARTIFACTS = ARTIFACT_FIELDS[:2]
"""What a network run emits: ``kernel_source`` and ``host_source``."""


class UnifiedDseStage(_SearchStage):
    """The whole-network flow's one stage: lower ``ctx.network``'s conv
    layers, select the unified multi-layer design
    (:mod:`repro.dse.multi_layer`, both phases) and emit its kernel and
    host.  The key is the conv layers themselves and the entry carries
    the two texts, so a cache-served run lowers and emits nothing."""

    name = "unified-dse"

    def run(self, ctx: SynthesisContext, events: EventBus) -> SynthesisContext:
        from repro.codegen import generate_host, generate_kernel
        from repro.dse.multi_layer import prepare_network_nests, select_unified_design
        from repro.model.design_point import DesignPoint

        assert ctx.network is not None
        workloads = prepare_network_nests(ctx.network)
        result, ctx = self.search(ctx, events, select_unified_design, workloads)
        # The kernel of the largest layer (the envelope user) with *its*
        # bounds as #defines.  The kernel that takes every layer's bounds
        # as runtime arguments is ``repro.codegen.unified``; emitting it
        # here needs the per-layer network pipeline of ROADMAP item 3.
        largest = max(workloads, key=lambda w: w.nest.total_operations)
        middle = {layer.name: layer.middle for layer in result.layers}[largest.name]
        design = DesignPoint.create(largest.nest, result.config.mapping, result.config.shape, middle)
        kernel, host = generate_kernel(design, ctx.platform), generate_host(design, ctx.platform)
        return ctx.evolve(unified=result, kernel_source=kernel, host_source=host)

    def cache_parts(self, ctx: SynthesisContext) -> tuple | None:
        assert ctx.network is not None
        return (ctx.network.conv_layers, ctx.platform, ctx.config)

    def dump(self, ctx: SynthesisContext) -> dict[str, Any] | None:
        assert ctx.unified is not None
        texts = {name: getattr(ctx, name) for name in NETWORK_ARTIFACTS}
        return {"unified": encode_unified(ctx.unified), **texts}

    def load(self, payload: dict[str, Any], ctx: SynthesisContext) -> SynthesisContext:
        assert ctx.network is not None
        result = decode_unified(payload["unified"])
        if [layer.name for layer in result.layers] != [c.name for c in ctx.network.conv_layers]:
            raise ValueError("cached layers are not this network's conv layers")
        texts = {name: plain("str").decode(payload[name]) for name in NETWORK_ARTIFACTS}
        return ctx.evolve(unified=result, **texts)

    def info(self, ctx: SynthesisContext) -> dict[str, Any]:
        result = ctx.unified
        assert result is not None
        return {
            "winner": str(result.config.shape),
            "frequency_mhz": round(result.frequency_mhz, 1),
            "gops": round(result.aggregate_gops, 1),
            "configs": result.configs_enumerated,
            "tuned": result.configs_tuned,
        }


def _degraded(
    ctx: SynthesisContext, events: EventBus | None, stage: str, diag: Any, fallback: str
) -> SynthesisContext:
    """One graceful degradation on the record: the ``StageDegraded``
    event (no bus on a cache load) and the result's ``degradations``."""
    if events is not None:
        events.emit(
            StageDegraded(stage, code=diag.code, reason=diag.message, fallback=fallback)
        )
    return ctx.evolve(degradations=ctx.degradations + ((diag.code, diag.message),))


class CodegenStage(StageBase):
    """Emit every backend's artifacts through the multi-backend layer
    (:mod:`repro.codegen.backend`): OpenCL kernel/driver/host, the C
    testbench, and the Verilog RTL.  A design the RTL backend cannot
    lower (SA150) degrades to ``rtl_source=None`` instead of failing —
    the other backends lower everything.  Strict mode lints the C-family
    artifacts against the design and the Verilog structurally."""

    name = "codegen"

    def run(self, ctx: SynthesisContext, events: EventBus) -> SynthesisContext:
        from repro.codegen.backend import get_backend

        design = ctx.best.design
        opencl = get_backend("opencl").emit(design, ctx.platform)
        testbench = get_backend("testbench").emit(design, ctx.platform)
        ctx = self._emit_rtl(ctx, events).evolve(
            kernel_source=opencl["kernel"],
            host_source=opencl["host"],
            testbench_source=testbench["testbench"],
            driver_source=opencl["driver"],
        )
        if ctx.strict:
            from repro.analysis.codegen_lint import lint_artifacts

            lint_artifacts(
                design, {**opencl, **testbench, "rtl": ctx.rtl_source}
            ).raise_if_errors()
        return ctx

    def _emit_rtl(self, ctx: SynthesisContext, events: EventBus | None) -> SynthesisContext:
        """The RTL artifact — or, for a design the backend cannot lower,
        ``rtl_source=None`` with the SA150 degradation on the trail."""
        from repro.analysis.diagnostics import DiagnosticError
        from repro.codegen.backend import get_backend

        try:
            source = get_backend("rtl").emit(ctx.best.design, ctx.platform)["rtl"]
        except DiagnosticError as exc:
            ctx = _degraded(ctx, events, self.name, exc.diagnostics[0], "no RTL artifact")
            return ctx.evolve(rtl_source=None)
        return ctx.evolve(rtl_source=source)

    def cache_parts(self, ctx: SynthesisContext) -> tuple | None:
        return (ctx.best.design, ctx.platform, ctx.strict)

    def dump(self, ctx: SynthesisContext) -> dict[str, Any] | None:
        return {name: getattr(ctx, name) for name in ARTIFACT_FIELDS}

    def load(self, payload: dict[str, Any], ctx: SynthesisContext) -> SynthesisContext:
        # A missing artifact is a KeyError: the engine quarantines the entry.
        ctx = ctx.evolve(**{name: payload[name] for name in ARTIFACT_FIELDS})
        for name in ARTIFACT_FIELDS:  # all text; only the RTL may be None
            plain("str | None" if name == "rtl_source" else "str").decode(getattr(ctx, name))
        if ctx.rtl_source is None:
            # The entry records that the design was not lowerable, not why:
            # re-derive the degradation (the backend rejects such a design
            # while planning, before emitting anything) so a cache-served
            # result carries the same trail as the cold one.
            ctx = self._emit_rtl(ctx, None)
        return ctx

    def info(self, ctx: SynthesisContext) -> dict[str, Any]:
        artifacts = [getattr(ctx, name) for name in ARTIFACT_FIELDS]
        return {"artifacts": sum(1 for a in artifacts if a is not None)}


SIM_BACKENDS = ("fast", "rtl", "both", "testbench")
"""The wavefront-simulator backends of the simulate stage — the one list
the CLI flags and the service's ``sim_backend`` option are checked
against."""


class SimulateStage(StageBase):
    """Performance-simulator run of the winner at its realized clock,
    plus an optional wavefront-simulator execution on synthetic tensors
    (``ctx.sim_backend``): ``fast`` runs the vectorized simulator,
    ``rtl`` executes the generated Verilog through the netlist
    interpreter (small problems only), ``both`` the full differential-
    conformance matrix including the RTL legs (:mod:`repro.verify`),
    failing the pipeline on any disagreement, and ``testbench``
    compiles and executes the generated C testbench and then the
    shipped kernel under its driver with the system toolchain —
    degrading to ``fast`` with an SA504/SA505 diagnostic when the
    compiler is missing or hung, instead of raising."""

    name = "simulate"

    def run(self, ctx: SynthesisContext, events: EventBus) -> SynthesisContext:
        from repro.sim.perf import simulate_performance

        measurement = simulate_performance(
            ctx.best.design, ctx.platform, frequency_mhz=ctx.best.performance.frequency_mhz
        )
        ctx = ctx.evolve(measurement=measurement)
        if ctx.sim_backend is not None:
            ctx = self._run_wavefront(ctx, events)
        return ctx

    def _run_wavefront(self, ctx: SynthesisContext, events: EventBus) -> SynthesisContext:
        backend = ctx.sim_backend
        if backend not in SIM_BACKENDS:
            raise ValueError(
                f"unknown simulator backend {backend!r} ({' | '.join(SIM_BACKENDS)})"
            )
        if backend == "both":
            from repro.verify.conformance import cross_check

            conformance = cross_check(ctx.best.design, rtl=True)
            conformance.report.raise_if_errors()
            return ctx.evolve(engine_result=conformance.result, conformance=conformance)
        if backend == "testbench":
            return self._run_testbench(ctx, events)
        return ctx.evolve(engine_result=self._run_backend(backend, ctx, events))

    def _retry_event(self, events: EventBus, max_attempts: int):
        """An ``on_retry`` hook surfacing each retry as a StageRetried."""

        def on_retry(attempt: int, exc: Exception) -> None:
            events.emit(
                StageRetried(
                    self.name,
                    attempt=attempt,
                    max_attempts=max_attempts,
                    reason=f"{type(exc).__name__}: {exc}",
                )
            )

        return on_retry

    def _run_backend(self, name: str, ctx: SynthesisContext, events: EventBus):
        """The named :data:`repro.sim.backends.WAVEFRONT_BACKENDS` entry on
        synthetic tensors, within its budget, retried on injected
        ``sim.step`` faults (the simulators are pure, so a retry is
        bit-identical)."""
        from repro.resilience.faults import InjectedFault
        from repro.resilience.retry import call_with_retry, current_policy
        from repro.sim.backends import WAVEFRONT_BACKENDS
        from repro.verify.conformance import synthetic_arrays

        design = ctx.best.design
        backend = WAVEFRONT_BACKENDS[name]
        budget = backend.over_budget(design)
        if budget is not None:
            raise ValueError(
                f"--sim-backend {name}: {design.nest.name!r} has "
                f"{design.nest.total_iterations} iterations, beyond the "
                f"{name} backend's budget of {budget}; use 'fast' or 'both'"
            )
        arrays = synthetic_arrays(design.nest)
        policy = current_policy()
        return call_with_retry(
            lambda: backend.run(design, arrays),
            policy=policy,
            retry_on=(InjectedFault,),
            on_retry=self._retry_event(events, policy.max_attempts),
        )

    def _run_testbench(self, ctx: SynthesisContext, events: EventBus) -> SynthesisContext:
        """gcc's verdict on both C renderings of the design: the plain-C
        testbench, then the shipped ``kernel.cl`` under its driver."""
        from repro.codegen.opencl import OPENCL_SHIM
        from repro.codegen.testbench import TestbenchUnavailable, run_testbench
        from repro.resilience.retry import current_policy

        assert ctx.testbench_source and ctx.driver_source and ctx.kernel_source
        kernel_files = {"kernel.cl": ctx.kernel_source, "opencl_shim.h": OPENCL_SHIM}
        policy = current_policy()
        try:
            for label, source, files, marker in (
                ("testbench", ctx.testbench_source, None, "TESTBENCH PASS"),
                ("kernel", ctx.driver_source, kernel_files, "KERNEL PASS"),
            ):
                outcome = run_testbench(
                    source,
                    policy=policy,
                    on_retry=self._retry_event(events, policy.max_attempts),
                    extra_files=files,
                    marker=marker,
                )
                if not outcome.passed:
                    raise ValueError(
                        f"generated {label} failed:\n{outcome.output[-2000:]}"
                    )
        except TestbenchUnavailable as exc:
            ctx = _degraded(ctx, events, self.name, exc.diagnostic, "fast")
            return ctx.evolve(engine_result=self._run_backend("fast", ctx, events))
        return ctx

    def cache_parts(self, ctx: SynthesisContext) -> tuple | None:
        if ctx.sim_backend is not None:
            return None  # wavefront/differential runs always execute
        return (ctx.best.design, ctx.platform, ctx.best.performance.frequency_mhz)

    def dump(self, ctx: SynthesisContext) -> dict[str, Any] | None:
        assert ctx.measurement is not None
        return measurement_to_dict(ctx.measurement)

    def load(self, payload: dict[str, Any], ctx: SynthesisContext) -> SynthesisContext:
        return ctx.evolve(measurement=measurement_from_dict(payload))

    def info(self, ctx: SynthesisContext) -> dict[str, Any]:
        assert ctx.measurement is not None
        info: dict[str, Any] = {
            "gops": round(ctx.measurement.throughput_gops, 1),
            "bound": ctx.measurement.bound,
        }
        if ctx.engine_result is not None:
            info["wavefront_cycles"] = ctx.engine_result.compute_cycles
        if ctx.conformance is not None:
            info["conformance"] = "ok" if ctx.conformance.ok else "mismatch"
        return info


def synthesis_stages() -> list[StageBase]:
    """The canonical stage sequence of the push-button flow."""
    return [
        ParseStage(),
        LegalityStage(),
        DsePhase1Stage(),
        DsePhase2Stage(),
        CodegenStage(),
        SimulateStage(),
    ]


__all__ = [
    "SIM_BACKENDS",
    "CodegenStage",
    "DsePhase1Stage",
    "DsePhase2Stage",
    "LegalityStage",
    "ParseStage",
    "SimulateStage",
    "UnifiedDseStage",
    "synthesis_stages",
]
