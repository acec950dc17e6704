"""The push-button synthesis pipeline.

"A user only needs to specify the nested loop that functions as a CNN
layer using a pragma ... No hardware-related, low-level considerations
are necessary for end users."  These functions are thin entry points over
the staged pipeline engine (:mod:`repro.pipeline`): they build a
:class:`~repro.pipeline.context.SynthesisContext`, run the canonical
stage sequence ``parse → legality-check → dse-phase1 → dse-phase2 →
codegen → simulate``, and fold the context into the same
:class:`SynthesisResult` the flow has always returned.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.ir.loop import LoopNest
from repro.model.platform import Platform
from repro.nn.models import Network
from repro.codegen.host import generate_host
from repro.codegen.opencl import generate_kernel
from repro.dse.explore import DseConfig
from repro.dse.multi_layer import MultiLayerResult, prepare_network_nests
from repro.pipeline.cache import StageCache, resolve_cache
from repro.pipeline.context import SynthesisContext, SynthesisResult
from repro.pipeline.engine import PipelineEngine
from repro.pipeline.events import Observer
from repro.pipeline.stages import synthesis_stages
from repro.pipeline.unified import run_unified_dse

CacheSpec = StageCache | str | bool | None
"""How callers select a stage cache: None/False = off, True = the default
directory, a path or a StageCache instance = that cache."""


def _run_pipeline(ctx: SynthesisContext, cache: CacheSpec, observers) -> SynthesisResult:
    engine = PipelineEngine(
        synthesis_stages(), cache=resolve_cache(cache), observers=tuple(observers)
    )
    return engine.run(ctx).to_result()


def synthesize_nest(
    nest: LoopNest,
    platform: Platform | None = None,
    config: DseConfig = DseConfig(),
    *,
    strict: bool = False,
    jobs: int = 1,
    sim_backend: str | None = None,
    cache: CacheSpec = None,
    observers: tuple[Observer, ...] = (),
) -> SynthesisResult:
    """Full flow for a single loop nest.

    Args:
        nest: the convolution loop nest (from the front end or a layer).
        platform: target platform (Arria 10 float by default).
        config: DSE knobs.
        strict: run the static-analysis self-audit end to end — nest
            legality before the DSE, the independent design-point
            validator on the winner, and the generated-code linter on
            every emitted artifact.  Raises
            :class:`repro.analysis.DiagnosticError` on any violation.
        jobs: worker processes for the DSE fan-out (1 = serial, <= 0 =
            all cores); the result is bit-identical for any value.
        sim_backend: also execute the winner on a wavefront simulator
            with synthetic tensors — ``"fast"`` (vectorized), ``"rtl"``
            (the generated Verilog on the netlist interpreter; small
            nests only), ``"both"`` (differential conformance including
            the RTL legs via :mod:`repro.verify`, raising
            :class:`repro.analysis.DiagnosticError` on disagreement) or
            ``"testbench"`` (the generated C testbench).  The result's
            ``engine_result`` / ``conformance`` fields are populated
            accordingly.
        cache: stage cache (off by default for the API; the CLI defaults
            it on) — see :data:`CacheSpec`.
        observers: pipeline event callbacks (progress printer, JSONL
            trace writer, ...).
    """
    platform = platform or Platform()
    if strict:
        config = replace(config, strict=True)
    ctx = SynthesisContext(
        platform=platform,
        config=config,
        strict=strict,
        jobs=jobs,
        sim_backend=sim_backend,
        nest=nest,
    )
    return _run_pipeline(ctx, cache, observers)


def compile_c_source(
    source: str,
    platform: Platform | None = None,
    config: DseConfig = DseConfig(),
    *,
    name: str = "user_nest",
    require_pragma: bool = True,
    strict: bool = False,
    jobs: int = 1,
    sim_backend: str | None = None,
    cache: CacheSpec = None,
    observers: tuple[Observer, ...] = (),
) -> SynthesisResult:
    """Full flow from C text (the paper's programming model).

    Args:
        source: restricted-C program with a ``#pragma systolic`` nest.
        platform: target platform.
        config: DSE knobs.
        name: label for the nest.
        require_pragma: reject unannotated programs (the paper's flow is
            pragma-driven); set False to synthesize any conforming nest.
        strict: run the full static-analysis pass over the source first
            (raising :class:`repro.analysis.DiagnosticError` with
            located diagnostics on rejection) and audit the DSE result
            and generated artifacts; see :func:`synthesize_nest`.
        jobs: worker processes for the DSE fan-out.
        sim_backend: wavefront-simulator backend for the winner
            (``fast`` | ``rtl`` | ``both`` | ``testbench``); see
            :func:`synthesize_nest`.
        cache: stage cache — see :data:`CacheSpec`.
        observers: pipeline event callbacks.

    Raises:
        ValueError: if the pragma is required and missing (a located
            ``DiagnosticError`` in strict mode).
    """
    platform = platform or Platform()
    if strict:
        config = replace(config, strict=True)
    ctx = SynthesisContext(
        platform=platform,
        config=config,
        source=source,
        name=name,
        require_pragma=require_pragma,
        strict=strict,
        jobs=jobs,
        sim_backend=sim_backend,
    )
    return _run_pipeline(ctx, cache, observers)


@dataclass(frozen=True)
class NetworkSynthesis:
    """Flow output for a whole network (one unified design).

    Attributes:
        result: the unified-design DSE outcome (per-layer performance).
        kernel_source / host_source: artifacts for the unified design,
            generated against the envelope nest.
        latency_ms: conv latency per image.
        throughput_gops: aggregate conv throughput.
    """

    result: MultiLayerResult
    kernel_source: str
    host_source: str

    @property
    def latency_ms(self) -> float:
        return self.result.total_seconds * 1e3

    @property
    def throughput_gops(self) -> float:
        return self.result.aggregate_gops


def synthesize_network(
    network: Network,
    platform: Platform | None = None,
    config: DseConfig = DseConfig(),
    *,
    jobs: int = 1,
    cache: CacheSpec = None,
    observers: tuple[Observer, ...] = (),
) -> NetworkSynthesis:
    """Full flow for a network: one unified design for all conv layers.

    Args:
        network: the CNN model.
        platform: target platform.
        config: DSE knobs.
        jobs: worker processes for the per-candidate tuning fan-out.
        cache: stage cache — see :data:`CacheSpec`.
        observers: pipeline event callbacks.
    """
    platform = platform or Platform()
    workloads = prepare_network_nests(network)
    result = run_unified_dse(
        workloads, platform, config, jobs=jobs, cache=cache, observers=tuple(observers)
    )
    # What is emitted is the kernel of the largest layer (the envelope
    # user) with *its* bounds as ``#define``s — it runs that layer only.
    # The kernel that takes every layer's bounds as runtime arguments is
    # ``repro.codegen.unified``; emitting it from here needs the per-layer
    # network pipeline of ROADMAP item 4a.
    from repro.model.design_point import DesignPoint

    largest = max(workloads, key=lambda w: w.nest.total_operations)
    layer_perf = {l.name: l for l in result.layers}
    design = DesignPoint.create(
        largest.nest,
        result.config.mapping,
        result.config.shape,
        layer_perf[largest.name].middle,
    )
    return NetworkSynthesis(
        result=result,
        kernel_source=generate_kernel(design, platform),
        host_source=generate_host(design, platform),
    )


__all__ = [
    "CacheSpec",
    "NetworkSynthesis",
    "SynthesisResult",
    "compile_c_source",
    "synthesize_nest",
    "synthesize_network",
]
