"""The push-button synthesis pipeline.

"A user only needs to specify the nested loop that functions as a CNN
layer using a pragma ... No hardware-related, low-level considerations
are necessary for end users."  These functions are the library's entry
points to the flow's one front door (:mod:`repro.flow.request`): each
states its arguments as a :class:`~repro.flow.request.SynthesisRequest`
and hands it to :func:`~repro.flow.request.run`, which threads it through
the staged pipeline engine (``parse → legality-check → dse-phase1 →
dse-phase2 → codegen → simulate`` for a nest, ``unified-dse`` for a
network) and returns the same :class:`SynthesisResult` the flow has
always returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.loop import LoopNest
from repro.model.design_point import DesignPoint
from repro.model.platform import Platform
from repro.nn.models import Network
from repro.codegen.host import generate_host
from repro.codegen.opencl import generate_kernel
from repro.dse.explore import DseConfig
from repro.dse.multi_layer import MultiLayerResult
from repro.flow.request import SynthesisRequest, run
from repro.pipeline.cache import CacheSpec
from repro.pipeline.context import SynthesisResult
from repro.pipeline.events import Observer


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
    request = SynthesisRequest(
        platform or Platform(), config, nest=nest, strict=strict, sim_backend=sim_backend
    )
    return run(request, jobs=jobs, cache=cache, observers=observers)


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
    request = SynthesisRequest(
        platform or Platform(),
        config,
        source=source,
        name=name,
        require_pragma=require_pragma,
        strict=strict,
        sim_backend=sim_backend,
    )
    return run(request, jobs=jobs, cache=cache, observers=observers)


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

    @classmethod
    def emit(cls, request: SynthesisRequest, result: MultiLayerResult) -> "NetworkSynthesis":
        """Attach the artifacts to a network request's unified design.

        What is emitted is the kernel of the largest layer (the envelope
        user) with *its* bounds as ``#define``s — it runs that layer only.
        The kernel that takes every layer's bounds as runtime arguments is
        ``repro.codegen.unified``; emitting it from here needs the
        per-layer network pipeline of ROADMAP item 3.
        """
        largest = max(request.workloads, key=lambda w: w.nest.total_operations)
        layer_perf = {l.name: l for l in result.layers}
        design = DesignPoint.create(
            largest.nest,
            result.config.mapping,
            result.config.shape,
            layer_perf[largest.name].middle,
        )
        return cls(
            result=result,
            kernel_source=generate_kernel(design, request.platform),
            host_source=generate_host(design, request.platform),
        )

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
    request = SynthesisRequest(platform or Platform(), config, network=network)
    result = run(request, jobs=jobs, cache=cache, observers=observers)
    return NetworkSynthesis.emit(request, result)


__all__ = [
    "CacheSpec",
    "NetworkSynthesis",
    "SynthesisResult",
    "compile_c_source",
    "synthesize_nest",
    "synthesize_network",
]
