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

from repro.ir.loop import LoopNest
from repro.model.platform import Platform
from repro.nn.models import Network
from repro.dse.explore import DseConfig
from repro.flow.request import SynthesisRequest, run, run_context
from repro.pipeline.cache import CacheSpec
from repro.pipeline.context import NetworkSynthesis, SynthesisResult
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
    return run_context(request, jobs=jobs, cache=cache, observers=observers).to_network()


__all__ = [
    "CacheSpec",
    "NetworkSynthesis",
    "SynthesisResult",
    "compile_c_source",
    "synthesize_nest",
    "synthesize_network",
]
