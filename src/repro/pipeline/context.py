"""The immutable state threaded through the pipeline stages.

A :class:`SynthesisContext` starts as pure inputs (source text or a loop
nest, platform, DSE knobs, run options) and is *evolved* — never mutated —
by each stage filling in its outputs.  The final context is folded into
the user-facing :class:`SynthesisResult` (or, for a network,
:class:`NetworkSynthesis`), which keeps the exact shape the pre-pipeline
``repro.flow.compile`` API returned (both are re-exported from there for
backward compatibility).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.ir.loop import LoopNest
from repro.model.design_point import DesignEvaluation
from repro.model.platform import Platform
from repro.dse.explore import DseConfig, Phase1Result
from repro.dse.multi_layer import MultiLayerResult
from repro.nn.models import Network
from repro.sim.fast import EngineResult
from repro.sim.perf import LayerMeasurement
from repro.verify.conformance import ConformanceReport


ARTIFACT_FIELDS = (
    "kernel_source",
    "host_source",
    "testbench_source",
    "driver_source",
    "rtl_source",
)
"""The codegen stage's outputs, by the one name each carries as a field
of the context, a field of the result and a key of the stage's cache
payload."""


@dataclass(frozen=True)
class SynthesisResult:
    """Everything the flow produces for one layer.

    Attributes:
        evaluation: winning design at its realized clock.
        frequency_mhz: realized clock.
        measurement: performance-simulator run at the realized clock.
        kernel_source / host_source / testbench_source / driver_source:
            the generated artifacts.
        rtl_source: the generated Verilog (None when the design cannot
            be lowered to the RTL backend — SA150, recorded as a
            degradation rather than a failure).
        configs_enumerated / configs_tuned: phase-1 statistics.
        dse_seconds: phase-1 wall-clock time (bookkeeping; excluded from
            equality, like the other timing fields).
        stage_seconds: per-stage wall time of this run, pipeline order
            (bookkeeping; excluded from equality so a warm-cache result
            compares equal to the cold run that produced it).
        cache_hits: names of stages served from the stage cache
            (bookkeeping; excluded from equality).
        engine_result: wavefront-simulator run of the winner on synthetic
            tensors (``sim_backend`` set; None otherwise).  Excluded from
            equality — it holds the simulated output tensor.
        conformance: differential-conformance verdict
            (``sim_backend="both"`` only; excluded from equality).
        degradations: (SA5xx code, human reason) per graceful-degradation
            event this run survived — quarantined cache entries, serial
            DSE fallbacks, testbench downgrades (bookkeeping; excluded
            from equality so a degraded-but-recovered run still compares
            bit-identical to an undisturbed one).
    """

    evaluation: DesignEvaluation
    frequency_mhz: float
    measurement: LayerMeasurement
    kernel_source: str
    host_source: str
    testbench_source: str
    driver_source: str
    rtl_source: str | None
    configs_enumerated: int
    configs_tuned: int
    dse_seconds: float = field(compare=False)
    stage_seconds: tuple[tuple[str, float], ...] = field(default=(), compare=False)
    cache_hits: tuple[str, ...] = field(default=(), compare=False)
    engine_result: EngineResult | None = field(default=None, compare=False)
    conformance: ConformanceReport | None = field(default=None, compare=False)
    degradations: tuple[tuple[str, str], ...] = field(default=(), compare=False)

    @property
    def throughput_gops(self) -> float:
        """Simulated ("measured") throughput."""
        return self.measurement.throughput_gops


@dataclass(frozen=True)
class NetworkSynthesis:
    """Flow output for a whole network (one unified design).

    Attributes:
        result: the unified-design DSE outcome (per-layer performance).
        kernel_source / host_source: artifacts for the unified design:
            the kernel of the largest layer (the envelope user) with
            *its* bounds as ``#define``s — it runs that layer only.
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


@dataclass(frozen=True)
class SynthesisContext:
    """Immutable pipeline state: inputs plus every stage's outputs so far.

    Attributes:
        platform: evaluation platform.
        config: DSE knobs.
        name: label for the nest (reports, cache diagnostics).
        source: restricted-C text (None when entering with a built nest).
        require_pragma: reject unannotated programs in the parse stage.
        strict: run the static-analysis self-audits.
        jobs: process-pool width for the DSE stages (1 = serial).
        sim_backend: wavefront-simulator backend for the simulate stage
            (``"fast"``, ``"rtl"``, ``"both"`` for differential
            conformance, or ``"testbench"`` for the generated C
            testbench; None = performance model only).
        nest: the loop nest (parse-stage output, or an input).
        network: the input of the whole-network flow, whose one stage
            fills ``unified``, ``kernel_source`` and ``host_source``.
        phase1: the dse-phase1 stage's output.
        best: the dse-phase2 stage's winner, at its realized clock.
        unified: the unified-dse stage's output (network flow only).
        measurement: simulator verdict on the winner.
        kernel_source / host_source / testbench_source / driver_source /
            rtl_source: codegen outputs (:data:`ARTIFACT_FIELDS`; the
            RTL stays None for a design the backend cannot lower; a
            network run fills the first two only).
        engine_result / conformance: the simulate stage's wavefront run
            and differential-conformance verdict (``sim_backend`` set).
        stage_seconds: (stage, wall seconds) per executed stage.
        cache_hits: stages served from the cache.
        degradations: (SA5xx code, reason) per recovery event so far.
    """

    platform: Platform
    config: DseConfig
    name: str = "user_nest"
    source: str | None = None
    require_pragma: bool = True
    strict: bool = False
    jobs: int = 1
    sim_backend: str | None = None
    nest: LoopNest | None = None
    network: Network | None = None
    phase1: Phase1Result | None = None
    best: DesignEvaluation | None = None
    unified: MultiLayerResult | None = None
    measurement: LayerMeasurement | None = None
    kernel_source: str | None = None
    host_source: str | None = None
    testbench_source: str | None = None
    driver_source: str | None = None
    rtl_source: str | None = None
    engine_result: EngineResult | None = None
    conformance: ConformanceReport | None = None
    stage_seconds: tuple[tuple[str, float], ...] = ()
    cache_hits: tuple[str, ...] = ()
    degradations: tuple[tuple[str, str], ...] = ()

    def evolve(self, **changes: Any) -> "SynthesisContext":
        """A copy with some fields replaced (stages never mutate)."""
        return replace(self, **changes)

    def to_result(self) -> SynthesisResult:
        """Fold a fully-populated context into the public result."""
        artifacts = {name: getattr(self, name) for name in ARTIFACT_FIELDS}
        if (
            self.phase1 is None
            or self.best is None
            or self.measurement is None
            # the RTL alone may be missing: a design the backend cannot
            # lower (SA150) is a degradation, not a failure
            or any(a is None for name, a in artifacts.items() if name != "rtl_source")
        ):
            raise ValueError("pipeline did not populate every stage output")
        return SynthesisResult(
            evaluation=self.best,
            frequency_mhz=self.best.performance.frequency_mhz,
            measurement=self.measurement,
            **artifacts,
            configs_enumerated=self.phase1.configs_enumerated,
            configs_tuned=self.phase1.configs_tuned,
            dse_seconds=self.phase1.elapsed_seconds,
            stage_seconds=self.stage_seconds,
            cache_hits=self.cache_hits,
            engine_result=self.engine_result,
            conformance=self.conformance,
            degradations=self.degradations,
        )

    def to_network(self) -> NetworkSynthesis:
        """Fold a network run's context into its public result."""
        if self.unified is None or self.kernel_source is None or self.host_source is None:
            raise ValueError("pipeline did not populate every stage output")
        return NetworkSynthesis(self.unified, self.kernel_source, self.host_source)


__all__ = ["ARTIFACT_FIELDS", "NetworkSynthesis", "SynthesisContext", "SynthesisResult"]
