"""Staged pipeline engine behind the push-button synthesis flow.

The flow of :mod:`repro.flow` is structured as a sequence of named
stages — ``parse → legality-check → dse-phase1 → dse-phase2 → codegen →
simulate`` — threaded through an immutable :class:`SynthesisContext` by
the :class:`PipelineEngine`.  On top of the staged structure the engine
provides:

* **parallel DSE** — phase-1 tuning and unified multi-layer selection
  fan out over a process pool (``jobs`` knob), with results bit-identical
  to the serial search (batched evaluation + rank-order replay of the
  branch-and-bound; see :mod:`repro.dse.parallel`);
* **content-addressed stage caching** — expensive stage results are
  stored under a hash of (loop nest, platform, DSE knobs, code version),
  so repeated compiles and experiment re-runs skip straight to codegen
  (:mod:`repro.pipeline.cache`);
* **structured progress events** — typed start/progress/finish events
  via an observer hook, rendered as a CLI progress line or a JSONL trace
  (:mod:`repro.pipeline.events`).
"""

from repro.pipeline.cache import (
    CACHE_ENV_VAR,
    StageCache,
    code_version,
    default_cache_dir,
    resolve_cache,
    stable_fingerprint,
)
from repro.pipeline.context import SynthesisContext, SynthesisResult
from repro.pipeline.engine import PipelineEngine, Stage, StageBase
from repro.pipeline.events import (
    CacheProbe,
    EventBus,
    JsonlTraceWriter,
    Observer,
    PipelineEvent,
    ProgressPrinter,
    StageFinished,
    StageProgress,
    StageStarted,
)
from repro.pipeline.stages import (
    CodegenStage,
    DsePhase1Stage,
    DsePhase2Stage,
    LegalityStage,
    ParseStage,
    SimulateStage,
    synthesis_stages,
)

__all__ = [
    "CACHE_ENV_VAR",
    "CacheProbe",
    "CodegenStage",
    "DsePhase1Stage",
    "DsePhase2Stage",
    "EventBus",
    "JsonlTraceWriter",
    "LegalityStage",
    "Observer",
    "ParseStage",
    "PipelineEngine",
    "PipelineEvent",
    "ProgressPrinter",
    "SimulateStage",
    "Stage",
    "StageBase",
    "StageCache",
    "StageFinished",
    "StageProgress",
    "StageStarted",
    "SynthesisContext",
    "SynthesisResult",
    "code_version",
    "default_cache_dir",
    "resolve_cache",
    "stable_fingerprint",
    "synthesis_stages",
]
