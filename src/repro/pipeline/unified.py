"""The whole-network flow's entry to the pipeline engine.

Network synthesis has one dominant stage — the unified design selection
of :mod:`repro.dse.multi_layer` — so it is a one-stage pipeline
(:class:`~repro.pipeline.stages.UnifiedDseStage`) on the same
:class:`~repro.pipeline.engine.PipelineEngine` as the single-layer flow:
the content-addressed cache probe (and quarantine of a bad entry), the
typed start/progress/retry/degrade/finish events and the ``jobs``
fan-out knob are the engine's and the stage's, not this module's.
"""

from __future__ import annotations

from repro.dse.explore import DseConfig
from repro.dse.multi_layer import LayerWorkload, MultiLayerResult, prepare_network_nests
from repro.model.platform import Platform
from repro.nn.models import Network
from repro.pipeline.cache import StageCache, resolve_cache
from repro.pipeline.context import SynthesisContext
from repro.pipeline.engine import PipelineEngine
from repro.pipeline.events import Observer
from repro.pipeline.stages import UnifiedDseStage

STAGE_NAME = UnifiedDseStage.name


def run_unified_dse(
    workloads: tuple[LayerWorkload, ...] | Network,
    platform: Platform,
    config: DseConfig = DseConfig(),
    *,
    jobs: int = 1,
    cache: StageCache | str | bool | None = None,
    observers: tuple[Observer, ...] = (),
) -> MultiLayerResult:
    """Select the unified design, with stage caching and progress events.

    Args:
        workloads: prepared workloads or a :class:`Network`.
        platform: evaluation platform.
        config: DSE knobs.
        jobs: worker processes (1 = serial; <= 0 = all cores); the result
            is bit-identical for any value.
        cache: stage cache — ``None``/``False`` disables, ``True`` uses
            the default directory, a path or :class:`StageCache` uses it.
        observers: event callbacks (see :mod:`repro.pipeline.events`).
    """
    if isinstance(workloads, Network):
        workloads = prepare_network_nests(workloads)
    ctx = SynthesisContext(
        platform=platform, config=config, jobs=jobs, workloads=workloads
    )
    engine = PipelineEngine(
        [UnifiedDseStage()], cache=resolve_cache(cache), observers=observers
    )
    result = engine.run(ctx).unified
    assert result is not None
    return result


__all__ = ["STAGE_NAME", "run_unified_dse"]
