"""The staged pipeline engine.

The push-button flow is a sequence of named stages —

    parse → legality-check → dse-phase1 → dse-phase2 → codegen → simulate

— each a small object satisfying the :class:`Stage` protocol: it reads an
immutable :class:`~repro.pipeline.context.SynthesisContext`, returns an
evolved copy, and may opt into content-addressed caching by providing key
parts and a JSON codec for its outputs.  The engine owns the generic
machinery: event emission, wall-time accounting, cache probe / store, and
bookkeeping of which stages were served from cache.
"""

from __future__ import annotations

import time
from typing import Any, Protocol, Sequence, runtime_checkable

from repro.pipeline.cache import StageCache
from repro.pipeline.context import SynthesisContext
from repro.pipeline.events import (
    CacheProbe,
    EventBus,
    FaultInjected,
    Observer,
    StageDegraded,
    StageFinished,
    StageStarted,
)
from repro.resilience import faults


@runtime_checkable
class Stage(Protocol):
    """One named step of the pipeline.

    Implementations are stateless; all state lives in the context.
    """

    name: str

    def run(self, ctx: SynthesisContext, events: EventBus) -> SynthesisContext:
        """Execute the stage, returning the evolved context."""
        ...

    def cache_parts(self, ctx: SynthesisContext) -> tuple | None:
        """Value parts identifying this stage's inputs, or None when the
        stage is not cacheable (the default for cheap stages)."""
        ...

    def dump(self, ctx: SynthesisContext) -> dict[str, Any] | None:
        """Serialize this stage's outputs for the cache (after run)."""
        ...

    def load(self, payload: dict[str, Any], ctx: SynthesisContext) -> SynthesisContext:
        """Apply a cached payload instead of running."""
        ...

    def info(self, ctx: SynthesisContext) -> dict[str, Any]:
        """Summary attached to the StageFinished event."""
        ...


class StageBase:
    """Default no-cache behaviour shared by the concrete stages."""

    name = "stage"

    def cache_parts(self, ctx: SynthesisContext) -> tuple | None:
        return None

    def dump(self, ctx: SynthesisContext) -> dict[str, Any] | None:
        return None

    def load(self, payload: dict[str, Any], ctx: SynthesisContext) -> SynthesisContext:
        raise NotImplementedError(f"stage {self.name} declared no codec")

    def info(self, ctx: SynthesisContext) -> dict[str, Any]:
        return {}


class PipelineEngine:
    """Runs a stage sequence over a context, with caching and events.

    Args:
        stages: the pipeline, in execution order.
        cache: content-addressed stage cache; None disables caching.
        observers: event callbacks (progress printer, trace writer, ...).
    """

    def __init__(
        self,
        stages: Sequence[Stage],
        *,
        cache: StageCache | None = None,
        observers: Sequence[Observer] = (),
    ) -> None:
        self.stages = list(stages)
        self.cache = cache
        self.events = EventBus(observers)

    def run(self, ctx: SynthesisContext) -> SynthesisContext:
        """Execute every stage in order, threading the context through.

        While the pipeline runs, every fired fault-injection point is
        surfaced as a :class:`FaultInjected` event attributed to the
        stage executing at the time, so chaos runs are fully observable
        in ``--trace-json`` output.
        """
        current = {"stage": ""}
        lowered: dict[int, tuple[Any, Any]] = {}  # one fingerprint per part object

        def on_fault(point: str, kind: str) -> None:
            self.events.emit(FaultInjected(current["stage"], point=point, kind=kind))

        faults.add_listener(on_fault)
        try:
            total = len(self.stages)
            for index, stage in enumerate(self.stages):
                current["stage"] = stage.name
                self.events.emit(StageStarted(stage.name, index=index, total=total))
                start = time.perf_counter()
                cached = False
                key: str | None = None
                if self.cache is not None:
                    parts = stage.cache_parts(ctx)
                    if parts is not None:
                        key = self.cache.key_for(stage.name, *parts, memo=lowered)
                        corrupt: list[str] = []  # why the entry was quarantined
                        payload = self.cache.get(stage.name, key, on_corrupt=corrupt.append)
                        self.events.emit(
                            CacheProbe(stage.name, key=key, hit=payload is not None)
                        )
                        if payload is not None:
                            try:
                                ctx = stage.load(payload, ctx)
                                cached = True
                            except (ValueError, KeyError, TypeError) as exc:
                                # Structurally bad entry: quarantine it so
                                # the next run recomputes too, and recompute.
                                self.cache.quarantine(stage.name, key)
                                corrupt.append(str(exc))
                        if corrupt:  # text that does not parse, or a payload that does not load
                            reason = f"corrupt cache payload: {corrupt[0]}"
                            self.events.emit(
                                StageDegraded(
                                    stage.name, code="SA501", reason=reason, fallback="recompute"
                                )
                            )
                            ctx = ctx.evolve(degradations=ctx.degradations + (("SA501", reason),))
                if not cached:
                    ctx = stage.run(ctx, self.events)
                    if key is not None:
                        payload = stage.dump(ctx)
                        if payload is not None:
                            assert self.cache is not None
                            self.cache.put(stage.name, key, payload)
                elapsed = time.perf_counter() - start
                ctx = ctx.evolve(
                    stage_seconds=ctx.stage_seconds + ((stage.name, elapsed),),
                    cache_hits=ctx.cache_hits + ((stage.name,) if cached else ()),
                )
                self.events.emit(
                    StageFinished(
                        stage.name, seconds=elapsed, cached=cached, info=stage.info(ctx)
                    )
                )
            return ctx
        finally:
            faults.remove_listener(on_fault)


__all__ = ["PipelineEngine", "Stage", "StageBase"]
