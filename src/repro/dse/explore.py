"""The two-phase design-space exploration driver (paper Fig. 5).

Phase 1 (architectural, analytical): enumerate Problem-1 configurations
under the Eq. 12 DSP-utilization bound (as columns of a
:class:`~repro.dse.vector.CandidateTable`); for each, solve Problem 2
with the pruned tiling search; keep the top-N designs by estimated
throughput at the assumed clock.

A correctness-preserving speedup on top of the paper's pruning: every
configuration's throughput is bounded above by its shape-only computation
throughput (PT with ideal tiling), which costs microseconds.  Walking
configurations in descending upper-bound order lets the search stop
tuning configurations that provably cannot enter the current top-N —
an admissible branch-and-bound, so the returned top-N is identical to
tuning everything (asserted in tests).  The walk reads the table through
a lazy ranked view, so only the configurations it reaches are ever built
as objects.

Phase 2 (implementation): realize each finalist's clock through the
frequency surrogate (the P&R stand-in), re-estimate throughput at the
realized clock, and pick the winner — reproducing Fig. 7(b)'s structure
where same-estimate designs separate by realized frequency.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.ir.loop import LoopNest
from repro.model.design_point import DesignEvaluation, DesignPoint
from repro.model.mapping import feasible_mappings
from repro.model.platform import Platform
from repro.dse.parallel import OnDegrade, OnRetry, TaskPool, top_n_search
from repro.dse.space import DEFAULT_VECTOR_CHOICES, SystolicConfig
from repro.dse.tuner import tune_config
from repro.dse.vector import CandidateTable, RankedCandidates, upper_bounds

ProgressFn = Callable[[int, int], None]
"""Optional progress hook: called with (configurations consumed, total)."""


class NoFeasibleDesign(ValueError):
    """No design satisfies the constraints: the Eq. 12 window admits no
    configuration, or no admitted configuration has a tiling that fits
    the BRAM budget.  The one error every search raises for an
    unsatisfiable request."""


@dataclass(frozen=True)
class DseConfig:
    """Knobs of the exploration.

    Attributes:
        min_dsp_utilization: Eq. 12's c_s (paper example: 0.8).
        vector_choices: SIMD widths for Problem 1 (distinct, positive).
        top_n: finalists carried into phase 2 (paper uses 14 in Fig. 7b).
        include_cover: extend the power-of-two tiling candidates with the
            cover bound (see tuner docs); False = paper-faithful pruning.
        upper_bound_pruning: enable the admissible branch-and-bound.
    """

    min_dsp_utilization: float = 0.8
    vector_choices: tuple[int, ...] = DEFAULT_VECTOR_CHOICES
    top_n: int = 14
    include_cover: bool = True
    upper_bound_pruning: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_dsp_utilization <= 1.0:
            raise ValueError("c_s must be in [0, 1]")
        if self.top_n < 1:
            raise ValueError("top_n must be >= 1")
        if not self.vector_choices or min(self.vector_choices) < 1:
            raise ValueError("vector_choices must be one or more positive SIMD widths")
        if len(set(self.vector_choices)) != len(self.vector_choices):
            raise ValueError("vector_choices must not repeat a SIMD width")


@dataclass(frozen=True)
class Phase1Result:
    """Output of the analytical phase.

    Attributes:
        finalists: top designs, throughput-descending, fully evaluated at
            the assumed clock.
        configs_enumerated: Problem-1 points seen.
        configs_tuned: configurations whose tiling space was searched
            (smaller when upper-bound pruning fires).
        tilings_evaluated: total Problem-2 candidates walked.
        elapsed_seconds: wall-clock time of the phase (bookkeeping;
            excluded from equality so runs at different ``jobs`` counts
            or cache replays compare equal when the search agrees).
    """

    finalists: tuple[DesignEvaluation, ...]
    configs_enumerated: int
    configs_tuned: int
    tilings_evaluated: int
    elapsed_seconds: float = field(compare=False)


@dataclass(frozen=True)
class Phase2Result:
    """Output of the implementation phase.

    Attributes:
        best: the winning design evaluated at its realized clock.
        finalists: all finalists re-evaluated at realized clocks,
            descending by realized throughput.
        estimated_gops: finalist throughputs at the assumed clock (same
            order as ``finalists``), for the Fig. 7(b) comparison.
    """

    best: DesignEvaluation
    finalists: tuple[DesignEvaluation, ...]
    estimated_gops: tuple[float, ...]


def tune_candidate(
    nest: LoopNest,
    platform: Platform,
    include_cover: bool,
    memo: dict,
    candidate: SystolicConfig,
) -> tuple[DesignEvaluation, int] | None:
    """Tune one configuration; (evaluation, tilings walked) or None when
    no tiling fits the BRAM budget.  Pure — the one phase-1 evaluation,
    whether a pool worker, its serial fallback or the in-process walk
    runs it; ``memo`` only spares repeated tunes."""
    result = tune_config(
        memo, nest, candidate.mapping, candidate.shape, platform, include_cover=include_cover
    )
    if result is None:
        return None
    return result.design.evaluate(platform), result.candidates_evaluated


def phase1(
    nest: LoopNest,
    platform: Platform,
    config: DseConfig = DseConfig(),
    *,
    strict: bool = False,
    jobs: int = 1,
    progress: ProgressFn | None = None,
    on_retry: OnRetry | None = None,
    on_degrade: OnDegrade | None = None,
) -> Phase1Result:
    """Run the analytical filtering phase on one layer.

    Args:
        nest: the layer's loop nest.
        platform: evaluation platform.
        config: DSE knobs.
        strict: re-verify every finalist with the design-point
            validator (:mod:`repro.analysis.design_check`) and raise
            :class:`repro.analysis.DiagnosticError` if any violates the
            paper's constraints.  Off by default: the validator re-derives
            the structural and Eq. 2/4 constraints itself and checks the
            search's BRAM feasibility against the one cost model
            (:meth:`DesignPoint.evaluate`, not a second formula), so this
            is a self-audit, not a correctness requirement.
        jobs: worker processes for the tuning fan-out; 1 (default) runs
            in-process, <= 0 means all cores.  Any value yields
            bit-identical finalists and statistics: ranked batches are
            evaluated concurrently and consumed in rank order by the one
            branch-and-bound walk (:func:`repro.dse.parallel.
            top_n_search`).  Crashed workers are resubmitted; past a
            threshold the affected candidates are tuned in the parent —
            still bit-identical, because each task is a pure function of
            its candidate.
        progress: optional hook called with (configs consumed, total).
        on_retry: optional hook per crashed-worker resubmission.
        on_degrade: optional hook when work falls back to serial.
    """
    start = time.perf_counter()
    table = CandidateTable.enumerate(
        nest,
        feasible_mappings(nest),
        platform,
        min_dsp_utilization=config.min_dsp_utilization,
        vector_choices=config.vector_choices,
    )
    ranked = RankedCandidates(table, upper_bounds(table, platform))

    tilings = 0

    def score(outcome: tuple[DesignEvaluation, int]) -> float:
        nonlocal tilings
        tilings += outcome[1]  # every tuned configuration, not just finalists
        return outcome[0].throughput_gops

    with TaskPool(
        tune_candidate,
        (nest, platform, config.include_cover, {}),
        jobs if len(ranked) > 1 else 1,
        on_retry=on_retry,
        on_degrade=on_degrade,
    ) as pool:
        finalists, tuned = top_n_search(
            ranked,
            pool,
            top_n=config.top_n,
            pruning=config.upper_bound_pruning,
            score=score,
            tick=32,
            progress=progress,
        )

    result = Phase1Result(
        finalists=tuple(ev for _, _, (ev, _) in finalists),
        configs_enumerated=len(table),
        configs_tuned=tuned,
        tilings_evaluated=tilings,
        elapsed_seconds=time.perf_counter() - start,
    )
    if strict:
        _audit_designs(
            (ev.design for ev in result.finalists), platform, "phase-1 finalist"
        )
    return result


def _audit_designs(
    designs: Iterable[DesignPoint], platform: Platform, context: str
) -> None:
    """Strict-mode self-audit: raise if any design violates a constraint."""
    from repro.analysis.design_check import verify_design_points

    verify_design_points(designs, platform, context=context).raise_if_errors()


def phase2(
    phase1_result: Phase1Result, platform: Platform, *, strict: bool = False
) -> Phase2Result:
    """Realize clocks for the finalists and pick the on-board winner.

    With ``strict`` the winner is re-verified by the independent
    design-point validator before being returned.
    """
    if not phase1_result.finalists:
        raise NoFeasibleDesign("phase 1 produced no feasible designs")
    realized: list[tuple[DesignEvaluation, float]] = []
    for evaluation in phase1_result.finalists:
        design: DesignPoint = evaluation.design
        freq = platform.frequency_model.realize(
            rows=design.shape.rows,
            cols=design.shape.cols,
            vector=design.shape.vector,
            dsp_utilization=evaluation.dsp_utilization,
            bram_utilization=evaluation.bram_utilization,
            signature=design.signature,
        )
        realized.append((design.evaluate(platform, frequency_mhz=freq), evaluation.throughput_gops))
    realized.sort(key=lambda pair: pair[0].throughput_gops, reverse=True)
    if strict:
        _audit_designs([realized[0][0].design], platform, "phase-2 winner")
    return Phase2Result(
        best=realized[0][0],
        finalists=tuple(ev for ev, _ in realized),
        estimated_gops=tuple(est for _, est in realized),
    )


def explore(
    nest: LoopNest,
    platform: Platform,
    config: DseConfig = DseConfig(),
    *,
    strict: bool = False,
    jobs: int = 1,
) -> Phase2Result:
    """Full two-phase DSE for a single layer; ``strict`` audits both
    phases' designs (see :func:`phase1`)."""
    return phase2(
        phase1(nest, platform, config, strict=strict, jobs=jobs), platform, strict=strict
    )


__all__ = [
    "DseConfig",
    "NoFeasibleDesign",
    "Phase1Result",
    "Phase2Result",
    "explore",
    "phase1",
    "phase2",
]
