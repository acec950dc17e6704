"""Unified multi-layer design selection (paper Section 5.3).

The paper deploys ONE systolic design per network "instead of making an
optimal design for each layer, because it has big performance overhead to
reprogram the FPGA for different layers".  A unified design fixes the
mapping and PE-array shape (the hardware); the middle-loop bounds are
runtime loop limits, so each layer runs its own best data-reuse strategy
within the fixed buffer budget.  Grouped layers execute once per group;
AlexNet's conv1 is folded to a mappable unit-stride shape, and its
*effective* operation count stays the original layer's (the zero-padded
folded MACs are waste, which is part of why conv1's measured efficiency
is low — exactly as in the paper).

Aggregate optimization target: total effective ops / total latency over
all conv layers of one image.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from repro.ir.loop import LoopNest
from repro.model.mapping import Mapping, feasible_mappings
from repro.model.platform import Platform
from repro.nn.folding import fold_layer
from repro.nn.models import Network
from repro.dse.explore import DseConfig, NoFeasibleDesign
from repro.dse.parallel import OnDegrade, OnRetry, TaskPool, top_n_search
from repro.dse.space import SystolicConfig
from repro.dse.tuner import TunedDesign, tune_config
from repro.dse.vector import CandidateTable, RankedCandidates, aggregate_upper_bounds


@dataclass(frozen=True)
class LayerWorkload:
    """One conv layer as the DSE sees it.

    Attributes:
        name: original layer name.
        nest: the loop nest actually executed (per-group view; folded for
            strided layers).
        multiplicity: times the nest runs per image (= groups).
        effective_ops: the original layer's operation count — the
            numerator of every throughput/efficiency figure, so folding
            waste shows up as lost efficiency rather than phantom ops.
    """

    name: str
    nest: LoopNest
    multiplicity: int
    effective_ops: int


def prepare_network_nests(
    network: Network, *, fold_strided: bool = True
) -> tuple[LayerWorkload, ...]:
    """Lower a network's conv layers to DSE workloads."""
    workloads = []
    for layer in network.conv_layers:
        target = layer
        # Folding rewrites stride*r+p subscripts away; grouped (e.g.
        # depthwise) and dilated layers stay strided — the downstream
        # model, simulators and codegen handle their subscripts directly.
        if fold_strided and layer.stride > 1 and layer.groups == 1 and layer.dilation == 1:
            target = fold_layer(layer)
        per_group = target.group_view()
        workloads.append(
            LayerWorkload(
                name=layer.name,
                nest=per_group.to_loop_nest(),
                multiplicity=layer.groups,
                effective_ops=layer.flops,
            )
        )
    return tuple(workloads)


@dataclass(frozen=True)
class LayerPerformance:
    """Per-layer outcome of a unified design (a Table 4/5 row).

    Attributes:
        name: layer name.
        throughput_gops: effective ops / layer time.
        dsp_efficiency: effective ops / (lanes * 2 * cycles) — i.e.
            throughput / raw peak, the quantity Tables 4 and 5 print.
        seconds: layer latency per image (all groups).
        bound: 'compute' or 'memory'.
        middle: the layer's chosen data-reuse bounds.
    """

    name: str
    throughput_gops: float
    dsp_efficiency: float
    seconds: float
    bound: str
    middle: dict[str, int]


@dataclass(frozen=True)
class MultiLayerResult:
    """A unified design and its per-layer performance.

    Attributes:
        config: winning mapping + shape.
        frequency_mhz: realized clock (phase 2).
        layers: per-layer records, network order.
        total_seconds: conv latency per image.
        aggregate_gops: total effective ops / total latency.
        dsp_utilization / bram_utilization / logic_utilization: resource
            report of the unified design (BRAM is the max over layers).
        configs_enumerated / configs_tuned: search statistics.
        elapsed_seconds: DSE wall-clock time (bookkeeping; excluded from
            equality so runs at different ``jobs`` counts or cache
            replays compare equal when the search agrees).
    """

    config: SystolicConfig
    frequency_mhz: float
    layers: tuple[LayerPerformance, ...]
    total_seconds: float
    aggregate_gops: float
    dsp_utilization: float
    bram_utilization: float
    logic_utilization: float
    configs_enumerated: int
    configs_tuned: int
    elapsed_seconds: float = field(compare=False)


def _envelope_nest(workloads: tuple[LayerWorkload, ...]) -> LoopNest:
    """A synthetic nest whose bounds are the per-loop maxima — used for
    shape enumeration so a unified array may exceed any single layer's
    extent along a loop (e.g. AlexNet's (11, 14, 8) with conv3-5 at
    C = 13 < 14)."""
    base = workloads[0].nest
    bounds = {it: max(w.nest.bounds[it] for w in workloads) for it in base.iterators}
    return base.with_bounds(bounds, name="envelope")


def _common_mappings(workloads: tuple[LayerWorkload, ...]) -> tuple[Mapping, ...]:
    """Mappings feasible for every layer."""
    common = None
    for workload in workloads:
        mappings = set(feasible_mappings(workload.nest))
        common = mappings if common is None else (common & mappings)
    return tuple(sorted(common, key=str)) if common else ()


def unified_candidates(
    workloads: tuple[LayerWorkload, ...], platform: Platform, config: DseConfig
) -> tuple[CandidateTable, np.ndarray]:
    """Every unified-design candidate — the envelope's shapes under each
    mapping all layers share — and its admissible aggregate throughput
    bound, in enumeration order."""
    table = CandidateTable.enumerate(
        _envelope_nest(workloads),
        _common_mappings(workloads),
        platform,
        min_dsp_utilization=config.min_dsp_utilization,
        vector_choices=config.vector_choices,
    )
    return table, aggregate_upper_bounds(workloads, table, platform)


class UnifiedOutcome(NamedTuple):
    """What one unified-design evaluation yields — what the search ranks
    on; :func:`layer_performances` turns the winner's into report rows.

    Attributes:
        aggregate_gops: total effective ops / total latency.
        total_seconds: conv latency per image.
        tuned: each layer's best tiling, workload order.
        layer_seconds: each layer's latency per image (all groups).
        max_bram: RAM blocks of the hungriest layer.
    """

    aggregate_gops: float
    total_seconds: float
    tuned: tuple[TunedDesign, ...]
    layer_seconds: tuple[float, ...]
    max_bram: int


def evaluate_unified(
    workloads: tuple[LayerWorkload, ...],
    platform: Platform,
    dse: DseConfig,
    memo: dict,
    task: tuple[SystolicConfig, float | None],
) -> UnifiedOutcome | None:
    """Tune every layer under one ``(config, clock MHz)`` task (None =
    the platform's assumed clock); None if any layer has no feasible
    tiling.  Pure — the one unified evaluation, wherever it runs;
    ``memo`` only spares repeated tunes."""
    config, frequency_mhz = task
    tuned_layers = []
    seconds = []
    total_seconds = 0.0
    for w in workloads:
        tuned = tune_config(
            memo, w.nest, config.mapping, config.shape, platform,
            include_cover=dse.include_cover, frequency_mhz=frequency_mhz,
        )
        if tuned is None:
            return None
        nest_seconds = w.nest.total_operations / (tuned.throughput_gops * 1e9)
        layer_seconds = w.multiplicity * nest_seconds
        tuned_layers.append(tuned)
        seconds.append(layer_seconds)
        total_seconds += layer_seconds
    return UnifiedOutcome(
        aggregate_gops=sum(w.effective_ops for w in workloads) / total_seconds / 1e9,
        total_seconds=total_seconds,
        tuned=tuple(tuned_layers),
        layer_seconds=tuple(seconds),
        max_bram=max(tuned.bram_blocks for tuned in tuned_layers),
    )


def layer_performances(
    workloads: tuple[LayerWorkload, ...],
    platform: Platform,
    frequency_mhz: float,
    outcome: UnifiedOutcome,
) -> tuple[LayerPerformance, ...]:
    """The per-layer report rows of one outcome evaluated at
    ``frequency_mhz`` — the only place the unified search calls
    :meth:`DesignPoint.evaluate` (a one-row call into the kernel the
    search tuned with, for each row's ``bound``), so it runs for the
    winner, not for every layer the search tunes."""
    rows = []
    for w, tuned, seconds in zip(workloads, outcome.tuned, outcome.layer_seconds):
        design = tuned.design
        ops_per_second = w.effective_ops / seconds
        evaluation = design.evaluate(platform, frequency_mhz=frequency_mhz)
        rows.append(
            LayerPerformance(
                name=w.name,
                throughput_gops=ops_per_second / 1e9,
                dsp_efficiency=ops_per_second / (2.0 * design.shape.lanes * frequency_mhz * 1e6),
                seconds=seconds,
                bound=evaluation.performance.bound,
                middle=design.middle_bounds,
            )
        )
    return tuple(rows)


def realize_unified_clock(
    config: SystolicConfig, max_bram: int, platform: Platform
) -> tuple[float, float]:
    """(realized clock MHz, DSP utilization) of a unified design whose
    hungriest layer needs ``max_bram`` blocks — the P&R stand-in."""
    dsp_blocks = config.shape.lanes * platform.dsp_per_mac
    dsp_util = dsp_blocks / (platform.dsp_total * platform.dsp_per_mac)
    freq = platform.frequency_model.realize(
        rows=config.shape.rows,
        cols=config.shape.cols,
        vector=config.shape.vector,
        dsp_utilization=dsp_util,
        bram_utilization=max_bram / platform.bram_total,
        signature=f"unified|{config}",
    )
    return freq, dsp_util


def select_unified_design(
    workloads: tuple[LayerWorkload, ...] | Network,
    platform: Platform,
    config: DseConfig = DseConfig(),
    *,
    jobs: int = 1,
    progress: Callable[[int, int], None] | None = None,
    on_retry: OnRetry | None = None,
    on_degrade: OnDegrade | None = None,
) -> MultiLayerResult:
    """Two-phase DSE for one unified design across all conv layers.

    Args:
        workloads: prepared workloads, or a :class:`Network` (prepared
            with folding enabled).
        platform: evaluation platform.
        config: DSE knobs (c_s, vectors, top_n, pruning).
        jobs: worker processes for the per-candidate (all-layer) tuning
            fan-out; 1 runs in-process, <= 0 means all cores.  The
            winning design is bit-identical for any value: both phases
            map their evaluations through one order-preserving
            :class:`~repro.dse.parallel.TaskPool` (crashed workers are
            resubmitted / replayed in the parent).
        progress: optional hook called with (configs consumed, total).
        on_retry: optional hook per crashed-worker resubmission.
        on_degrade: optional hook when work falls back to serial.
    """
    start = time.perf_counter()
    if isinstance(workloads, Network):
        workloads = prepare_network_nests(workloads)
    if not workloads:
        raise ValueError("no conv layers to explore")
    table, bounds = unified_candidates(workloads, platform, config)
    if not len(table):
        raise NoFeasibleDesign("design space is empty — lower min_dsp_utilization?")
    # Phase 1 evaluates every candidate at the assumed clock (None).
    ranked = RankedCandidates(table, bounds, task=lambda candidate: (candidate, None))
    with TaskPool(
        evaluate_unified,
        (workloads, platform, config, {}),
        jobs if len(ranked) > 1 else 1,
        on_retry=on_retry,
        on_degrade=on_degrade,
    ) as pool:
        finalists, tuned_count = top_n_search(
            ranked,
            pool,
            top_n=config.top_n,
            pruning=config.upper_bound_pruning,
            score=lambda outcome: outcome.aggregate_gops,
            tick=8,
            progress=progress,
        )
        if not finalists:
            raise NoFeasibleDesign("no feasible unified design found")

        # Phase 2: realize clocks (from the max-BRAM figure phase 1's
        # evaluation at the assumed clock already holds), re-tune at the
        # realized clock, pick the winner.  The pool's map is
        # order-preserving, so ties keep breaking toward the earlier
        # finalist.
        chosen = [candidate for _, (candidate, _), _ in finalists]
        clocks = [
            realize_unified_clock(candidate, probe.max_bram, platform)
            for _, (candidate, _), probe in finalists
        ]
        realized = pool.map((c, freq) for c, (freq, _) in zip(chosen, clocks))
        best = None
        for candidate, (freq, dsp_util), outcome in zip(chosen, clocks, realized):
            if outcome is not None and (
                best is None or outcome.aggregate_gops > best[3].aggregate_gops
            ):
                best = (candidate, freq, dsp_util, outcome)

    assert best is not None
    candidate, freq, dsp_util, outcome = best
    from repro.model.resources import logic_usage

    logic = logic_usage(
        candidate.shape.rows, candidate.shape.cols, candidate.shape.vector, platform
    )
    return MultiLayerResult(
        config=candidate,
        frequency_mhz=freq,
        layers=layer_performances(workloads, platform, freq, outcome),
        total_seconds=outcome.total_seconds,
        aggregate_gops=outcome.aggregate_gops,
        dsp_utilization=dsp_util,
        bram_utilization=outcome.max_bram / platform.bram_total,
        logic_utilization=logic / platform.device.logic_cells,
        configs_enumerated=len(table),
        configs_tuned=tuned_count,
        elapsed_seconds=time.perf_counter() - start,
    )


__all__ = [
    "LayerPerformance",
    "LayerWorkload",
    "MultiLayerResult",
    "UnifiedOutcome",
    "evaluate_unified",
    "layer_performances",
    "prepare_network_nests",
    "realize_unified_clock",
    "select_unified_design",
    "unified_candidates",
]
