"""Shared data-reuse strategy across layers (the paper's deployment).

The default multi-layer selection in :mod:`repro.dse.multi_layer` lets
every layer run its own best middle bounds at runtime (loop limits are
kernel arguments).  The paper's generated kernel appears to fix one
strategy for the whole network instead — "our framework chose the data
reuse strategy that benefit other layers more", which is one of the two
reasons its AlexNet conv1 throughput collapses (Table 4).

:func:`tune_shared_reuse` implements that literal deployment: a single
middle-bound vector, chosen to maximize the *aggregate* network
throughput, is applied to every layer.  Layers whose loops are shorter
than the shared bounds pay quantization waste exactly as the paper
describes.  The deployment ablation (:mod:`repro.experiments.ablations`)
compares the two deployments and shows the shared strategy reproducing
the paper's conv1 penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.model.platform import Platform
from repro.dse.multi_layer import LayerWorkload
from repro.dse.space import SystolicConfig
from repro.dse.tuner import MiddleTuner, walk


@dataclass(frozen=True)
class SharedLayerOutcome:
    """One layer's performance under the shared strategy.

    Attributes:
        name: layer name.
        throughput_gops: effective ops / time under the shared bounds.
        seconds: layer latency (all groups).
        efficiency: the layer's Eff(s, t) under the shared bounds.
    """

    name: str
    throughput_gops: float
    seconds: float
    efficiency: float


@dataclass(frozen=True)
class SharedReuseResult:
    """Outcome of the shared-strategy tuning.

    Attributes:
        middle: the single shared middle-bound vector.
        aggregate_gops: network aggregate under the shared strategy.
        layers: per-layer outcomes, workload order.
        bram_blocks: BRAM of the shared buffers (max over layers).
        combos_evaluated: search-space size walked.
    """

    middle: dict[str, int]
    aggregate_gops: float
    layers: tuple[SharedLayerOutcome, ...]
    bram_blocks: int
    combos_evaluated: int


def tune_shared_reuse(
    workloads: tuple[LayerWorkload, ...],
    config: SystolicConfig,
    platform: Platform,
    *,
    include_cover: bool = True,
    frequency_mhz: float | None = None,
) -> SharedReuseResult:
    """Choose ONE middle-bound vector for all layers of a network.

    Maximizes aggregate throughput (total effective ops / total time)
    subject to the BRAM budget applying to every layer's buffers.

    Args:
        workloads: prepared layer workloads (same iterator names).
        config: the fixed mapping + PE-array shape.
        platform: evaluation platform (BRAM budget, bandwidth, clock).
        include_cover: include per-layer cover bounds in the candidates.
        frequency_mhz: clock override.

    Raises:
        RuntimeError: if no shared vector fits the BRAM budget.
    """
    if not workloads:
        raise ValueError("no workloads")
    iterators = workloads[0].nest.iterators
    for w in workloads:
        if w.nest.iterators != iterators:
            raise ValueError("workloads must share iterator names/order")

    freq_hz = (frequency_mhz or platform.assumed_clock_mhz) * 1e6
    tuners = tuple(
        MiddleTuner(w.nest, config.mapping, config.shape, platform, include_cover=include_cover)
        for w in workloads
    )
    # Union of per-layer candidates, per loop.
    candidates = [
        tuple(sorted(set().union(*(tuner._candidates[position] for tuner in tuners))))
        for position in range(len(iterators))
    ]
    total_ops = 0.0
    for w in workloads:
        total_ops += w.effective_ops

    def aggregate(scores: list) -> tuple:
        """Feasible only if every layer fits the BRAM budget; maximal
        aggregate ops/s, ties to the first tiling (no cost)."""
        feasible = True
        total_time = 0.0
        for w, (throughput, bram, _eff) in zip(workloads, scores):
            feasible = feasible & (bram <= platform.bram_total)
            total_time = total_time + w.multiplicity * w.nest.total_operations / throughput
        return feasible, total_ops / total_time, 0

    found = walk(tuners, candidates, freq_hz, aggregate)
    if found is None:
        raise RuntimeError("no shared reuse strategy fits the BRAM budget")

    combo, (aggregate_ops, _), scores = found
    layers = []
    for w, (throughput, _bram, eff) in zip(workloads, scores):
        seconds = w.multiplicity * w.nest.total_operations / throughput
        layers.append(
            SharedLayerOutcome(
                name=w.name,
                throughput_gops=w.effective_ops / seconds / 1e9,
                seconds=seconds,
                efficiency=eff,
            )
        )
    return SharedReuseResult(
        middle=dict(zip(iterators, combo)),
        aggregate_gops=float(aggregate_ops) / 1e9,
        layers=tuple(layers),
        bram_blocks=max(bram for _tp, bram, _eff in scores),
        combos_evaluated=math.prod(map(len, candidates)),
    )


__all__ = ["SharedLayerOutcome", "SharedReuseResult", "tune_shared_reuse"]
