"""Exhaustive baselines.

The paper reports that brute-forcing one AlexNet layer's design space
takes "roughly 311 hours" on a Xeon E5-2667, versus under 30 seconds for
the pruned two-phase search.  These functions implement the unpruned
arms so the pruning claims can be validated (optimality on reduced
spaces) and the speedup ratio measured on identical hardware.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.ir.loop import LoopNest
from repro.model.design_point import ArrayShape, DesignPoint
from repro.model.mapping import Mapping
from repro.model.platform import Platform
from repro.dse.space import DEFAULT_VECTOR_CHOICES, enumerate_configs
from repro.dse.tuner import MiddleTuner, walk


@dataclass(frozen=True)
class BruteForceResult:
    """Winner of an exhaustive middle-bound search.

    Attributes:
        design: best design point.
        throughput_gops: its model throughput.
        bram_blocks: its BRAM usage.
        candidates_evaluated: full (unpruned) space size walked.
    """

    design: DesignPoint
    throughput_gops: float
    bram_blocks: int
    candidates_evaluated: int


def brute_force_best_middle(
    nest: LoopNest,
    mapping: Mapping,
    shape: ArrayShape,
    platform: Platform,
    *,
    frequency_mhz: float | None = None,
) -> BruteForceResult:
    """Problem 2 with NO pruning: every integer s in [1, cover] per loop.

    Exponential; intended for small nests (tests) and reduced spaces
    (benchmarks).  The same walk as the tuner's, over the full ladders
    instead of the pruned ones, so both arms price candidates identically
    — the comparison isolates the *search space* difference, exactly what
    the paper's 17.5x claim is about.
    """
    tuner = MiddleTuner(nest, mapping, shape, platform)
    freq_hz = (frequency_mhz or platform.assumed_clock_mhz) * 1e6
    ladders = [
        range(1, math.ceil(n / t) + 1) for n, t in zip(tuner._trip, tuner._inner)
    ]
    found = walk((tuner,), ladders, freq_hz, tuner._fits)
    if found is None:
        raise RuntimeError("no feasible tiling in the full space")
    middles, _key, ((throughput, bram, _eff),) = found
    return BruteForceResult(
        tuner.design(middles), throughput / 1e9, bram, math.prod(map(len, ladders))
    )


def brute_force_space_size(
    nest: LoopNest,
    platform: Platform,
    *,
    vector_choices: tuple[int, ...] = DEFAULT_VECTOR_CHOICES,
) -> int:
    """Total unpruned design-space size: sum over all feasible
    configurations of their full tiling-space sizes.

    This is the quantity that made the paper's brute force take hundreds
    of hours; counted analytically (no evaluation) so it can be reported
    even where walking it is impossible.
    """
    total = 0
    for config in enumerate_configs(
        nest, platform, min_dsp_utilization=0.0, vector_choices=vector_choices
    ):
        inner = {
            config.mapping.row: config.shape.rows,
            config.mapping.col: config.shape.cols,
            config.mapping.vector: config.shape.vector,
        }
        size = 1
        for it in nest.iterators:
            t = inner.get(it, 1)
            size *= math.ceil(nest.bounds[it] / t)
        total += size
    return total


__all__ = ["BruteForceResult", "brute_force_best_middle", "brute_force_space_size"]
