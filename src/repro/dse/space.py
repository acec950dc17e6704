"""Problem 1: enumeration of feasible systolic configurations.

A configuration is (mapping, PE-array shape).  The shape space is every
(rows, cols, vector) with the SIMD vector a power of two ("the
parallelization factor of the SIMD factor is usually power of two due to
the dedicated inter-DSP accumulation interconnect") and total DSP usage
within the budget; Eq. 12's lower bound ``D(t) >= c_s * D_total`` is the
paper's architectural pruning — low-DSP designs can't win because the
systolic array's frequency does not degrade much with size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from repro.ir.loop import LoopNest
from repro.model.design_point import ArrayShape
from repro.model.mapping import Mapping, feasible_mappings
from repro.model.platform import Platform


@dataclass(frozen=True)
class SystolicConfig:
    """One point of the Problem-1 space: mapping + shape (the (k, t) pair)."""

    mapping: Mapping
    shape: ArrayShape

    def __str__(self) -> str:
        return f"{self.mapping} @ {self.shape}"


DEFAULT_VECTOR_CHOICES = (4, 8, 16)
"""SIMD widths explored by default (powers of two; 8 is the paper's pick
for both models — one DSP column's accumulation chain)."""


def enumerate_shapes(
    nest: LoopNest,
    mapping: Mapping,
    platform: Platform,
    *,
    min_dsp_utilization: float = 0.0,
    vector_choices: tuple[int, ...] = DEFAULT_VECTOR_CHOICES,
) -> Iterator[ArrayShape]:
    """All shapes for one mapping within [c_s * D_total, D_total] lanes.

    Args:
        nest: the layer's loop nest.
        mapping: a feasible mapping.
        platform: supplies the DSP budget (at the datatype's cost).
        min_dsp_utilization: Eq. 12's c_s.
        vector_choices: SIMD widths to consider.
    """
    lane_budget = platform.dsp_total
    lane_floor = min_dsp_utilization * lane_budget
    # A spatial loop's bound never usefully exceeds its trip count (extra
    # PEs would receive no work) or the budget.  ``nest.bounds`` builds a
    # dict per access: read it once, not once per row.
    bounds = nest.bounds
    row_trips, col_trips = bounds[mapping.row], bounds[mapping.col]
    for vector in vector_choices:
        spatial_budget = lane_budget // vector
        if spatial_budget < 1:
            continue
        for rows in range(1, min(row_trips, spatial_budget) + 1):
            col_budget = spatial_budget // rows
            if col_budget < 1:
                continue
            col_max = min(col_trips, col_budget)
            col_min = max(1, math.ceil(lane_floor / (rows * vector)))
            for cols in range(col_min, col_max + 1):
                yield ArrayShape(rows, cols, vector)


def enumerate_configs(
    nest: LoopNest,
    platform: Platform,
    *,
    min_dsp_utilization: float = 0.0,
    vector_choices: tuple[int, ...] = DEFAULT_VECTOR_CHOICES,
) -> Iterator[SystolicConfig]:
    """The full Problem-1 space: feasible mappings x admissible shapes."""
    for mapping in feasible_mappings(nest):
        for shape in enumerate_shapes(
            nest,
            mapping,
            platform,
            min_dsp_utilization=min_dsp_utilization,
            vector_choices=vector_choices,
        ):
            yield SystolicConfig(mapping, shape)


def count_design_space(
    nest: LoopNest,
    platform: Platform,
    *,
    min_dsp_utilization: float = 0.0,
    vector_choices: tuple[int, ...] = DEFAULT_VECTOR_CHOICES,
) -> int:
    """Size of the Problem-1 space (for the 160K -> 64K pruning claim)."""
    return sum(
        1
        for _ in enumerate_configs(
            nest,
            platform,
            min_dsp_utilization=min_dsp_utilization,
            vector_choices=vector_choices,
        )
    )


__all__ = [
    "DEFAULT_VECTOR_CHOICES",
    "SystolicConfig",
    "count_design_space",
    "enumerate_configs",
    "enumerate_shapes",
]
