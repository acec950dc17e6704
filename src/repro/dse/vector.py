"""The Problem-1 space as columns, and its search bounds.

* :class:`CandidateTable` — the Problem-1 space (paper Eq. 11) as a
  struct-of-arrays: mapping index + shape columns, enumerated directly
  under the Eq. 12 DSP-utilization window.  This is the only place the
  space is enumerated; a :class:`~repro.dse.space.SystolicConfig` is
  built only for a row a caller asks for;
* :class:`RankedCandidates` — a table's rows in descending bound order,
  the sequence both branch-and-bound searches walk;
* :func:`upper_bounds` / :func:`aggregate_upper_bounds` — the phase-1 and
  unified branch-and-bound bounds for the whole table in one shot, the
  only place either bound is written.

The Problem-2 tiling kernel these bounds admit lives in
:mod:`repro.dse.tuner`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.ir.loop import LoopNest
from repro.model.design_point import ArrayShape
from repro.model.mapping import Mapping, feasible_mappings
from repro.model.platform import Platform
from repro.dse.space import DEFAULT_VECTOR_CHOICES, SystolicConfig
from repro.dse.tuner import MiddleTuner


@dataclass(frozen=True)
class CandidateTable:
    """Struct-of-arrays form of a Problem-1 space.

    Columns are aligned: entry ``i`` of every array describes row ``i``,
    the configuration :meth:`config` builds.  Mappings are interned —
    ``mapping_index[i]`` points into ``mappings`` — because a space
    rarely has more than a dozen distinct mappings while it has
    thousands of shapes.
    """

    nest: LoopNest
    mappings: tuple[Mapping, ...]
    mapping_index: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vector: np.ndarray

    @staticmethod
    def enumerate(
        nest: LoopNest,
        mappings: tuple[Mapping, ...] | list[Mapping],
        platform: Platform,
        *,
        min_dsp_utilization: float = 0.0,
        vector_choices: tuple[int, ...] = DEFAULT_VECTOR_CHOICES,
    ) -> "CandidateTable":
        """Every shape of each mapping within [c_s * D_total, D_total]
        lanes, ordered by mapping, then vector, then rows, then cols.

        A spatial loop's bound never usefully exceeds its trip count
        (extra PEs would receive no work) or the budget, so per (mapping,
        vector) the rows run 1..min(trips, D_total // vector) and each
        row's cols the window [max(1, ceil(c_s * D_total / (rows *
        vector))), min(trips, D_total // vector // rows)] — the ceil
        taken of the float quotient.

        Args:
            nest: the layer's (or envelope's) loop nest.
            mappings: feasible mappings, in the order to enumerate them.
            platform: supplies the DSP budget (at the datatype's cost).
            min_dsp_utilization: Eq. 12's c_s.
            vector_choices: SIMD widths to consider.
        """
        lane_budget = platform.dsp_total
        lane_floor = min_dsp_utilization * lane_budget
        bounds = nest.bounds
        empty = np.empty(0, dtype=np.int64)
        parts = [(empty, empty, empty, empty)]
        for index, mapping in enumerate(mappings):
            row_trips, col_trips = bounds[mapping.row], bounds[mapping.col]
            for vector in vector_choices:
                spatial_budget = lane_budget // vector
                if spatial_budget < 1:
                    continue
                rows = np.arange(1, min(row_trips, spatial_budget) + 1, dtype=np.int64)
                # A row whose col budget is below 1 gets col_max < col_min:
                # no entries, the scalar walk's ``col_budget < 1`` skip.
                col_max = np.minimum(col_trips, spatial_budget // rows)
                col_min = np.maximum(1, np.ceil(lane_floor / (rows * vector))).astype(np.int64)
                counts = np.maximum(col_max - col_min + 1, 0)
                total = int(counts.sum())
                offsets = np.repeat(np.cumsum(counts) - counts - col_min, counts)
                parts.append(
                    (
                        np.full(total, index, dtype=np.int64),
                        np.repeat(rows, counts),
                        np.arange(total, dtype=np.int64) - offsets,
                        np.full(total, vector, dtype=np.int64),
                    )
                )
        return CandidateTable(nest, tuple(mappings), *map(np.concatenate, zip(*parts)))

    def __len__(self) -> int:
        return len(self.rows)

    def config(self, i: int) -> SystolicConfig:
        """Row ``i`` as a configuration object."""
        return SystolicConfig(
            self.mappings[int(self.mapping_index[i])],
            ArrayShape(int(self.rows[i]), int(self.cols[i]), int(self.vector[i])),
        )

    @property
    def lanes(self) -> np.ndarray:
        """Parallel MAC lanes per candidate (rows * cols * vector)."""
        return self.rows * self.cols * self.vector

    def role_trip_counts(
        self, bounds: dict[str, int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Trip counts of each candidate's (row, col, vector) loops under
        ``bounds``, gathered through the interned mappings."""
        by_row = np.array([bounds[m.row] for m in self.mappings], dtype=np.int64)
        by_col = np.array([bounds[m.col] for m in self.mappings], dtype=np.int64)
        by_vec = np.array([bounds[m.vector] for m in self.mappings], dtype=np.int64)
        return (
            by_row[self.mapping_index],
            by_col[self.mapping_index],
            by_vec[self.mapping_index],
        )


class RankedCandidates:
    """A table's rows as ``(bound, task)`` pairs, best bound first.

    The order is a stable descending sort of ``bounds``: equal bounds
    keep enumeration order.  The view supports ``len`` and slicing, what
    :func:`repro.dse.parallel.top_n_search` consumes; a slice builds the
    configurations of its rows only, so a search that stops after a few
    batches never materializes the rest of the space.

    Args:
        table: the enumerated space.
        bounds: one upper bound per table row.
        task: turns a row's configuration into the search's work item.
    """

    def __init__(
        self,
        table: CandidateTable,
        bounds: np.ndarray,
        task: Callable[[SystolicConfig], Any] = lambda config: config,
    ) -> None:
        self._table = table
        self._order = np.argsort(-bounds, kind="stable")
        self._bounds = bounds[self._order]
        self._task = task

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, rows: slice) -> list[tuple[float, Any]]:
        return [
            (bound, self._task(self._table.config(i)))
            for bound, i in zip(self._bounds[rows].tolist(), self._order[rows].tolist())
        ]


def count_design_space(
    nest: LoopNest,
    platform: Platform,
    *,
    min_dsp_utilization: float = 0.0,
    vector_choices: tuple[int, ...] = DEFAULT_VECTOR_CHOICES,
) -> int:
    """Size of the Problem-1 space (for the 160K -> 64K pruning claim)."""
    return len(
        CandidateTable.enumerate(
            nest,
            feasible_mappings(nest),
            platform,
            min_dsp_utilization=min_dsp_utilization,
            vector_choices=vector_choices,
        )
    )


def _shape_efficiency(table: CandidateTable, bounds: dict[str, int]) -> np.ndarray:
    """Eff's shape-only upper bound per candidate: the product, over its
    (row, col, vector) loops, of n / (ceil(n / t) * t) — the ceil taken of
    the float quotient, every intermediate integer exact in float64."""
    eff = np.ones(len(table))
    for trips, bound in zip(
        table.role_trip_counts(bounds), (table.rows, table.cols, table.vector)
    ):
        eff = eff * (trips / (np.ceil(trips / bound) * bound))
    return eff


def upper_bounds(table: CandidateTable, platform: Platform) -> np.ndarray:
    """Phase 1's admissible bound per candidate, GOPS: PT at ideal tiling
    (Eq. 8 with the shape-only efficiency).  True throughput is
    min(PT, MT) <= PT, and Eff(s, t) <= the shape-only Eff for any s.

    The three efficiency factors multiply in (row, col, vector) order and
    the scaling applies left to right — the order the scalar oracle in
    the tests uses, entry for entry.
    """
    eff = _shape_efficiency(table, table.nest.bounds)
    return eff * 2.0 * table.lanes * platform.assumed_clock_mhz * 1e6 / 1e9


def aggregate_upper_bounds(
    workloads: tuple,
    table: CandidateTable,
    platform: Platform,
) -> np.ndarray:
    """The unified search's admissible aggregate-throughput bound per
    candidate, GOPS, from each layer's PT bound: total effective ops over
    the summed per-layer times, the terms added in workload order.
    """
    total_ops = 0.0
    total_time = np.zeros(len(table))
    freq = platform.assumed_clock_mhz * 1e6
    lanes = table.lanes
    for w in workloads:
        eff = _shape_efficiency(table, w.nest.bounds)
        pt = eff * 2.0 * lanes * freq
        total_ops += w.effective_ops
        total_time = total_time + w.multiplicity * w.nest.total_operations / pt
    return total_ops / total_time / 1e9


#: ``repro.dse.vector.VectorTuner`` is the tuner's second import path.
#: The one tuner is :class:`~repro.dse.tuner.MiddleTuner`; this name stays
#: because the end-to-end benchmark rebinds ``VectorTuner.tune`` here.
VectorTuner = MiddleTuner


__all__ = [
    "CandidateTable",
    "RankedCandidates",
    "VectorTuner",
    "aggregate_upper_bounds",
    "count_design_space",
    "upper_bounds",
]
