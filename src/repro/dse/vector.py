"""Columnar views of the Problem-1 subspace and its search bounds.

* :class:`CandidateTable` — a struct-of-arrays view of the Problem-1
  subspace (mapping index + shape columns + per-loop inner bounds) built
  from the :mod:`repro.dse.space` enumeration;
* :func:`upper_bounds` / :func:`aggregate_upper_bounds` — the phase-1 and
  unified branch-and-bound bounds for the whole table in one shot, the
  only place either bound is written.

The Problem-2 tiling kernel these bounds admit lives in
:mod:`repro.dse.tuner`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ir.loop import LoopNest
from repro.model.mapping import Mapping
from repro.model.platform import Platform
from repro.dse.space import SystolicConfig
from repro.dse.tuner import MiddleTuner


@dataclass(frozen=True)
class CandidateTable:
    """Struct-of-arrays view of a Problem-1 subspace.

    Columns are aligned: entry ``i`` of every array describes
    ``configs[i]``.  Mappings are interned — ``mapping_index[i]`` points
    into ``mappings`` — because a subspace rarely has more than a dozen
    distinct mappings while it has thousands of shapes.
    """

    nest: LoopNest
    configs: tuple[SystolicConfig, ...]
    mappings: tuple[Mapping, ...]
    mapping_index: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vector: np.ndarray

    @staticmethod
    def from_configs(
        nest: LoopNest, configs: list[SystolicConfig] | tuple[SystolicConfig, ...]
    ) -> "CandidateTable":
        """Columnarize an enumerated candidate list, preserving order."""
        configs = tuple(configs)
        mappings: list[Mapping] = []
        index_of: dict[Mapping, int] = {}
        mapping_index = np.empty(len(configs), dtype=np.int64)
        rows = np.empty(len(configs), dtype=np.int64)
        cols = np.empty(len(configs), dtype=np.int64)
        vector = np.empty(len(configs), dtype=np.int64)
        for i, config in enumerate(configs):
            mi = index_of.get(config.mapping)
            if mi is None:
                mi = index_of[config.mapping] = len(mappings)
                mappings.append(config.mapping)
            mapping_index[i] = mi
            rows[i] = config.shape.rows
            cols[i] = config.shape.cols
            vector[i] = config.shape.vector
        return CandidateTable(
            nest=nest,
            configs=configs,
            mappings=tuple(mappings),
            mapping_index=mapping_index,
            rows=rows,
            cols=cols,
            vector=vector,
        )

    def __len__(self) -> int:
        return len(self.configs)

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
    "VectorTuner",
    "aggregate_upper_bounds",
    "upper_bounds",
]
