"""Columnar (vectorized) DSE engine: score design subspaces as arrays.

The object engine walks the design space one Python object at a time:
one ``MiddleTuner._evaluate`` call per tiling, thousands of tilings per
tuned configuration per layer.  This module keeps the *search
structure* — enumeration order, ranking, admissible branch-and-bound
replay — exactly as the object path defines it, and replaces only the
arithmetic with NumPy batches:

* :class:`CandidateTable` — a struct-of-arrays view of the Problem-1
  subspace (mapping index + shape columns + per-loop inner bounds) built
  from the same :mod:`repro.dse.space` enumeration;
* :func:`upper_bounds` / :func:`aggregate_upper_bounds` — the phase-1 and
  unified branch-and-bound bounds for the whole table in one shot;
* :func:`legality_mask` — the Eq. 12 DSP window as a batched mask;
* :class:`VectorTuner` — a drop-in :class:`~repro.dse.tuner.MiddleTuner`
  whose :meth:`~VectorTuner.tune` scores the pruned tiling product as one
  broadcast grid, one axis per loop.

Bit-identity is a hard contract, not an aspiration: every float formula
is applied in the same operation order as its scalar counterpart, integer
quantities stay integers until the same conversion points, and any
configuration whose intermediates could exceed float64's exact integer
range (2^53 — where NumPy's convert-then-divide diverges from Python's
correctly-rounded big-int division) falls back to the scalar tuner.
Equality of winners, tie-breaks and visit counts is asserted by
``tests/dse/test_vector.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.ir.loop import LoopNest
from repro.model.mapping import Mapping
from repro.model.platform import Platform
from repro.dse.space import SystolicConfig
from repro.dse.tuner import MiddleTuner, TunedDesign

#: Largest integer whose float64 conversion is exact; beyond it the
#: vector math can no longer promise bit-identity with Python's
#: correctly-rounded int/int division, so the scalar path takes over.
INT_EXACT_LIMIT = 2**53


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


def _role_efficiency(trips: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """One factor of the shape-only efficiency: n / (ceil(n / t) * t).

    Matches the scalar op order: the ceil is taken of the float quotient
    (exactly as ``math.ceil(n / t)`` does), and the products/divisions
    stay in float64 where every intermediate integer is exact.
    """
    return trips / (np.ceil(trips / bound) * bound)


def upper_bounds(table: CandidateTable, platform: Platform) -> np.ndarray:
    """Batched :func:`repro.dse.explore.throughput_upper_bound_gops`.

    Bit-identical per entry (asserted in tests): the three efficiency
    factors multiply in the same (row, col, vector) order and the final
    scaling applies left to right exactly like the scalar expression.
    """
    bounds = table.nest.bounds
    trip_row, trip_col, trip_vec = table.role_trip_counts(bounds)
    eff = np.ones(len(table))
    for trips, bound in (
        (trip_row, table.rows),
        (trip_col, table.cols),
        (trip_vec, table.vector),
    ):
        eff = eff * _role_efficiency(trips, bound)
    return eff * 2.0 * table.lanes * platform.assumed_clock_mhz * 1e6 / 1e9


def aggregate_upper_bounds(
    workloads: tuple,
    table: CandidateTable,
    platform: Platform,
) -> np.ndarray:
    """Batched :func:`repro.dse.multi_layer._aggregate_upper_bound`.

    Replays the scalar accumulation order — per-workload terms added in
    workload order — so every entry is bit-identical to the scalar bound
    of the same candidate.
    """
    total_ops = 0.0
    total_time = np.zeros(len(table))
    freq = platform.assumed_clock_mhz * 1e6
    lanes = table.lanes
    for w in workloads:
        trip_row, trip_col, trip_vec = table.role_trip_counts(w.nest.bounds)
        eff = np.ones(len(table))
        for trips, bound in (
            (trip_row, table.rows),
            (trip_col, table.cols),
            (trip_vec, table.vector),
        ):
            eff = eff * _role_efficiency(trips, bound)
        pt = eff * 2.0 * lanes * freq
        total_ops += w.effective_ops
        total_time = total_time + w.multiplicity * w.nest.total_operations / pt
    return total_ops / total_time / 1e9


def legality_mask(
    table: CandidateTable,
    platform: Platform,
    *,
    min_dsp_utilization: float = 0.0,
) -> np.ndarray:
    """The Eq. 12 DSP window as one boolean mask over the table.

    Replicates exactly the comparisons :func:`repro.dse.space.
    enumerate_shapes` applies per candidate (budget floor-divisions and
    the ``ceil`` on the float lane floor included), so a table built from
    that enumeration always passes — the mask is the batched replacement
    for re-validating candidates one at a time, and the guard the vector
    engine runs over externally supplied tables.
    """
    lane_budget = platform.dsp_total
    lane_floor = min_dsp_utilization * lane_budget
    bounds = table.nest.bounds
    trip_row, trip_col, _ = table.role_trip_counts(bounds)
    spatial_budget = lane_budget // table.vector
    ok = spatial_budget >= 1
    ok &= (table.rows >= 1) & (table.rows <= np.minimum(trip_row, spatial_budget))
    col_budget = np.where(table.rows > 0, spatial_budget // np.maximum(table.rows, 1), 0)
    ok &= col_budget >= 1
    col_min = np.maximum(
        1, np.ceil(lane_floor / (table.rows * table.vector)).astype(np.int64)
    )
    ok &= (table.cols >= col_min) & (
        table.cols <= np.minimum(trip_col, col_budget)
    )
    return ok


class VectorTuner(MiddleTuner):
    """Problem-2 search over one broadcast grid; bit-identical to the scalar.

    Shares every precomputed constant with :class:`MiddleTuner` (same
    ``__init__``) and scores the same candidate product, laid out with one
    axis per loop — so the grid's C order is exactly the order
    ``itertools.product`` yields.  The tiling-dependent quantities are
    separable: a loop's block extent lives on its own axis, an array's
    footprint on the axes of the loops its subscripts mention, and only
    the sums and minima of Eq. 6/9/10 touch the full grid (:meth:`_score`).
    The winner is selected by replaying the scalar tie-break on arrays:
    feasible rows, maximal throughput, minimal BRAM, first index.

    A grid above :attr:`CHUNK` rows is walked in C-order slabs of its
    leading axes, so peak memory is set by ``CHUNK``, not by the nest.
    Configurations whose intermediates could exceed 2^53 (and with them
    float64 exactness) delegate to the scalar ``tune`` wholesale.
    """

    #: Rows per slab; bounds peak memory at a few MB while keeping
    #: per-slab NumPy dispatch overhead negligible.
    CHUNK = 1 << 16

    def _within_exact_range(self) -> bool:
        """Can every intermediate stay exact in int64/float64?"""
        b_max: list[int] = []
        for cand, t, cap_index in zip(
            self._candidates, self._inner, range(len(self._inner))
        ):
            b = max(cand) * t
            if not self._padded_semantics:
                b = min(b, self._extent_cap[cap_index])
            b_max.append(b)
        executed_bound = 1
        block_bound = 1
        for n, b in zip(self._trip, b_max):
            executed_bound *= n + b  # >= ceil(n/b')*b' for any b' <= b
            block_bound *= b
        if max(executed_bound, block_bound, self._total_iterations) > INT_EXACT_LIMIT:
            return False
        for _name, dims, word_bytes, _wpb in self._arrays:
            words_bound = 1
            for terms in dims:
                span = 1
                for coeff, pos in terms:
                    span += abs(coeff) * (b_max[pos] - 1)
                words_bound *= span
            if words_bound * word_bytes > INT_EXACT_LIMIT:
                return False
        return True

    def _score(self, blocks: list[Any], freq_hz: float) -> tuple[Any, Any, Any]:
        """(throughput ops/s, BRAM blocks, efficiency) over the grid spanned
        by ``blocks`` — loop ``l``'s block extents on broadcast axis ``l``
        (an int64 array, or a scalar for a loop held at one candidate);
        each result is an array broadcastable to that grid, or a scalar.

        Each array's footprint is built on the sub-grid of the loops its
        subscripts mention and widened only where Eq. 6/9/10 combine
        arrays.  Integer products are exact, so their order is free; every
        float expression keeps ``MiddleTuner._evaluate``'s order.
        """
        # Eq. 1 efficiency — padded or the s-independent clipped form.
        # Products fold from the innermost loop outward, so every multiply
        # streams a contiguous tail against one broadcast factor.
        if self._padded_semantics:
            executed = 1
            for n, b in zip(reversed(self._trip), reversed(blocks)):
                executed = executed * (-(-n // b) * b)
            eff = self._total_iterations / executed
        else:
            eff = self._clipped_eff
        block_iterations = 1
        for b in reversed(blocks):
            block_iterations = block_iterations * b

        # Eq. 8 computation throughput; seeds the running min of Eq. 9/10.
        twice = eff * 2.0
        throughput = twice * self._lanes * freq_hz
        block_ops = twice * block_iterations
        port_ops = block_ops * self._bw_port

        # Eq. 5 footprints, Eq. 6 BRAM, Eq. 9/10 memory throughput.
        steps = [b - 1 for b in blocks]
        bram = self._pe_blocks + len(self._arrays) * self._cb
        total_bytes = 0.0
        for _name, array_dims, word_bytes, words_per_block in self._arrays:
            words = 1
            for terms in array_dims:
                span = 1
                for coeff, pos in terms:
                    span = span + coeff * steps[pos]
                words = words * span
            # Two copies of the buffer, each rounded up to a power of two
            # blocks, 2^bit_length(raw - 1): the exponent frexp reads off
            # the (exact, < 2^53) float.  Shifted as int64 whatever the
            # NumPy promotion rules make of frexp's int32 exponent.
            raw = -(-words // words_per_block)
            bram = bram + np.left_shift(2, np.frexp(raw - 1)[1], dtype=np.int64)
            nbytes = words * word_bytes
            total_bytes = total_bytes + nbytes
            throughput = np.minimum(throughput, port_ops / nbytes)
        throughput = np.minimum(throughput, block_ops * self._bw_total / total_bytes)
        return throughput, bram, eff

    def tune(self, *, frequency_mhz: float | None = None) -> TunedDesign:
        if not self._within_exact_range():
            return super().tune(frequency_mhz=frequency_mhz)

        freq_hz = (frequency_mhz or self.platform.assumed_clock_mhz) * 1e6
        dims = tuple(len(cand) for cand in self._candidates)
        blocks = [
            np.array(cand, dtype=np.int64) * t
            for cand, t in zip(self._candidates, self._inner)
        ]
        if not self._padded_semantics:
            blocks = [np.minimum(b, cap) for b, cap in zip(blocks, self._extent_cap)]
        # One broadcast axis per loop: loop l's extents are (1, .., d_l, .., 1).
        depth = len(dims)
        grid = [b.reshape((1,) * l + (-1,) + (1,) * (depth - l - 1)) for l, b in enumerate(blocks)]
        # A slab is the longest run of trailing axes that fits CHUNK rows,
        # with the loops before it held at one candidate each (scalars):
        # C-order contiguous, visited in C order.  A candidate list is
        # logarithmic in its trip count, so the last axis alone always fits.
        lead = 0
        while lead < depth - 1 and math.prod(dims[lead:]) > self.CHUNK:
            lead += 1

        best: tuple[float, int, tuple[int, ...], float] | None = None
        for fixed in np.ndindex(*dims[:lead]):
            axes = [b[i] for b, i in zip(blocks, fixed)] + grid[lead:]
            throughput, bram, eff = self._score(axes, freq_hz)
            if np.shape(bram) != throughput.shape:  # a loop no array mentions
                bram = np.broadcast_to(bram, throughput.shape)
            bram, throughput = bram.ravel(), throughput.ravel()

            feasible = np.flatnonzero(bram <= self._bram_total)
            if feasible.size == 0:
                continue
            tp_feasible = throughput[feasible]
            top = feasible[tp_feasible == tp_feasible.max()]
            winner = top[bram[top] == bram[top].min()][0]
            key = (float(throughput[winner]), -int(bram[winner]))
            if best is None or key > (best[0], -best[1]):
                positions = fixed + np.unravel_index(winner, dims[lead:])
                middles = tuple(cand[int(pos)] for cand, pos in zip(self._candidates, positions))
                eff_winner = float(eff if np.ndim(eff) == 0 else eff.ravel()[winner])
                best = (key[0], -key[1], middles, eff_winner)
        return self._tuned(best, self.pruned_space_size())


def tuner_for(engine: str) -> type[MiddleTuner]:
    """The tuner class implementing a ``DseConfig.engine`` value."""
    return VectorTuner if engine == "vector" else MiddleTuner


__all__ = [
    "INT_EXACT_LIMIT",
    "CandidateTable",
    "VectorTuner",
    "aggregate_upper_bounds",
    "legality_mask",
    "tuner_for",
    "upper_bounds",
]
