"""Independent scalar oracles for the DSE's columnar code.

The Problem-1 space: :func:`enumerate_shapes` / :func:`enumerate_configs`
walk the Eq. 12 window one shape at a time, yielding objects — the
enumeration ``repro.dse.vector.CandidateTable.enumerate`` builds as
columns must equal it row for row.

The Problem-2 kernel: ``repro.dse.tuner.walk`` prices Eq. 1/5/6/8–10 as
NumPy broadcasts over whole candidate grids.  This module prices the
same model one tiling at a time over plain Python ints and floats —
hand-inlined, nothing precomputed from the kernel — and walks candidate
products with ``itertools.product``.  Tests hold the kernel to it
bit-for-bit: winners, tie-breaks, BRAM counts, efficiencies and visit
counts.

Python's int arithmetic is unbounded and its int/int division correctly
rounded, so the oracle is exact at any nest size; the kernel must match
it on its Python-int columns too.
"""

from __future__ import annotations

import itertools
import math

from repro.dse.brute import BruteForceResult
from repro.dse.shared_reuse import SharedLayerOutcome, SharedReuseResult
from repro.dse.space import DEFAULT_VECTOR_CHOICES, SystolicConfig
from repro.dse.tuner import TunedDesign, middle_candidates
from repro.model.design_point import ArrayShape, DesignPoint
from repro.model.mapping import array_roles, feasible_mappings


def enumerate_shapes(
    nest, mapping, platform, *, min_dsp_utilization=0.0, vector_choices=DEFAULT_VECTOR_CHOICES
):
    """All shapes for one mapping within [c_s * D_total, D_total] lanes."""
    lane_budget = platform.dsp_total
    lane_floor = min_dsp_utilization * lane_budget
    # A spatial loop's bound never usefully exceeds its trip count or the budget.
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
    nest, platform, *, min_dsp_utilization=0.0, vector_choices=DEFAULT_VECTOR_CHOICES,
    mappings=None,
):
    """The Problem-1 space: ``mappings`` (default: the nest's feasible
    ones) x admissible shapes."""
    for mapping in feasible_mappings(nest) if mappings is None else mappings:
        for shape in enumerate_shapes(
            nest,
            mapping,
            platform,
            min_dsp_utilization=min_dsp_utilization,
            vector_choices=vector_choices,
        ):
            yield SystolicConfig(mapping, shape)


class ScalarTuner:
    """Problem 2 for one configuration, one tiling at a time."""

    def __init__(self, nest, mapping, shape, platform, *, include_cover=True):
        self.nest, self.mapping, self.shape, self.platform = nest, mapping, shape, platform
        self.iterators = nest.iterators
        position = {it: k for k, it in enumerate(self.iterators)}
        roles = array_roles(nest)
        self.arrays = []
        for access in nest.accesses:
            word_bytes = platform.datatype.bytes_for(roles[access.array])
            self.arrays.append(
                (
                    [[(coeff, position[name]) for name, coeff in expr.terms] for expr in access.indices],
                    word_bytes,
                    platform.device.bram_words_per_block(word_bytes),
                )
            )
        self.trip = [nest.bounds[it] for it in self.iterators]
        inner = {mapping.row: shape.rows, mapping.col: shape.cols, mapping.vector: shape.vector}
        self.inner = [inner.get(it, 1) for it in self.iterators]
        self.candidates = [
            middle_candidates(n, t, include_cover=include_cover)
            for n, t in zip(self.trip, self.inner)
        ]

    def evaluate(self, middles, freq_hz):
        """(throughput ops/s, BRAM blocks, efficiency) of one s-vector."""
        platform = self.platform
        total_iterations = math.prod(self.trip)
        blocks = [s * t for s, t in zip(middles, self.inner)]
        if platform.ragged_middle == "padded":
            executed = 1
            for n, b in zip(self.trip, blocks):
                executed *= -(-n // b) * b
            eff = total_iterations / executed
        else:
            caps = [-(-n // t) * t for n, t in zip(self.trip, self.inner)]
            eff = total_iterations / math.prod(caps)
            blocks = [min(b, cap) for b, cap in zip(blocks, caps)]
        block_iterations = math.prod(blocks)

        pt = eff * 2.0 * self.shape.lanes * freq_hz  # Eq. 8
        block_ops = eff * 2.0 * block_iterations
        bram = math.ceil(platform.bram_per_pe * self.shape.lanes)
        total_bytes = 0.0
        mt = pt
        for dims, word_bytes, words_per_block in self.arrays:
            words = 1
            for terms in dims:  # Eq. 5
                words *= 1 + sum(coeff * (blocks[pos] - 1) for coeff, pos in terms)
            raw = -(-words // words_per_block)
            bram += platform.bram_buffer_constant + 2 * (1 << (raw - 1).bit_length() if raw > 1 else 1)
            nbytes = words * word_bytes
            total_bytes += nbytes
            mt = min(mt, block_ops * platform.memory.port_bytes_per_second / nbytes)  # Eq. 10
        mt = min(mt, block_ops * platform.memory.total_bytes_per_second / total_bytes)  # Eq. 9
        return min(pt, mt), bram, eff

    def search(self, ladders, freq_hz):
        """First tiling of the product of ``ladders`` with maximal
        throughput, then fewest BRAM blocks, among those within budget:
        ``((ops/s, bram, middles, eff) or None, tilings walked)``."""
        best = None
        count = 0
        for middles in itertools.product(*ladders):
            count += 1
            throughput, bram, eff = self.evaluate(middles, freq_hz)
            if bram > self.platform.bram_total:
                continue
            if best is None or (throughput, -bram) > (best[0], -best[1]):
                best = (throughput, bram, middles, eff)
        return best, count

    def design(self, middles):
        return DesignPoint.create(
            self.nest, self.mapping, self.shape, dict(zip(self.iterators, middles))
        )

    def tune(self, *, frequency_mhz=None):
        freq_hz = (frequency_mhz or self.platform.assumed_clock_mhz) * 1e6
        best, count = self.search(self.candidates, freq_hz)
        if best is None:
            raise RuntimeError(
                f"no feasible tiling for {self.mapping} {self.shape} within "
                f"{self.platform.bram_total} RAM blocks"
            )
        throughput, bram, middles, eff = best
        return TunedDesign(self.design(middles), throughput / 1e9, bram, eff, count)


def brute_force(nest, mapping, shape, platform, *, frequency_mhz=None):
    """Every integer s in [1, cover] per loop."""
    tuner = ScalarTuner(nest, mapping, shape, platform)
    freq_hz = (frequency_mhz or platform.assumed_clock_mhz) * 1e6
    ladders = [range(1, math.ceil(n / t) + 1) for n, t in zip(tuner.trip, tuner.inner)]
    best, count = tuner.search(ladders, freq_hz)
    if best is None:
        raise RuntimeError("no feasible tiling in the full space")
    throughput, bram, middles, _eff = best
    return BruteForceResult(tuner.design(middles), throughput / 1e9, bram, count)


def shared_reuse(workloads, config, platform, *, include_cover=True, frequency_mhz=None):
    """One middle-bound vector for every layer: maximal aggregate, first
    tiling on ties; feasible only if every layer fits the BRAM budget."""
    freq_hz = (frequency_mhz or platform.assumed_clock_mhz) * 1e6
    tuners = [
        ScalarTuner(w.nest, config.mapping, config.shape, platform, include_cover=include_cover)
        for w in workloads
    ]
    ladders = [
        sorted(set().union(*(tuner.candidates[k] for tuner in tuners)))
        for k in range(len(tuners[0].iterators))
    ]
    best = None
    combos = 0
    for combo in itertools.product(*ladders):
        combos += 1
        total_time = 0.0
        total_ops = 0.0
        max_bram = 0
        for w, tuner in zip(workloads, tuners):
            throughput, bram, _eff = tuner.evaluate(combo, freq_hz)
            if bram > platform.bram_total:
                break
            max_bram = max(max_bram, bram)
            total_time += w.multiplicity * w.nest.total_operations / throughput
            total_ops += w.effective_ops
        else:
            aggregate = total_ops / total_time
            if best is None or aggregate > best[0]:
                best = (aggregate, combo, max_bram)
    if best is None:
        raise RuntimeError("no shared reuse strategy fits the BRAM budget")
    aggregate, combo, max_bram = best
    layers = []
    for w, tuner in zip(workloads, tuners):
        throughput, _bram, eff = tuner.evaluate(combo, freq_hz)
        seconds = w.multiplicity * w.nest.total_operations / throughput
        layers.append(SharedLayerOutcome(w.name, w.effective_ops / seconds / 1e9, seconds, eff))
    return SharedReuseResult(
        dict(zip(tuners[0].iterators, combo)), aggregate / 1e9, tuple(layers), max_bram, combos
    )


def _shape_only_efficiency(nest, config):
    eff = 1.0
    for it, t in (
        (config.mapping.row, config.shape.rows),
        (config.mapping.col, config.shape.cols),
        (config.mapping.vector, config.shape.vector),
    ):
        n = nest.bounds[it]
        eff *= n / (math.ceil(n / t) * t)
    return eff


def throughput_upper_bound_gops(nest, config, platform):
    """Phase 1's bound: PT at ideal tiling."""
    eff = _shape_only_efficiency(nest, config)
    return eff * 2.0 * config.shape.lanes * platform.assumed_clock_mhz * 1e6 / 1e9


def aggregate_upper_bound(workloads, config, platform):
    """The unified search's bound: per-layer PT bounds, summed as times."""
    total_ops = 0.0
    total_time = 0.0
    freq = platform.assumed_clock_mhz * 1e6
    for w in workloads:
        pt = _shape_only_efficiency(w.nest, config) * 2.0 * config.shape.lanes * freq
        total_ops += w.effective_ops
        total_time += w.multiplicity * w.nest.total_operations / pt
    return total_ops / total_time / 1e9
