"""Problem 2: data-reuse (middle-bound) tuning for one configuration.

Given a systolic configuration (mapping + PE array shape), find the middle
bounds ``s`` maximizing throughput under the BRAM budget.  The paper
prunes the ``s`` space to power-of-two values, justified by (1) throughput
monotonicity in ``s`` and (2) BRAM's power-of-two rounding.  In the
s-inclusive efficiency model (which the paper's own Section 2.3 example
follows exactly — see EXPERIMENTS.md) the monotonicity has divisibility
exceptions, so the candidate set here is *powers of two up to the cover
bound, plus the cover bound itself* (the ``s`` at which one block spans
the whole loop).  The pure power-of-two set is available for the
paper-faithful ablation.

The tuner is the hot loop of the DSE (millions of candidate evaluations),
so it re-implements the Eq. 1/5–10 math over plain tuples, precomputing
everything that does not depend on ``s``.  Its equivalence with the
object-based reference model is asserted by tests on thousands of random
points.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from repro.ir.loop import LoopNest
from repro.model.design_point import ArrayShape, DesignPoint
from repro.model.mapping import Mapping, array_roles
from repro.model.platform import Platform


def _pow2_up_to(limit: int) -> list[int]:
    """Powers of two in [1, limit]."""
    out = [1]
    while out[-1] * 2 <= limit:
        out.append(out[-1] * 2)
    return out


@functools.lru_cache(maxsize=4096)
def middle_candidates(
    trip_count: int, inner_bound: int, *, include_cover: bool = True
) -> tuple[int, ...]:
    """Candidate middle bounds for one loop.

    The power-of-two ladder extends to the next power of two at or above
    the cover bound ``ceil(N_l / t_l)``: under clipped-middle semantics
    that value is *equivalent* to the cover (the last — only — block stops
    early), which is what makes the paper's pure power-of-two pruning
    lossless there; under padded semantics it is just another candidate
    the search may reject.

    Args:
        trip_count: the loop's original trip count N_l.
        inner_bound: the loop's inner bound t_l (1 if unmapped).
        include_cover: also include the cover bound itself (needed for
            exact optimality under *padded* semantics); False gives the
            paper's pure power-of-two set.

    Returns:
        Sorted unique candidates.
    """
    cover = math.ceil(trip_count / inner_bound)
    candidates = set(_pow2_up_to(cover))
    next_pow2 = 1 << (cover - 1).bit_length() if cover > 1 else 1
    candidates.add(next_pow2)
    if include_cover:
        candidates.add(cover)
    return tuple(sorted(candidates))


def tuning_space_size(nest: LoopNest, shape_bounds: dict[str, int]) -> int:
    """Size of the *unpruned* Problem-2 space: all integer s in [1, cover].

    This is what the paper's 311-hour brute force walks; used to report
    the pruning ratio (the "17.5x saving" claim is about search time on
    the pruned vs unpruned tiling space).
    """
    total = 1
    for it in nest.iterators:
        t = shape_bounds.get(it, 1)
        total *= math.ceil(nest.bounds[it] / t)
    return total


@dataclass(frozen=True)
class TunedDesign:
    """Best tiling found for one configuration.

    Attributes:
        design: the design point with the winning middle bounds.
        throughput_gops: model throughput at the tuning clock.
        bram_blocks: B(s, t) of the winner.
        efficiency: Eff(s, t) of the winner.
        candidates_evaluated: size of the pruned space walked.
    """

    design: DesignPoint
    throughput_gops: float
    bram_blocks: int
    efficiency: float
    candidates_evaluated: int


@functools.lru_cache(maxsize=256)
def _layer_tables(nest: LoopNest, platform: Platform) -> tuple:
    """``(iterators, trip counts, arrays, total iterations)`` — what the
    tuner derives from ``(nest, platform)`` alone, built once per *value*
    (both are frozen and hashable) and shared by the thousands of
    configurations a search tunes on that layer.  ``arrays`` holds, per
    access: name, per-dimension ``(coefficient, loop position)`` subscript
    terms, word size, and BRAM words-per-block at that width."""
    iterators = nest.iterators
    position = {it: k for k, it in enumerate(iterators)}
    roles = array_roles(nest)
    arrays = []
    for access in nest.accesses:
        dims = tuple(
            tuple((coeff, position[name]) for name, coeff in expr.terms)
            for expr in access.indices
        )
        word_bytes = platform.datatype.bytes_for(roles[access.array])
        arrays.append(
            (access.array, dims, word_bytes, platform.device.bram_words_per_block(word_bytes))
        )
    trip = tuple(loop.trip_count for loop in nest.loops)
    return iterators, trip, tuple(arrays), nest.total_iterations


class MiddleTuner:
    """Exhaustive search over the pruned middle-bound space for one config.

    The constructor precomputes every s-independent quantity; :meth:`tune`
    then walks the candidate product evaluating a hand-inlined version of
    the analytical model.
    """

    def __init__(
        self,
        nest: LoopNest,
        mapping: Mapping,
        shape: ArrayShape,
        platform: Platform,
        *,
        include_cover: bool = True,
    ) -> None:
        self.nest = nest
        self.mapping = mapping
        self.shape = shape
        self.platform = platform

        self._iterators, self._trip, self._arrays, self._total_iterations = _layer_tables(
            nest, platform
        )
        inner = {mapping.row: shape.rows, mapping.col: shape.cols, mapping.vector: shape.vector}
        self._inner = [inner.get(it, 1) for it in self._iterators]
        self._lanes = shape.lanes

        # Candidate middle bounds per loop.
        self._candidates = [
            middle_candidates(n, t, include_cover=include_cover)
            for n, t in zip(self._trip, self._inner)
        ]

        self._padded_semantics = platform.ragged_middle == "padded"
        if not self._padded_semantics:
            # Clipped-middle efficiency depends only on t — precompute —
            # and block extents clip at the padded loop extent (a block
            # larger than the loop behaves exactly like one covering it).
            self._extent_cap = [-(-n // t) * t for n, t in zip(self._trip, self._inner)]
            self._clipped_eff = self._total_iterations / math.prod(self._extent_cap)

        self._cb = platform.bram_buffer_constant
        self._pe_blocks = math.ceil(platform.bram_per_pe * self._lanes)
        self._bram_total = platform.bram_total
        self._bw_total = platform.memory.total_bytes_per_second
        self._bw_port = platform.memory.port_bytes_per_second

    # ------------------------------------------------------------------ math

    def _evaluate(self, middles: tuple[int, ...], freq_hz: float) -> tuple[float, int, float]:
        """(throughput_ops_per_s, bram_blocks, efficiency) for one s-vector.

        Inlined Eq. 1 + 5 + 6 + 8 + 9 + 10; must match the reference model
        bit-for-bit (asserted in tests).
        """
        blocks = [s * t for s, t in zip(middles, self._inner)]

        # Eq. 1 efficiency (padded semantics) or the s-independent clipped
        # variant, per the platform's ragged_middle setting.
        if self._padded_semantics:
            executed = 1
            for n, b in zip(self._trip, blocks):
                executed *= -(-n // b) * b  # ceil(n / b) * b
            eff = self._total_iterations / executed
        else:
            eff = self._clipped_eff
            blocks = [min(b, cap) for b, cap in zip(blocks, self._extent_cap)]
        block_iterations = 1
        for b in blocks:
            block_iterations *= b

        # Eq. 8 computation throughput.
        pt = eff * 2.0 * self._lanes * freq_hz

        # Eq. 5 footprints, Eq. 6 BRAM, Eq. 9/10 memory throughput.
        block_ops = eff * 2.0 * block_iterations
        bram = self._pe_blocks
        total_bytes = 0.0
        mt = pt  # running min; seeded by pt so min() below is cheap
        for _name, dims, word_bytes, words_per_block in self._arrays:
            words = 1
            for terms in dims:
                span = 1
                for coeff, pos in terms:
                    span += coeff * (blocks[pos] - 1)
                words *= span
            raw = -(-words // words_per_block)
            rounded = 1 << (raw - 1).bit_length() if raw > 1 else 1
            bram += self._cb + 2 * rounded
            nbytes = words * word_bytes
            total_bytes += nbytes
            port_mt = block_ops * self._bw_port / nbytes
            if port_mt < mt:
                mt = port_mt
        total_mt = block_ops * self._bw_total / total_bytes
        if total_mt < mt:
            mt = total_mt

        return min(pt, mt), bram, eff

    def pruned_space_size(self) -> int:
        """Number of candidate s-vectors the tuner walks."""
        total = 1
        for cand in self._candidates:
            total *= len(cand)
        return total

    # ---------------------------------------------------------------- search

    def tune(self, *, frequency_mhz: float | None = None) -> TunedDesign:
        """Exhaustive search over the pruned space.

        Returns the throughput-maximal feasible tiling; ties break toward
        fewer BRAM blocks, then lexicographically smaller s (determinism).

        Raises:
            RuntimeError: if no tiling fits the BRAM budget (the PE array
                itself may already exceed it).
        """
        freq_hz = (frequency_mhz or self.platform.assumed_clock_mhz) * 1e6
        best: tuple[float, int, tuple[int, ...], float] | None = None
        count = 0
        for middles in itertools.product(*self._candidates):
            count += 1
            throughput, bram, eff = self._evaluate(middles, freq_hz)
            if bram > self._bram_total:
                continue
            key = (throughput, -bram)
            if best is None or key > (best[0], -best[1]):
                best = (throughput, bram, middles, eff)
        return self._tuned(best, count)

    def _tuned(
        self, best: tuple[float, int, tuple[int, ...], float] | None, count: int
    ) -> TunedDesign:
        """The verdict of a walk over ``count`` tilings whose best is
        ``(ops/s, BRAM blocks, middle bounds, efficiency)`` or None."""
        if best is None:
            raise RuntimeError(
                f"no feasible tiling for {self.mapping} {self.shape} within "
                f"{self._bram_total} RAM blocks"
            )
        throughput, bram, middles, eff = best
        design = DesignPoint.create(
            self.nest,
            self.mapping,
            self.shape,
            dict(zip(self._iterators, middles)),
        )
        return TunedDesign(
            design=design,
            throughput_gops=throughput / 1e9,
            bram_blocks=bram,
            efficiency=eff,
            candidates_evaluated=count,
        )


__all__ = ["MiddleTuner", "TunedDesign", "middle_candidates", "tuning_space_size"]
