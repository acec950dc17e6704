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
so it prices Eq. 1/5–10 as one separable NumPy broadcast over the whole
candidate product (:func:`walk`), precomputing everything that does not
depend on ``s``.  The per-layer search, the unpruned brute force
(:mod:`repro.dse.brute`) and the shared-strategy search
(:mod:`repro.dse.shared_reuse`) are that one walk over different
per-loop candidate lists.  Tests hold it bit-for-bit to an independent
scalar oracle (``tests/dse/oracle.py``) — winners, tie-breaks and
counts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.ir.loop import LoopNest
from repro.model.design_point import ArrayShape, DesignPoint
from repro.model.mapping import Mapping, array_roles
from repro.model.platform import Platform

#: Largest integer whose float64 conversion is exact.  Past it NumPy's
#: convert-then-divide can differ from Python's correctly rounded int/int
#: division, so :func:`walk` prices such grids on Python-int columns.
INT_EXACT_LIMIT = 2**53

_bit_length = np.frompyfunc(int.bit_length, 1, 1)


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
    then scores the candidate product through :func:`walk`, the one
    columnar Problem-2 kernel.
    """

    #: Rows per slab of :func:`walk`; bounds peak memory at a few MB while
    #: keeping per-slab NumPy dispatch overhead negligible.
    CHUNK = 1 << 16

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

    def pruned_space_size(self) -> int:
        """Number of candidate s-vectors the tuner walks."""
        return math.prod(map(len, self._candidates))

    # ------------------------------------------------------------------ math

    def _block_lists(self, candidates: list, exact: bool) -> list[np.ndarray]:
        """Per loop, the block extents ``s * t`` of its candidate middle
        bounds (clipped at the padded loop extent under clipped
        semantics): int64 columns when ``exact``, Python-int ones
        otherwise."""
        blocks = [np.array(cand, dtype=np.int64) * t for cand, t in zip(candidates, self._inner)]
        if not self._padded_semantics:
            blocks = [np.minimum(b, cap) for b, cap in zip(blocks, self._extent_cap)]
        return blocks if exact else [b.astype(object) for b in blocks]

    def _within_exact_range(self, candidates: list) -> bool:
        """Can every intermediate over ``candidates`` stay exact in
        int64/float64?"""
        b_max = [max(cand) * t for cand, t in zip(candidates, self._inner)]
        if not self._padded_semantics:
            b_max = [min(b, cap) for b, cap in zip(b_max, self._extent_cap)]
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

    def _score(self, blocks: list[Any], freq_hz: float, exact: bool) -> tuple[Any, Any, Any]:
        """(throughput ops/s, BRAM blocks, efficiency) over the grid spanned
        by ``blocks`` — loop ``l``'s block extents on broadcast axis ``l``
        (a column, or a scalar for a loop held at one candidate); each
        result is an array broadcastable to that grid, or a scalar.

        Eq. 1 + 5 + 6 + 8 + 9 + 10.  Each array's footprint is built on
        the sub-grid of the loops its subscripts mention and widened only
        where Eq. 6/9/10 combine arrays.  Integer products are exact, so
        their order is free; every float expression is applied in one
        fixed order.  With ``exact`` the columns are int64 and every
        intermediate is below 2^53; otherwise they hold Python ints, so
        each row is priced by Python's own big-int and correctly rounded
        int/int arithmetic.
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
            # blocks: 2 << bit_length(raw - 1).  In range that is the
            # exponent frexp reads off the (exact) float, shifted as int64
            # whatever NumPy's promotion rules make of frexp's int32.
            raw = -(-words // words_per_block)
            if exact:
                bram = bram + np.left_shift(2, np.frexp(raw - 1)[1], dtype=np.int64)
            else:
                bram = bram + (2 << _bit_length(raw - 1))
            nbytes = words * word_bytes
            total_bytes = total_bytes + nbytes
            throughput = np.minimum(throughput, port_ops / nbytes)
        throughput = np.minimum(throughput, block_ops * self._bw_total / total_bytes)
        return throughput, bram, eff

    def _fits(self, scores: list[tuple[Any, Any, Any]]) -> tuple[Any, Any, Any]:
        """Single-layer rule for :func:`walk`: feasible within the BRAM
        budget; maximal throughput, then fewest BRAM blocks."""
        ((throughput, bram, _eff),) = scores
        return bram <= self._bram_total, throughput, bram

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
        found = walk((self,), self._candidates, freq_hz, self._fits)
        if found is None:
            raise RuntimeError(
                f"no feasible tiling for {self.mapping} {self.shape} within "
                f"{self._bram_total} RAM blocks"
            )
        middles, _key, ((throughput, bram, eff),) = found
        return TunedDesign(
            design=self.design(middles),
            throughput_gops=throughput / 1e9,
            bram_blocks=bram,
            efficiency=eff,
            candidates_evaluated=self.pruned_space_size(),
        )

    def design(self, middles: tuple[int, ...]) -> DesignPoint:
        """The design point of this configuration at ``middles``."""
        return DesignPoint.create(
            self.nest, self.mapping, self.shape, dict(zip(self._iterators, middles))
        )


def _flat(x: Any, full: tuple[int, ...]) -> np.ndarray:
    """``x`` widened to the slab shape ``full`` and raveled in C order —
    without a broadcast copy when it already spans every axis."""
    if getattr(x, "shape", None) == full:
        return x.ravel()
    return np.broadcast_to(x, full).ravel()


def _at(x: Any, full: tuple[int, ...], winner: int) -> Any:
    """The entry of ``x`` (a scalar, or an array broadcastable to the slab
    shape ``full``) at the slab's flat C-order index ``winner``."""
    if np.ndim(x) == 0:
        return x
    if x.shape == full:
        return x.flat[winner]
    return np.broadcast_to(x, full).flat[winner]


def walk(
    tuners: tuple[MiddleTuner, ...],
    candidates: list,
    freq_hz: float,
    rank: Callable[[list[tuple[Any, Any, Any]]], tuple[Any, Any, Any]],
) -> tuple[tuple[int, ...], tuple[Any, Any], list[tuple[float, int, float]]] | None:
    """The one Problem-2 walk: every tiling of the product of the per-loop
    ``candidates`` lists, priced by each tuner's :meth:`MiddleTuner._score`
    (the tuners share iterators and a PE array; one per layer when a
    tiling is shared across layers).

    The product is laid out with one broadcast axis per loop, so its C
    order is exactly the order ``itertools.product`` yields.  A grid above
    :attr:`MiddleTuner.CHUNK` rows is walked in C-order slabs of its
    trailing axes, with the loops before them held at one candidate each,
    so peak memory is set by ``CHUNK``, not by the nest.  ``rank`` maps
    the tuners' scores to ``(feasible, value, cost)``: the winner is the
    first feasible tiling of maximal value, then minimal cost.  The
    columns are int64 when every tuner's intermediates over ``candidates``
    stay below 2^53, Python ints otherwise.

    Returns:
        ``(middles, (value, -cost), [(ops/s, BRAM blocks, efficiency)
        per tuner])`` of the winner, or None when no tiling is feasible.
    """
    exact = all(t._within_exact_range(candidates) for t in tuners)
    lists = [t._block_lists(candidates, exact) for t in tuners]
    dims = tuple(len(cand) for cand in candidates)
    depth = len(dims)
    # One broadcast axis per loop: loop l's extents are (1, .., d_l, .., 1).
    grids = [
        [b.reshape((1,) * l + (-1,) + (1,) * (depth - l - 1)) for l, b in enumerate(blocks)]
        for blocks in lists
    ]
    # A slab is the longest run of trailing axes that fits CHUNK rows.  A
    # pruned candidate list is logarithmic in its trip count, so the last
    # axis alone always fits; a full brute-force ladder may not, and is
    # then one slab per leading index.
    lead = 0
    while lead < depth - 1 and math.prod(dims[lead:]) > tuners[0].CHUNK:
        lead += 1
    full = (1,) * lead + dims[lead:]

    best = None
    for fixed in np.ndindex(*dims[:lead]):
        scores = [
            t._score([b[i] for b, i in zip(blocks, fixed)] + grid[lead:], freq_hz, exact)
            for t, blocks, grid in zip(tuners, lists, grids)
        ]
        feasible, value, cost = [_flat(x, full) for x in rank(scores)]
        feasible = np.flatnonzero(feasible)
        if feasible.size == 0:
            continue
        top_value = value[feasible]
        top = feasible[top_value == top_value.max()]
        winner = top[cost[top] == cost[top].min()][0]
        key = (value[winner], -cost[winner])
        if best is None or key > best[0]:
            best = (key, fixed, winner, scores)
    if best is None:
        return None
    key, fixed, winner, scores = best
    positions = fixed + np.unravel_index(winner, dims[lead:])
    middles = tuple(cand[int(i)] for cand, i in zip(candidates, positions))
    at_winner = [
        (float(_at(tp, full, winner)), int(_at(bram, full, winner)), float(_at(eff, full, winner)))
        for tp, bram, eff in scores
    ]
    return middles, key, at_winner


__all__ = [
    "INT_EXACT_LIMIT",
    "MiddleTuner",
    "TunedDesign",
    "middle_candidates",
    "tuning_space_size",
    "walk",
]
