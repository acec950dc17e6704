"""Cycle-level scheduling math (paper Fig. 3) and block decomposition.

The systolic schedule assigns wave ``m`` (one middle-loop iteration of a
block) to PE ``(x, y)`` at cycle ``m + x + y``: weights skew right one
cycle per column, inputs skew down one cycle per row, so the data a PE
needs from both directions arrives in the same cycle — the paper's
``PE_{x,y}@t`` relation.  Consequences encoded here:

* PE (x, y) is first active at cycle ``x + y``; the whole R x C array is
  active from cycle ``R + C - 2`` on (the "all PEs are active after five
  cycles" fact for the 3 x 3 example);
* a block of M waves completes in ``M + R + C - 2`` cycles.

A block's base and middle index map back to original loop iterations
as ``i_l = base_l + mid_l * t_l + inner_l``, with the inner index being
the PE row / column / SIMD lane for the three mapped loops.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from repro.ir.tiling import TiledLoopNest


def wave_schedule_cycles(waves: int, rows: int, cols: int) -> int:
    """Cycles for one block: M waves through an R x C skewed array."""
    if waves < 0 or rows < 1 or cols < 1:
        raise ValueError("invalid schedule parameters")
    if waves == 0:
        return 0
    return waves + rows + cols - 2


def first_all_active_cycle(rows: int, cols: int) -> int:
    """First cycle at which every PE computes (0-indexed): R + C - 2."""
    return rows + cols - 2


@dataclass(frozen=True)
class BlockSpec:
    """One outer-loop iteration (a data block).

    Attributes:
        bases: iterator -> first original iteration covered.
        middle_counts: iterator -> middle trip count executed in this
            block.  Under padded semantics this is always s_l; under
            clipped semantics the last block along a loop runs only
            ``ceil(remaining / t_l)`` middle steps.
    """

    bases: tuple[tuple[str, int], ...]
    middle_counts: tuple[tuple[str, int], ...]

    @property
    def base_map(self) -> dict[str, int]:
        return dict(self.bases)

    @property
    def middle_map(self) -> dict[str, int]:
        return dict(self.middle_counts)

    @property
    def waves(self) -> int:
        """Middle iterations of the block: M = prod(middle counts)."""
        total = 1
        for _, count in self.middle_counts:
            total *= count
        return total


def enumerate_blocks(tiled: TiledLoopNest, *, clip: bool) -> Iterator[BlockSpec]:
    """All blocks of the tiled nest in outer-loop (nest) order.

    Args:
        tiled: the design's tiled nest.
        clip: clip the last block's middle counts to the loop remainder
            (clipped semantics); False replays the full s everywhere.
    """
    iterators = tiled.nest.iterators
    per_loop = []
    for it in iterators:
        trip = tiled.nest.bounds[it]
        t = tiled.tiling.t(it)
        s = tiled.tiling.s(it)
        block = s * t
        entries = []
        for base in range(0, trip, block):
            if clip:
                remaining = trip - base
                count = min(s, math.ceil(remaining / t))
            else:
                count = s
            entries.append((base, count))
        per_loop.append(entries)
    for combo in itertools.product(*per_loop):
        yield BlockSpec(
            bases=tuple((it, base) for it, (base, _) in zip(iterators, combo)),
            middle_counts=tuple((it, count) for it, (_, count) in zip(iterators, combo)),
        )


def enumerate_waves(block: BlockSpec, iterators: tuple[str, ...]) -> Iterator[dict[str, int]]:
    """Middle index vectors of one block, outermost loop varying slowest."""
    counts = block.middle_map
    ranges = [range(counts[it]) for it in iterators]
    for combo in itertools.product(*ranges):
        yield dict(zip(iterators, combo))


__all__ = [
    "BlockSpec",
    "enumerate_blocks",
    "enumerate_waves",
    "first_all_active_cycle",
    "wave_schedule_cycles",
]
