"""Loop-tiling representation of the systolic mapping (paper Fig. 4).

The paper links architecture and program through a three-level tiling of
the original nest:

* **outer loops** — iterate over data blocks (off-chip <-> on-chip),
* **middle loops** (bounds :math:`\\vec s`) — sequential feeding of one
  block from the on-chip reuse buffers into the PE array,
* **inner loops** (bounds :math:`\\vec t`) — the three parallel dimensions
  realized in hardware (PE rows, PE columns, in-PE SIMD vector).

:class:`LoopTiling` records, for every original loop ``l``, the inner bound
``t_l`` (1 unless the loop is one of the three mapped loops) and the middle
bound ``s_l``.  The block then covers ``b_l = s_l * t_l`` consecutive
iterations of loop ``l``, and the outer loop runs ``ceil(N_l / b_l)``
times.  All quantization (DSP-efficiency) math lives here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from repro.ir.domain import IterationDomain
from repro.ir.loop import LoopNest


@dataclass(frozen=True)
class LoopTiling:
    """Per-loop middle (s) and inner (t) bounds for a nest.

    Attributes:
        middle: mapping iterator -> s_l (defaults to 1 where omitted).
        inner: mapping iterator -> t_l (only mapped loops present; their
            values are the PE-array shape).
    """

    middle: tuple[tuple[str, int], ...]
    inner: tuple[tuple[str, int], ...]

    @staticmethod
    def of(
        middle: Mapping[str, int] | None = None, inner: Mapping[str, int] | None = None
    ) -> "LoopTiling":
        """Build a tiling from plain dicts, validating positivity."""
        middle = dict(middle or {})
        inner = dict(inner or {})
        for label, mapping in (("middle", middle), ("inner", inner)):
            for name, value in mapping.items():
                if value < 1:
                    raise ValueError(f"{label} bound for {name!r} must be >= 1, got {value}")
        return LoopTiling(tuple(sorted(middle.items())), tuple(sorted(inner.items())))

    # Built once per instance and shared, so read-only: the simulators
    # call s()/t() per iterator per PE per lane.  cached_property writes
    # to __dict__, which a frozen dataclass allows and which stays out of
    # the field-based equality, hash and repr.

    @cached_property
    def middle_bounds(self) -> dict[str, int]:
        """s_l mapping (only explicitly set entries)."""
        return dict(self.middle)

    @cached_property
    def inner_bounds(self) -> dict[str, int]:
        """t_l mapping (only mapped loops)."""
        return dict(self.inner)

    def s(self, iterator: str) -> int:
        """Middle bound s_l (1 if not set)."""
        return self.middle_bounds.get(iterator, 1)

    def t(self, iterator: str) -> int:
        """Inner bound t_l (1 if the loop is not mapped to the array)."""
        return self.inner_bounds.get(iterator, 1)

    def block_extent(self, iterator: str) -> int:
        """b_l = s_l * t_l, iterations of loop l covered by one block."""
        return self.s(iterator) * self.t(iterator)


@dataclass(frozen=True)
class TiledLoopNest:
    """A loop nest together with a tiling — the Fig. 4 program.

    This is the object the analytical models evaluate: it knows block
    shapes, block counts, executed (padded) iteration counts and the
    iteration domain of one block.
    """

    nest: LoopNest
    tiling: LoopTiling

    def __post_init__(self) -> None:
        bounds = self.nest.bounds
        for name in self.tiling.inner_bounds:
            if name not in bounds:
                raise ValueError(f"inner bound on unknown loop {name!r} in {self.nest.name!r}")
        for name in self.tiling.middle_bounds:
            if name not in bounds:
                raise ValueError(f"middle bound on unknown loop {name!r} in {self.nest.name!r}")

    # ----------------------------------------------------------------- shape

    def block_extent(self, iterator: str) -> int:
        """Iterations of ``iterator`` covered by one block, b_l = s_l * t_l."""
        return self.tiling.block_extent(iterator)

    def block_count(self, iterator: str) -> int:
        """Number of blocks along ``iterator`` (the outer-loop trip count)."""
        return math.ceil(self.nest.bounds[iterator] / self.tiling.block_extent(iterator))

    @property
    def total_blocks(self) -> int:
        """Total outer-loop iterations (product over loops)."""
        total = 1
        for it in self.nest.iterators:
            total *= self.block_count(it)
        return total

    @property
    def block_domain(self) -> IterationDomain:
        """Iteration domain of the middle+inner loops of one (full) block.

        This is :math:`\\mathcal D_{\\vec s, \\vec t}` of Eq. 5.  Block
        extents are *not* clipped here: the hardware buffers are sized for
        a full block even when the last block along a loop is ragged.
        """
        return IterationDomain.of(
            [(it, self.tiling.block_extent(it)) for it in self.nest.iterators]
        )

    @property
    def block_iterations(self) -> int:
        """Middle+inner iterations per block = Π b_l."""
        return self.block_domain.size

    # ------------------------------------------------------------ efficiency

    @property
    def executed_iterations(self) -> int:
        """Iterations actually executed, counting quantization padding.

        Every block runs to its full shape (the systolic schedule cannot
        shorten a wavefront), so the executed count is
        ``Π_l ceil(N_l / b_l) * b_l``.
        """
        total = 1
        for it in self.nest.iterators:
            total *= self.block_count(it) * self.tiling.block_extent(it)
        return total

    @property
    def efficiency(self) -> float:
        """DSP efficiency (paper Eq. 1): effective / executed iterations."""
        return self.nest.total_iterations / self.executed_iterations

    @property
    def executed_iterations_clipped(self) -> int:
        """Executed iterations when ragged *middle* blocks are clipped.

        The middle loops feed the array sequentially, so a hardware
        implementation may shorten the last block's middle trip counts;
        only the inner (spatial) padding is then unavoidable:
        ``prod_l ceil(N_l / t_l) * t_l`` — independent of s.  This is the
        semantics under which the paper's power-of-two tiling pruning is
        exactly optimal; see EXPERIMENTS.md for the discussion.
        """
        total = 1
        for it in self.nest.iterators:
            trip = self.nest.bounds[it]
            t = self.tiling.t(it)
            total *= math.ceil(trip / t) * t
        return total

    def __str__(self) -> str:
        parts = []
        for it in self.nest.iterators:
            parts.append(f"{it}:N={self.nest.bounds[it]},s={self.tiling.s(it)},t={self.tiling.t(it)}")
        return f"TiledLoopNest({self.nest.name}; " + " ".join(parts) + ")"


__all__ = ["LoopTiling", "TiledLoopNest"]
