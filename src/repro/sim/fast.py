"""Fast vectorized wavefront simulator — the reference backend.

The emitted RTL (:mod:`repro.sim.rtl`) steps every net of the array one
clock edge at a time.  This module simulates the *same architecture* —
the same block/wave decomposition, the same skewed injection schedule,
the same per-PE SIMD accumulation — as NumPy batch operations over whole
waves:

* **skewed injection as index arithmetic** — wave ``m`` meets PE
  ``(x, y)`` at cycle ``m + x + y``, so the set of (wave, PE) pairings is
  known in closed form and never needs shift registers;
* **flat separable gathers** — every subscript is affine, so an
  operand's offset into the raveled tensor is ``A[m] + c_pos * position
  + c_vec * lane``: one broadcast add, one ``take`` and one mask per
  operand per chunk of waves, whatever the tensor's rank;
* **SIMD accumulation in lane order** — per-PE dot products are
  evaluated lane-by-lane (``D += W_lane * I_lane``, a running sum from
  +0.0: the order the emitted PE's MAC chain performs), over
  ``(position, wave)`` planes whose wave axis is contiguous, and folded
  into the accumulators with ``np.add.at`` (unbuffered, applied in array
  order), so every accumulator sees the same IEEE additions in the same
  order as a per-PE accumulator would;
* **one accumulator plane per PE coordinate the output does not already
  determine** — the array keeps an accumulator per PE, but when the row
  (column) iterator is itself an output subscript, the element fixes
  ``x`` (``y``): no two PEs of that axis share an element, the
  row-major drain adds exactly one non-zero to it, and one plane of the
  block's output footprint holds what ``R`` (``C``) planes held
  (``OUT[o][r][c]`` with ``row=o, col=c``: 1 plane, not ``R * C``);
* **cache-sized chunks** — ``chunk_entries`` bounds the (wave, PE)
  products alive at once; the default keeps the two product planes of a
  chunk inside L2, where the lane loop runs twice as fast as on
  RAM-sized chunks;
* **closed-form cycle accounting** — a block of M waves takes
  ``M + R + C - 2`` cycles and keeps every PE busy for exactly
  ``M * R * C`` PE-cycles, so the counters need no cycle loop at all.

The result is **bit-identical** to the interpreted RTL on every design
the RTL lowers, and to the tests' cycle engine on all of them — the
output tensor equal with ``==``, every counter equal — while full Table-2 layer
shapes complete in well under a second (see
``benchmarks/bench_sim_fast.py`` and ``docs/simulation.md``).
:class:`EngineResult`, the result every wavefront backend returns, is
defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.ir.access import ArrayAccess
from repro.model.design_point import DesignPoint
from repro.resilience.faults import maybe_inject
from repro.sim.schedule import (
    BlockSpec,
    enumerate_blocks,
    first_all_active_cycle,
    wave_schedule_cycles,
)


@dataclass(frozen=True)
class EngineResult:
    """Outcome of one wavefront-simulator run (any backend).

    Attributes:
        output: dense output array (shape from the written access ranges).
        compute_cycles: total cycles spent in block pipelines.
        blocks: number of blocks executed.
        waves: total waves (middle iterations) executed.
        pe_active_cycles: total PE-cycle activity (for utilization).
        first_all_active_cycle: cycle (within a block) when the whole
            array first computes — Fig. 3's "after five cycles" fact.
    """

    output: np.ndarray
    compute_cycles: int
    blocks: int
    waves: int
    pe_active_cycles: int
    first_all_active_cycle: int


@dataclass(frozen=True)
class CycleStatistics:
    """Closed-form cycle accounting for a design (no simulation run).

    These are the analytical counterparts of the simulator counters, derived
    from the tiling alone: under clipped-middle semantics loop ``l``
    contributes ``ceil(N_l / t_l)`` middle steps in total, so

    * ``waves  = prod_l ceil(N_l / t_l)``,
    * ``compute_cycles = waves + blocks * (R + C - 2)`` (every block pays
      one pipeline fill/drain of ``R + C - 2`` cycles),
    * ``pe_active_cycles = waves * R * C`` (each wave sweeps the array).

    The conformance harness (:mod:`repro.verify`) checks the simulators'
    emergent counters against these formulas exactly.
    """

    blocks: int
    waves: int
    compute_cycles: int
    pe_active_cycles: int
    first_all_active_cycle: int


def cycle_statistics(design: DesignPoint) -> CycleStatistics:
    """Closed-form :class:`CycleStatistics` of a design (clipped middles)."""
    nest = design.nest
    tiling = design.tiling
    waves = 1
    for it in nest.iterators:
        waves *= math.ceil(nest.bounds[it] / tiling.t(it))
    blocks = design.tiled.total_blocks
    rows, cols = design.shape.rows, design.shape.cols
    return CycleStatistics(
        blocks=blocks,
        waves=waves,
        compute_cycles=waves + blocks * (rows + cols - 2),
        pe_active_cycles=waves * rows * cols,
        first_all_active_cycle=first_all_active_cycle(rows, cols),
    )


#: A read tensor raveled to float64, and its access as one flat affine
#: offset: (values, constant, iterator -> coefficient).
_Operand = tuple[np.ndarray, int, dict[str, int]]


class FastWavefrontSimulator:
    """Vectorized execution of one design point; RTL-bit-identical.

    Same constructor and :meth:`run` contract as
    :class:`~repro.sim.rtl.RtlSimulator`, returning an :class:`EngineResult`.

    Args:
        design: the design point to execute.
        chunk_entries: soft cap on the number of (wave, PE) entries
            materialized at once (cache/latency knob; any value gives
            the same bits because chunks preserve wave order).
    """

    #: Refuse accumulation buffers above this many float64 slots (1 GiB).
    MAX_ACC_ENTRIES = 1 << 27

    def __init__(self, design: DesignPoint, *, chunk_entries: int = 1 << 16) -> None:
        self.design = design
        self.nest = design.nest
        self.mapping = design.mapping
        self.rows = design.shape.rows
        self.cols = design.shape.cols
        self.vector = design.shape.vector
        self._chunk_entries = max(1, chunk_entries)
        self._iterators = self.nest.iterators
        self._bounds = self.nest.bounds
        self._out_access = self.nest.output
        reads = {a.array: a for a in self.nest.reads}
        self._w_access = reads[self.mapping.horizontal_array]
        self._in_access = reads[self.mapping.vertical_array]
        for access in (self._out_access, self._w_access, self._in_access):
            for expr in access.indices:
                if expr.const < 0 or any(c < 0 for _, c in expr.terms):
                    raise ValueError(
                        f"fast simulator requires non-negative subscripts; "
                        f"{access} is outside the systolizable subset"
                    )
        # The plane rule: an output subscript that is exactly one array
        # iterator (coefficient 1) pins that PE coordinate — i = base +
        # mid * t + x with 0 <= x < t — so no two PEs along that axis can
        # share an output element and the axis needs no accumulator planes.
        bare = {
            expr.terms[0][0]
            for expr in self._out_access.indices
            if len(expr.terms) == 1 and expr.terms[0][1] == 1
        }
        row_planes = 1 if self.mapping.row in bare else self.rows
        col_planes = 1 if self.mapping.col in bare else self.cols
        #: Accumulator copies of a block's output footprint.
        self.accumulator_planes = row_planes * col_planes
        # plane of PE (x, y) = x * step[0] + y * step[1]: row-major over
        # the coordinates that kept their planes, the array's drain order
        self._plane_step = (col_planes if row_planes > 1 else 0, 1 if col_planes > 1 else 0)
        self._x_idx = np.arange(self.rows, dtype=np.int64)
        self._y_idx = np.arange(self.cols, dtype=np.int64)
        self._v_idx = np.arange(self.vector, dtype=np.int64)

    # ------------------------------------------------------------ execution

    def run(self, arrays: dict[str, np.ndarray]) -> EngineResult:
        """Execute all blocks; returns output + cycle statistics.

        Args:
            arrays: name -> tensor for both read arrays, with shapes large
                enough for the access ranges (the layer's natural shapes).
        """
        out_shape = tuple(
            expr.value_range(self._bounds)[1] + 1 for expr in self._out_access.indices
        )
        output = np.zeros(out_shape)
        operands = tuple(
            self._flat_operand(access, arrays[access.array])
            for access in (self._w_access, self._in_access)
        )

        total_cycles = 0
        total_waves = 0
        active_cycles = 0
        blocks = 0
        for block in enumerate_blocks(self.design.tiled, clip=True):
            maybe_inject("sim.step")  # chaos hook; simulator state is pure
            blocks += 1
            waves = block.waves
            total_waves += waves
            total_cycles += wave_schedule_cycles(waves, self.rows, self.cols)
            # A PE counts as active whenever a wave reaches it,
            # padding positions included: M waves x R x C PEs per block.
            active_cycles += waves * self.rows * self.cols
            self._run_block(block, operands, output)

        return EngineResult(
            output=output,
            compute_cycles=total_cycles,
            blocks=blocks,
            waves=total_waves,
            pe_active_cycles=active_cycles,
            first_all_active_cycle=first_all_active_cycle(self.rows, self.cols),
        )

    # ------------------------------------------------------------ one block

    def _run_block(
        self, block: BlockSpec, operands: tuple[_Operand, _Operand], output: np.ndarray
    ) -> None:
        rows, cols, vector = self.rows, self.cols, self.vector
        iterators = self._iterators
        counts = tuple(count for _, count in block.middle_counts)
        total_waves = block.waves
        bases = block.base_map
        t = self.design.tiling.t
        row_it, col_it, vec_it = self.mapping.row, self.mapping.col, self.mapping.vector

        # Accumulators: `planes` copies of the block's output footprint,
        # which is a box in index space because every subscript is affine
        # with non-negative coefficients (checked in __init__), plus one
        # dump slot that swallows the padding PEs' products.
        box_lo, box_hi = self._output_box(block, output.shape)
        box_shape = tuple(hi - lo + 1 for lo, hi in zip(box_lo, box_hi))
        box_size = math.prod(box_shape)
        planes = self.accumulator_planes
        if planes * box_size > self.MAX_ACC_ENTRIES:
            raise ValueError(
                f"block output footprint {box_shape} x {planes} accumulator "
                f"planes exceeds the fast simulator's accumulator budget"
            )
        dump = planes * box_size
        acc = np.zeros(dump + 1)

        # Output slot of (wave m, PE (x, y)) = slot_wave[m] + slot_pe[x, y]:
        # the element's offset in the box is affine in the iterators, and
        # the plane is the PE coordinates the element does not determine.
        x_idx, y_idx, v_idx = self._x_idx, self._y_idx, self._v_idx
        out_const, out_coeff = _flat_terms(self._out_access, box_shape, box_lo)
        row_step = out_coeff.get(row_it, 0) + self._plane_step[0] * box_size
        col_step = out_coeff.get(col_it, 0) + self._plane_step[1] * box_size
        slot_pe = (row_step * x_idx[:, None] + col_step * y_idx[None, :])[:, :, None]

        per_entry = max(rows * cols, rows * vector, cols * vector)
        chunk = min(total_waves, max(1, self._chunk_entries // per_entry))
        dots_buf = np.empty((rows, cols, chunk))
        lane_buf = np.empty((rows, cols, chunk))
        for m0 in range(0, total_waves, chunk):
            n = min(chunk, total_waves - m0)
            # Wave index -> middle vector, outermost loop slowest (the
            # enumerate_waves order the feeder streams); then i_l = base_l
            # + mid_l * t_l at lane 0 for every iterator.
            middles = np.unravel_index(np.arange(m0, m0 + n), counts)
            vals = {it: bases[it] + mid * t(it) for it, mid in zip(iterators, middles)}
            mask_row = vals[row_it] + x_idx[:, None] < self._bounds[row_it]
            mask_col = vals[col_it] + y_idx[:, None] < self._bounds[col_it]
            mask_vec = vals[vec_it] + v_idx[:, None] < self._bounds[vec_it]
            # Every iterator the array does not unroll, inside its bound.
            ok_rest = np.ones(n, dtype=bool)
            for it in iterators:
                if it not in (row_it, col_it, vec_it):
                    ok_rest &= vals[it] < self._bounds[it]

            # Operand gathers, lane-major: the weight vector entering row
            # x (taken at column 0), the input vector entering column y
            # (taken at row 0) — the feeder's w / inp streams — as
            # (lane, position, wave) planes.
            w_mask = mask_vec[:, None, :] & (mask_row & mask_col[0] & ok_rest)
            w_vals = self._gather(operands[0], vals, w_mask, row_it, x_idx)
            in_mask = mask_vec[:, None, :] & (mask_col & mask_row[0] & ok_rest)
            in_vals = self._gather(operands[1], vals, in_mask, col_it, y_idx)

            # Per-PE SIMD dot, lane order = simd_dot order (a running sum
            # seeded with +0.0, one multiply then one add per lane).
            dots, lane = dots_buf[:, :, :n], lane_buf[:, :, :n]
            dots.fill(0.0)
            for v in range(vector):
                np.multiply(w_vals[v][:, None, :], in_vals[v][None, :, :], out=lane)
                dots += lane

            # A PE position is real (non-padding) when every non-vector
            # iterator stays inside its original bound at lane 0.
            compute_mask = mask_row[:, None, :] & (mask_col & ok_rest)[None, :, :]
            slot = np.where(compute_mask, slot_pe + _affine(out_const, out_coeff, vals), dump)
            # np.add.at is unbuffered: entries land in array order.  A slot
            # belongs to one PE (the plane rule), and each PE's entries are
            # wave-ordered here — a per-PE accumulator's add order.
            np.add.at(acc, slot.ravel(), dots.ravel())

        # Drain in the array's order: PEs row-major, one add per touched
        # element.  Untouched box slots add +0.0, which cannot change any
        # bit: accumulators and outputs are sums seeded with +0.0 and can
        # never hold -0.0.  Along an axis the plane rule collapsed, at most
        # one PE holds a given element, so its plane *is* that one add.
        region = output[tuple(slice(lo, hi + 1) for lo, hi in zip(box_lo, box_hi))]
        for index in range(planes):
            region += acc[index * box_size : (index + 1) * box_size].reshape(box_shape)

    # -------------------------------------------------------------- helpers

    def _output_box(
        self, block: BlockSpec, out_shape: tuple[int, ...]
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Inclusive per-dimension bounds of the block's output footprint.

        The lower corner is attained by the always-valid first wave at
        PE (0, 0); the upper corner is clamped to the tensor so padding
        waves (masked out anyway) cannot inflate the box.
        """
        bases = block.base_map
        t = self.design.tiling.t
        extent = {self.mapping.row: self.rows - 1, self.mapping.col: self.cols - 1}
        last = {
            it: bases[it] + (count - 1) * t(it) + extent.get(it, 0)
            for it, count in block.middle_counts
        }
        lo = self._out_access.evaluate(bases)
        hi = self._out_access.evaluate(last)
        return lo, tuple(min(h, n - 1) for h, n in zip(hi, out_shape))

    def _flat_operand(self, access: ArrayAccess, source: np.ndarray) -> _Operand:
        """The raveled float64 tensor and its flat affine access terms."""
        reach = tuple(expr.value_range(self._bounds)[1] + 1 for expr in access.indices)
        if len(reach) != source.ndim or any(r > n for r, n in zip(reach, source.shape)):
            # per-dimension fancy indexing raised here; a flat offset would
            # silently land in the next row
            raise IndexError(
                f"{access.array} of shape {source.shape} is too small for "
                f"{access} (needs {reach})"
            )
        source = np.ascontiguousarray(source, dtype=np.float64)
        return (source.reshape(-1), *_flat_terms(access, source.shape))

    def _gather(
        self,
        operand: _Operand,
        vals: dict[str, np.ndarray],
        mask: np.ndarray,
        pos_it: str,
        pos_idx: np.ndarray,
    ) -> np.ndarray:
        """Masked flat gather: (lanes, positions, waves) float64 values.

        Matches the feeder's gather: any iterator past its original
        bound makes the value 0.0 (quantization padding contributes
        nothing); in-bounds values come from one ``take`` at
        ``A[m] + c_pos * position + c_vec * lane``.
        """
        flat, const, coeff = operand
        offset = (
            _affine(const, coeff, vals)
            + coeff.get(pos_it, 0) * pos_idx[:, None]
            + coeff.get(self.mapping.vector, 0) * self._v_idx[:, None, None]
        )
        # Padding offsets may exceed the tensor; point them at 0 and let
        # the mask zero the fetched value.
        return np.where(mask, flat.take(np.where(mask, offset, 0)), 0.0)


def _flat_terms(
    access: ArrayAccess, shape: tuple[int, ...], origin: tuple[int, ...] | None = None
) -> tuple[int, dict[str, int]]:
    """``access`` (minus ``origin``) as one affine flat offset into a
    C-contiguous ``shape``: (constant, iterator -> coefficient)."""
    const = 0
    coeff: dict[str, int] = {}
    for dim, expr in enumerate(access.indices):
        stride = math.prod(shape[dim + 1 :])
        const += stride * (expr.const - (origin[dim] if origin else 0))
        for name, c in expr.terms:
            coeff[name] = coeff.get(name, 0) + stride * c
    return const, coeff


def _affine(const: int, coeff: dict[str, int], vals: dict[str, np.ndarray]) -> np.ndarray | int:
    """``const + sum(coeff[it] * vals[it])`` per wave."""
    return const + sum(c * vals[name] for name, c in coeff.items())


__all__ = ["CycleStatistics", "EngineResult", "FastWavefrontSimulator", "cycle_statistics"]
