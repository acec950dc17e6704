"""Cycle-accurate systolic array engine.

A register-transfer-level model of the architecture in Figs. 1–3: explicit
weight registers shifting right along PE rows, input registers shifting
down PE columns, per-PE SIMD accumulation, and wave tags carried alongside
the data so the engine *asserts* (rather than assumes) that the skewed
injection schedule delivers matching operands to every PE at every cycle.

It executes a complete :class:`~repro.model.design_point.DesignPoint` —
all blocks, all waves — on real tensors and returns the output array plus
cycle statistics.  Exponential in problem size by construction, it is
not a product backend — the flow ships ``fast`` and ``rtl``
(:mod:`repro.sim.backends`) — but the tests' independent oracle, which
they hold both backends to bit for bit; no other ``repro`` module
imports it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.model.design_point import DesignPoint
from repro.sim.fast import EngineResult
from repro.sim.feed import WaveFeeder
from repro.sim.schedule import first_all_active_cycle, wave_schedule_cycles


@dataclass
class _Packet:
    """A datum moving through the array: values + the wave it belongs to."""

    wave: int
    values: list[float]


def simd_dot(weights: Sequence[float], inputs: Sequence[float]) -> float:
    """One PE's SIMD accumulation: lane products added in lane order.

    Every simulator must use this exact operation order (a running sum
    starting from +0.0, one fused nothing — plain IEEE multiply then add
    per lane) so their outputs agree bit-for-bit.  ``np.dot`` delegates
    to BLAS, which is free to reassociate and can differ in the last ulp.
    """
    total = 0.0
    for w, value in zip(weights, inputs):
        total += w * value
    return total


class SystolicArrayEngine:
    """Executes one design point cycle-by-cycle on real tensors."""

    def __init__(self, design: DesignPoint) -> None:
        self.design = design
        self.rows = design.shape.rows
        self.cols = design.shape.cols
        # Boundary streams are shared with the RTL harness (repro.sim.feed)
        # so the two cycle-accurate backends cannot drift apart.
        self._feeder = WaveFeeder(design)

    # ------------------------------------------------------------ execution

    def run(self, arrays: dict[str, np.ndarray]) -> EngineResult:
        """Execute all blocks; returns output + cycle statistics.

        Args:
            arrays: name -> tensor for both read arrays, with shapes large
                enough for the access ranges (the layer's natural shapes).
        """
        output = np.zeros(self._feeder.out_shape)
        flat = output.reshape(-1)

        streams = self._feeder.streams(arrays)
        w_lanes = streams.w.tolist()
        in_lanes = streams.inp.tolist()
        out_keys = streams.out_key.tolist()
        total_cycles = 0
        active_cycles = 0
        for lo, hi in itertools.pairwise(streams.starts):
            cycles, active = self._run_block(
                w_lanes[lo:hi], in_lanes[lo:hi], out_keys[lo:hi], flat
            )
            total_cycles += cycles
            active_cycles += active

        return EngineResult(
            output=output,
            compute_cycles=total_cycles,
            blocks=len(streams.blocks),
            waves=streams.starts[-1],
            pe_active_cycles=active_cycles,
            first_all_active_cycle=first_all_active_cycle(self.rows, self.cols),
        )

    def _run_block(
        self,
        w_lanes: list[list[list[float]]],
        in_lanes: list[list[list[float]]],
        out_keys: list[list[list[int]]],
        flat: np.ndarray,
    ) -> tuple[int, int]:
        """Cycle-accurate pipeline of one block's waves (the block's slice
        of :class:`~repro.sim.feed.WaveStreams`, as lists); accumulates
        into ``flat`` (the output array, C-order flattened).

        Returns (cycles, PE-active cycles).
        """
        rows, cols = self.rows, self.cols
        n_waves = len(w_lanes)
        # Shift registers: one packet (or None) per PE, per direction.
        w_reg: list[list[_Packet | None]] = [[None] * cols for _ in range(rows)]
        in_reg: list[list[_Packet | None]] = [[None] * cols for _ in range(rows)]
        # Per-PE accumulators keyed by flat output element.
        acc: list[list[dict[int, float]]] = [
            [dict() for _ in range(cols)] for _ in range(rows)
        ]

        cycles = wave_schedule_cycles(n_waves, rows, cols)
        active = 0
        for cycle in range(cycles):
            # Shift right-to-left / bottom-to-top so sources are pre-shift.
            for x in range(rows - 1, -1, -1):
                for y in range(cols - 1, -1, -1):
                    w_reg[x][y] = w_reg[x][y - 1] if y > 0 else None
                    in_reg[x][y] = in_reg[x - 1][y] if x > 0 else None
            # Boundary injection with the skewed schedule: row x receives
            # wave (cycle - x), column y receives wave (cycle - y).
            for x in range(rows):
                m = cycle - x
                if 0 <= m < n_waves:
                    w_reg[x][0] = _Packet(m, w_lanes[m][x])
            for y in range(cols):
                m = cycle - y
                if 0 <= m < n_waves:
                    in_reg[0][y] = _Packet(m, in_lanes[m][y])
            # Compute.
            for x in range(rows):
                for y in range(cols):
                    w_pkt, in_pkt = w_reg[x][y], in_reg[x][y]
                    if w_pkt is None or in_pkt is None:
                        continue
                    if w_pkt.wave != in_pkt.wave:
                        raise AssertionError(
                            f"schedule violation at PE({x},{y}) cycle {cycle}: "
                            f"weight wave {w_pkt.wave} vs input wave {in_pkt.wave}"
                        )
                    active += 1
                    key = out_keys[w_pkt.wave][x][y]
                    if key < 0:
                        continue  # padding PE position: no real output element
                    pe_acc = acc[x][y]
                    pe_acc[key] = pe_acc.get(key, 0.0) + simd_dot(
                        w_pkt.values, in_pkt.values
                    )
        # Drain: fold per-PE accumulators into the global output.
        for x in range(rows):
            for y in range(cols):
                for key, value in acc[x][y].items():
                    flat[key] += value
        return cycles, active


__all__ = ["SystolicArrayEngine", "simd_dot"]
