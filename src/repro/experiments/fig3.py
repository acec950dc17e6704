"""Figure 3 — cycle-level schedule of the systolic array.

The paper's 3x3 example: PE(0,0) starts at the first cycle; data skews
one cycle per hop; "all PEs are active after five cycles"; thereafter the
array is fully synchronous.  The emitted Verilog, stepped edge by edge
through the netlist interpreter, regenerates these facts on the design
the flow ships: its wave-tag checker (the ``err`` wire) asserts on every
cycle that each PE pairs a weight and an input of the same wave, and its
output is held to the golden convolution.
"""

from __future__ import annotations

import numpy as np

from repro.model.design_point import ArrayShape, DesignPoint
from repro.model.mapping import Mapping
from repro.nn.golden import conv2d_layer, random_layer_tensors
from repro.nn.layers import ConvLayer
from repro.sim.rtl import RtlSimulator
from repro.sim.schedule import first_all_active_cycle, wave_schedule_cycles
from repro.sim.trace import schedule_waterfall
from repro.experiments.common import ExperimentResult


def run_fig3_schedule() -> ExperimentResult:
    """Regenerate the Fig. 3 schedule facts on a 3x3 array."""
    layer = ConvLayer("toy", 4, 6, 7, 7, kernel=3)
    design = DesignPoint.create(
        layer.to_loop_nest(),
        Mapping("o", "c", "i", "IN", "W"),
        ArrayShape(3, 3, 2),
        {"i": 2, "r": 3, "p": 3, "q": 3},
    )
    inputs, weights = random_layer_tensors(layer, seed=42, dtype=np.float64)
    # Unpadded, ungrouped: the nest's output tensor is the layer's.
    rtl = RtlSimulator(design).run({"IN": inputs, "W": weights}).result
    reference = conv2d_layer(layer, inputs, weights)
    max_err = float(np.abs(rtl.output - reference).max())

    result = ExperimentResult(
        name="Figure 3",
        description="Cycle-level scheduling of a 3x3 systolic array",
        headers=["fact", "paper", "ours"],
    )
    all_active = first_all_active_cycle(3, 3) + 1  # 1-indexed "after N cycles"
    result.add_row("all PEs active after", "5 cycles", f"{all_active} cycles")
    result.add_row(
        "block pipeline cost", "M + R + C - 2 cycles",
        f"{wave_schedule_cycles(10, 3, 3)} cycles for M=10",
    )
    result.add_row("schedule wave tags consistent", "(implied)", "asserted every cycle")
    result.add_row("functional vs golden conv", "exact", f"max err {max_err:.2e}")
    result.metrics["all_active_cycle"] = float(all_active)
    result.metrics["max_error"] = max_err
    result.metrics["blocks"] = float(rtl.blocks)
    result.metrics["pe_activity"] = float(rtl.pe_active_cycles)
    result.note("schedule waterfall (cf. the figure):\n" + schedule_waterfall(3, 3, 7))
    return result


__all__ = ["run_fig3_schedule"]
