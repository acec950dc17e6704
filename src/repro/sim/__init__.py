"""Systolic array simulation.

This package is the stand-in for the paper's on-board measurements (see
DESIGN.md §1):

* :mod:`repro.sim.schedule` — the wave/skew schedule of Fig. 3 and the
  block/middle/inner index decomposition shared by all simulators;
* :mod:`repro.sim.perf` — the scalable performance simulator: per-block
  compute and DRAM-transfer cycles with double-buffer overlap, producing
  the "measured" layer latencies that Fig. 7(b) compares against the
  analytical model;
* :mod:`repro.sim.fast` — the vectorized wavefront simulator, the
  reference backend: the architecture executed as NumPy batch operations
  over whole waves, fast enough for full Table-2 layers;
* :mod:`repro.sim.rtl` — the generated Verilog executed by a pure-Python
  netlist interpreter (plus the optional iverilog cross-check of the
  interpreter itself), the only cycle-level simulator the flow ships;
  imported on demand, it pulls in the RTL emitter;
* :mod:`repro.sim.backends` — the one ordered table of the two
  wavefront backends above (``fast``, ``rtl``): name, run function,
  iteration budget;
* :mod:`repro.sim.feed` — the boundary-stream gather arithmetic of the
  RTL interpreter;
* :mod:`repro.sim.functional` — functional validation helpers (layer
  simulation on any backend against the NumPy golden model, tiling-
  coverage audits).

:mod:`repro.sim.engine` is not part of the product: it is the cycle
engine the tests keep as an independent oracle for both backends.
"""

from repro.sim.fast import (
    CycleStatistics,
    EngineResult,
    FastWavefrontSimulator,
    cycle_statistics,
)
from repro.sim.functional import audit_tiling_coverage, simulate_layer
from repro.sim.perf import LayerMeasurement, simulate_performance
from repro.sim.schedule import BlockSpec, enumerate_blocks, wave_schedule_cycles
from repro.sim.trace import schedule_waterfall, wave_at

__all__ = [
    "BlockSpec",
    "CycleStatistics",
    "EngineResult",
    "FastWavefrontSimulator",
    "cycle_statistics",
    "LayerMeasurement",
    "audit_tiling_coverage",
    "enumerate_blocks",
    "schedule_waterfall",
    "simulate_layer",
    "simulate_performance",
    "wave_at",
    "wave_schedule_cycles",
]
