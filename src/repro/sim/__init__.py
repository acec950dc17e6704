"""Systolic array simulation.

This package is the stand-in for the paper's on-board measurements (see
DESIGN.md §1):

* :mod:`repro.sim.schedule` — the wave/skew schedule of Fig. 3 and the
  block/middle/inner index decomposition shared by all simulators;
* :mod:`repro.sim.engine` — a cycle-accurate register-transfer model of
  the PE array (explicit shift registers, wave tags, per-PE accumulators)
  used to prove functional correctness and the Fig. 3 timing facts on
  small problems;
* :mod:`repro.sim.perf` — the scalable performance simulator: per-block
  compute and DRAM-transfer cycles with double-buffer overlap, producing
  the "measured" layer latencies that Fig. 7(b) compares against the
  analytical model;
* :mod:`repro.sim.fast` — the vectorized wavefront simulator: the same
  architecture executed as NumPy batch operations over whole waves,
  bit-identical to the engine but fast enough for full Table-2 layers;
* :mod:`repro.sim.rtl` — the generated Verilog executed by a pure-Python
  netlist interpreter (plus the optional iverilog cross-check of the
  interpreter itself); imported on demand, it pulls in the RTL emitter;
* :mod:`repro.sim.backends` — the one ordered table of the three
  wavefront backends above (``fast``, ``engine``, ``rtl``): name, run
  function, iteration budget;
* :mod:`repro.sim.feed` — the boundary-stream gather arithmetic shared
  by the cycle engine and the RTL interpreter;
* :mod:`repro.sim.functional` — functional validation helpers (layer
  simulation on any backend against the NumPy golden model, tiling-
  coverage audits).
"""

from repro.sim.engine import EngineResult, SystolicArrayEngine, simd_dot
from repro.sim.fast import CycleStatistics, FastWavefrontSimulator, cycle_statistics
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
    "SystolicArrayEngine",
    "audit_tiling_coverage",
    "enumerate_blocks",
    "schedule_waterfall",
    "simd_dot",
    "simulate_layer",
    "simulate_performance",
    "wave_at",
    "wave_schedule_cycles",
]
