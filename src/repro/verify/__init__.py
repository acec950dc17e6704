"""Differential conformance: every estimate of the array must agree.

The paper validates its claims with three independent views of the same
computation — the analytical performance model, a cycle-level simulation
and on-board measurement.  This package is the reproduction's equivalent
court of appeal: :func:`cross_check` runs a design point through every
oracle the repository has and demands that they agree,

* **fast vs. golden** — the simulated output tensor must match an
  independent NumPy evaluation of the loop nest (and, for conv layers,
  the golden convolution) within a documented floating-point tolerance;
* **cycles vs. model** — the simulator's emergent cycle counters must
  equal the closed-form analytical counts (Eq. 5 block domain under
  clipped middles) exactly, fill/drain overhead included;
* **rtl vs. fast** (with ``rtl=True``) — the emitted Verilog, stepped
  cycle by cycle through the netlist interpreter (:mod:`repro.sim.rtl`),
  must reproduce the vectorized simulator's
  :class:`~repro.sim.fast.EngineResult` *bit-for-bit* and the model's
  cycle counts exactly (small problems only: the interpreter steps every
  net of every edge).

Disagreements are reported as structured ``SA4xx`` diagnostics in the
:mod:`repro.analysis` format, so the ``systolic-synth verify`` CLI and
the pipeline's differential ``--sim-backend both`` mode fail loudly and
machine-readably.  See ``docs/simulation.md`` for the conformance matrix
and tolerance policy.
"""

from repro.verify.conformance import (
    DEFAULT_REL_TOL,
    ConformanceReport,
    LegResult,
    cross_check,
    golden_nest_output,
    synthetic_arrays,
)

__all__ = [
    "ConformanceReport",
    "DEFAULT_REL_TOL",
    "LegResult",
    "cross_check",
    "golden_nest_output",
    "synthetic_arrays",
]
