"""The wavefront-simulator backends, as one ordered table.

Two executors run a design on operand tensors and return the same
:class:`~repro.sim.fast.EngineResult`, bit for bit
(:func:`repro.verify.conformance.cross_check` holds them to it): ``fast``,
the vectorized reference, and ``rtl``, the emitted Verilog stepped by the
netlist interpreter — the product's only cycle-level simulator.  This
table is the only place that knows their class names, the
``RtlRun.result`` unwrap and their iteration budgets; the simulate
stage, :func:`repro.sim.functional.simulate_layer` and the conformance
matrix resolve a backend by name here (``docs/simulation.md``, "Choosing
a backend").  Entries construct their simulator at call time, so
rebinding a class's ``run`` (tracing, fault rehearsal) is seen by every
caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.model.design_point import DesignPoint
from repro.sim.fast import EngineResult, FastWavefrontSimulator

#: The counters every backend reports besides the output tensor.
COUNTERS = (
    "blocks", "waves", "compute_cycles", "pe_active_cycles", "first_all_active_cycle",
)


@dataclass(frozen=True)
class SimBackend:
    """One way to execute a design on operand tensors.

    Attributes:
        name: the table key (``--sim-backend`` / ``backend=`` value).
        run: ``(design, arrays) -> EngineResult``.
        budget: largest ``nest.total_iterations`` the backend is asked
            to run (None = unbounded).
    """

    name: str
    run: Callable[[DesignPoint, dict[str, np.ndarray]], EngineResult]
    budget: int | None

    def over_budget(self, design: DesignPoint, limit: int | None = None) -> int | None:
        """The budget ``design`` exceeds (``limit`` overriding the
        backend's own), or None when the run is affordable."""
        limit = self.budget if limit is None else limit
        if limit is not None and design.nest.total_iterations > limit:
            return limit
        return None


def _run_fast(design: DesignPoint, arrays: dict[str, np.ndarray]) -> EngineResult:
    return FastWavefrontSimulator(design).run(arrays)


def _run_rtl(design: DesignPoint, arrays: dict[str, np.ndarray]) -> EngineResult:
    # Imported here: repro.sim.rtl pulls in the RTL code generator.
    from repro.sim.rtl import RtlSimulator

    return RtlSimulator(design).run(arrays).result


#: Name -> backend, reference first.  Every later entry is held
#: bit-identical to the first by the conformance matrix.  The RTL
#: interpreter steps every net of every edge, so it carries a budget:
#: runs above it are skipped (conformance) or refused (simulate stage),
#: not attempted.
WAVEFRONT_BACKENDS: dict[str, SimBackend] = {
    backend.name: backend
    for backend in (
        SimBackend("fast", _run_fast, None),
        SimBackend("rtl", _run_rtl, 200_000),
    )
}

DEFAULT_RTL_ITERATION_LIMIT = WAVEFRONT_BACKENDS["rtl"].budget


__all__ = [
    "COUNTERS",
    "DEFAULT_RTL_ITERATION_LIMIT",
    "SimBackend",
    "WAVEFRONT_BACKENDS",
]
