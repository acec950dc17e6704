"""Analytical models (paper Section 3).

Everything the DSE needs to describe a candidate design without touching
hardware: the feasible-mapping condition (Eq. 2/3), the DSP and logic
models (Eq. 4), and the records of the BRAM (Eq. 5/6) and throughput
(Eq. 1, 7–10) verdicts, bundled around two containers:

* :class:`~repro.model.platform.Platform` — device + datatype + memory +
  frequency surrogate + model calibration constants;
* :class:`~repro.model.design_point.DesignPoint` — one fully specified
  candidate design (nest, mapping, PE-array shape, tiling).

Eq. 1 and 5–10 themselves have one copy, the DSE's tiling kernel
(:class:`repro.dse.tuner.MiddleTuner`); :meth:`DesignPoint.evaluate` is a
one-row call into it, so a design's evaluation is the number the search
ranked it by.
"""

from repro.model.design_point import ArrayShape, DesignEvaluation, DesignPoint
from repro.model.mapping import Mapping, array_roles, feasible_mappings, is_feasible
from repro.model.performance import PerformanceEstimate
from repro.model.platform import Platform
from repro.model.serialize import (
    design_from_dict,
    design_to_dict,
    load_design,
    save_design,
)
from repro.model.resources import BramBreakdown, dsp_usage, logic_usage

__all__ = [
    "ArrayShape",
    "BramBreakdown",
    "DesignEvaluation",
    "DesignPoint",
    "Mapping",
    "PerformanceEstimate",
    "Platform",
    "array_roles",
    "dsp_usage",
    "design_from_dict",
    "design_to_dict",
    "feasible_mappings",
    "load_design",
    "save_design",
    "is_feasible",
    "logic_usage",
]
