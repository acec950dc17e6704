"""Design-space exploration (paper Section 4).

Two problems (Section 3.5):

* **Problem 1** — enumerate feasible systolic configurations (mapping
  vector k + inner bounds t): :class:`repro.dse.vector.CandidateTable`,
  pruned by the DSP-utilization lower bound (Eq. 12);
* **Problem 2** — for each configuration find the middle bounds s that
  maximize throughput under the BRAM budget: :mod:`repro.dse.tuner`,
  pruned to power-of-two candidates (the BRAM rounding argument).

:mod:`repro.dse.explore` drives the two-phase flow of Fig. 5 (analytical
filtering, then frequency realization for the top designs);
:mod:`repro.dse.brute` is the exhaustive baseline (the paper's "roughly
311 hours" arm, run on reduced spaces); :mod:`repro.dse.multi_layer`
selects the single unified design per network used in Tables 3–5.
"""

from repro.dse.brute import brute_force_best_middle, brute_force_space_size
from repro.dse.explore import DseConfig, NoFeasibleDesign, Phase1Result, Phase2Result, explore
from repro.dse.parallel import resolve_jobs
from repro.dse.multi_layer import MultiLayerResult, prepare_network_nests, select_unified_design
from repro.dse.pareto import ParetoPoint, knee_point, pareto_frontier
from repro.dse.shared_reuse import SharedReuseResult, tune_shared_reuse
from repro.dse.space import SystolicConfig
from repro.dse.tuner import MiddleTuner, middle_candidates, tuning_space_size
from repro.dse.vector import count_design_space

__all__ = [
    "DseConfig",
    "MiddleTuner",
    "MultiLayerResult",
    "NoFeasibleDesign",
    "ParetoPoint",
    "Phase1Result",
    "Phase2Result",
    "SharedReuseResult",
    "SystolicConfig",
    "brute_force_best_middle",
    "brute_force_space_size",
    "count_design_space",
    "explore",
    "knee_point",
    "middle_candidates",
    "pareto_frontier",
    "prepare_network_nests",
    "resolve_jobs",
    "select_unified_design",
    "tune_shared_reuse",
    "tuning_space_size",
]
