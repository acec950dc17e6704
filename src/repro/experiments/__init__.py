"""Experiment drivers — one per table/figure of the paper's evaluation,
plus the reproduction's ablations (:mod:`repro.experiments.ablations`).

Each ``run_*`` function regenerates the data behind one exhibit and
returns an :class:`~repro.experiments.common.ExperimentResult` holding
paper-reported values next to this reproduction's measured values.
``python -m repro.experiments`` prints them all; ``tests/experiments``
pins every number to one golden and asserts the paper's claims, and
EXPERIMENTS.md records the outcomes.
"""

from repro.experiments.common import ExperimentResult
from repro.experiments.fig3 import run_fig3_schedule
from repro.experiments.fig7 import run_fig7a_design_space, run_fig7b_model_accuracy
from repro.experiments.pruning import run_section4_pruning
from repro.experiments.sec23 import run_section23_tiling_example
from repro.experiments.table1 import run_table1_shape_impact
from repro.experiments.table2 import run_table2_comparison
from repro.experiments.table3 import run_table3_configs
from repro.experiments.tables45 import run_table4_alexnet, run_table5_vgg

__all__ = [
    "ExperimentResult",
    "run_fig3_schedule",
    "run_fig7a_design_space",
    "run_fig7b_model_accuracy",
    "run_section23_tiling_example",
    "run_section4_pruning",
    "run_table1_shape_impact",
    "run_table2_comparison",
    "run_table3_configs",
    "run_table4_alexnet",
    "run_table5_vgg",
]
