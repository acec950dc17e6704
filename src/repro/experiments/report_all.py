"""Regenerate every paper exhibit in one run.

Usage::

    python -m repro.experiments               # all fourteen exhibits (seconds)
    python -m repro.experiments -o report.txt

Runs all table/figure drivers in paper order, then the reproduction's
own ablations, and emits one combined report.  ``tests/experiments``
runs the same :data:`DRIVERS`, pins every number they print to one
golden and asserts the paper's claims on them; this module is the front
end for reading everything at once.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable

from repro.experiments.ablations import (
    run_ablation_clock_surrogate,
    run_ablation_deployment,
    run_ablation_pruning_semantics,
    run_ablation_roofline_baseline,
)
from repro.experiments.common import ExperimentResult
from repro.experiments.fig3 import run_fig3_schedule
from repro.experiments.fig7 import run_fig7a_design_space, run_fig7b_model_accuracy
from repro.experiments.pruning import run_section4_pruning
from repro.experiments.sec23 import run_section23_tiling_example
from repro.experiments.table1 import run_table1_shape_impact
from repro.experiments.table2 import run_table2_comparison
from repro.experiments.table3 import run_table3_configs
from repro.experiments.tables45 import run_table4_alexnet, run_table5_vgg


DRIVERS: list[tuple[str, Callable[[], ExperimentResult]]] = [
    ("Table 1", run_table1_shape_impact),
    ("Section 2.3", run_section23_tiling_example),
    ("Figure 3", run_fig3_schedule),
    ("Section 4", run_section4_pruning),
    ("Figure 7(a)", run_fig7a_design_space),
    ("Figure 7(b)", run_fig7b_model_accuracy),
    ("Table 3", run_table3_configs),
    ("Table 4", run_table4_alexnet),
    ("Table 5", run_table5_vgg),
    ("Table 2", run_table2_comparison),
    ("Ablation: pruning semantics", run_ablation_pruning_semantics),
    ("Ablation: deployment", run_ablation_deployment),
    ("Ablation: roofline baseline", run_ablation_roofline_baseline),
    ("Ablation: clock surrogate", run_ablation_clock_surrogate),
]
"""(label, zero-arg driver) pairs: the paper's exhibits in paper order,
then the ablations."""


def generate_report(*, echo: bool = True) -> str:
    """Run every driver; return (and optionally stream) the combined text."""
    sections = []
    header = (
        "Reproduction report — Wei et al., 'Automated Systolic Array "
        "Architecture Synthesis for High Throughput CNN Inference on "
        "FPGAs' (DAC 2017)"
    )
    sections.append(header)
    sections.append("=" * min(len(header), 78))
    for label, driver in DRIVERS:
        start = time.perf_counter()
        result = driver()
        elapsed = time.perf_counter() - start
        block = result.format() + f"\n  [{label} regenerated in {elapsed:.1f} s]"
        sections.append(block)
        if echo:
            print(block, flush=True)
            print()
    return "\n\n".join(sections) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate every table and figure of the paper.",
    )
    parser.add_argument("-o", "--output", help="also write the report to a file")
    args = parser.parse_args(argv)
    report = generate_report()
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report)
        print(f"report written to {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())


__all__ = ["DRIVERS", "generate_report", "main"]
