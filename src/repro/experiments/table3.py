"""Table 3 — the unified design configuration per network.

Paper values (float32, Arria 10 GT1150):

=======  ==========  =========  ====  ====  =====  ====
model    PE shape    freq MHz   LUT   DSP   BRAM   FF
=======  ==========  =========  ====  ====  =====  ====
AlexNet  (11,14,8)   270.8      57%   81%   45%    40%
VGG      (8,19,8)    252.6      59%   81%   47%    40%
=======  ==========  =========  ====  ====  =====  ====

Our DSE runs the same two-phase flow against the frequency surrogate, so
the selected shape and clock are calibration-level matches; the
reproduction targets are (i) a high-utilization shape whose row/column
extents track the networks' loop structure, (ii) a realized clock in the
paper's 220-280 MHz band, and (iii) the resource profile.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult
from repro.experiments.networks import unified_design

PAPER_CONFIGS = {
    "alexnet": {"shape": "(11,14,8)", "freq": 270.8, "lut": 0.57, "dsp": 0.81, "bram": 0.45},
    "vgg16": {"shape": "(8,19,8)", "freq": 252.6, "lut": 0.59, "dsp": 0.81, "bram": 0.47},
}


def run_table3_configs() -> ExperimentResult:
    """Regenerate Table 3 for AlexNet and VGG16 (float32)."""
    result = ExperimentResult(
        name="Table 3",
        description="Unified design per network: shape, clock, resources (float32)",
        headers=["model", "PE shape", "freq MHz", "LUT", "DSP", "BRAM", "source"],
    )
    for name in ("alexnet", "vgg16"):
        paper = PAPER_CONFIGS[name]
        result.add_row(
            name, paper["shape"], f"{paper['freq']:.1f}", f"{paper['lut']:.0%}",
            f"{paper['dsp']:.0%}", f"{paper['bram']:.0%}", "paper",
        )
        ml, _ = unified_design(name)
        result.add_row(
            name,
            str(ml.config.shape),
            f"{ml.frequency_mhz:.1f}",
            f"{ml.logic_utilization:.0%}",
            f"{ml.dsp_utilization:.0%}",
            f"{ml.bram_utilization:.0%}",
            "ours",
        )
        result.metrics[f"{name}_freq_mhz"] = ml.frequency_mhz
        result.metrics[f"{name}_dsp_utilization"] = ml.dsp_utilization
        result.metrics[f"{name}_bram_utilization"] = ml.bram_utilization
        result.metrics[f"{name}_lanes"] = float(ml.config.shape.lanes)
    result.note(
        "shapes differ in detail because the realized-frequency oracle differs "
        "(surrogate vs real P&R); both land >=80% DSP utilization with a "
        "vector of 8 and clocks in the paper's 220-280 MHz band."
    )
    return result


__all__ = ["PAPER_CONFIGS", "run_table3_configs"]
