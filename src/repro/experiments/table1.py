"""Table 1 — impact of systolic array shape on performance.

The paper compares two shapes for AlexNet conv5, both mapping
(L1, L3, L2) -> (row, col, vector) at 280 MHz against a 1600-DSP budget:

====  ==========  =========  ========  ===========
sys   shape       DSP util   DSP eff   peak thrpt
====  ==========  =========  ========  ===========
sys1  (11,13,8)   71.5%      96.97%    621 GFlops
sys2  (16,10,8)   80.0%      60.00%*   466 GFlops
====  ==========  =========  ========  ===========

(*) 60.00% is inconsistent with the printed 466 GFlops, which implies
65.00% = 13/20; we report the model's 65.00% and flag the discrepancy.
"""

from __future__ import annotations

from repro.ir.loop import conv_loop_nest
from repro.ir.tiling import LoopTiling, TiledLoopNest
from repro.model.platform import Platform
from repro.model.resources import dsp_usage
from repro.experiments.common import ExperimentResult

PAPER_ROWS = {
    "sys1": {"shape": (11, 13, 8), "dsp_util": 0.715, "dsp_eff": 0.9697, "peak": 621.0},
    "sys2": {"shape": (16, 10, 8), "dsp_util": 0.800, "dsp_eff": 0.6000, "peak": 466.0},
}


def run_table1_shape_impact() -> ExperimentResult:
    """Regenerate Table 1 with the analytical model."""
    platform = Platform(dsp_total_override=1600)
    nest = conv_loop_nest(128, 192, 13, 13, 3, 3, name="alexnet_conv5")
    result = ExperimentResult(
        name="Table 1",
        description="Impact of systolic array shape (AlexNet conv5, 280 MHz, 1600 DSPs)",
        headers=["config", "shape", "DSP util", "DSP eff", "peak GFlops", "source"],
    )
    for label, paper in PAPER_ROWS.items():
        rows, cols, vec = paper["shape"]
        tiled = TiledLoopNest(nest, LoopTiling.of(None, {"o": rows, "c": cols, "i": vec}))
        eff = tiled.efficiency
        util = dsp_usage(rows, cols, vec, platform) / platform.dsp_total
        peak = eff * 2 * rows * cols * vec * platform.assumed_clock_mhz * 1e6 / 1e9
        result.add_row(
            label, f"({rows},{cols},{vec})", f"{paper['dsp_util']:.1%}",
            f"{paper['dsp_eff']:.2%}", f"{paper['peak']:.0f}", "paper",
        )
        result.add_row(
            label, f"({rows},{cols},{vec})", f"{util:.1%}", f"{eff:.2%}",
            f"{peak:.1f}", "ours",
        )
        result.metrics[f"{label}_eff"] = eff
        result.metrics[f"{label}_peak_gflops"] = peak
        result.metrics[f"{label}_dsp_util"] = util
    result.note(
        "sys2: the paper prints DSP eff 60.00% but peak 466 GFlops implies "
        "65.00% (= 13/20); the model reproduces the throughput column exactly "
        "and we attribute the 60.00% to a typo."
    )
    return result


__all__ = ["PAPER_ROWS", "run_table1_shape_impact"]
