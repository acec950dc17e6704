"""Ablation — systolic array vs direct-interconnect roofline baseline.

The paper's motivating argument (Section 1): loop-unrolled PE farms with
roofline-tuned tiles (Zhang et al., FPGA'15) stop scaling on big devices
because their clock collapses with fan-out, while the systolic array
keeps its frequency.  This bench sweeps the DSP budget and reports both
arms' best designs — the gap must widen with scale and the direct
design's utilization must saturate early.
"""

from repro.ir.loop import conv_loop_nest
from repro.model.platform import Platform
from repro.baselines.roofline import roofline_explore
from repro.nn.models import alexnet
from repro.dse.explore import DseConfig, explore
from repro.experiments.common import ExperimentResult

BUDGETS = (128, 256, 512, 1024, 1518)


def run_ablation() -> ExperimentResult:
    layer = alexnet().layer("conv5")
    nest = layer.group_view().to_loop_nest()
    result = ExperimentResult(
        name="Ablation: architecture comparison",
        description="Best systolic vs best direct (roofline) design per DSP "
        "budget, AlexNet conv5 float32",
        headers=["DSP budget", "direct GFlops", "direct MHz",
                 "systolic GFlops", "systolic MHz", "systolic/direct"],
    )
    gaps = []
    for budget in BUDGETS:
        platform = Platform(dsp_total_override=budget)
        direct = roofline_explore(layer, platform)
        systolic = explore(
            nest, platform, DseConfig(min_dsp_utilization=0.5, top_n=3)
        ).best
        ratio = systolic.throughput_gops / direct.throughput_gops
        gaps.append((budget, ratio))
        result.add_row(
            budget, f"{direct.throughput_gops:.1f}", f"{direct.frequency_mhz:.0f}",
            f"{systolic.throughput_gops:.1f}",
            f"{systolic.performance.frequency_mhz:.0f}", f"{ratio:.2f}x",
        )
    result.metrics["gap_at_128"] = gaps[0][1]
    result.metrics["gap_at_1518"] = gaps[-1][1]
    result.note(
        "the systolic advantage grows with the DSP budget because the "
        "direct design's clock falls with fan-out — the paper's case for "
        "the architecture."
    )
    return result


def test_ablation_roofline_baseline(exhibit):
    result = exhibit(run_ablation)
    assert result.metrics["gap_at_1518"] > result.metrics["gap_at_128"]
    assert result.metrics["gap_at_1518"] > 3.0
