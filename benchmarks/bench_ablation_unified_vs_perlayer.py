"""Ablation — unified design vs per-layer-optimal designs.

The paper deploys one design per network "because it has big performance
overhead to reprogram the FPGA for different layers".  This bench
quantifies what that choice costs: the per-layer optimum (ignoring
reconfiguration) vs the unified design, and the reconfiguration count a
per-layer deployment would pay per image.
"""

from repro.model.platform import Platform
from repro.dse.explore import DseConfig, explore
from repro.dse.multi_layer import prepare_network_nests
from repro.nn.models import alexnet
from repro.experiments.common import ExperimentResult
from repro.experiments.networks import unified_design


def run_ablation() -> ExperimentResult:
    platform = Platform()
    ml, workloads = unified_design("alexnet")
    unified_perf = {l.name: l.throughput_gops for l in ml.layers}

    result = ExperimentResult(
        name="Ablation: unified vs per-layer designs",
        description="AlexNet conv layers: per-layer-optimal estimated GFlops "
        "vs the unified design's achieved GFlops",
        headers=["layer", "per-layer optimal", "unified", "gap"],
    )
    config = DseConfig(min_dsp_utilization=0.8, vector_choices=(8,), top_n=3)
    total_gap = []
    for w in workloads:
        best = explore(w.nest, platform, config).best
        per_layer = best.throughput_gops
        uni = unified_perf[w.name]
        gap = 1 - uni / per_layer
        total_gap.append(gap)
        result.add_row(w.name, f"{per_layer:.1f}", f"{uni:.1f}", f"{gap:.1%}")
    mean_gap = sum(total_gap) / len(total_gap)
    result.metrics["mean_gap"] = mean_gap
    result.metrics["reconfigurations_per_image"] = float(len(workloads) - 1)
    result.note(
        f"per-layer designs would need {len(workloads) - 1} FPGA "
        "reconfigurations per image (each hundreds of ms — orders of "
        "magnitude above the layers themselves), so the unified design's "
        f"{mean_gap:.0%} average throughput sacrifice is the right trade, "
        "as the paper argues."
    )
    return result


def test_ablation_unified_vs_perlayer(exhibit):
    result = exhibit(run_ablation)
    # the unified design concedes something, but far less than
    # reconfiguration would cost
    assert 0.0 <= result.metrics["mean_gap"] < 0.5
