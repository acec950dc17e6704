"""Ablations — the reproduction's own experiments behind the paper's
arguments.

Each driver isolates one modelling choice the paper makes or leaves
implicit and measures what it is worth:

* **pruning semantics** — power-of-two tiling pruning against full
  brute force, under both readings of a ragged middle block (the fork
  behind Eq. 8 and Section 4's optimality claim);
* **deployment** — the per-layer optimum vs the unified design, run with
  per-layer runtime tiling (ours) and with one shared tiling (the
  paper's literal deployment, Known deviation 3 in EXPERIMENTS.md);
* **roofline baseline** — the Section 1 argument: a directly connected,
  roofline-tuned PE farm (Zhang et al., FPGA'15) against the systolic
  array across DSP budgets;
* **clock surrogate** — whether any conclusion depends on the
  calibration of the post-P&R frequency surrogate.
"""

from __future__ import annotations

from repro.baselines.roofline import roofline_explore
from repro.dse.brute import brute_force_best_middle
from repro.dse.explore import DseConfig, explore
from repro.dse.shared_reuse import tune_shared_reuse
from repro.dse.tuner import MiddleTuner
from repro.hw.frequency import FrequencyModel
from repro.ir.loop import conv_loop_nest
from repro.model.design_point import ArrayShape
from repro.model.mapping import Mapping
from repro.model.platform import Platform
from repro.nn.models import alexnet
from repro.sim.perf import simulate_performance
from repro.experiments.common import ExperimentResult
from repro.experiments.networks import unified_design

PRUNING_MAPPING = Mapping("o", "c", "i", "IN", "W")
PRUNING_SHAPES = (ArrayShape(11, 13, 8), ArrayShape(16, 10, 8), ArrayShape(8, 13, 16))

ROOFLINE_BUDGETS = (128, 256, 512, 1024, 1518)

SURROGATES = {
    "default": FrequencyModel(),
    "slow fabric (-15%)": FrequencyModel(base_mhz=255.0),
    "harsh penalties (x2)": FrequencyModel(dsp_penalty_mhz=50.0, bram_penalty_mhz=30.0),
    "big jitter (x3)": FrequencyModel(jitter_mhz=24.0),
    "no jitter": FrequencyModel(jitter_mhz=0.0),
}


def run_ablation_pruning_semantics() -> ExperimentResult:
    """Brute force vs pow2-only vs pow2+cover tiling, padded and clipped."""
    nest = conv_loop_nest(128, 192, 13, 13, 3, 3, name="alexnet_conv5")
    result = ExperimentResult(
        name="Ablation: pruning semantics",
        description="Tiling search quality: brute force vs pow2-only vs "
        "pow2+cover, under padded and clipped ragged-middle semantics "
        "(AlexNet conv5, GFlops)",
        headers=["semantics", "shape", "brute force", "pow2 only", "pow2+cover",
                 "pow2-only gap"],
    )
    worst_gap = {"padded": 0.0, "clipped": 0.0}
    for semantics in worst_gap:
        platform = Platform(ragged_middle=semantics)
        for shape in PRUNING_SHAPES:
            brute = brute_force_best_middle(nest, PRUNING_MAPPING, shape, platform)
            pow2, cover = (
                MiddleTuner(nest, PRUNING_MAPPING, shape, platform, include_cover=flag).tune()
                for flag in (False, True)
            )
            gap = 1 - pow2.throughput_gops / brute.throughput_gops
            result.add_row(
                semantics, str(shape), f"{brute.throughput_gops:.1f}",
                f"{pow2.throughput_gops:.1f}", f"{cover.throughput_gops:.1f}",
                f"{gap:.1%}",
            )
            key = f"cover_over_brute_{semantics}_{shape.rows}x{shape.cols}x{shape.vector}"
            result.metrics[key] = cover.throughput_gops / brute.throughput_gops
            worst_gap[semantics] = max(worst_gap[semantics], gap)
    result.metrics["pow2_gap_padded"] = worst_gap["padded"]
    result.metrics["pow2_gap_clipped"] = worst_gap["clipped"]
    result.note(
        "clipped semantics: pow2-only is optimal (the paper's claim, under "
        "the semantics that makes it true).  padded semantics: pow2-only "
        "loses up to the shown gap; the cover extension restores optimality."
    )
    return result


def run_ablation_deployment() -> ExperimentResult:
    """Per-layer optimum vs the unified AlexNet design, with runtime and
    with shared tiling."""
    platform = Platform()
    ml, workloads = unified_design("alexnet")
    shared = tune_shared_reuse(workloads, ml.config, platform, frequency_mhz=ml.frequency_mhz)
    runtime = {l.name: l.throughput_gops for l in ml.layers}
    result = ExperimentResult(
        name="Ablation: deployment",
        description=f"AlexNet conv layers, GFlops: per-layer-optimal designs vs "
        f"the unified design {ml.config.shape} @ {ml.frequency_mhz:.1f} MHz with "
        "per-layer runtime tiling (ours) and with one shared tiling (the "
        "paper's deployment)",
        headers=["layer", "per-layer optimum", "unified, runtime tiling",
                 "unified, shared tiling", "runtime-tiling gap", "shared-tiling penalty"],
    )
    config = DseConfig(min_dsp_utilization=0.8, vector_choices=(8,), top_n=3)
    gaps = []
    worst_penalty = 0.0
    for w, layer in zip(workloads, shared.layers):
        per_layer = explore(w.nest, platform, config).best.throughput_gops
        flexible = runtime[w.name]
        gap = 1 - flexible / per_layer
        penalty = 1 - layer.throughput_gops / flexible
        gaps.append(gap)
        worst_penalty = max(worst_penalty, penalty)
        result.add_row(
            w.name, f"{per_layer:.1f}", f"{flexible:.1f}", f"{layer.throughput_gops:.1f}",
            f"{gap:.1%}", f"{penalty:.1%}",
        )
    mean_gap = sum(gaps) / len(gaps)
    result.metrics["mean_gap"] = mean_gap
    result.metrics["reconfigurations_per_image"] = float(len(workloads) - 1)
    result.metrics["shared_aggregate_gops"] = shared.aggregate_gops
    result.metrics["flexible_aggregate_gops"] = ml.aggregate_gops
    result.metrics["aggregate_penalty"] = 1 - shared.aggregate_gops / ml.aggregate_gops
    result.metrics["worst_layer_penalty"] = worst_penalty
    result.note(
        f"per-layer designs would need {len(workloads) - 1} FPGA "
        "reconfigurations per image (each hundreds of ms — orders of "
        "magnitude above the layers themselves), so the unified design's "
        f"{mean_gap:.0%} average throughput sacrifice is the right trade, "
        "as the paper argues."
    )
    result.note(
        f"shared middle bounds: {shared.middle} — one compromise vector "
        "cannot serve layers whose loop extents differ by 4-30x, which is "
        "the mechanism behind the paper's depressed conv1/conv2 rows."
    )
    return result


def run_ablation_roofline_baseline() -> ExperimentResult:
    """Best systolic vs best direct (roofline) design per DSP budget."""
    layer = alexnet().layer("conv5")
    nest = layer.group_view().to_loop_nest()
    result = ExperimentResult(
        name="Ablation: roofline baseline",
        description="Best systolic vs best direct (roofline) design per DSP "
        "budget, AlexNet conv5 float32",
        headers=["DSP budget", "direct GFlops", "direct MHz",
                 "systolic GFlops", "systolic MHz", "systolic/direct"],
    )
    ratios = []
    for budget in ROOFLINE_BUDGETS:
        platform = Platform(dsp_total_override=budget)
        direct = roofline_explore(layer, platform)
        systolic = explore(nest, platform, DseConfig(min_dsp_utilization=0.5, top_n=3)).best
        ratio = systolic.throughput_gops / direct.throughput_gops
        ratios.append(ratio)
        result.add_row(
            budget, f"{direct.throughput_gops:.1f}", f"{direct.frequency_mhz:.0f}",
            f"{systolic.throughput_gops:.1f}",
            f"{systolic.performance.frequency_mhz:.0f}", f"{ratio:.2f}x",
        )
    result.metrics["gap_at_128"] = ratios[0]
    result.metrics["gap_at_1518"] = ratios[-1]
    result.note(
        "the systolic advantage grows with the DSP budget because the "
        "direct design's clock falls with fan-out — the paper's case for "
        "the architecture."
    )
    return result


def run_ablation_clock_surrogate() -> ExperimentResult:
    """The AlexNet conv5 DSE under perturbed clock surrogates."""
    # The nest name seeds the surrogate's jitter: "conv5" is the pinned run.
    nest = conv_loop_nest(128, 192, 13, 13, 3, 3, name="conv5")
    result = ExperimentResult(
        name="Ablation: clock surrogate",
        description="AlexNet conv5 DSE under perturbed clock surrogates",
        headers=["surrogate", "winner shape", "DSP util", "clock MHz",
                 "GFlops", "model-vs-sim err %"],
    )
    utils, errors, gflops = [], [], []
    for label, model in SURROGATES.items():
        platform = Platform(frequency_model=model)
        best = explore(nest, platform, DseConfig(min_dsp_utilization=0.8, top_n=6)).best
        freq = best.performance.frequency_mhz
        measured = simulate_performance(
            best.design, platform, frequency_mhz=freq, streaming=True
        )
        err = abs(best.throughput_gops - measured.throughput_gops) / measured.throughput_gops
        result.add_row(
            label, str(best.design.shape), f"{best.dsp_utilization:.0%}",
            f"{freq:.1f}", f"{best.throughput_gops:.1f}", f"{err * 100:.2f}",
        )
        utils.append(best.dsp_utilization)
        errors.append(err)
        gflops.append(best.throughput_gops)
    result.metrics["min_dsp_utilization"] = min(utils)
    result.metrics["max_model_error"] = max(errors)
    result.metrics["gflops_spread"] = max(gflops) / min(gflops)
    result.note(
        "stable across surrogates: the winner is always a ~96%-utilization "
        "design of the same class and the model tracks the simulator "
        "identically; what moves is the absolute GFlops (with the clock), "
        "which is exactly the deviation EXPERIMENTS.md declares for all "
        "'ours' absolutes."
    )
    return result


__all__ = [
    "run_ablation_clock_surrogate",
    "run_ablation_deployment",
    "run_ablation_pruning_semantics",
    "run_ablation_roofline_baseline",
]
