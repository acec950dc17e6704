"""Table 2 — end-to-end comparison with prior FPGA CNN accelerators.

The literature rows are published constants (they cannot be re-measured
here); the three "ours" rows are regenerated with this reproduction's
DSE + simulator:

* AlexNet float32, VGG float32, VGG fixed 8/16-bit;
* latency/image = conv latency (performance simulator, all groups,
  folded conv1) + FC latency (FC layers are weight-bound: weights stream
  once per batch, so FC time/image = weight bytes / (bandwidth x batch);
  the paper converts FC to conv and batches it per Caffeine — we use the
  same model with a batch of 8, see DESIGN.md);
* throughput = total effective ops / latency.

Reproduction targets are the *relationships*: ours-float beats every
non-Winograd float design; [17] (Winograd) and [26] (hand-tuned RTL)
remain faster, as the paper concedes; fixed beats float by ~2-2.5x;
AlexNet latency is an order of magnitude below VGG's.
"""

from __future__ import annotations

from repro.baselines.literature import LITERATURE_ROWS, PAPER_OURS_ROWS
from repro.model.design_point import DesignPoint
from repro.model.platform import Platform
from repro.hw.datatype import FIXED_8_16, FLOAT32
from repro.sim.perf import simulate_performance
from repro.experiments.common import ExperimentResult
from repro.experiments.networks import network_by_name, unified_design

FC_BATCH = 8
"""Images sharing one FC weight load (Caffeine-style batching)."""


def fc_latency_seconds(network_name: str, platform: Platform) -> float:
    """Per-image latency of the FC layers: weight-transfer bound, one
    weight load per :data:`FC_BATCH` images."""
    network = network_by_name(network_name)
    weight_bytes = sum(
        fc.in_features * fc.out_features * platform.datatype.weight_bytes
        for fc in network.fc_layers
    )
    return weight_bytes / platform.memory.total_bytes_per_second / FC_BATCH


def _ours_row(network_name: str, *, fixed_point: bool):
    """(label, freq, dsp%, bram%, latency_ms, gops) for one ours-row."""
    datatype = FIXED_8_16 if fixed_point else FLOAT32
    platform = Platform(datatype=datatype)
    ml, workloads = unified_design(network_name, fixed_point=fixed_point)
    middle_of = {l.name: l.middle for l in ml.layers}
    conv_seconds = 0.0
    conv_ops = 0.0
    for w in workloads:
        design = DesignPoint.create(w.nest, ml.config.mapping, ml.config.shape, middle_of[w.name])
        measurement = simulate_performance(design, platform, frequency_mhz=ml.frequency_mhz)
        conv_seconds += w.multiplicity * measurement.seconds
        conv_ops += w.effective_ops
    fc_seconds = fc_latency_seconds(network_name, platform)
    network = network_by_name(network_name)
    fc_ops = sum(fc.flops for fc in network.fc_layers)
    latency = conv_seconds + fc_seconds
    throughput = (conv_ops + fc_ops) / latency / 1e9
    return ml, latency, throughput


def run_table2_comparison() -> ExperimentResult:
    """Regenerate Table 2 with our measured rows next to the published ones."""
    result = ExperimentResult(
        name="Table 2",
        description="End-to-end comparison with prior FPGA CNN accelerators",
        headers=["design", "FPGA", "MHz", "CNN", "precision",
                 "DSP%", "BRAM%", "ms/image", "Gops", "source"],
    )
    for row in LITERATURE_ROWS:
        result.add_row(
            row.label, row.fpga, f"{row.frequency_mhz:.0f}", row.cnn, row.precision,
            f"{row.dsp_pct:.0%}" if row.dsp_pct else "-",
            f"{row.bram_pct:.0%}" if row.bram_pct else "-",
            f"{row.latency_ms:.2f}", f"{row.throughput_gops:.1f}", "literature",
        )
    for row in PAPER_OURS_ROWS:
        result.add_row(
            row.label, row.fpga, f"{row.frequency_mhz:.1f}", row.cnn, row.precision,
            f"{row.dsp_pct:.0%}", f"{row.bram_pct:.0%}",
            f"{row.latency_ms:.2f}", f"{row.throughput_gops:.1f}", "paper",
        )

    specs = [
        ("Ours AlexNet float", "alexnet", False),
        ("Ours VGG float", "vgg16", False),
        ("Ours VGG fixed", "vgg16", True),
    ]
    for label, network_name, fixed in specs:
        ml, latency, throughput = _ours_row(network_name, fixed_point=fixed)
        cnn = "AlexNet" if network_name == "alexnet" else "VGG"
        precision = "fixed 8-16b" if fixed else "float 32b"
        result.add_row(
            label, "Arria10 GT1150 (sim)", f"{ml.frequency_mhz:.1f}", cnn, precision,
            f"{ml.dsp_utilization:.0%}", f"{ml.bram_utilization:.0%}",
            f"{latency * 1e3:.2f}", f"{throughput:.1f}", "ours",
        )
        key = label.lower().replace(" ", "_")
        result.metrics[f"{key}_latency_ms"] = latency * 1e3
        result.metrics[f"{key}_gops"] = throughput
        result.metrics[f"{key}_freq"] = ml.frequency_mhz
    result.note(
        "ours rows use the frequency surrogate and the performance simulator "
        "(see DESIGN.md); targets are the cross-design relationships, not "
        "silicon-exact numbers."
    )
    result.note(
        "the paper's Table 2 'Throughput' column is not exactly ops/latency "
        "for its own rows (460.5 Gops x 54.12 ms != VGG's 30.7 GFlop); we "
        "report total effective ops / latency."
    )
    return result


__all__ = ["FC_BATCH", "fc_latency_seconds", "run_table2_comparison"]
