"""Tables 4 and 5 — per-layer throughput and DSP efficiency.

Under the unified design, the paper measures each conv layer on the
board.  The structural facts to reproduce:

* middle layers run near peak efficiency (AlexNet conv3-5: 81-90%;
  VGG conv3-13: ~97%);
* the first layers are far below peak — AlexNet conv1 (folded, 11x11
  kernel) at 18.5%, VGG conv1 (3 input channels) at 36.4% — because
  their shapes mismatch the unified array and, for AlexNet conv1, the
  chosen reuse strategy leaves it memory-bound;
* VGG's aggregate beats AlexNet's thanks to its regular shape.

Our numbers come from the performance simulator at the realized clock
(the "board" of this reproduction).  Paper throughput rows are as
printed (Table 4's throughput row is partly OCR-damaged in our source;
the values below are reconstructed from the intact efficiency row and
flagged).
"""

from __future__ import annotations

from repro.model.design_point import DesignPoint
from repro.model.platform import Platform
from repro.sim.perf import simulate_performance
from repro.experiments.common import ExperimentResult
from repro.experiments.networks import unified_design

PAPER_TABLE4 = {
    # layer: (throughput GFlops, DSP efficiency %)
    "conv1": (102.5, 18.51),
    "conv2": (225.0, 33.70),
    "conv3": (541.7, 81.03),
    "conv4": (541.6, 81.03),
    "conv5": (610.0, 90.00),
    "avg": (406.1, 40.32),
}

PAPER_TABLE5 = {
    "conv1": (223.86, 36.36),
    "conv2": (450.11, 72.73),
    "conv3": (600.27, 96.97),
    "conv4": (601.69, 96.97),
    "conv5": (601.57, 96.97),
    "conv6": (602.44, 96.97),
    "conv7": (602.44, 96.97),
    "conv8": (602.42, 96.97),
    "conv9": (602.83, 96.97),
    "conv10": (602.83, 96.97),
    "conv11": (602.49, 96.97),
    "conv12": (602.49, 96.97),
    "conv13": (602.49, 96.97),
    "avg": (561.38, None),
}


def _per_layer_rows(name: str, paper_rows) -> ExperimentResult:
    ml, workloads = unified_design(name)
    platform = Platform()
    result = ExperimentResult(
        name="Table 4" if name == "alexnet" else "Table 5",
        description=f"Per-layer throughput / DSP efficiency of the unified "
        f"{name} design ({ml.config.shape} @ {ml.frequency_mhz:.1f} MHz)",
        headers=["layer", "paper GFlops", "paper eff %", "ours GFlops", "ours eff %", "bound"],
    )
    middle_of = {l.name: l.middle for l in ml.layers}
    peak = 2.0 * ml.config.shape.lanes * ml.frequency_mhz * 1e6
    total_ops = 0.0
    total_seconds = 0.0
    for w in workloads:
        design = DesignPoint.create(
            w.nest, ml.config.mapping, ml.config.shape, middle_of[w.name]
        )
        measurement = simulate_performance(
            design, platform, frequency_mhz=ml.frequency_mhz, streaming=True
        )
        seconds = w.multiplicity * measurement.seconds
        gops = w.effective_ops / seconds / 1e9
        eff = (w.effective_ops / seconds) / peak
        paper_gops, paper_eff = paper_rows[w.name]
        result.add_row(
            w.name, f"{paper_gops:.1f}", f"{paper_eff:.2f}",
            f"{gops:.1f}", f"{eff * 100:.2f}", measurement.bound,
        )
        result.metrics[f"{w.name}_gops"] = gops
        result.metrics[f"{w.name}_eff"] = eff
        total_ops += w.effective_ops
        total_seconds += seconds
    aggregate = total_ops / total_seconds / 1e9
    paper_avg, paper_avg_eff = paper_rows["avg"]
    result.add_row(
        "avg", f"{paper_avg:.1f}",
        f"{paper_avg_eff:.2f}" if paper_avg_eff else "-",
        f"{aggregate:.1f}",
        f"{(total_ops / total_seconds) / peak * 100:.2f}",
        "-",
    )
    result.metrics["aggregate_gops"] = aggregate
    return result


def run_table4_alexnet() -> ExperimentResult:
    """Regenerate Table 4 (AlexNet conv1-5)."""
    result = _per_layer_rows("alexnet", PAPER_TABLE4)
    result.note(
        "paper throughput row reconstructed from the efficiency row (OCR "
        "damage in our source); conv1 runs folded (11x11 stride 4 -> 48ch "
        "3x3), whose ~19% zero-weight MACs depress its efficiency here as "
        "in the paper."
    )
    result.note(
        "ours is more uniform across conv3-5 than the paper because our "
        "runtime reuse strategy adapts per layer within the fixed buffers; "
        "the paper's single shared strategy penalizes conv1 harder (its "
        "conv1 is also memory-bound)."
    )
    return result


def run_table5_vgg() -> ExperimentResult:
    """Regenerate Table 5 (VGG16 conv1-13)."""
    result = _per_layer_rows("vgg16", PAPER_TABLE5)
    result.note(
        "structural targets: conv1 far below the rest (3 input channels "
        "vs a vector of 8 -> <=37.5% efficiency ceiling), deep layers "
        "near-uniform and near-peak, aggregate above AlexNet's."
    )
    return result


__all__ = ["PAPER_TABLE4", "PAPER_TABLE5", "run_table4_alexnet", "run_table5_vgg"]
