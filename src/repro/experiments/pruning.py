"""Section 4's pruning claims.

Three quantitative claims:

1. the Eq. 12 DSP-utilization bound (c_s = 80%) cuts the mapping space
   substantially (paper: 160K -> 64K for one AlexNet conv layer);
2. power-of-two tiling pruning shrinks the data-reuse search
   exponentially (paper: 17.5x average search-time saving on AlexNet);
3. phase 1 completes "in less than 30 seconds" where the unpruned brute
   force takes "roughly 311 hours".

Absolute sizes depend on enumeration conventions (the paper never
defines its shape grid), so the *ratios* and the wall-clock structure
are the reproduction targets.  The brute-force hours are estimated by
measuring the per-candidate evaluation cost on a sample and multiplying
by the exact unpruned space size — walking it for real is precisely what
the paper says is impractical.
"""

from __future__ import annotations

import time

from repro.ir.loop import conv_loop_nest
from repro.model.mapping import feasible_mappings
from repro.model.platform import Platform
from repro.dse.brute import brute_force_space_size
from repro.dse.explore import DseConfig, phase1
from repro.dse.tuner import MiddleTuner, tuning_space_size
from repro.dse.vector import CandidateTable, count_design_space
from repro.experiments.common import ExperimentResult


def _alexnet_conv5():
    return conv_loop_nest(128, 192, 13, 13, 3, 3, name="alexnet_conv5")


def run_section4_pruning() -> ExperimentResult:
    """Regenerate the Section 4 pruning measurements on AlexNet conv5."""
    platform = Platform()
    nest = _alexnet_conv5()
    result = ExperimentResult(
        name="Section 4",
        description="Design-space pruning (AlexNet conv5, Arria 10, float32)",
        headers=["quantity", "paper", "ours"],
    )

    # --- claim 1: Eq. 12 mapping-space reduction -------------------------
    full_configs = count_design_space(nest, platform)
    pruned_configs = count_design_space(nest, platform, min_dsp_utilization=0.8)
    result.add_row("mapping space (full)", "160K", f"{full_configs:,}")
    result.add_row("mapping space (c_s=80%)", "64K", f"{pruned_configs:,}")
    result.add_row(
        "Eq.12 reduction", f"{160/64:.1f}x", f"{full_configs / pruned_configs:.1f}x"
    )
    result.metrics["config_reduction"] = full_configs / pruned_configs

    # --- claim 2: power-of-two tiling pruning ----------------------------
    space = CandidateTable.enumerate(
        nest, feasible_mappings(nest), platform, min_dsp_utilization=0.8, vector_choices=(8,)
    )
    sample = [space.config(i) for i in range(0, len(space), max(1, len(space) // 40))]
    ratios = []
    for config in sample:
        tuner = MiddleTuner(nest, config.mapping, config.shape, platform)
        full = tuning_space_size(nest, config.mapping.inner_bounds(config.shape))
        ratios.append(full / tuner.pruned_space_size())
    tiling_ratio = sum(ratios) / len(ratios)
    result.add_row("tiling-space saving (avg)", "17.5x", f"{tiling_ratio:.1f}x")
    result.metrics["tiling_reduction"] = tiling_ratio

    # --- claim 3: phase-1 seconds vs brute-force hours -------------------
    p1 = phase1(nest, platform, DseConfig(top_n=14))
    result.add_row("phase-1 time", "< 30 s", f"{p1.elapsed_seconds:.2f} s")
    result.metrics["phase1_seconds"] = p1.elapsed_seconds

    # per-candidate cost measured on a real tuner walk
    probe = MiddleTuner(nest, sample[0].mapping, sample[0].shape, platform)
    start = time.perf_counter()
    tuned = probe.tune()
    per_candidate = (time.perf_counter() - start) / tuned.candidates_evaluated
    full_space = brute_force_space_size(nest, platform)
    brute_hours = full_space * per_candidate / 3600
    result.add_row(
        "brute-force estimate",
        "~311 h (Xeon E5-2667)",
        f"~{brute_hours:,.2f} h ({full_space:,} candidates x {per_candidate * 1e6:.3f} us)",
    )
    result.add_row(
        "speedup", f"{311 * 3600 / 30:,.0f}x+",
        f"{brute_hours * 3600 / max(p1.elapsed_seconds, 1e-9):,.0f}x",
    )
    result.metrics["brute_force_hours"] = brute_hours
    result.metrics["speedup"] = brute_hours * 3600 / max(p1.elapsed_seconds, 1e-9)
    result.note(
        "absolute space sizes depend on enumeration conventions the paper "
        "does not specify; the reproduction targets are the reduction ratios "
        "and the seconds-vs-hundreds-of-hours structure."
    )
    return result


__all__ = ["run_section4_pruning"]
