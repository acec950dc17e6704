"""Figure 7 — the design space and the analytical model's accuracy.

(a) The pruned design space of AlexNet's conv layers at a fixed 280 MHz:
    each point is one configuration's (DSP, BRAM, aggregate throughput)
    after data-reuse tuning.  The paper's observation: "high throughput
    design options may cost moderate BRAM blocks and DSPs".

(b) The top-14 designs carried into phase 2: several share the best
    estimated throughput (6 in the paper) and separate only through
    their realized (post-P&R) clocks; with the real clock plugged in,
    the analytical model matches the on-board measurement within 2% on
    average.  Our performance simulator plays the board.
"""

from __future__ import annotations

from repro.analysis.design_check import check_design_point
from repro.dse.pareto import ParetoPoint, knee_point, pareto_frontier
from repro.model.platform import Platform
from repro.dse.multi_layer import (
    LayerWorkload,
    UnifiedOutcome,
    evaluate_unified,
    realize_unified_clock,
    unified_candidates,
)
from repro.dse.vector import RankedCandidates
from repro.sim.perf import simulate_performance
from repro.experiments.common import ExperimentResult
from repro.experiments.networks import paper_dse_config, unified_design


def _aggregate_simulated(
    workloads: tuple[LayerWorkload, ...],
    outcome: UnifiedOutcome,
    platform: Platform,
    frequency_mhz: float,
) -> float:
    """'On-board' aggregate throughput: per-layer performance simulator."""
    total_ops = 0.0
    total_seconds = 0.0
    for w, tuned in zip(workloads, outcome.tuned):
        measurement = simulate_performance(
            tuned.design, platform, frequency_mhz=frequency_mhz, streaming=True
        )
        total_seconds += w.multiplicity * measurement.seconds
        total_ops += w.effective_ops
    return total_ops / total_seconds / 1e9


def run_fig7a_design_space() -> ExperimentResult:
    """Regenerate Fig. 7(a): the pruned design-space scatter for AlexNet."""
    platform = Platform()
    _, workloads = unified_design("alexnet")
    dse = paper_dse_config()

    space, _bounds = unified_candidates(workloads, platform, dse)
    sampled = [space.config(i) for i in range(0, len(space), max(1, len(space) // 60))]

    result = ExperimentResult(
        name="Figure 7(a)",
        description=f"Pruned design space of AlexNet conv layers @ 280 MHz "
        f"({len(sampled)} of {len(space)} configs sampled)",
        headers=["shape", "mapping", "DSP blocks", "BRAM blocks", "agg GFlops"],
    )
    best = None
    memo: dict = {}
    points: list[ParetoPoint] = []
    designs_validated = 0
    strict_violations = 0
    for config in sampled:
        outcome = evaluate_unified(workloads, platform, dse, memo, (config, None))
        if outcome is None:
            continue
        aggregate, max_bram = outcome.aggregate_gops, outcome.max_bram
        # Strict self-audit: every per-layer design the sweep prices must
        # independently satisfy Eq. 2 and the Eq. 4-6 budgets.
        for tuned in outcome.tuned:
            designs_validated += 1
            if not check_design_point(tuned.design, platform).ok:
                strict_violations += 1
        dsp = config.shape.lanes * platform.dsp_per_mac
        result.add_row(
            str(config.shape),
            "/".join(config.mapping.inner_loops),
            int(dsp),
            max_bram,
            f"{aggregate:.1f}",
        )
        points.append(ParetoPoint(f"p{len(points)}", aggregate, dsp, float(max_bram)))
        record = (aggregate, dsp, max_bram)
        if best is None or record > best:
            best = record
    assert best is not None
    agg, dsp, bram = best
    result.metrics["best_gflops"] = agg
    result.metrics["best_dsp_utilization"] = dsp / (
        platform.dsp_total * platform.dsp_per_mac
    )
    result.metrics["best_bram_utilization"] = bram / platform.bram_total
    result.metrics["points"] = float(len(result.rows))
    result.metrics["designs_validated"] = float(designs_validated)
    result.metrics["strict_violations"] = float(strict_violations)
    result.note(
        f"static design-point validator re-checked {designs_validated} "
        f"per-layer designs of the sweep: {strict_violations} violation(s)."
    )

    # Pareto structure: the paper's "moderate BRAM and DSPs" reading.
    frontier = pareto_frontier(points)
    knee = knee_point(frontier)
    result.metrics["pareto_points"] = float(len(frontier))
    result.metrics["knee_gflops"] = knee.throughput_gops
    result.metrics["knee_bram_utilization"] = knee.bram_blocks / platform.bram_total
    result.note(
        "the paper's reading — high-throughput options cost moderate BRAM and "
        f"DSPs — quantified: the Pareto knee delivers {knee.throughput_gops:.0f} "
        f"GFlops at {knee.bram_blocks / platform.bram_total:.0%} BRAM, far from "
        "the resource ceilings."
    )
    return result


def run_fig7b_model_accuracy() -> ExperimentResult:
    """Regenerate Fig. 7(b): estimated vs 'on-board' for the finalists."""
    platform = Platform()
    _, workloads = unified_design("alexnet")
    dse = paper_dse_config()

    ranked = RankedCandidates(*unified_candidates(workloads, platform, dse))[: dse.top_n]

    result = ExperimentResult(
        name="Figure 7(b)",
        description="Model accuracy for the finalist designs "
        "(estimated @280 MHz | realized clock | model@realized | simulated)",
        headers=["rank", "shape", "est GFlops", "clock MHz",
                 "model GFlops", "sim GFlops", "error %"],
    )
    errors = []
    estimates = []
    memo: dict = {}
    for rank, (_bound, config) in enumerate(ranked, start=1):
        at_assumed = evaluate_unified(workloads, platform, dse, memo, (config, None))
        if at_assumed is None:
            continue
        estimated = at_assumed.aggregate_gops
        freq, _dsp_util = realize_unified_clock(config, at_assumed.max_bram, platform)
        at_real = evaluate_unified(workloads, platform, dse, memo, (config, freq))
        assert at_real is not None
        model_gops = at_real.aggregate_gops
        sim_gops = _aggregate_simulated(workloads, at_real, platform, freq)
        error = abs(model_gops - sim_gops) / sim_gops
        errors.append(error)
        estimates.append(round(estimated, 3))
        result.add_row(
            rank, str(config.shape), f"{estimated:.1f}", f"{freq:.1f}",
            f"{model_gops:.1f}", f"{sim_gops:.1f}", f"{error * 100:.2f}",
        )
    mean_error = sum(errors) / len(errors)
    top_ties = estimates.count(max(estimates))
    result.metrics["mean_model_error"] = mean_error
    result.metrics["max_model_error"] = max(errors)
    result.metrics["top_estimate_ties"] = float(top_ties)
    result.note(
        f"paper: <2% average model error with the real clock; ours: "
        f"{mean_error * 100:.2f}% mean over {len(errors)} finalists."
    )
    result.note(
        f"paper: 6 designs share the top estimated throughput; ours: {top_ties} "
        "(ties broken by realized frequency, which is phase 2's purpose)."
    )
    return result


__all__ = ["run_fig7a_design_space", "run_fig7b_model_accuracy"]
