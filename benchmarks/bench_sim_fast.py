"""Simulator backends — wall-clock of fast, engine, and interpreted RTL.

Not a paper exhibit: this bench characterizes the simulation ladder.
It records (a) the vectorized wavefront simulator against the
cycle-accurate engine on a shared mid-size nest — with the
``EngineResult``s asserted bit-identical — then (b) fast-only
executions of realistically tuned Table-2 layers (the paper's
``11x13x8`` unified shape), far beyond the engine's reach, and (c) the
three-way head-to-head on an RTL-sized nest where the emitted Verilog,
run through the pure-Python netlist interpreter, must also match
bit-for-bit.  The record lands in ``BENCH_sim.json`` for the
bench-regression CI diff.
"""

import time

import numpy as np

from _record import record_bench
from repro.dse.tuner import MiddleTuner
from repro.experiments.common import ExperimentResult
from repro.ir.loop import conv_loop_nest
from repro.model.design_point import ArrayShape, DesignPoint
from repro.model.mapping import Mapping
from repro.model.platform import Platform
from repro.nn.models import alexnet, vgg16
from repro.sim.engine import SystolicArrayEngine
from repro.sim.fast import FastWavefrontSimulator
from repro.sim.rtl import RtlSimulator
from repro.verify.conformance import synthetic_arrays

#: The paper's winning unified configuration (Table 2 / Fig. 7).
PAPER_MAPPING = Mapping("o", "c", "i", "IN", "W")
PAPER_SHAPE = ArrayShape(11, 13, 8)

#: Table-2 layers the fast backend is timed on (engine-infeasible scale).
SCALE_LAYERS = (
    ("alexnet", "conv1"),
    ("alexnet", "conv5"),
    ("vgg16", "conv1"),
)


def _tuned_design(layer):
    nest = layer.group_view().to_loop_nest()
    return MiddleTuner(nest, PAPER_MAPPING, PAPER_SHAPE, Platform()).tune().design


def run_sim_fast() -> ExperimentResult:
    # (a) Shared head-to-head: large enough that the engine's per-cycle
    # interpretation costs seconds, small enough that it finishes.  The
    # middle tiling is tuned the same way the DSE would, so the fast
    # backend runs few large blocks rather than many degenerate ones.
    nest = conv_loop_nest(32, 16, 14, 14, 3, 3, name="head_to_head")
    shape = ArrayShape(4, 5, 2)
    middle = MiddleTuner(nest, PAPER_MAPPING, shape, Platform()).tune().design.middle
    design = DesignPoint.create(nest, PAPER_MAPPING, shape, dict(middle))
    arrays = synthetic_arrays(nest, seed=0)

    start = time.perf_counter()
    slow = SystolicArrayEngine(design).run(arrays)
    engine_s = time.perf_counter() - start
    start = time.perf_counter()
    fast = FastWavefrontSimulator(design).run(arrays)
    fast_s = time.perf_counter() - start
    assert fast.output.tobytes() == slow.output.tobytes()  # bit-identical
    assert fast.compute_cycles == slow.compute_cycles
    assert fast.pe_active_cycles == slow.pe_active_cycles
    speedup = engine_s / fast_s

    result = ExperimentResult(
        name="Fast wavefront simulator",
        description=f"vectorized wavefront vs. cycle-accurate engine "
        f"({nest.total_iterations} iterations head-to-head), tuned "
        f"Table-2 layers fast-only, then the interpreted-RTL "
        f"head-to-head",
        headers=["scenario", "MACs", "wall s", "vs. engine"],
    )
    macs = nest.total_iterations
    result.add_row("engine, shared nest", f"{macs:,}", f"{engine_s:.2f}", "1.00x")
    result.add_row(
        "fast, shared nest", f"{macs:,}", f"{fast_s:.2f}", f"{speedup:.0f}x"
    )
    result.metrics["engine_seconds"] = engine_s
    result.metrics["fast_seconds"] = fast_s
    # metric names end in _seconds / _speedup so that compare.py guards them
    result.metrics["fast_vs_engine_speedup"] = speedup
    result.raw["wall_seconds"] = {"engine_shared": engine_s, "fast_shared": fast_s}

    # (b) Fast-only at Table-2 scale: 10x-100x beyond the engine's reach.
    networks = {"alexnet": alexnet(), "vgg16": vgg16()}
    for net_name, layer_name in SCALE_LAYERS:
        layer = next(
            l for l in networks[net_name].conv_layers if l.name == layer_name
        )
        scale_design = _tuned_design(layer)
        scale_arrays = synthetic_arrays(scale_design.nest, seed=0)
        start = time.perf_counter()
        scale = FastWavefrontSimulator(scale_design).run(scale_arrays)
        layer_s = time.perf_counter() - start
        assert np.isfinite(scale.output).all()
        label = f"{net_name} {layer_name}"
        result.add_row(
            f"fast, {label}", f"{layer.macs:,}", f"{layer_s:.2f}", "engine infeasible"
        )
        result.metrics[f"fast_{net_name}_{layer_name}_seconds"] = layer_s
        result.raw["wall_seconds"][f"fast_{net_name}_{layer_name}"] = layer_s

    # (c) RTL head-to-head: the emitted Verilog interpreted cycle by
    # cycle.  Two orders of magnitude slower than the engine (every net
    # of every PE is evaluated per edge), so the shared nest is sized
    # for the RTL budget, not the engine's.
    rtl_nest = conv_loop_nest(8, 4, 8, 8, 3, 3, name="rtl_head_to_head")
    rtl_shape = ArrayShape(3, 3, 2)
    rtl_middle = (
        MiddleTuner(rtl_nest, PAPER_MAPPING, rtl_shape, Platform())
        .tune()
        .design.middle
    )
    rtl_design = DesignPoint.create(
        rtl_nest, PAPER_MAPPING, rtl_shape, dict(rtl_middle)
    )
    rtl_arrays = synthetic_arrays(rtl_nest, seed=0)
    start = time.perf_counter()
    rtl = RtlSimulator(rtl_design).run(rtl_arrays).result
    rtl_s = time.perf_counter() - start
    start = time.perf_counter()
    rtl_fast = FastWavefrontSimulator(rtl_design).run(rtl_arrays)
    rtl_fast_s = time.perf_counter() - start
    assert rtl.output.tobytes() == rtl_fast.output.tobytes()  # bit-identical
    assert rtl.compute_cycles == rtl_fast.compute_cycles
    assert rtl.pe_active_cycles == rtl_fast.pe_active_cycles
    rtl_macs = rtl_nest.total_iterations
    result.add_row("fast, RTL nest", f"{rtl_macs:,}", f"{rtl_fast_s:.2f}", "-")
    result.add_row(
        "rtl interpreter, RTL nest",
        f"{rtl_macs:,}",
        f"{rtl_s:.2f}",
        f"1/{rtl_s / max(rtl_fast_s, 1e-9):.0f}x",
    )
    result.metrics["rtl_seconds"] = rtl_s
    result.metrics["rtl_fast_seconds"] = rtl_fast_s
    result.metrics["rtl_slowdown_vs_fast"] = rtl_s / max(rtl_fast_s, 1e-9)
    result.raw["wall_seconds"]["rtl_shared"] = rtl_s
    result.raw["wall_seconds"]["rtl_fast_shared"] = rtl_fast_s

    result.note(
        "Both backends execute the identical IEEE-754 operation sequence "
        "(shared simd_dot lane order, wave-major accumulation), so the "
        "head-to-head results are asserted bit-identical, not allclose; "
        "the Table-2 rows use the tuned middles the unified DSE would "
        "pick, the shape the engine cannot reach in any useful time."
    )
    return result


def test_sim_fast(exhibit):
    result = exhibit(run_sim_fast)
    record_bench(result, "sim")
    assert result.metrics["fast_vs_engine_speedup"] > 5.0
    for net_name, layer_name in SCALE_LAYERS:
        # The ISSUE acceptance bound: a full conv layer in seconds.
        assert result.metrics[f"fast_{net_name}_{layer_name}_seconds"] < 10.0
    # The interpreted netlist must stay usable for conformance runs.
    assert result.metrics["rtl_seconds"] < 60.0
