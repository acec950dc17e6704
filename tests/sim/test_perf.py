"""Performance-simulator tests: fidelity against the analytical model
(the Fig. 7(b) relationship) and internal consistency."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.loop import conv_loop_nest
from repro.model.design_point import ArrayShape, DesignPoint
from repro.model.mapping import Mapping
from repro.model.platform import Platform
from repro.dse.tuner import MiddleTuner
from repro.sim.perf import simulate_performance


MAPPING = Mapping("o", "c", "i", "IN", "W")


def conv5_design():
    nest = conv_loop_nest(128, 192, 13, 13, 3, 3, name="conv5")
    return DesignPoint.create(
        nest, MAPPING, ArrayShape(11, 13, 8),
        {"i": 4, "o": 4, "r": 13, "c": 1, "p": 3, "q": 3},
    )


def vgg_mid_design():
    nest = conv_loop_nest(512, 256, 28, 28, 3, 3, name="vgg_conv8")
    return MiddleTuner(nest, MAPPING, ArrayShape(8, 14, 8), Platform()).tune().design


class TestSimulatorVsModel:
    def test_simulator_never_beats_the_model(self):
        """The simulator only adds overheads (fill, prologue/epilogue),
        so measured <= estimated, always."""
        platform = Platform()
        for design in (conv5_design(), vgg_mid_design()):
            measured = simulate_performance(design, platform)
            estimated = design.evaluate(platform)
            assert measured.throughput_gops <= estimated.throughput_gops * (1 + 1e-9)

    def test_error_small_on_realistic_layers(self):
        """The paper's Fig. 7(b): model matches on-board within ~2% on its
        workloads.  Our simulator plays the board's role; in streaming
        (throughput) accounting a VGG-scale layer agrees well within that,
        and even single-image latency accounting stays single-digit."""
        platform = Platform()
        design = vgg_mid_design()
        estimated = design.evaluate(platform)
        streaming = simulate_performance(design, platform, streaming=True)
        err = abs(streaming.throughput_gops - estimated.throughput_gops)
        assert err / estimated.throughput_gops < 0.02
        latency = simulate_performance(design, platform)
        err = abs(latency.throughput_gops - estimated.throughput_gops)
        assert err / estimated.throughput_gops < 0.08

    def test_error_moderate_on_tiny_layer(self):
        """conv5 alone is small (18 blocks), so exposed prologue shows up;
        the gap must still be single-digit percent."""
        platform = Platform()
        design = conv5_design()
        measured = simulate_performance(design, platform)
        estimated = design.evaluate(platform)
        err = abs(measured.throughput_gops - estimated.throughput_gops)
        assert err / estimated.throughput_gops < 0.08

    def test_agreement_on_bound_classification(self):
        platform = Platform()
        good = simulate_performance(conv5_design(), platform)
        assert good.bound == "compute"
        # bad tiling from Section 2.3: memory bound in both views
        nest = conv_loop_nest(128, 192, 13, 13, 3, 3, name="conv5")
        bad = DesignPoint.create(
            nest, MAPPING, ArrayShape(11, 13, 8),
            {"o": 2, "i": 2, "r": 2, "c": 2, "p": 2, "q": 2},
        )
        assert simulate_performance(bad, platform).bound == "memory"


class TestSimulatorInternals:
    def test_frequency_scaling_compute_bound(self):
        platform = Platform()
        design = vgg_mid_design()
        fast = simulate_performance(design, platform, frequency_mhz=280)
        slow = simulate_performance(design, platform, frequency_mhz=140)
        # compute-bound: throughput ~ frequency (transfer speeds up per
        # cycle at lower clocks, so ratio is bounded by 2)
        assert fast.throughput_gops / slow.throughput_gops == pytest.approx(2.0, rel=0.05)

    def test_memory_bound_insensitive_to_frequency(self):
        nest = conv_loop_nest(128, 192, 13, 13, 3, 3, name="conv5")
        bad = DesignPoint.create(
            nest, MAPPING, ArrayShape(11, 13, 8),
            {"o": 2, "i": 2, "r": 2, "c": 2, "p": 2, "q": 2},
        )
        platform = Platform()
        fast = simulate_performance(bad, platform, frequency_mhz=280)
        slow = simulate_performance(bad, platform, frequency_mhz=200)
        assert fast.throughput_gops / slow.throughput_gops < 1.25

    def test_block_count_matches_tiling(self):
        design = conv5_design()
        measured = simulate_performance(design, Platform())
        assert measured.blocks == design.tiled.total_blocks

    def test_clipped_semantics_executes_fewer_cycles(self):
        nest = conv_loop_nest(100, 192, 13, 13, 3, 3, name="ragged")
        design = DesignPoint.create(
            nest, MAPPING, ArrayShape(11, 13, 8), {"o": 4, "i": 4, "r": 13, "p": 3, "q": 3}
        )
        padded = simulate_performance(design, Platform())
        clipped = simulate_performance(design, Platform(ragged_middle="clipped"))
        assert clipped.cycles < padded.cycles

    def test_utilization_in_unit_range(self):
        measured = simulate_performance(conv5_design(), Platform())
        assert 0 < measured.utilization <= 1

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from([1, 2, 4, 8]), st.sampled_from([1, 2, 13]))
    def test_property_seconds_positive_and_consistent(self, si, sr):
        nest = conv_loop_nest(128, 192, 13, 13, 3, 3, name="conv5")
        design = DesignPoint.create(
            nest, MAPPING, ArrayShape(11, 13, 8), {"i": si, "r": sr}
        )
        m = simulate_performance(design, Platform())
        assert m.seconds > 0
        assert m.throughput_gops == pytest.approx(
            nest.total_operations / m.seconds / 1e9
        )
