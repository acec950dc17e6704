"""Tests for DesignPoint / DesignEvaluation plumbing."""

import dataclasses

import pytest

from repro.dse.explore import Phase1Result, phase2
from repro.ir.loop import conv_loop_nest
from repro.model.design_point import ArrayShape, DesignPoint
from repro.model.mapping import Mapping
from repro.model.platform import Platform


def conv5():
    return conv_loop_nest(128, 192, 13, 13, 3, 3, name="conv5")


def sys1():
    return DesignPoint.create(
        conv5(),
        Mapping("o", "c", "i", "IN", "W"),
        ArrayShape(11, 13, 8),
        {"i": 4, "o": 4, "r": 13, "p": 3, "q": 3},
    )


def realized(design, platform):
    """Phase 2 over a phase 1 whose one finalist is ``design``: the design
    evaluated at its realized clock."""
    return phase2(Phase1Result((design.evaluate(platform),), 1, 1, 1, 0.0), platform).best


class TestArrayShape:
    def test_lanes(self):
        assert ArrayShape(11, 13, 8).lanes == 1144

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ArrayShape(0, 1, 1)

    def test_str(self):
        assert str(ArrayShape(11, 14, 8)) == "(11,14,8)"


class TestDesignPoint:
    def test_tiling_combines_mapping_and_shape(self):
        dp = sys1()
        assert dp.tiling.t("o") == 11
        assert dp.tiling.t("c") == 13
        assert dp.tiling.t("i") == 8
        assert dp.tiling.s("i") == 4
        assert dp.tiling.t("r") == 1

    def test_efficiency_matches_table1(self):
        assert sys1().efficiency == pytest.approx(0.9697, abs=1e-3)

    def test_signature_stable_and_distinct(self):
        a, b = sys1(), sys1()
        assert a.signature == b.signature
        c = DesignPoint.create(a.nest, a.mapping, a.shape, {**dict(a.middle), "i": 8})
        assert c.signature != a.signature

    def test_with_nest_retargets_layer(self):
        other = conv_loop_nest(384, 256, 13, 13, 3, 3, name="conv3")
        dp = dataclasses.replace(sys1(), nest=other)
        assert dp.nest.name == "conv3"
        assert dp.shape == ArrayShape(11, 13, 8)

    def test_create_sorts_middle(self):
        a = DesignPoint.create(
            conv5(), Mapping("o", "c", "i", "IN", "W"), ArrayShape(2, 2, 2), {"o": 2, "i": 3}
        )
        b = DesignPoint.create(
            conv5(), Mapping("o", "c", "i", "IN", "W"), ArrayShape(2, 2, 2), {"i": 3, "o": 2}
        )
        assert a == b


class TestDesignEvaluation:
    def test_evaluate_bundles_everything(self):
        ev = sys1().evaluate(Platform(dsp_total_override=1600))
        assert ev.dsp_blocks == 1144
        assert ev.dsp_utilization == pytest.approx(0.715)
        assert ev.performance.pt_gops == pytest.approx(621, rel=0.01)
        assert 0 < ev.bram_utilization < 1
        assert ev.feasible

    def test_infeasible_when_dsp_overflows(self):
        dp = DesignPoint.create(
            conv5(), Mapping("o", "c", "i", "IN", "W"), ArrayShape(64, 13, 8)
        )
        ev = dp.evaluate(Platform())
        assert ev.dsp_utilization > 1
        assert not ev.feasible

    def test_realized_frequency_deterministic_and_plausible(self):
        platform = Platform()
        f1 = realized(sys1(), platform).performance.frequency_mhz
        f2 = realized(sys1(), platform).performance.frequency_mhz
        assert f1 == f2
        assert 200 <= f1 <= 300

    def test_evaluate_at_realized_frequency(self):
        dp = sys1()
        platform = Platform()
        ev = dp.evaluate(platform)
        freq = platform.frequency_model.realize(
            rows=dp.shape.rows,
            cols=dp.shape.cols,
            vector=dp.shape.vector,
            dsp_utilization=ev.dsp_utilization,
            bram_utilization=ev.bram_utilization,
            signature=dp.signature,
        )
        best = realized(dp, platform)
        assert best.performance.frequency_mhz == pytest.approx(freq)
        assert best == dp.evaluate(platform, frequency_mhz=freq)

    def test_throughput_shortcut(self):
        ev = sys1().evaluate(Platform())
        assert ev.throughput_gops == ev.performance.throughput_gops
