"""Baseline tests: roofline DSE behaviour and the Table 2 data."""

import pytest

from repro.baselines.literature import LITERATURE_ROWS, PAPER_OURS_ROWS
from repro.baselines.roofline import direct_frequency, roofline_explore
from repro.model.platform import Platform
from repro.nn.models import alexnet, vgg16


class TestDirectFrequency:
    def test_small_farms_run_fast(self):
        assert direct_frequency(1) == pytest.approx(280.0)

    def test_frequency_collapses_with_scale(self):
        """The paper's premise: direct interconnect cannot hold clock at
        high DSP counts."""
        assert direct_frequency(100) < 120
        assert direct_frequency(1500) == pytest.approx(60.0)  # floored

    def test_monotone_decreasing(self):
        freqs = [direct_frequency(n) for n in (1, 10, 100, 1000)]
        assert freqs == sorted(freqs, reverse=True)

    def test_rejects_bad_lanes(self):
        with pytest.raises(ValueError):
            direct_frequency(0)


class TestRooflineExplore:
    def test_finds_a_design(self):
        best = roofline_explore(alexnet().layer("conv5"), Platform())
        assert best.throughput_gops > 0
        assert best.unroll_out * best.unroll_in <= Platform().dsp_total

    def test_systolic_outperforms_direct_baseline(self):
        """The paper's central claim, quantified: at Arria-10 scale the
        systolic design beats the roofline-optimized direct design by a
        large factor because the direct clock collapses."""
        from repro.dse.explore import DseConfig, explore

        layer = alexnet().layer("conv5")
        direct = roofline_explore(layer, Platform())
        systolic = explore(
            layer.group_view().to_loop_nest(),
            Platform(),
            DseConfig(top_n=3),
        )
        assert systolic.best.throughput_gops > 3 * direct.throughput_gops

    def test_direct_baseline_prefers_moderate_unroll(self):
        """The roofline optimum stops short of full DSP utilization —
        the frequency penalty outweighs extra lanes."""
        best = roofline_explore(vgg16().layer("conv8"), Platform())
        assert best.dsp_utilization < 0.9

    def test_respects_budget_cap(self):
        best = roofline_explore(alexnet().layer("conv5"), Platform(dsp_total_override=64))
        assert best.unroll_out * best.unroll_in <= 64


class TestLiteratureData:
    def test_row_counts_match_table2(self):
        assert len(LITERATURE_ROWS) == 7
        assert len(PAPER_OURS_ROWS) == 3

    def test_papers_headline_numbers(self):
        ours = {r.label: r for r in PAPER_OURS_ROWS}
        assert ours["Ours VGG float"].throughput_gops == pytest.approx(460.5)
        assert ours["Ours VGG fixed"].throughput_gops == pytest.approx(1171.3)
        assert ours["Ours AlexNet float"].latency_ms == pytest.approx(4.05)

    def test_winograd_design_faster_than_ours_float(self):
        """Table 2's honest accounting: [17] (Winograd) and [26]
        (hand-tuned RTL) outperform the paper's float designs."""
        aydonat = next(r for r in LITERATURE_ROWS if "[17]" in r.label)
        ours = next(r for r in PAPER_OURS_ROWS if r.label == "Ours AlexNet float")
        assert aydonat.throughput_gops > ours.throughput_gops

    def test_ours_beats_all_other_float_vgg(self):
        """Among float VGG designs, the paper's beats all but [26]."""
        ours = next(r for r in PAPER_OURS_ROWS if r.label == "Ours VGG float")
        zhang = next(r for r in LITERATURE_ROWS if r.label.endswith("float"))
        others = [
            r for r in LITERATURE_ROWS
            if r.cnn == "VGG" and r.is_float and r is not zhang
        ]
        for row in others:
            assert ours.throughput_gops > row.throughput_gops
