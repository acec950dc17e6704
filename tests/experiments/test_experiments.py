"""The paper's claims, and the ablations' findings, asserted on the
full-scale exhibits.

Each test states one *reproduction target* of one exhibit — a
quantitative anchor where the paper gives an exact number, a structural
relationship where it gives a measured one.  The numbers come from the
same session run the golden test pins (``exhibits`` fixture), so these
inequalities are what must survive a ``--refresh-golden``.
"""

import pytest

from repro.experiments.table2 import FC_BATCH, fc_latency_seconds


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self, exhibits):
        return exhibits["Table 1"]

    def test_sys1_anchors(self, result):
        assert result.metrics["sys1_eff"] == pytest.approx(0.9697, abs=1e-4)
        assert result.metrics["sys1_peak_gflops"] == pytest.approx(621, rel=0.01)
        assert result.metrics["sys1_dsp_util"] == pytest.approx(0.715, abs=1e-3)

    def test_sys2_anchors(self, result):
        # 65% (throughput-consistent), not the printed 60%
        assert result.metrics["sys2_eff"] == pytest.approx(0.65, abs=1e-9)
        assert result.metrics["sys2_peak_gflops"] == pytest.approx(466, rel=0.01)
        assert result.metrics["sys2_dsp_util"] == pytest.approx(0.80, abs=1e-3)

    def test_sys1_wins_despite_lower_utilization(self, result):
        """The table's point: shape, not DSP count, sets throughput."""
        assert result.metrics["sys1_peak_gflops"] > result.metrics["sys2_peak_gflops"]

    def test_formats(self, result):
        text = result.format()
        assert "sys1" in text and "typo" in text


class TestSection23:
    @pytest.fixture(scope="class")
    def result(self, exhibits):
        return exhibits["Section 2.3"]

    def test_good_tiling_hits_peak_within_bandwidth(self, result):
        assert result.metrics["good_throughput_gflops"] == pytest.approx(621, rel=0.01)
        assert result.metrics["good_bw_demand_gbs"] < 19.2

    def test_bad_tiling_anchors(self, result):
        assert result.metrics["bad_pt_gflops"] == pytest.approx(162, rel=0.01)
        assert result.metrics["bad_bw_demand_gbs"] == pytest.approx(67, rel=0.05)
        # memory-starved: achieved below its own compute bound
        assert result.metrics["bad_throughput_gflops"] < result.metrics["bad_pt_gflops"]


class TestFig3:
    def test_schedule_facts(self, exhibits):
        result = exhibits["Figure 3"]
        assert result.metrics["all_active_cycle"] == 5
        assert result.metrics["max_error"] < 1e-9


class TestSection4Pruning:
    @pytest.fixture(scope="class")
    def result(self, exhibits):
        return exhibits["Section 4"]

    def test_eq12_reduces_configs(self, result):
        assert result.metrics["config_reduction"] > 2.0

    def test_tiling_pruning_substantial(self, result):
        """The paper reports 17.5x average search-time saving."""
        assert result.metrics["tiling_reduction"] > 10

    def test_phase1_under_30s(self, result):
        assert result.metrics["phase1_seconds"] < 30

    def test_pruned_search_beats_brute_force(self, result):
        """The exhibit's claim: both prunings cut their spaces, and phase 1
        beats the extrapolated brute force by three orders of magnitude.
        (The brute force's *hours* measure the per-tiling cost of the
        kernel that prices it, not the search.)"""
        assert result.metrics["config_reduction"] > 2.0
        assert result.metrics["tiling_reduction"] > 10
        assert result.metrics["speedup"] > 1000


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self, exhibits):
        return exhibits["Table 3"]

    def test_clocks_in_paper_band(self, result):
        for name in ("alexnet", "vgg16"):
            assert 220 <= result.metrics[f"{name}_freq_mhz"] <= 285

    def test_high_dsp_utilization(self, result):
        for name in ("alexnet", "vgg16"):
            assert result.metrics[f"{name}_dsp_utilization"] >= 0.8

    def test_bram_within_device(self, result):
        for name in ("alexnet", "vgg16"):
            assert result.metrics[f"{name}_bram_utilization"] <= 1.0

    def test_lanes_in_papers_range(self, result):
        """Vector-8 designs between the paper's 1100 and the device's 1518."""
        for name in ("alexnet", "vgg16"):
            assert 1100 <= result.metrics[f"{name}_lanes"] <= 1518


class TestTables45:
    @pytest.fixture(scope="class")
    def t4(self, exhibits):
        return exhibits["Table 4"]

    @pytest.fixture(scope="class")
    def t5(self, exhibits):
        return exhibits["Table 5"]

    def test_alexnet_conv1_is_weakest(self, t4):
        conv1 = t4.metrics["conv1_eff"]
        others = [t4.metrics[f"conv{idx}_eff"] for idx in range(2, 6)]
        assert conv1 <= min(others) + 0.05  # conv1 at/near the bottom

    def test_alexnet_deep_layers_near_peak(self, t4):
        for layer in ("conv3", "conv4", "conv5"):
            assert t4.metrics[f"{layer}_eff"] > 0.75

    def test_alexnet_aggregate_hundreds_of_gflops(self, t4):
        assert t4.metrics["aggregate_gops"] > 300

    def test_vgg_conv1_far_below_rest(self, t5):
        """Paper: conv1 at 36% vs ~97% elsewhere (3 input channels)."""
        assert t5.metrics["conv1_eff"] < 0.45
        for idx in range(3, 14):
            assert t5.metrics[f"conv{idx}_eff"] > 0.9

    def test_vgg_deep_layers_uniform(self, t5):
        values = [t5.metrics[f"conv{idx}_eff"] for idx in range(3, 14)]
        assert max(values) - min(values) < 0.05

    def test_vgg_aggregate_beats_alexnet(self, t4, t5):
        """'VGG16 still has a better overall performance than AlexNet'."""
        assert t5.metrics["aggregate_gops"] > t4.metrics["aggregate_gops"]


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self, exhibits):
        return exhibits["Table 2"]

    def test_ours_in_papers_band(self, result):
        """Within ~40% of the paper's reported numbers (our clock oracle
        differs; the ratios below are the strict targets)."""
        assert result.metrics["ours_alexnet_float_latency_ms"] == pytest.approx(4.05, rel=0.4)
        assert result.metrics["ours_vgg_float_latency_ms"] == pytest.approx(54.12, rel=0.4)
        assert result.metrics["ours_vgg_fixed_latency_ms"] == pytest.approx(26.85, rel=0.4)

    def test_fixed_beats_float_by_about_2x(self, result):
        ratio = result.metrics["ours_vgg_fixed_gops"] / result.metrics["ours_vgg_float_gops"]
        assert 1.6 <= ratio <= 3.0

    def test_ours_float_beats_non_winograd_prior_art(self, result):
        from repro.baselines.literature import LITERATURE_ROWS

        ours_vgg = result.metrics["ours_vgg_float_gops"]
        for row in LITERATURE_ROWS:
            if row.cnn == "VGG" and not row.is_float and "[26]" not in row.label:
                assert ours_vgg * 2.5 > row.throughput_gops  # fixed rows, scaled
        qiu = next(r for r in LITERATURE_ROWS if "[9]" in r.label)
        assert ours_vgg > qiu.throughput_gops

    def test_alexnet_latency_order_of_magnitude_below_vgg(self, result):
        assert (
            result.metrics["ours_alexnet_float_latency_ms"] * 5
            < result.metrics["ours_vgg_float_latency_ms"]
        )

    def test_fc_latency_model(self):
        from repro.model.platform import Platform

        seconds = fc_latency_seconds("alexnet", Platform())
        # 58.6M float weights / 19.2 GB/s / batch 8 ~ 1.5 ms
        assert seconds == pytest.approx(1.5e-3, rel=0.15)
        # unbatched, the FC layers alone exceed the paper's whole AlexNet
        # latency (4.05 ms/image): the published number implies batching
        assert FC_BATCH * seconds > 4.05e-3


class TestFig7:
    def test_fig7a_points(self, exhibits):
        result = exhibits["Figure 7(a)"]
        assert result.metrics["points"] >= 40
        assert result.metrics["best_gflops"] > 400
        # "moderate BRAM blocks and DSPs": the winner is below both ceilings
        assert result.metrics["best_dsp_utilization"] <= 1.0
        assert result.metrics["best_bram_utilization"] < 0.9
        # the Pareto knee sits at moderate resources (the Fig. 7a reading)
        assert 1 <= result.metrics["pareto_points"] <= result.metrics["points"]
        assert result.metrics["knee_bram_utilization"] < 0.9
        assert result.metrics["knee_gflops"] > 0.8 * result.metrics["best_gflops"]

    def test_fig7b_model_accuracy(self, exhibits):
        result = exhibits["Figure 7(b)"]
        # the paper's claim: <2% average error with the real clock
        assert result.metrics["mean_model_error"] < 0.02
        assert result.metrics["max_model_error"] < 0.05
        # the tie structure phase 2 exists to resolve
        assert result.metrics["top_estimate_ties"] >= 2


class TestAblations:
    def test_pruning_semantics(self, exhibits):
        result = exhibits["Ablation: pruning semantics"]
        # cover-extended candidates must match brute force, on every row
        ratios = [v for k, v in result.metrics.items() if k.startswith("cover_over_brute_")]
        assert len(ratios) == len(result.rows)
        for ratio in ratios:
            assert ratio == pytest.approx(1.0, rel=1e-9)
        assert result.metrics["pow2_gap_clipped"] < 1e-9
        assert result.metrics["pow2_gap_padded"] > 0.2

    def test_deployment(self, exhibits):
        result = exhibits["Ablation: deployment"]
        # the unified design concedes something, but far less than
        # reconfiguration would cost
        assert 0.0 <= result.metrics["mean_gap"] < 0.5
        # one shared tiling must cost something, and unevenly
        assert result.metrics["aggregate_penalty"] > 0.05
        assert result.metrics["worst_layer_penalty"] > result.metrics["aggregate_penalty"]
        assert result.metrics["shared_aggregate_gops"] < result.metrics["flexible_aggregate_gops"]

    def test_roofline_baseline(self, exhibits):
        result = exhibits["Ablation: roofline baseline"]
        assert result.metrics["gap_at_1518"] > result.metrics["gap_at_128"]
        assert result.metrics["gap_at_1518"] > 3.0

    def test_clock_surrogate(self, exhibits):
        result = exhibits["Ablation: clock surrogate"]
        assert result.metrics["min_dsp_utilization"] >= 0.85
        assert result.metrics["max_model_error"] < 0.06
        assert result.metrics["gflops_spread"] < 1.5
