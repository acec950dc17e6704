"""Tests for unified multi-layer design selection."""

import pytest

from repro.model.platform import Platform
from repro.nn.models import alexnet, tiny_cnn
from repro.dse.explore import DseConfig, NoFeasibleDesign
from repro.dse.multi_layer import (
    prepare_network_nests,
    select_unified_design,
)


FAST = DseConfig(min_dsp_utilization=0.9, vector_choices=(8,), top_n=3)


class TestPrepareNetworkNests:
    def test_alexnet_workloads(self):
        workloads = prepare_network_nests(alexnet())
        assert [w.name for w in workloads] == ["conv1", "conv2", "conv3", "conv4", "conv5"]

    def test_conv1_is_folded(self):
        w = prepare_network_nests(alexnet())[0]
        assert w.nest.bounds["i"] == 48  # 3 * 4^2
        assert w.nest.bounds["p"] == 3
        # effective ops stay the original layer's
        assert w.effective_ops == alexnet().conv_layers[0].flops
        assert w.nest.total_operations > w.effective_ops  # folding waste

    def test_folding_can_be_disabled(self):
        w = prepare_network_nests(alexnet(), fold_strided=False)[0]
        assert w.nest.bounds["i"] == 3
        assert w.nest.bounds["p"] == 11

    def test_grouped_layers_have_multiplicity(self):
        workloads = {w.name: w for w in prepare_network_nests(alexnet())}
        assert workloads["conv2"].multiplicity == 2
        assert workloads["conv3"].multiplicity == 1
        # per-group nest bounds
        assert workloads["conv5"].nest.bounds == {
            "o": 128, "i": 192, "c": 13, "r": 13, "p": 3, "q": 3,
        }


class TestSelectUnifiedDesign:
    @pytest.fixture(scope="class")
    def result(self):
        return select_unified_design(tiny_cnn(), Platform(), DseConfig(
            min_dsp_utilization=0.0, vector_choices=(2, 4), top_n=3,
        ))

    def test_one_design_for_all_layers(self, result):
        assert len(result.layers) == 3
        assert result.config.shape.lanes <= Platform().dsp_total

    def test_latency_is_sum_of_layers(self, result):
        assert result.total_seconds == pytest.approx(
            sum(l.seconds for l in result.layers)
        )

    def test_aggregate_is_ops_over_time(self, result):
        workloads = prepare_network_nests(tiny_cnn())
        total_ops = sum(w.effective_ops for w in workloads)
        assert result.aggregate_gops == pytest.approx(
            total_ops / result.total_seconds / 1e9
        )

    def test_utilizations_in_range(self, result):
        assert 0 < result.dsp_utilization <= 1
        assert 0 < result.bram_utilization <= 1
        assert 0 < result.logic_utilization

    def test_efficiency_at_most_one(self, result):
        for layer in result.layers:
            assert 0 < layer.dsp_efficiency <= 1.0

    def test_deterministic(self):
        cfg = DseConfig(min_dsp_utilization=0.0, vector_choices=(2,), top_n=2)
        a = select_unified_design(tiny_cnn(), Platform(), cfg)
        b = select_unified_design(tiny_cnn(), Platform(), cfg)
        assert a.config == b.config
        assert a.frequency_mhz == b.frequency_mhz

    def test_unsatisfiable_search_raises_no_feasible_design(self):
        """An empty Eq. 12 window, and a RAM budget no tiling fits, are
        the one named error of every search."""
        from dataclasses import replace

        tiny = Platform()
        tiny = replace(tiny, device=replace(tiny.device, bram_blocks=1, name="tiny"))
        for platform, cs in ((Platform(), 1.0), (tiny, 0.0)):
            cfg = DseConfig(min_dsp_utilization=cs, vector_choices=(2,), top_n=2)
            with pytest.raises(NoFeasibleDesign):
                select_unified_design(tiny_cnn(), platform, cfg)

    @pytest.mark.parametrize("pruning", [True, False])
    def test_evaluations_are_consumed_candidates_plus_one_per_finalist(
        self, monkeypatch, pruning
    ):
        """Regression: phase 2 re-evaluated every finalist at the assumed
        clock only to re-read the max-BRAM figure phase 1 already held."""
        from repro.dse import multi_layer

        tasks = []
        evaluate = multi_layer.evaluate_unified

        def counting(workloads, platform, dse, task):
            tasks.append(task)
            return evaluate(workloads, platform, dse, task)

        monkeypatch.setattr(multi_layer, "evaluate_unified", counting)
        cfg = DseConfig(
            min_dsp_utilization=0.0, vector_choices=(2, 4), top_n=3,
            upper_bound_pruning=pruning,
        )
        result = select_unified_design(tiny_cnn(), Platform(), cfg)
        assumed = [config for config, mhz in tasks if mhz is None]
        realized = [config for config, mhz in tasks if mhz is not None]
        assert len(assumed) == len(set(assumed))  # phase 1: once per candidate
        if not pruning:
            assert len(assumed) == result.configs_enumerated
        assert len(realized) == min(cfg.top_n, result.configs_tuned)  # the finalists
        assert set(realized) <= set(assumed)

    @pytest.mark.parametrize("pruning", [True, False])
    def test_object_model_prices_only_the_winners_rows(self, monkeypatch, pruning):
        """Regression: every (candidate, layer) the search tuned was
        re-priced through ``DesignPoint.evaluate`` for a ``bound`` string
        only the winner's report rows show."""
        from repro.model.design_point import DesignPoint

        evaluated = []
        evaluate = DesignPoint.evaluate

        def counting(self, platform, **kwargs):
            evaluated.append(self)
            return evaluate(self, platform, **kwargs)

        monkeypatch.setattr(DesignPoint, "evaluate", counting)
        workloads = prepare_network_nests(tiny_cnn())
        cfg = DseConfig(
            min_dsp_utilization=0.0, vector_choices=(2, 4), top_n=3,
            upper_bound_pruning=pruning,
        )
        result = select_unified_design(workloads, Platform(), cfg)
        assert [d.nest for d in evaluated] == [w.nest for w in workloads]
        assert [d.middle_bounds for d in evaluated] == [l.middle for l in result.layers]


class TestAlexNetUnified:
    """Slower (seconds): the real evaluation model of Tables 3/4."""

    @pytest.fixture(scope="class")
    def result(self):
        return select_unified_design(alexnet(), Platform(), FAST)

    def test_high_dsp_utilization(self, result):
        """Table 3 reports 81% DSP for the unified AlexNet design; ours
        explores the same >=90% band we configure."""
        assert result.dsp_utilization >= 0.9

    def test_conv1_is_the_weak_layer(self, result):
        """The paper's Table 4: conv1's throughput and efficiency are far
        below the other layers (folding waste + shape mismatch)."""
        perf = {l.name: l for l in result.layers}
        others = [l.dsp_efficiency for n, l in perf.items() if n != "conv1"]
        assert perf["conv1"].dsp_efficiency < min(others)

    def test_deep_layers_near_peak(self, result):
        """conv3-5 should run at >85% efficiency like the paper's 81-90%."""
        perf = {l.name: l for l in result.layers}
        for name in ("conv3", "conv4", "conv5"):
            assert perf[name].dsp_efficiency > 0.8

    def test_realized_frequency_in_band(self, result):
        assert 200 <= result.frequency_mhz <= 300

    def test_aggregate_in_plausible_band(self, result):
        """Hundreds of GFlops at ~1400 float lanes and ~250 MHz."""
        assert 400 <= result.aggregate_gops <= 800
