"""Tests for the shared data-reuse strategy (the paper's deployment)."""

from dataclasses import replace
from unittest import mock

import pytest

from repro.model.design_point import ArrayShape
from repro.model.platform import Platform
from repro.nn.models import alexnet, tiny_cnn
from repro.dse.explore import DseConfig
from repro.dse.multi_layer import prepare_network_nests, select_unified_design
from repro.dse.shared_reuse import tune_shared_reuse
from repro.dse.space import SystolicConfig
from repro.dse.tuner import MiddleTuner
from tests.dse import oracle


@pytest.fixture(scope="module")
def setup():
    platform = Platform()
    workloads = prepare_network_nests(tiny_cnn())
    unified = select_unified_design(
        workloads, platform,
        DseConfig(min_dsp_utilization=0.0, vector_choices=(2, 4), top_n=3),
    )
    return platform, workloads, unified


class TestTuneSharedReuse:
    def test_returns_one_strategy_for_all_layers(self, setup):
        platform, workloads, unified = setup
        result = tune_shared_reuse(workloads, unified.config, platform)
        assert set(result.middle) == set(workloads[0].nest.iterators)
        assert len(result.layers) == len(workloads)

    def test_fits_bram_budget(self, setup):
        platform, workloads, unified = setup
        result = tune_shared_reuse(workloads, unified.config, platform)
        assert result.bram_blocks <= platform.bram_total

    def test_never_beats_per_layer_deployment(self, setup):
        """A single shared vector is a restriction of the per-layer
        search, so its aggregate cannot exceed the flexible one (at the
        same clock)."""
        platform, workloads, unified = setup
        shared = tune_shared_reuse(
            workloads, unified.config, platform, frequency_mhz=unified.frequency_mhz
        )
        assert shared.aggregate_gops <= unified.aggregate_gops * (1 + 1e-9)

    def test_aggregate_consistent_with_layers(self, setup):
        platform, workloads, unified = setup
        result = tune_shared_reuse(workloads, unified.config, platform)
        total_ops = sum(w.effective_ops for w in workloads)
        total_time = sum(l.seconds for l in result.layers)
        assert result.aggregate_gops == pytest.approx(
            total_ops / total_time / 1e9, rel=1e-9
        )

    def test_deterministic(self, setup):
        platform, workloads, unified = setup
        a = tune_shared_reuse(workloads, unified.config, platform)
        b = tune_shared_reuse(workloads, unified.config, platform)
        assert a.middle == b.middle

    def test_rejects_empty_workloads(self, setup):
        platform, _workloads, unified = setup
        with pytest.raises(ValueError):
            tune_shared_reuse((), unified.config, platform)

    def test_raises_when_nothing_fits(self, setup):
        from dataclasses import replace

        from repro.hw.device import ARRIA10_GT1150

        platform, workloads, unified = setup
        tiny_dev = replace(ARRIA10_GT1150, bram_blocks=1, name="tiny")
        with pytest.raises(RuntimeError):
            tune_shared_reuse(workloads, unified.config, Platform(device=tiny_dev))


class TestAgainstOracle:
    """The union-ladder walk equals the oracle's ``itertools.product``
    walk: maximal aggregate, first tiling on ties, every layer within the
    BRAM budget."""

    @pytest.mark.parametrize("include_cover", [True, False])
    @pytest.mark.parametrize("chunk", [None, 7])
    def test_tiny_cnn_equals_oracle(self, setup, include_cover, chunk):
        platform, workloads, unified = setup
        with mock.patch.object(MiddleTuner, "CHUNK", chunk or MiddleTuner.CHUNK):
            for config in (unified.config, SystolicConfig(unified.config.mapping, ArrayShape(2, 2, 2))):
                kwargs = dict(include_cover=include_cover)
                assert tune_shared_reuse(workloads, config, platform, **kwargs) == (
                    oracle.shared_reuse(workloads, config, platform, **kwargs)
                )

    @pytest.mark.parametrize("bram_blocks", [313, 300, 290])
    def test_tight_budget_equals_oracle(self, setup, bram_blocks):
        """Budgets that bind: 313 and 300 move the winner off the free
        optimum, 290 admits no shared tiling at all."""
        platform, workloads, unified = setup
        tight = replace(platform, device=replace(platform.device, bram_blocks=bram_blocks))
        expected = tune_or_error(oracle.shared_reuse, workloads, unified.config, tight)
        assert tune_or_error(tune_shared_reuse, workloads, unified.config, tight) == expected

    def test_alexnet_equals_oracle(self):
        platform = Platform()
        workloads = prepare_network_nests(alexnet())[2:]
        config = select_unified_design(
            workloads, platform, DseConfig(vector_choices=(8,), top_n=2)
        ).config
        assert tune_shared_reuse(workloads, config, platform) == oracle.shared_reuse(
            workloads, config, platform
        )


def tune_or_error(search, *args):
    try:
        return search(*args)
    except RuntimeError as exc:
        return str(exc)
