"""Tests for the two-phase exploration driver."""

import pytest

from repro.ir.loop import conv_loop_nest
from repro.model.mapping import feasible_mappings
from repro.model.platform import Platform
from repro.dse.explore import DseConfig, NoFeasibleDesign, explore, phase1, phase2
from repro.dse.tuner import MiddleTuner
from repro.dse.vector import CandidateTable, upper_bounds


def conv5():
    return conv_loop_nest(128, 192, 13, 13, 3, 3, name="conv5")


def small_nest():
    """A small layer for fast exhaustive cross-checks."""
    return conv_loop_nest(16, 8, 7, 7, 3, 3, name="small")


class TestDseConfig:
    def test_rejects_bad_cs(self):
        with pytest.raises(ValueError):
            DseConfig(min_dsp_utilization=1.5)

    def test_rejects_bad_topn(self):
        with pytest.raises(ValueError):
            DseConfig(top_n=0)


class TestUpperBound:
    def test_bound_is_admissible(self):
        """UB >= tuned throughput for every config (spot-check a sample)."""
        nest = conv5()
        platform = Platform()
        table = CandidateTable.enumerate(
            nest, feasible_mappings(nest), platform, min_dsp_utilization=0.9,
            vector_choices=(8,),
        )
        configs = [table.config(i) for i in range(0, len(table), 25)]
        bounds = upper_bounds(table, platform)[::25]
        for ub, config in zip(bounds.tolist(), configs):
            tuned = MiddleTuner(nest, config.mapping, config.shape, platform).tune()
            assert tuned.throughput_gops <= ub * (1 + 1e-9)


class TestPhase1:
    def test_finalists_sorted_and_capped(self):
        result = phase1(conv5(), Platform(), DseConfig(top_n=6))
        assert len(result.finalists) == 6
        gops = [ev.throughput_gops for ev in result.finalists]
        assert gops == sorted(gops, reverse=True)

    @pytest.mark.slow
    def test_pruning_does_not_change_topn_throughputs(self):
        """Branch-and-bound must be admissible: same top-N throughputs as
        tuning every configuration."""
        nest = small_nest()
        platform = Platform()
        cfg = dict(min_dsp_utilization=0.0, vector_choices=(2, 4), top_n=5)
        pruned = phase1(nest, platform, DseConfig(**cfg, upper_bound_pruning=True))
        full = phase1(nest, platform, DseConfig(**cfg, upper_bound_pruning=False))
        assert pruned.configs_tuned <= full.configs_tuned
        got = [round(ev.throughput_gops, 6) for ev in pruned.finalists]
        want = [round(ev.throughput_gops, 6) for ev in full.finalists]
        assert got == want

    def test_statistics_populated(self):
        result = phase1(conv5(), Platform(), DseConfig())
        assert result.configs_enumerated > result.configs_tuned > 0
        assert result.tilings_evaluated > 0
        assert result.elapsed_seconds > 0

    def test_under_30_seconds_like_the_paper(self):
        """'the first phase ... takes less than 30 seconds' — ours is
        orders of magnitude under."""
        result = phase1(conv5(), Platform(), DseConfig())
        assert result.elapsed_seconds < 30

    def test_all_finalists_feasible(self):
        result = phase1(conv5(), Platform(), DseConfig())
        for ev in result.finalists:
            assert ev.feasible
            assert ev.dsp_utilization >= 0.8 - 1e-9


class TestPhase2:
    def test_best_has_realized_frequency(self):
        platform = Platform()
        p2 = phase2(phase1(conv5(), platform, DseConfig()), platform)
        assert p2.best.performance.frequency_mhz != platform.assumed_clock_mhz
        assert 120 <= p2.best.performance.frequency_mhz <= 308

    def test_finalists_reranked_by_realized_throughput(self):
        platform = Platform()
        p2 = phase2(phase1(conv5(), platform, DseConfig()), platform)
        gops = [ev.throughput_gops for ev in p2.finalists]
        assert gops == sorted(gops, reverse=True)
        assert p2.best.throughput_gops == gops[0]

    def test_estimates_align_with_finalists(self):
        platform = Platform()
        p1 = phase1(conv5(), platform, DseConfig())
        p2 = phase2(p1, platform)
        assert len(p2.estimated_gops) == len(p2.finalists)

    def test_empty_phase1_rejected(self):
        from repro.dse.explore import Phase1Result

        with pytest.raises(ValueError):
            phase2(Phase1Result((), 0, 0, 0, 0.0), Platform())

    def test_unsatisfiable_search_raises_no_feasible_design(self):
        """c_s = 1.0 admits no configuration; a 1-block RAM budget admits
        configurations but no tiling.  Both are the one named error."""
        from dataclasses import replace

        tiny = Platform()
        tiny = replace(tiny, device=replace(tiny.device, bram_blocks=1, name="tiny"))
        for platform, config in (
            (Platform(), DseConfig(min_dsp_utilization=1.0)),
            (tiny, DseConfig(min_dsp_utilization=0.8, vector_choices=(8,))),
        ):
            with pytest.raises(NoFeasibleDesign):
                explore(small_nest(), platform, config)

    def test_phase2_can_reorder_equal_estimates(self):
        """Fig. 7(b)'s reason to exist: several finalists share the top
        estimated throughput but realize different clocks."""
        platform = Platform()
        p1 = phase1(conv5(), platform, DseConfig(top_n=14))
        top_estimate = p1.finalists[0].throughput_gops
        ties = [
            ev
            for ev in p1.finalists
            if ev.throughput_gops == pytest.approx(top_estimate, rel=1e-6)
        ]
        assert len(ties) >= 2  # the tie structure the paper reports
        p2 = phase2(p1, platform)
        realized = {round(ev.performance.frequency_mhz, 3) for ev in p2.finalists[: len(ties)]}
        assert len(realized) >= 2  # ties broken by realized frequency


class TestExploreEndToEnd:
    def test_explore_single_call(self):
        result = explore(conv5(), Platform(), DseConfig(top_n=4))
        assert result.best.throughput_gops > 300  # sanity: hundreds of GFlops

    def test_small_layer_explore(self):
        result = explore(
            small_nest(),
            Platform(),
            DseConfig(min_dsp_utilization=0.0, vector_choices=(2, 4), top_n=3),
        )
        assert result.best.feasible
