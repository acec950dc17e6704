"""Tests for the Problem-2 middle-bound tuner."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.loop import conv_loop_nest
from repro.model.design_point import ArrayShape, DesignPoint
from repro.model.mapping import Mapping
from repro.model.platform import Platform
from repro.dse.tuner import MiddleTuner, middle_candidates, tuning_space_size
from tests.dse.oracle import ScalarTuner
from tests.strategies import array_shapes


def conv5():
    return conv_loop_nest(128, 192, 13, 13, 3, 3, name="conv5")


SYS1 = (Mapping("o", "c", "i", "IN", "W"), ArrayShape(11, 13, 8))


class TestMiddleCandidates:
    def test_powers_of_two_with_cover(self):
        # pow2 ladder reaches the next power of two >= cover (16), plus the
        # cover itself (13)
        assert middle_candidates(13, 1) == (1, 2, 4, 8, 13, 16)

    def test_cover_already_power_of_two(self):
        assert middle_candidates(16, 1) == (1, 2, 4, 8, 16)

    def test_paper_faithful_mode(self):
        assert middle_candidates(13, 1, include_cover=False) == (1, 2, 4, 8, 16)

    def test_inner_bound_shrinks_cover(self):
        # N=192, t=8 -> cover 24, next pow2 32
        assert middle_candidates(192, 8) == (1, 2, 4, 8, 16, 24, 32)

    def test_mapped_loop_fully_covered_by_inner(self):
        assert middle_candidates(13, 13) == (1,)

    def test_candidates_bounded_by_next_pow2_of_cover(self):
        import math

        for n in (3, 5, 13, 55, 224):
            for t in (1, 2, 8, 13):
                cover = math.ceil(n / t)
                limit = 1 << (cover - 1).bit_length() if cover > 1 else 1
                assert all(c <= limit for c in middle_candidates(n, t))
                assert cover in middle_candidates(n, t)


class TestTuningSpaceSize:
    def test_full_space_is_product_of_covers(self):
        nest = conv5()
        size = tuning_space_size(nest, {"o": 11, "c": 13, "i": 8})
        # covers: o 12, i 24, c 1, r 13, p 3, q 3
        assert size == 12 * 24 * 1 * 13 * 3 * 3

    def test_pruned_much_smaller(self):
        tuner = MiddleTuner(conv5(), *SYS1, Platform())
        full = tuning_space_size(conv5(), {"o": 11, "c": 13, "i": 8})
        assert tuner.pruned_space_size() < full / 7  # ~17.5x in the paper


class TestEvaluationEquivalence:
    """The scalar oracle the kernel is held to (``tests/dse/oracle.py``)
    must match the reference object model."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_points_match_reference(self, seed):
        nest = conv5()
        platform = Platform()
        tuner = ScalarTuner(nest, *SYS1, platform)
        rng = random.Random(seed)
        for _ in range(50):
            mids = tuple(rng.choice(c) for c in tuner.candidates)
            fast_t, fast_bram, fast_eff = tuner.evaluate(mids, 280e6)
            dp = DesignPoint.create(nest, *SYS1, dict(zip(tuner.iterators, mids)))
            ev = dp.evaluate(platform)
            assert fast_t == pytest.approx(ev.performance.throughput_gops * 1e9, rel=1e-9)
            assert fast_bram == ev.bram.total
            assert fast_eff == pytest.approx(ev.performance.efficiency, rel=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_clipped_semantics_matches_reference(self, seed):
        """Under clipped-middle semantics the tuner clips block extents;
        the reference model must agree (it uses block_domain_clipped)."""
        nest = conv5()
        platform = Platform(ragged_middle="clipped")
        tuner = ScalarTuner(nest, *SYS1, platform)
        rng = random.Random(seed)
        for _ in range(40):
            mids = tuple(rng.choice(c) for c in tuner.candidates)
            fast_t, fast_bram, fast_eff = tuner.evaluate(mids, 280e6)
            dp = DesignPoint.create(nest, *SYS1, dict(zip(tuner.iterators, mids)))
            ev = dp.evaluate(platform)
            assert fast_t == pytest.approx(ev.performance.throughput_gops * 1e9, rel=1e-9)
            assert fast_bram == ev.bram.total
            assert fast_eff == pytest.approx(ev.performance.efficiency, rel=1e-12)

    def test_strided_nest_is_conservative(self):
        """With stride coefficients (unfolded conv1) and small kernel
        blocks, the input footprint is a sparse lattice; the reference
        model enumerates it exactly while the tuner's closed form counts
        the bounding box.  The tuner must therefore be *conservative*
        (never report more throughput or less BRAM), and exact whenever
        the lattice is dense.  The DSE's actual strided path folds the
        layer first, where both agree exactly."""
        from repro.ir.domain import rectangular_is_exact

        nest = conv_loop_nest(96, 3, 55, 55, 11, 11, stride=4, name="conv1")
        platform = Platform()
        mapping = Mapping("o", "c", "i", "IN", "W")
        shape = ArrayShape(8, 11, 4)
        tuner = ScalarTuner(nest, mapping, shape, platform)
        rng = random.Random(7)
        exact_seen = 0
        for _ in range(25):
            mids = tuple(rng.choice(c) for c in tuner.candidates)
            fast_t, fast_bram, _ = tuner.evaluate(mids, 280e6)
            dp = DesignPoint.create(nest, mapping, shape, dict(zip(tuner.iterators, mids)))
            ev = dp.evaluate(platform)
            ref_t = ev.performance.throughput_gops * 1e9
            assert fast_t <= ref_t * (1 + 1e-9)
            assert fast_bram >= ev.bram.total
            if all(
                rectangular_is_exact(a, dp.tiled.block_domain) for a in nest.accesses
            ):
                exact_seen += 1
                assert fast_t == pytest.approx(ref_t, rel=1e-9)
                assert fast_bram == ev.bram.total


class TestTune:
    def test_reproduces_papers_good_tiling(self):
        """Section 2.3: sys1 with Tile(I,O,R,C,P,Q) = (4,4,13,1,3,3) hits
        the 621 GFlops peak — the tuner finds exactly that tiling."""
        result = MiddleTuner(conv5(), *SYS1, Platform()).tune()
        assert result.throughput_gops == pytest.approx(621, rel=0.01)
        mids = result.design.middle_bounds
        assert mids["i"] == 4 and mids["o"] == 4
        assert mids["r"] == 13 and mids["c"] == 1
        assert mids["p"] == 3 and mids["q"] == 3

    def test_winner_is_best_in_pruned_space(self):
        """Exhaustively verify the tuner's winner against a full walk of
        its own candidate space."""
        result = MiddleTuner(conv5(), *SYS1, Platform()).tune()
        oracle = ScalarTuner(conv5(), *SYS1, Platform())
        best = 0.0
        for mids in itertools.product(*oracle.candidates):
            t, bram, _ = oracle.evaluate(mids, 280e6)
            if bram <= Platform().bram_total:
                best = max(best, t)
        assert result.throughput_gops * 1e9 == pytest.approx(best, rel=1e-12)

    def test_winner_fits_bram(self):
        result = MiddleTuner(conv5(), *SYS1, Platform()).tune()
        assert result.bram_blocks <= Platform().bram_total

    def test_raises_when_nothing_fits(self):
        """A platform with a 1-block RAM budget admits nothing."""
        from dataclasses import replace

        from repro.hw.device import ARRIA10_GT1150

        tiny_dev = replace(ARRIA10_GT1150, bram_blocks=1, name="tiny")
        platform = Platform(device=tiny_dev)
        with pytest.raises(RuntimeError):
            MiddleTuner(conv5(), *SYS1, platform).tune()

    def test_frequency_scales_compute_bound_result(self):
        tuner = MiddleTuner(conv5(), *SYS1, Platform())
        fast = tuner.tune(frequency_mhz=280.0)
        slow = tuner.tune(frequency_mhz=140.0)
        assert fast.throughput_gops == pytest.approx(2 * slow.throughput_gops, rel=0.05)

    def test_deterministic(self):
        a = MiddleTuner(conv5(), *SYS1, Platform()).tune()
        b = MiddleTuner(conv5(), *SYS1, Platform()).tune()
        assert a.design == b.design

    @settings(max_examples=15, deadline=None)
    @given(
        shape=array_shapes(
            min_rows=2, max_rows=16, min_cols=2, max_cols=16, vectors=(2, 4, 8)
        )
    )
    def test_property_tuned_throughput_below_peak(self, shape):
        platform = Platform()
        result = MiddleTuner(conv5(), SYS1[0], shape, platform).tune()
        peak = 2 * shape.lanes * platform.assumed_clock_mhz * 1e6 / 1e9
        assert 0 < result.throughput_gops <= peak * 1.0001
