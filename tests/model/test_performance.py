"""Tests for the throughput model (Eq. 7-10), pinned to the paper's
quantitative anchors: Table 1's peak throughputs and the Section 2.3
bandwidth example."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.loop import conv_loop_nest
from repro.model.design_point import ArrayShape, DesignPoint
from repro.model.mapping import Mapping
from repro.model.platform import Platform

SYS1_MAPPING = Mapping("o", "c", "i", "IN", "W")


def conv5():
    return conv_loop_nest(128, 192, 13, 13, 3, 3, name="conv5")


def estimate(middle=None, shape=ArrayShape(11, 13, 8), platform=None, **kwargs):
    """The model's performance record of conv5 on a SYS1-mapped array —
    by default Table 1 sys1: (row, col, vec) = (11 on o, 13 on c, 8 on i)."""
    design = DesignPoint.create(conv5(), SYS1_MAPPING, shape, middle)
    return design.evaluate(platform or Platform(), **kwargs).performance


GOOD_TILING = {"o": 4, "i": 4, "r": 13, "c": 1, "p": 3, "q": 3}
BAD_TILING = {"o": 2, "i": 2, "r": 2, "c": 2, "p": 2, "q": 2}


class TestTable1PeakThroughput:
    def test_sys1_peak_621_gflops(self):
        """Eff x 2 x 1144 x 280 MHz ~ 621 GFlops."""
        est = estimate(GOOD_TILING)
        assert est.pt_gops == pytest.approx(621, rel=0.01)

    def test_sys2_peak_466_gflops(self):
        """sys2 (16,10,8): the paper prints Eff 60.00% but 466 GFlops; the
        model gives Eff 65.00% which is consistent with 466 (and we flag
        the 60.00% as a typo in EXPERIMENTS.md)."""
        est = estimate(shape=ArrayShape(16, 10, 8))
        assert est.efficiency == pytest.approx(0.65)
        assert est.pt_gops == pytest.approx(466, rel=0.01)


class TestSection23BandwidthExample:
    def test_good_tiling_is_compute_bound(self):
        """Tile (4,4,13,1,3,3) reaches the 621 GFlops peak at 19.2 GB/s."""
        est = estimate(GOOD_TILING)
        assert est.bound == "compute"
        assert est.throughput_gops == pytest.approx(621, rel=0.01)

    def test_bad_tiling_is_memory_bound(self):
        """Tile (2,2,2,2,2,2): the paper quotes 162 GFlops for this low-QoR
        configuration — which is exactly the quantization-derated compute
        bound PT the model produces.  The memory side is even tighter (the
        tiny blocks re-transfer all three arrays constantly), so the model
        flags the design memory-bound.  Either way it sits 4-14x below the
        621 GFlops peak, which is the paper's point."""
        est = estimate(BAD_TILING)
        assert est.bound == "memory"
        assert est.pt_gops == pytest.approx(162, rel=0.01)
        assert est.mt_gops < est.pt_gops
        assert est.throughput_gops < 621 / 4

    def test_bad_tiling_needs_67_gbs_for_peak(self):
        """'we require around 67 GB/s memory bandwidth to achieve the peak
        throughput'."""
        est = estimate(BAD_TILING)
        assert est.bandwidth_demand_gbs == pytest.approx(67, rel=0.10)

    def test_good_tiling_demand_under_available(self):
        est = estimate(GOOD_TILING)
        assert est.bandwidth_demand_gbs < 19.2


class TestModelStructure:
    def test_throughput_is_min_of_pt_mt(self):
        for middle in (GOOD_TILING, BAD_TILING, None):
            est = estimate(middle)
            assert est.throughput_gops == pytest.approx(min(est.pt_gops, est.mt_gops))

    def test_mt_is_min_over_limits(self):
        est = estimate(BAD_TILING)
        candidates = [est.mt_total_gops, *est.mt_per_array_gops.values()]
        assert est.mt_gops == pytest.approx(min(candidates))

    def test_seconds_matches_ops_over_throughput(self):
        est = estimate(GOOD_TILING)
        assert est.seconds == pytest.approx(
            est.effective_ops / (est.throughput_gops * 1e9)
        )

    def test_frequency_override(self):
        base = estimate(GOOD_TILING)
        slower = estimate(GOOD_TILING, frequency_mhz=140.0)
        assert slower.pt_gops == pytest.approx(base.pt_gops / 2)

    def test_block_bytes_per_array_present(self):
        est = estimate(GOOD_TILING)
        assert set(est.block_bytes) == {"OUT", "W", "IN"}
        assert all(v > 0 for v in est.block_bytes.values())

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([1, 2, 3, 4, 6, 12]),
        st.sampled_from([1, 2, 4]),
        st.sampled_from([1, 13]),
    )
    def test_property_mt_monotone_in_middle_bounds(self, si, so, sr):
        """The paper's pruning argument: throughput is monotonic
        non-decreasing in the middle bounds.  The claim assumes divisibility
        (efficiency constant); we grow s_i within divisor-friendly sizes
        (8*s_i divides I=192 before and after doubling) so only the reuse
        effect is measured."""
        platform = Platform()
        base = estimate({"i": si, "o": so, "r": sr}, platform=platform)
        grown = estimate({"i": si * 2, "o": so, "r": sr}, platform=platform)
        assert grown.mt_gops >= base.mt_gops * 0.999

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([1, 2, 3, 4, 6, 8]), st.sampled_from([1, 2, 4, 13]))
    def test_property_throughput_positive_and_bounded_by_peak(self, si, sr):
        est = estimate({"i": si, "r": sr})
        peak = 2 * 1144 * 280e6 / 1e9
        assert 0 < est.throughput_gops <= peak * 1.0001
