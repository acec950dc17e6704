"""Full-system simulation tests: when do the buffer chains bottleneck?"""

import pytest

from repro.ir.loop import conv_loop_nest
from repro.model.design_point import ArrayShape, DesignPoint
from repro.model.mapping import Mapping
from repro.model.platform import Platform
from repro.sim.perf import simulate_performance
from repro.sim.system import simulate_system


def conv5_design():
    nest = conv_loop_nest(128, 192, 13, 13, 3, 3, name="conv5")
    return DesignPoint.create(
        nest, Mapping("o", "c", "i", "IN", "W"), ArrayShape(11, 13, 8),
        {"i": 4, "o": 4, "r": 13, "c": 1, "p": 3, "q": 3},
    )


class TestSystemVsPerf:
    def test_wide_lines_validate_perf_sim_assumption(self):
        """With realistic 512-bit chain lines, the chain never binds and
        the full-system result equals the block-level simulator's."""
        design = conv5_design()
        platform = Platform()
        system = simulate_system(design, platform, line_words=16)
        perf = simulate_performance(design, platform, streaming=True)
        assert system.throughput_gops == pytest.approx(perf.throughput_gops, rel=1e-6)
        assert system.chain_limited_blocks == 0
        assert system.bound == "compute"

    def test_scalar_chains_collapse_throughput(self):
        """One word per hop cannot keep 1144 MACs fed: the chains bind on
        every block and throughput collapses — the quantitative reason
        the architecture streams wide lines."""
        design = conv5_design()
        platform = Platform()
        scalar = simulate_system(design, platform, line_words=1)
        wide = simulate_system(design, platform, line_words=16)
        assert scalar.bound == "chain"
        assert scalar.chain_limited_blocks == design.tiled.total_blocks
        assert scalar.throughput_gops < wide.throughput_gops / 4

    def test_monotone_in_line_width(self):
        design = conv5_design()
        platform = Platform()
        results = [
            simulate_system(design, platform, line_words=w).throughput_gops
            for w in (1, 2, 4, 8, 16)
        ]
        assert results == sorted(results)

    def test_latency_mode_adds_edges(self):
        design = conv5_design()
        platform = Platform()
        streaming = simulate_system(design, platform, streaming=True)
        latency = simulate_system(design, platform, streaming=False)
        assert latency.cycles > streaming.cycles

    def test_rejects_bad_line_width(self):
        with pytest.raises(ValueError):
            simulate_system(conv5_design(), Platform(), line_words=0)

    def test_memory_bound_design_reports_dram(self):
        nest = conv_loop_nest(128, 192, 13, 13, 3, 3, name="conv5")
        bad = DesignPoint.create(
            nest, Mapping("o", "c", "i", "IN", "W"), ArrayShape(11, 13, 8),
            {"o": 2, "i": 2, "r": 2, "c": 2, "p": 2, "q": 2},
        )
        system = simulate_system(bad, Platform(), line_words=16)
        assert system.bound == "dram"


class TestChainLengths:
    def test_chain_lengths_follow_the_mapping(self, monkeypatch):
        """The horizontally shifted operand has one feeder per row, the
        vertically shifted one (and the drain) one per column — also when
        W is the vertical array, which the old by-rank assignment ("the
        weight spans the rows") got backwards."""
        import repro.sim.system as system

        nest = conv_loop_nest(16, 8, 7, 7, 3, 3, name="wdown")
        design = DesignPoint.create(
            nest, Mapping("c", "o", "i", "W", "IN"), ArrayShape(2, 5, 2),
            {"r": 7, "p": 3, "q": 3},
        )
        lengths = []
        real = system.chain_fill_cycles
        monkeypatch.setattr(
            system, "chain_fill_cycles",
            lambda lines, length: lengths.append(length) or real(lines, length),
        )
        simulate_system(design, Platform(), line_words=1)
        assert [a.array for a in nest.accesses] == ["OUT", "W", "IN"]
        assert lengths[:3] == [5, 5, 2]  # drain: cols, W (vertical): cols, IN: rows
