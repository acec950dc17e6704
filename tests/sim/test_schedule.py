"""Tests for the wave schedule and block decomposition."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.loop import conv_loop_nest
from repro.ir.tiling import LoopTiling, TiledLoopNest
from repro.sim.schedule import (
    enumerate_blocks,
    enumerate_waves,
    first_all_active_cycle,
    wave_schedule_cycles,
)


class TestWaveSchedule:
    def test_fig3_all_active_after_five_cycles(self):
        """'for the 3x3 systolic array example shown in Fig. 3, all PEs
        are active after five cycles' — 0-indexed, the first cycle with
        all 9 PEs computing is cycle 4 (the fifth cycle)."""
        assert first_all_active_cycle(3, 3) == 4

    def test_block_cycles(self):
        # M waves through RxC: M + R + C - 2
        assert wave_schedule_cycles(10, 3, 3) == 14
        assert wave_schedule_cycles(1, 1, 1) == 1

    def test_zero_waves(self):
        assert wave_schedule_cycles(0, 4, 4) == 0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            wave_schedule_cycles(-1, 3, 3)
        with pytest.raises(ValueError):
            wave_schedule_cycles(1, 0, 3)

    @settings(max_examples=50)
    @given(st.integers(1, 100), st.integers(1, 32), st.integers(1, 32))
    def test_property_cycles_at_least_waves(self, m, r, c):
        assert wave_schedule_cycles(m, r, c) >= m


class TestBlockEnumeration:
    def make(self, trip_o=10, s_o=2, t_o=2):
        nest = conv_loop_nest(trip_o, 2, 3, 3, 2, 2)
        return TiledLoopNest(nest, LoopTiling.of({"o": s_o}, {"o": t_o}))

    def test_block_count_matches(self):
        tiled = self.make()  # b_o = 4 -> 3 blocks along o
        blocks = list(enumerate_blocks(tiled, clip=False))
        assert len(blocks) == tiled.total_blocks

    def test_padded_blocks_keep_full_middle_counts(self):
        tiled = self.make()
        for block in enumerate_blocks(tiled, clip=False):
            assert block.middle_map["o"] == 2

    def test_clipped_last_block_shrinks(self):
        tiled = self.make()  # o: 10 over blocks of 4 -> last covers 2
        last = list(enumerate_blocks(tiled, clip=True))[-1]
        assert last.base_map["o"] == 8
        assert last.middle_map["o"] == 1  # ceil(2 / t_o=2)

    def test_bases_stride_by_block_extent(self):
        tiled = self.make()
        bases = sorted({b.base_map["o"] for b in enumerate_blocks(tiled, clip=True)})
        assert bases == [0, 4, 8]

    def test_waves_product(self):
        """Waves = product of middle counts: loops with s=1 contribute more
        *blocks* (one iteration each), not more waves."""
        tiled = self.make()
        first = next(iter(enumerate_blocks(tiled, clip=False)))
        assert first.waves == 2  # s_o only; all other loops have s = 1
        # and the block count absorbs the untiled loops:
        assert tiled.total_blocks == 3 * 2 * 3 * 3 * 2 * 2

    def test_enumerate_waves_counts(self):
        tiled = self.make()
        block = next(iter(enumerate_blocks(tiled, clip=False)))
        waves = list(enumerate_waves(block, tiled.nest.iterators))
        assert len(waves) == block.waves
