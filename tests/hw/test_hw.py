"""Tests for the hardware platform models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.datatype import FIXED_8_16, FIXED_16, FLOAT32, datatype_by_name
from repro.hw.device import (
    ARRIA10_GT1150,
    DEVICES,
    FPGADevice,
    device_by_name,
)
from repro.hw.frequency import FrequencyModel
from repro.hw.memory import ARRIA10_DEVKIT_DDR4, MemorySystem


class TestDatatypes:
    def test_float32_costs_one_dsp_per_mac(self):
        """Arria 10's hardened FP DSP does a full MAC per block."""
        assert FLOAT32.dsp_per_mac == 1.0
        assert FLOAT32.bytes_for("weight") == 4
        assert FLOAT32.is_floating_point

    def test_fixed_8_16_costs_half_dsp(self):
        """Two 18x19 multipliers per DSP block -> 0.5 DSP per fixed MAC."""
        assert FIXED_8_16.dsp_per_mac == 0.5
        assert FIXED_8_16.bytes_for("weight") == 1
        assert FIXED_8_16.bytes_for("input") == 2
        assert not FIXED_8_16.is_floating_point

    def test_role_lookup_rejects_unknown(self):
        with pytest.raises(ValueError):
            FLOAT32.bytes_for("bias")

    def test_lookup_by_name(self):
        assert datatype_by_name("fixed16") is FIXED_16
        with pytest.raises(KeyError):
            datatype_by_name("bfloat16")

    def test_validation(self):
        from repro.hw.datatype import ArithmeticSpec

        with pytest.raises(ValueError):
            ArithmeticSpec("bad", 0, 1, 1, 1.0, "Gops")
        with pytest.raises(ValueError):
            ArithmeticSpec("bad", 1, 1, 1, 0.0, "Gops")


class TestDeviceDatabase:
    def test_paper_board_capacities(self):
        """'Arria 10 GT 1150 board which contains 1518 hardened floating
        point DSPs'; 2713 M20K blocks; 427K ALMs."""
        assert ARRIA10_GT1150.dsp_blocks == 1518
        assert ARRIA10_GT1150.bram_blocks == 2713
        assert ARRIA10_GT1150.dsp_supports_native_float

    def test_mac_capacity_doubles_for_fixed(self):
        assert ARRIA10_GT1150.mac_capacity(1.0) == 1518
        assert ARRIA10_GT1150.mac_capacity(0.5) == 3036

    def test_table2_fixed_dsp_percentage(self):
        """Ours/VGG-fixed in Table 2: 1500 DSP lanes = 49% of capacity."""
        assert 1500 / ARRIA10_GT1150.mac_capacity(0.5) == pytest.approx(0.494, abs=0.01)

    def test_bram_words_per_block(self):
        assert ARRIA10_GT1150.bram_words_per_block(4) == 512
        assert ARRIA10_GT1150.bram_words_per_block(2) == 1024
        assert ARRIA10_GT1150.bram_words_per_block(1) == 2048
        assert ARRIA10_GT1150.bram_words_per_block(8) == 256

    def test_lookup(self):
        assert device_by_name("arria10_gt1150") is ARRIA10_GT1150
        with pytest.raises(KeyError):
            device_by_name("virtex2")
        assert len(DEVICES) >= 5

    def test_validation(self):
        with pytest.raises(ValueError):
            FPGADevice("bad", "lattice", 1, 1, 20, 1)
        with pytest.raises(ValueError):
            FPGADevice("bad", "intel", 0, 1, 20, 1)


class TestMemorySystem:
    def test_paper_bandwidth_figure(self):
        """Section 2.3 quotes 19 GB/s on the Arria 10 board."""
        assert ARRIA10_DEVKIT_DDR4.total_bandwidth_gbs == pytest.approx(19.2)

    def test_efficiency_derates(self):
        mem = MemorySystem(10.0, 10.0, efficiency=0.5)
        assert mem.total_bytes_per_second == pytest.approx(5e9)

    def test_validation(self):
        with pytest.raises(ValueError):
            MemorySystem(0.0, 1.0)
        with pytest.raises(ValueError):
            MemorySystem(10.0, 20.0)
        with pytest.raises(ValueError):
            MemorySystem(10.0, 5.0, efficiency=0.0)


class TestFrequencyModel:
    def setup_method(self):
        self.model = FrequencyModel()

    def test_deterministic(self):
        kwargs = dict(rows=11, cols=14, vector=8, dsp_utilization=0.81, bram_utilization=0.45)
        assert self.model.realize(**kwargs) == self.model.realize(**kwargs)

    def test_calibration_band(self):
        """High-utilization designs land in the paper's 220-280 MHz band."""
        freq = self.model.realize(
            rows=11, cols=14, vector=8, dsp_utilization=0.81, bram_utilization=0.45
        )
        assert 220 <= freq <= 285

    def test_skewed_aspect_is_slower_systematically(self):
        """A 1x128 array routes worse than a 12x11 one (jitter aside, the
        systematic gap of ~70 MHz dominates the +/-8 MHz jitter)."""
        balanced = self.model.realize(
            rows=12, cols=11, vector=8, dsp_utilization=0.8, bram_utilization=0.4
        )
        skewed = self.model.realize(
            rows=1, cols=128, vector=8, dsp_utilization=0.8, bram_utilization=0.4
        )
        assert skewed < balanced

    def test_signature_perturbs_frequency(self):
        """Designs identical except for tiling realize different clocks —
        the Fig. 7b effect the two-phase DSE exists to resolve."""
        freqs = {
            self.model.realize(
                rows=11,
                cols=14,
                vector=8,
                dsp_utilization=0.81,
                bram_utilization=0.45,
                signature=f"tiling-{i}",
            )
            for i in range(8)
        }
        assert len(freqs) > 1

    def test_floor_clamp(self):
        model = FrequencyModel(base_mhz=130.0, dsp_penalty_mhz=200.0, floor_mhz=120.0)
        freq = model.realize(
            rows=2, cols=2, vector=2, dsp_utilization=1.0, bram_utilization=1.0
        )
        assert freq == 120.0

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            self.model.realize(
                rows=0, cols=2, vector=2, dsp_utilization=0.5, bram_utilization=0.5
            )

    @settings(max_examples=60)
    @given(
        st.integers(1, 64),
        st.integers(1, 64),
        st.sampled_from([1, 2, 4, 8, 16]),
        st.floats(0.0, 1.2),
        st.floats(0.0, 1.2),
    )
    def test_property_frequency_bounded(self, rows, cols, vec, dsp, bram):
        freq = FrequencyModel().realize(
            rows=rows, cols=cols, vector=vec, dsp_utilization=dsp, bram_utilization=bram
        )
        assert FrequencyModel().floor_mhz <= freq <= FrequencyModel().base_mhz + 8.0

    @settings(max_examples=40)
    @given(st.floats(0.1, 1.0), st.floats(0.1, 1.0))
    def test_property_more_utilization_never_faster(self, dsp, bram):
        """With jitter disabled, frequency is monotone in utilization."""
        quiet = FrequencyModel(jitter_mhz=0.0)
        low = quiet.realize(
            rows=8, cols=8, vector=8, dsp_utilization=dsp * 0.5, bram_utilization=bram * 0.5
        )
        high = quiet.realize(
            rows=8, cols=8, vector=8, dsp_utilization=dsp, bram_utilization=bram
        )
        assert high <= low + 1e-9
