"""The Platform bundle: everything a design is evaluated against.

Collects the device, datatype, memory system, frequency surrogate and the
two calibration constants of the BRAM model (Eq. 6's ``c_b`` and ``c_p``)
plus the phase-1 assumed clock (the paper evaluates the pruned space "with
a given clock frequency (280 MHz)").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.hw.datatype import FLOAT32, ArithmeticSpec
from repro.hw.device import ARRIA10_GT1150, FPGADevice
from repro.hw.frequency import FrequencyModel
from repro.hw.memory import ARRIA10_DEVKIT_DDR4, MemorySystem


@dataclass(frozen=True)
class Platform:
    """An evaluation platform for systolic designs.

    Attributes:
        device: FPGA capacities.
        datatype: arithmetic cost model.
        memory: DRAM bandwidth model.
        frequency_model: post-P&R clock surrogate (phase-2 oracle).
        assumed_clock_mhz: the fixed clock phase 1 prices designs at.
        bram_buffer_constant: Eq. 6's ``c_b`` — control/FIFO overhead
            blocks per reuse buffer.
        bram_per_pe: Eq. 6's ``c_p`` — RAM blocks per PE (output shift
            registers and local FIFOs; 0.5 = one M20K shared by two PEs).
        dsp_total_override: optional override of the DSP budget (Table 1
            computes utilization against a 1600 budget; Table 3 against
            the physical 1518 — see EXPERIMENTS.md).
        ragged_middle: quantization semantics for ragged middle blocks.
            ``"padded"`` (default) is the literal Eq. 8 reading — partial
            blocks execute their full shape — which reproduces the paper's
            Section 2.3 numbers exactly; ``"clipped"`` lets the sequential
            middle loops stop early in the last block, the semantics under
            which the paper's power-of-two tiling pruning is exactly
            optimal.  See EXPERIMENTS.md for the full discussion.
    """

    device: FPGADevice = ARRIA10_GT1150
    datatype: ArithmeticSpec = FLOAT32
    memory: MemorySystem = ARRIA10_DEVKIT_DDR4
    frequency_model: FrequencyModel = field(default_factory=FrequencyModel)
    assumed_clock_mhz: float = 280.0
    bram_buffer_constant: int = 2
    bram_per_pe: float = 0.5
    dsp_total_override: int | None = None
    ragged_middle: str = "padded"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.assumed_clock_mhz) and self.assumed_clock_mhz > 0):
            raise ValueError(
                f"assumed clock must be a finite positive MHz value, got {self.assumed_clock_mhz}"
            )
        if self.bram_buffer_constant < 0 or self.bram_per_pe < 0:
            raise ValueError("BRAM constants must be nonnegative")
        if self.ragged_middle not in ("padded", "clipped"):
            raise ValueError(
                f"ragged_middle must be 'padded' or 'clipped', got {self.ragged_middle!r}"
            )

    SOFT_FLOAT_DSP_PER_MAC = 3.0
    """DSP blocks per float32 MAC on devices without hardened FP DSPs
    (e.g. a DSP48-based multiplier plus fabric adder on Xilinx parts) —
    the resource reality that kept pre-Arria-10 float designs small."""

    @property
    def dsp_per_mac(self) -> float:
        """Effective DSP cost of one MAC lane on this device/datatype.

        Arria 10's hardened floating-point DSPs do a full float32 MAC per
        block; on devices without native float the cost multiplies."""
        cost = self.datatype.dsp_per_mac
        if self.datatype.is_floating_point and not self.device.dsp_supports_native_float:
            cost *= self.SOFT_FLOAT_DSP_PER_MAC
        return cost

    @property
    def dsp_total(self) -> int:
        """MAC-lane budget D_total at this datatype."""
        if self.dsp_total_override is not None:
            return self.dsp_total_override
        return self.device.mac_capacity(self.dsp_per_mac)

    @property
    def bram_total(self) -> int:
        """RAM-block budget B_total."""
        return self.device.bram_blocks

    def with_datatype(self, datatype: ArithmeticSpec) -> "Platform":
        """Same platform at a different precision."""
        return replace(self, datatype=datatype)


__all__ = ["Platform"]
