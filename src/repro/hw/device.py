"""FPGA device database.

Capacities for the evaluation device (Arria 10 GT 1150) and the comparison
devices of Table 2.  BRAM is counted in device-native blocks (M20K for
Intel, RAMB18-equivalents for Xilinx).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FPGADevice:
    """Static capacities of one FPGA.

    Attributes:
        name: device name.
        vendor: "intel" or "xilinx".
        dsp_blocks: hard DSP block count.
        bram_blocks: on-chip RAM block count (M20K / RAMB18 scale).
        bram_kbits_per_block: bits per RAM block / 1024.
        logic_cells: ALMs (Intel) or LUTs (Xilinx) — the unit each vendor's
            reports use, which is also what Table 2's percentages are
            against.
        dsp_supports_native_float: True for Arria 10's hardened FP DSPs.
    """

    name: str
    vendor: str
    dsp_blocks: int
    bram_blocks: int
    bram_kbits_per_block: int
    logic_cells: int
    dsp_supports_native_float: bool = False

    def __post_init__(self) -> None:
        if self.vendor not in ("intel", "xilinx"):
            raise ValueError(f"{self.name}: unknown vendor {self.vendor!r}")
        if min(self.dsp_blocks, self.bram_blocks, self.logic_cells) < 1:
            raise ValueError(f"{self.name}: nonpositive capacity")

    def bram_words_per_block(self, word_bytes: int) -> int:
        """Words one RAM block stores at a given word size.

        Models the discrete port-width configurations of an M20K: 512
        deep at 32/40-bit, 1024 at 20/16-bit, 2048 at 10/8-bit.  The same
        power-of-two laddering approximates Xilinx BRAM well enough for
        the comparison rows.
        """
        if word_bytes >= 4:
            return max(1, 512 * 4 // word_bytes)  # 512 at 4 B, 256 at 8 B, ...
        if word_bytes >= 2:
            return 1024
        return 2048

    def mac_capacity(self, dsp_per_mac: float) -> int:
        """Parallel MAC lanes the DSP fabric supports at a datatype cost."""
        return int(self.dsp_blocks / dsp_per_mac)


ARRIA10_GT1150 = FPGADevice(
    name="arria10_gt1150",
    vendor="intel",
    dsp_blocks=1518,
    bram_blocks=2713,
    bram_kbits_per_block=20,
    logic_cells=427_200,
    dsp_supports_native_float=True,
)
"""The paper's board: 'Intel's Arria 10 GT 1150 board which contains 1518
hardened floating point DSPs.'"""

ARRIA10_GX1150 = FPGADevice(
    name="arria10_gx1150",
    vendor="intel",
    dsp_blocks=1518,
    bram_blocks=2713,
    bram_kbits_per_block=20,
    logic_cells=427_200,
    dsp_supports_native_float=True,
)
"""Same die as GT1150 (used by [11], [17], [26] in Table 2)."""

STRATIX_V = FPGADevice(
    name="stratix_v_gsd8",
    vendor="intel",
    dsp_blocks=1963,
    bram_blocks=2567,
    bram_kbits_per_block=20,
    logic_cells=622_000,
)

XILINX_VC709 = FPGADevice(
    name="xilinx_vc709",
    vendor="xilinx",
    dsp_blocks=3600,
    bram_blocks=2940,
    bram_kbits_per_block=18,
    logic_cells=433_200,
)

XILINX_KU060 = FPGADevice(
    name="xilinx_ku060",
    vendor="xilinx",
    dsp_blocks=2760,
    bram_blocks=2160,
    bram_kbits_per_block=18,
    logic_cells=331_680,
)

DEVICES = {
    device.name: device
    for device in (ARRIA10_GT1150, ARRIA10_GX1150, STRATIX_V, XILINX_VC709, XILINX_KU060)
}


def device_by_name(name: str) -> FPGADevice:
    """Look up a device by name."""
    try:
        return DEVICES[name]
    except KeyError:
        raise KeyError(f"unknown device {name!r}; available: {sorted(DEVICES)}") from None


__all__ = [
    "ARRIA10_GT1150",
    "ARRIA10_GX1150",
    "DEVICES",
    "FPGADevice",
    "STRATIX_V",
    "XILINX_KU060",
    "XILINX_VC709",
    "device_by_name",
]
