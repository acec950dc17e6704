"""Resource utilization models (paper Section 3.3, Eq. 4–6).

DSP usage is exact: the array instantiates one MAC lane per inner-loop
iteration (Eq. 4), at the datatype's DSP cost per lane.

BRAM usage follows Eq. 6: each double-buffered reuse buffer occupies a
power-of-two number of RAM blocks (the Intel OpenCL flow "will allocate
the actual memory size as the rounding up power of two value") for its
footprint :math:`DA_r` (Eq. 5), plus the constant per-buffer overhead
``c_b`` and the per-PE cost ``c_p``.  Eq. 5/6 are computed once, in the
DSE's tiling kernel (:meth:`repro.dse.tuner.MiddleTuner.terms`);
:class:`BramBreakdown` is the record
:meth:`repro.model.design_point.DesignPoint.evaluate` fills from it.

A coarse logic (ALM/LUT) model is included for the Table 3 utilization
columns; it is a linear calibration, documented as such.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.platform import Platform


def dsp_usage(rows: int, cols: int, vector: int, platform: Platform) -> float:
    """Eq. 4: DSP blocks consumed by the PE array.

    ``DSP_per_PE x prod(t)`` with DSP_per_PE taken from the datatype
    (1 block per float MAC lane, 0.5 per 8x16 fixed lane).
    """
    if min(rows, cols, vector) < 1:
        raise ValueError("array shape must be positive")
    return rows * cols * vector * platform.dsp_per_mac


@dataclass(frozen=True)
class BramBreakdown:
    """Where the RAM blocks go, for reporting and Fig. 7(a).

    Attributes:
        per_array_blocks: array name -> double-buffered, power-of-two
            rounded block count (incl. ``c_b``).
        pe_blocks: blocks inside the PE array (``c_p x #PE``).
        footprints: array name -> DA_r in words.
    """

    per_array_blocks: dict[str, int]
    pe_blocks: int
    footprints: dict[str, int]

    @property
    def total(self) -> int:
        """Total RAM blocks (the B(s, t) of Eq. 6)."""
        return sum(self.per_array_blocks.values()) + self.pe_blocks


def logic_usage(
    rows: int,
    cols: int,
    vector: int,
    platform: Platform,
    *,
    base_cells: int = 40_000,
    cells_per_lane: float = 160.0,
) -> float:
    """Rough ALM/LUT count: infrastructure base + per-MAC-lane glue.

    Calibrated so the paper's unified designs (~1200 float lanes) land
    near the reported ~57-59% logic on Arria 10.  Reporting-only — no
    DSE decision depends on logic.
    """
    return base_cells + cells_per_lane * (rows * cols * vector)


__all__ = ["BramBreakdown", "dsp_usage", "logic_usage"]
