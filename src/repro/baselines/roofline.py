"""Roofline-model DSE baseline (Zhang et al., FPGA'15 style).

The paper's motivation: prior accelerators unroll loops into directly
connected PE farms and pick tile/unroll factors with a roofline model;
this "achieve[s] massive parallelization", but on big devices "the
implementation of the design may have difficulty in making the timing
closure" — large fan-out, long wires, wide muxes.  This module implements
that baseline faithfully enough to quantify the argument:

* design space: unroll factors (To, Ti) over output/input channels and
  tile sizes (Tr, Tc) over the feature map — the FPGA'15 space;
* performance: attainable = min(computation roof, CTC x bandwidth);
* frequency: a *direct-interconnect* frequency surrogate whose fan-out
  penalty grows with the unroll product, unlike the systolic surrogate's
  flat profile — this is exactly the contrast of the paper's Section 1.

The roofline-baseline ablation (:mod:`repro.experiments.ablations`)
sweeps the DSP budget and shows the crossover: the direct design wins
nothing at scale because its clock collapses, while the systolic design
keeps ~250+ MHz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.model.platform import Platform
from repro.nn.layers import ConvLayer


@dataclass(frozen=True)
class RooflineDesign:
    """Winner of the roofline exploration.

    Attributes:
        unroll_out: To — output channels computed in parallel.
        unroll_in: Ti — input channels multiplied in parallel.
        tile_rows / tile_cols: Tr, Tc feature-map tile.
        frequency_mhz: realized clock of the direct design.
        throughput_gops: attainable performance at that clock.
        ctc_ratio: computation-to-communication ratio (ops/byte).
        dsp_utilization: fraction of the budget used.
    """

    unroll_out: int
    unroll_in: int
    tile_rows: int
    tile_cols: int
    frequency_mhz: float
    throughput_gops: float
    ctc_ratio: float
    dsp_utilization: float


def direct_frequency(lanes: int) -> float:
    """Clock of a direct-interconnect PE farm.

    Broadcast fan-out and the output mux tree deepen with the unroll
    product, costing roughly a logic level (and routing slack) per
    doubling: ``f = 280 - 85 * log10(lanes)`` MHz, floored at 60 MHz.
    Calibrated so ~100 lanes run near the FPGA'15 report (~100 MHz at
    448 DSPs on Virtex-7) and ~1500 lanes collapse below 20% of the
    systolic clock — the paper's "dramatic performance degradation".
    """
    if lanes < 1:
        raise ValueError("lanes must be positive")
    return max(60.0, 280.0 - 85.0 * math.log10(lanes))


def roofline_explore(layer: ConvLayer, platform: Platform) -> RooflineDesign:
    """Exhaustive roofline DSE for one layer (the FPGA'15 procedure).

    Args:
        layer: the conv layer (per-group view is taken automatically).
        platform: supplies the DSP budget (the cap on To*Ti) and bandwidth.

    Returns:
        The attainable-throughput-maximal :class:`RooflineDesign`.
    """
    per_group = layer.group_view()
    out_ch, in_ch = per_group.out_channels, per_group.in_channels
    out_h, out_w = per_group.out_height, per_group.out_width
    kernel = per_group.kernel
    budget = platform.dsp_total
    bw = platform.memory.total_bytes_per_second
    word = platform.datatype.activation_bytes

    best: RooflineDesign | None = None
    # Unroll factors over channels (divisor-friendly candidates).
    def candidates(n: int) -> list[int]:
        values = {1, n}
        k = 1
        while k * k <= n:
            if n % k == 0:
                values.add(k)
                values.add(n // k)
            k += 1
        values |= {2, 4, 8, 16, 32, 64}
        return sorted(v for v in values if v <= n)

    for unroll_out in candidates(out_ch):
        for unroll_in in candidates(in_ch):
            lanes = unroll_out * unroll_in
            if lanes > budget:
                continue
            freq = direct_frequency(lanes)
            comp_roof = 2.0 * lanes * freq * 1e6
            # Feature-map tiles: bigger tiles raise CTC until BRAM binds;
            # sweep a few representative tile shapes.
            for tile_rows in sorted({out_h, max(1, out_h // 2), max(1, out_h // 4)}):
                for tile_cols in sorted({out_w, max(1, out_w // 2)}):
                    ops = 2.0 * out_ch * in_ch * tile_rows * tile_cols * kernel * kernel
                    in_bytes = (
                        in_ch
                        * (tile_rows * layer.stride + kernel - 1)
                        * (tile_cols * layer.stride + kernel - 1)
                        * word
                    )
                    w_bytes = out_ch * in_ch * kernel * kernel * word
                    out_bytes = out_ch * tile_rows * tile_cols * word
                    ctc = ops / (in_bytes + w_bytes + out_bytes)
                    attainable = min(comp_roof, ctc * bw)
                    util = lanes / platform.dsp_total
                    candidate = RooflineDesign(
                        unroll_out=unroll_out,
                        unroll_in=unroll_in,
                        tile_rows=tile_rows,
                        tile_cols=tile_cols,
                        frequency_mhz=freq,
                        throughput_gops=attainable / 1e9,
                        ctc_ratio=ctc,
                        dsp_utilization=util,
                    )
                    if best is None or candidate.throughput_gops > best.throughput_gops:
                        best = candidate
    assert best is not None
    return best


__all__ = ["RooflineDesign", "direct_frequency", "roofline_explore"]
