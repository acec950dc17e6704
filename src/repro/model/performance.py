"""Throughput model (paper Section 3.4, Eq. 7–10).

Double buffering decouples computation from data transfer, so layer
throughput is the minimum of:

* **PT** (Eq. 8) — computation: the fully pipelined array retires
  ``prod(t)`` MACs (2 ops) per cycle, derated by DSP efficiency;
* **MT** (Eq. 9/10) — memory: effective ops per block divided by the
  block's transfer time, at both the aggregate bandwidth and each array
  port's bandwidth.

All throughputs are reported in Gops (= GFlops for float precision).

This module holds the record of that verdict.  The equations have one
copy, the DSE's tiling kernel (:meth:`repro.dse.tuner.MiddleTuner.terms`
and :meth:`~repro.dse.tuner.MiddleTuner.fold`);
:meth:`repro.model.design_point.DesignPoint.evaluate` fills this record
from one row of it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PerformanceEstimate:
    """The analytical model's verdict on one design.

    Attributes:
        frequency_mhz: clock used for the estimate.
        efficiency: DSP efficiency (Eq. 1).
        lanes: parallel MAC lanes (prod t).
        block_iterations: middle+inner iterations per block (prod(s x t)).
        pt_gops: computation throughput (Eq. 8).
        mt_gops: memory throughput (Eq. 9, min over limits).
        mt_total_gops: aggregate-bandwidth-limited throughput.
        mt_per_array_gops: per-port-limited throughput per array.
        throughput_gops: overall T = min(PT, MT) (Eq. 7).
        effective_ops: the layer's real operation count.
        seconds: closed-form layer latency = effective_ops / T.
        block_bytes: bytes transferred per block, per array.
    """

    frequency_mhz: float
    efficiency: float
    lanes: int
    block_iterations: int
    pt_gops: float
    mt_gops: float
    mt_total_gops: float
    mt_per_array_gops: dict[str, float]
    throughput_gops: float
    effective_ops: int
    seconds: float
    block_bytes: dict[str, int]

    @property
    def bound(self) -> str:
        """Which side limits the design: 'compute' or 'memory'."""
        return "compute" if self.pt_gops <= self.mt_gops else "memory"

    @property
    def bandwidth_demand_gbs(self) -> float:
        """Aggregate DRAM bandwidth needed to sustain PT, in GB/s.

        The quantity behind the paper's Section 2.3 example: "we require
        around 67 GB/s memory bandwidth to achieve the peak throughput".
        Computed as PT x (bytes moved per effective op).
        """
        block_ops = self.efficiency * 2.0 * self.block_iterations
        bytes_per_op = sum(self.block_bytes.values()) / block_ops
        return self.pt_gops * bytes_per_op  # Gops * B/op = GB/s


__all__ = ["PerformanceEstimate"]
