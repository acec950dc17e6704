"""Throughput model (paper Section 3.4, Eq. 7–10).

Double buffering decouples computation from data transfer, so layer
throughput is the minimum of:

* **PT** (Eq. 8) — computation: the fully pipelined array retires
  ``prod(t)`` MACs (2 ops) per cycle, derated by DSP efficiency;
* **MT** (Eq. 9/10) — memory: effective ops per block divided by the
  block's transfer time, at both the aggregate bandwidth and each array
  port's bandwidth.

All throughputs are reported in Gops (= GFlops for float precision).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.domain import count_footprint
from repro.ir.tiling import TiledLoopNest
from repro.model.mapping import array_roles
from repro.model.platform import Platform


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


def estimate_performance(
    tiled: TiledLoopNest,
    platform: Platform,
    *,
    frequency_mhz: float | None = None,
) -> PerformanceEstimate:
    """Evaluate Eq. 7–10 for one tiled design.

    Args:
        tiled: the design's tiled loop nest (mapping + shape + tiling).
        platform: evaluation platform.
        frequency_mhz: clock override; defaults to the platform's phase-1
            assumed clock.

    Returns:
        A :class:`PerformanceEstimate`.
    """
    freq_hz = (frequency_mhz or platform.assumed_clock_mhz) * 1e6
    eff = (
        tiled.efficiency
        if platform.ragged_middle == "padded"
        else tiled.clipped_efficiency
    )

    lanes = 1
    for _, bound in tiled.tiling.inner:
        lanes *= bound

    # Eq. 8 — computation throughput.
    pt = eff * 2.0 * lanes * freq_hz

    # Eq. 9/10 — memory transfer throughput.  Clipped platforms use the
    # clipped block domain so the model agrees with the DSE tuner.
    roles = array_roles(tiled.nest)
    domain = (
        tiled.block_domain
        if platform.ragged_middle == "padded"
        else tiled.block_domain_clipped
    )
    block_iterations = domain.size
    block_ops = eff * 2.0 * block_iterations

    block_bytes: dict[str, int] = {}
    for access in tiled.nest.accesses:
        words = count_footprint(access, domain)
        block_bytes[access.array] = words * platform.datatype.bytes_for(roles[access.array])

    total_bytes = sum(block_bytes.values())
    mt_total = block_ops / (total_bytes / platform.memory.total_bytes_per_second)
    mt_per_array = {
        array: block_ops / (nbytes / platform.memory.port_bytes_per_second)
        for array, nbytes in block_bytes.items()
    }
    mt = min(mt_total, *mt_per_array.values())

    throughput = min(pt, mt)
    effective_ops = tiled.nest.total_operations
    return PerformanceEstimate(
        frequency_mhz=freq_hz / 1e6,
        efficiency=eff,
        lanes=lanes,
        block_iterations=block_iterations,
        pt_gops=pt / 1e9,
        mt_gops=mt / 1e9,
        mt_total_gops=mt_total / 1e9,
        mt_per_array_gops={a: v / 1e9 for a, v in mt_per_array.items()},
        throughput_gops=throughput / 1e9,
        effective_ops=effective_ops,
        seconds=effective_ops / throughput,
        block_bytes=block_bytes,
    )


__all__ = [
    "PerformanceEstimate",
    "estimate_performance",
]
