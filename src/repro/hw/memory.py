"""External memory (DRAM) bandwidth model.

The paper's performance model (Section 3.4) bounds throughput by two
bandwidth limits: the aggregate DDR bandwidth ``BW_total`` and a per-port
limit ``BW_port`` for each array stream (IN, W, OUT each own a memory
port in the Intel OpenCL system).  The Arria 10 dev kit's DDR4 delivers
about 19 GB/s aggregate — the figure the paper quotes in its Section 2.3
example ("we only get 162 GFlops ... with 19 GB/s bandwidth").
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MemorySystem:
    """A DRAM subsystem with aggregate and per-port bandwidth caps.

    Attributes:
        total_bandwidth_gbs: aggregate sustained bandwidth, GB/s.
        port_bandwidth_gbs: per-stream sustained bandwidth, GB/s.
        efficiency: derating factor applied to both (burst efficiency of
            real access patterns; 1.0 = the quoted sustained numbers).
    """

    total_bandwidth_gbs: float
    port_bandwidth_gbs: float
    efficiency: float = 1.0

    def __post_init__(self) -> None:
        if self.total_bandwidth_gbs <= 0 or self.port_bandwidth_gbs <= 0:
            raise ValueError("bandwidths must be positive")
        if not 0 < self.efficiency <= 1:
            raise ValueError("efficiency must be in (0, 1]")
        if self.port_bandwidth_gbs > self.total_bandwidth_gbs:
            raise ValueError("per-port bandwidth cannot exceed the aggregate")

    @property
    def total_bytes_per_second(self) -> float:
        """Effective aggregate bandwidth in bytes/s."""
        return self.total_bandwidth_gbs * 1e9 * self.efficiency

    @property
    def port_bytes_per_second(self) -> float:
        """Effective per-port bandwidth in bytes/s."""
        return self.port_bandwidth_gbs * 1e9 * self.efficiency


ARRIA10_DEVKIT_DDR4 = MemorySystem(
    total_bandwidth_gbs=19.2,
    port_bandwidth_gbs=12.8,
)
"""Arria 10 dev kit DDR4: ~19 GB/s aggregate (the paper's figure); the
per-port cap reflects a single bank's share and is a calibration constant
(see DESIGN.md)."""


__all__ = ["ARRIA10_DEVKIT_DDR4", "MemorySystem"]
