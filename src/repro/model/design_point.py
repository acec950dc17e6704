"""Design points: one fully specified systolic configuration.

A design point = (loop nest, mapping, PE-array shape, data-reuse tiling).
It owns the derived tiled nest and provides one-call evaluation against a
platform, producing the resource + performance record the DSE ranks.  The
evaluation is one row of the DSE's tiling kernel
(:class:`repro.dse.tuner.MiddleTuner`), the only copy of Eq. 1/5–10, so
it is bit-for-bit the number the search ranked the design by.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping as MappingT

from repro.ir.loop import LoopNest
from repro.ir.tiling import LoopTiling, TiledLoopNest
from repro.model.mapping import Mapping
from repro.model.performance import PerformanceEstimate
from repro.model.platform import Platform
from repro.model.resources import BramBreakdown, dsp_usage, logic_usage


@dataclass(frozen=True)
class ArrayShape:
    """PE-array shape: (rows, cols, vector) = the inner-loop bounds t."""

    rows: int
    cols: int
    vector: int

    def __post_init__(self) -> None:
        if min(self.rows, self.cols, self.vector) < 1:
            raise ValueError(f"array shape must be positive, got {self}")

    @property
    def lanes(self) -> int:
        """Parallel MAC lanes = prod(t)."""
        return self.rows * self.cols * self.vector

    def __str__(self) -> str:
        return f"({self.rows},{self.cols},{self.vector})"


@dataclass(frozen=True)
class DesignEvaluation:
    """Everything the DSE knows about one evaluated design.

    Attributes:
        design: the evaluated design point.
        performance: Eq. 7-10 results at the evaluation clock.
        bram: Eq. 6 breakdown.
        dsp_blocks: Eq. 4 result.
        dsp_utilization: against the platform budget.
        bram_utilization: against the device's RAM blocks.
        logic_cells: coarse ALM estimate (reporting only).
        feasible: resource-feasibility verdict (Problem 2 constraints).
    """

    design: "DesignPoint"
    performance: PerformanceEstimate
    bram: BramBreakdown
    dsp_blocks: float
    dsp_utilization: float
    bram_utilization: float
    logic_cells: float

    @property
    def feasible(self) -> bool:
        """B(s,t) <= B_total and D(t) <= D_total (Problem 2 constraints)."""
        return self.dsp_utilization <= 1.0 and self.bram_utilization <= 1.0

    @property
    def throughput_gops(self) -> float:
        """Shortcut to the overall throughput."""
        return self.performance.throughput_gops


@dataclass(frozen=True)
class DesignPoint:
    """A complete candidate design.

    Attributes:
        nest: the convolution loop nest.
        mapping: loop-to-architecture assignment.
        shape: PE array shape (bounds of the three inner loops).
        middle: middle-loop bounds s (iterator -> bound; omitted = 1).
    """

    nest: LoopNest
    mapping: Mapping
    shape: ArrayShape
    middle: tuple[tuple[str, int], ...] = ()

    @staticmethod
    def create(
        nest: LoopNest,
        mapping: Mapping,
        shape: ArrayShape,
        middle: MappingT[str, int] | None = None,
    ) -> "DesignPoint":
        """Build a design point from plain dicts."""
        return DesignPoint(nest, mapping, shape, tuple(sorted((middle or {}).items())))

    @cached_property
    def tiling(self) -> LoopTiling:
        """The LoopTiling induced by mapping + shape + middle bounds."""
        return LoopTiling.of(dict(self.middle), self.mapping.inner_bounds(self.shape))

    @cached_property
    def tiled(self) -> TiledLoopNest:
        """The tiled loop nest (Fig. 4 program) of this design."""
        return TiledLoopNest(self.nest, self.tiling)

    @property
    def middle_bounds(self) -> dict[str, int]:
        """Middle bounds as a dict."""
        return dict(self.middle)

    @property
    def efficiency(self) -> float:
        """DSP efficiency of the full tiling."""
        return self.tiled.efficiency

    @property
    def signature(self) -> str:
        """Stable identity string (drives the frequency surrogate)."""
        mids = ",".join(f"{k}={v}" for k, v in self.middle)
        return f"{self.nest.name}|{self.mapping}|{self.shape}|{mids}"

    def evaluate(
        self, platform: Platform, *, frequency_mhz: float | None = None
    ) -> DesignEvaluation:
        """Run the full analytical model against a platform.

        The performance and BRAM figures are one row of the DSE's tiling
        kernel (:class:`repro.dse.tuner.MiddleTuner`), so they are
        bit-for-bit the numbers the search ranked this design by.

        Args:
            platform: evaluation platform.
            frequency_mhz: clock override (phase 2 uses the realized
                clock; phase 1 the platform's assumed clock).

        Raises:
            ValueError: if a middle bound or the mapping names a loop the
                nest does not have.
        """
        # Imported here: the tuner builds DesignPoints.
        from repro.dse.tuner import MiddleTuner

        tuner = MiddleTuner(self.nest, self.mapping, self.shape, platform)
        freq_hz = (frequency_mhz or platform.assumed_clock_mhz) * 1e6
        # Read through ``tiled``, which rejects bounds on unknown loops.
        blocks = tuner.row(self.tiled.tiling.middle_bounds)
        eff, block_iterations, pt, block_ops, arrays = tuner.terms(blocks, freq_hz, False)
        throughput, mt, mt_total, _bram = tuner.fold(pt, block_ops, arrays)
        throughput = float(throughput)
        effective_ops = self.nest.total_operations
        performance = PerformanceEstimate(
            frequency_mhz=freq_hz / 1e6,
            efficiency=eff,
            lanes=self.shape.lanes,
            block_iterations=block_iterations,
            pt_gops=pt / 1e9,
            mt_gops=float(mt) / 1e9,
            mt_total_gops=mt_total / 1e9,
            mt_per_array_gops={name: port_mt / 1e9 for name, *_, port_mt in arrays},
            throughput_gops=throughput / 1e9,
            effective_ops=effective_ops,
            seconds=effective_ops / throughput,
            block_bytes={name: nbytes for name, _, _, nbytes, _ in arrays},
        )
        bram = BramBreakdown(
            per_array_blocks={name: ram for name, _, ram, _, _ in arrays},
            pe_blocks=tuner.pe_blocks,
            footprints={name: words for name, words, *_ in arrays},
        )
        dsp_blocks = dsp_usage(self.shape.rows, self.shape.cols, self.shape.vector, platform)
        dsp_budget_blocks = platform.dsp_total * platform.dsp_per_mac
        return DesignEvaluation(
            design=self,
            performance=performance,
            bram=bram,
            dsp_blocks=dsp_blocks,
            dsp_utilization=dsp_blocks / dsp_budget_blocks,
            bram_utilization=bram.total / platform.bram_total,
            logic_cells=logic_usage(
                self.shape.rows, self.shape.cols, self.shape.vector, platform
            ),
        )

    def __str__(self) -> str:
        return f"DesignPoint({self.signature})"


__all__ = ["ArrayShape", "DesignEvaluation", "DesignPoint"]
