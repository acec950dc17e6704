"""Full-system cycle accounting: DRAM + buffer chains + array + drain.

The block-level performance simulator (:mod:`repro.sim.perf`) assumes the
on-chip distribution network never bottlenecks a block load — data is
DRAM-limited.  That is only true because the Fig. 2(b) daisy chains move
*wide lines* (a 512-bit line = 16 float words per hop), not scalars.
This module makes the assumption checkable: it prices each block's load
through the chain model (items = lines, one hop per cycle, plus the
pipeline depth of the chain) *and* through the DRAM model, and takes the
binding one.

With realistic line widths the result matches :func:`simulate_performance`
(validating its assumption); with ``line_words=1`` the chains dominate
and throughput collapses — the quantitative reason systolic FPGA designs
stream wide lines through the buffer chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.ir.domain import IterationDomain, count_footprint
from repro.model.design_point import DesignPoint
from repro.model.mapping import array_roles
from repro.model.platform import Platform
from repro.sim.buffers import chain_fill_cycles
from repro.sim.perf import block_kinds
from repro.sim.schedule import wave_schedule_cycles


@dataclass(frozen=True)
class SystemMeasurement:
    """Cycle breakdown of a full-system simulation.

    Attributes:
        cycles: total pipeline cycles.
        seconds: at the given clock.
        throughput_gops: effective ops / seconds.
        chain_limited_blocks: blocks whose load was bound by a buffer
            chain rather than DRAM.
        dram_limited_blocks: blocks bound by DRAM bandwidth.
        bound: 'compute', 'chain' or 'dram' — the dominant term overall.
    """

    cycles: int
    seconds: float
    throughput_gops: float
    chain_limited_blocks: int
    dram_limited_blocks: int
    bound: str


def simulate_system(
    design: DesignPoint,
    platform: Platform,
    *,
    frequency_mhz: float | None = None,
    line_words: int = 16,
    streaming: bool = True,
) -> SystemMeasurement:
    """Price a layer through DRAM + chains + array + drain.

    Args:
        design: the design point.
        platform: bandwidth/datatype/semantics source.
        frequency_mhz: clock (platform default otherwise).
        line_words: words per chain line (16 = a 512-bit float line, the
            realistic width; 1 = scalar chains, the naive strawman).
        streaming: steady-state accounting (throughput) vs single-image.
    """
    if line_words < 1:
        raise ValueError("line_words must be positive")
    freq_mhz = frequency_mhz or platform.assumed_clock_mhz
    freq_hz = freq_mhz * 1e6
    clip = platform.ragged_middle == "clipped"
    nest = design.nest
    rows, cols = design.shape.rows, design.shape.cols
    roles = array_roles(nest)
    bytes_per_cycle_total = platform.memory.total_bytes_per_second / freq_hz
    bytes_per_cycle_port = platform.memory.port_bytes_per_second / freq_hz

    # Chain lengths, by the mapping: the horizontally shifted operand is
    # fed by one buffer per row, the vertically shifted one by one per
    # column, and the output drains down the columns.
    chain_length = {
        design.mapping.horizontal_array: rows,
        design.mapping.vertical_array: cols,
        nest.output.array: cols,
    }

    total_compute = 0
    total_load = 0
    steady = 0
    chain_limited = 0
    dram_limited = 0
    prologue = 0
    epilogue = 0

    for count, waves, extents in block_kinds(design, clip):
        compute = wave_schedule_cycles(waves, rows, cols)
        domain = IterationDomain.of(extents)

        total_bytes = 0
        load = 0
        block_chain_bound = False
        out_cycles = 0
        for access in nest.accesses:
            words = count_footprint(access, domain)
            nbytes = words * platform.datatype.bytes_for(roles[access.array])
            length = chain_length[access.array]
            lines = math.ceil(words / (line_words * length))
            chain = chain_fill_cycles(lines, length)
            if access.is_write:
                out_cycles = max(chain, math.ceil(nbytes / bytes_per_cycle_total))
                continue
            total_bytes += nbytes
            dram = math.ceil(nbytes / bytes_per_cycle_port)
            if chain > dram:
                block_chain_bound = True
            load = max(load, chain, dram)
        dram_total = math.ceil(total_bytes / bytes_per_cycle_total)
        if dram_total >= load:
            load = dram_total
            block_chain_bound = False
        if block_chain_bound:
            chain_limited += count
        elif load > compute:
            dram_limited += count

        total_compute += count * compute
        total_load += count * load
        steady += count * max(compute, load, out_cycles)
        prologue = max(prologue, load)
        epilogue = max(epilogue, out_cycles)

    cycles = steady if streaming else (prologue + steady + epilogue)
    seconds = cycles / freq_hz
    if total_compute >= total_load:
        bound = "compute"
    else:
        bound = "chain" if chain_limited > dram_limited else "dram"
    return SystemMeasurement(
        cycles=cycles,
        seconds=seconds,
        throughput_gops=nest.total_operations / seconds / 1e9,
        chain_limited_blocks=chain_limited,
        dram_limited_blocks=dram_limited,
        bound=bound,
    )


__all__ = ["SystemMeasurement", "simulate_system"]
