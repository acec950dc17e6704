"""Scalable performance simulator — the "on-board measurement" substitute.

Where the analytical model (Section 3.4) is a closed form, this simulator
walks the actual block pipeline of a design:

* per-block compute cycles from the wave schedule (including the R+C-2
  array fill that the closed form ignores),
* per-block DRAM transfer cycles from the footprints and the bandwidth
  model (aggregate and per-port limits),
* double-buffer overlap: while block b computes, block b+1's data loads —
  steady-state cost ``max(compute, transfer)`` with a transfer prologue
  and compute epilogue,
* a fixed kernel-launch overhead per layer invocation.

It therefore *always* reports somewhat less throughput than the model —
the same relationship the paper shows between its model and the board in
Fig. 7(b) (<2% average error once the real clock is used).

Blocks are aggregated by "kind" (full vs ragged along each loop), so a
layer with millions of blocks simulates in microseconds while remaining
exact for the sum of per-block costs; the pipeline max() coupling between
consecutive blocks is evaluated per kind, which is exact whenever block
kinds are locally homogeneous (always true in steady state).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from repro.ir.domain import IterationDomain, count_footprint
from repro.model.design_point import DesignPoint
from repro.model.mapping import array_roles
from repro.model.platform import Platform
from repro.sim.schedule import wave_schedule_cycles


@dataclass(frozen=True)
class LayerMeasurement:
    """Simulated execution of one design on one layer.

    Attributes:
        seconds: total layer time (one nest invocation).
        cycles: total clock cycles.
        compute_cycles: cycles the array would need with infinite
            bandwidth.
        transfer_cycles: cycles DRAM would need with infinite compute.
        frequency_mhz: clock used.
        throughput_gops: effective ops / seconds.
        blocks: number of blocks.
        bound: 'compute' or 'memory' (which side dominated the pipeline).
        utilization: PE-active fraction = effective ops / (2*lanes*cycles).
    """

    seconds: float
    cycles: int
    compute_cycles: int
    transfer_cycles: int
    frequency_mhz: float
    throughput_gops: float
    blocks: int
    bound: str
    utilization: float


def block_kinds(design: DesignPoint, clip: bool):
    """Every block *kind* of the design's tiling as ``(count, waves,
    extents)``: per loop the full blocks and the ragged remainder are the
    alternatives, and the cartesian product over loops gives each kind
    with its multiplicity — exact aggregation without enumerating blocks."""
    nest = design.nest
    tiling = design.tiling
    per_loop = []
    for it in nest.iterators:
        trip = nest.bounds[it]
        t = tiling.t(it)
        s = tiling.s(it)
        block = s * t
        n_full, remainder = divmod(trip, block)
        options = []
        if n_full:
            options.append((n_full, s, block))
        if remainder:
            if clip:
                mid = math.ceil(remainder / t)
                options.append((1, mid, mid * t))
            else:
                options.append((1, s, block))
        per_loop.append(options)
    for combo in itertools.product(*per_loop):
        count = 1
        waves = 1
        extents = {}
        for it, (n, mid, extent) in zip(nest.iterators, combo):
            count *= n
            waves *= mid
            extents[it] = extent
        yield count, waves, extents


def simulate_performance(
    design: DesignPoint,
    platform: Platform,
    *,
    frequency_mhz: float | None = None,
    streaming: bool = False,
) -> LayerMeasurement:
    """Simulate one layer under one design.

    Pipeline accounting (the architecture is fully pipelined — Fig. 2's
    double-buffered IB/WB/OB chains let consecutive blocks' waves stream
    back-to-back):

    * every block contributes ``max(compute, transfer)`` in steady state,
      where compute = waves + (R + C - 2): the skewed wavefront of each
      block refills the array (the per-block cost the closed-form model
      ignores — the main source of the small model-vs-measured gap of
      Fig. 7b);
    * block b+1's input load overlaps block b's compute; only the first
      block's input load is exposed (prologue);
    * the last block's output write-back is exposed (epilogue).

    Args:
        design: the design point (nest + mapping + shape + tiling).
        platform: supplies bandwidth, datatype, and the ragged-middle
            semantics (clipped platforms skip padding waves in ragged
            blocks; padded platforms replay them, like the generated
            kernel's fixed loop bounds).
        frequency_mhz: clock; defaults to the platform's assumed clock —
            pass the realized clock for phase-2/Fig. 7(b) comparisons.
        streaming: steady-state throughput accounting — image k+1's first
            blocks load while image k's last blocks drain, so the fill,
            prologue and epilogue amortize to zero.  Use
            for throughput exhibits (Fig. 7b, Tables 4/5); leave False
            for single-image latency (Table 2).
    """
    freq_mhz = frequency_mhz or platform.assumed_clock_mhz
    freq_hz = freq_mhz * 1e6
    clip = platform.ragged_middle == "clipped"
    nest = design.nest
    rows, cols = design.shape.rows, design.shape.cols
    roles = array_roles(nest)
    output_array = nest.output.array

    bytes_per_cycle_total = platform.memory.total_bytes_per_second / freq_hz
    bytes_per_cycle_port = platform.memory.port_bytes_per_second / freq_hz

    total_compute = 0
    total_transfer = 0
    steady_sum = 0
    blocks = 0
    prologue = 0  # first block's input-side load
    epilogue = 0  # last block's output-side store

    for count, waves, extents in block_kinds(design, clip):
        compute_cycles = wave_schedule_cycles(waves, rows, cols)

        domain = IterationDomain.of(extents)
        total_bytes = 0
        in_bytes = 0
        out_bytes = 0
        port_cycles = 0.0
        for access in nest.accesses:
            words = count_footprint(access, domain)
            nbytes = words * platform.datatype.bytes_for(roles[access.array])
            total_bytes += nbytes
            if access.array == output_array:
                out_bytes += nbytes
            else:
                in_bytes += nbytes
            port_cycles = max(port_cycles, nbytes / bytes_per_cycle_port)
        transfer_cycles = math.ceil(max(total_bytes / bytes_per_cycle_total, port_cycles))

        blocks += count
        total_compute += count * compute_cycles
        total_transfer += count * transfer_cycles
        steady_sum += count * max(compute_cycles, transfer_cycles)
        prologue = max(prologue, math.ceil(in_bytes / bytes_per_cycle_total))
        epilogue = max(epilogue, math.ceil(out_bytes / bytes_per_cycle_total))

    if streaming:
        cycles = steady_sum
    else:
        cycles = prologue + steady_sum + epilogue

    seconds = cycles / freq_hz
    effective_ops = nest.total_operations
    lanes = design.shape.lanes
    return LayerMeasurement(
        seconds=seconds,
        cycles=cycles,
        compute_cycles=total_compute,
        transfer_cycles=total_transfer,
        frequency_mhz=freq_mhz,
        throughput_gops=effective_ops / seconds / 1e9,
        blocks=blocks,
        bound="compute" if total_compute >= total_transfer else "memory",
        utilization=effective_ops / (2.0 * lanes * cycles),
    )


__all__ = ["LayerMeasurement", "block_kinds", "simulate_performance"]
