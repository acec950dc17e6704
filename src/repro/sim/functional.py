"""Functional validation helpers.

Two facilities:

* :func:`simulate_layer` — run a design point on a layer's tensors through
  a wavefront backend (:mod:`repro.sim.backends`) and return the output
  feature maps, directly comparable to the NumPy golden convolution.  The
  design may target the layer's per-group nest; grouped layers are
  handled by slicing.
* :func:`audit_tiling_coverage` — a pure index-math check that the
  block/middle/inner decomposition visits every original iteration exactly
  once (and padding positions never), for any design on a small nest.
  This is the invariant all simulators and the code generator rely on.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.model.design_point import DesignPoint
from repro.nn.layers import ConvLayer
from repro.nn.golden import pad_input
from repro.sim.backends import WAVEFRONT_BACKENDS
from repro.sim.schedule import enumerate_blocks, enumerate_waves


def simulate_layer(
    design: DesignPoint,
    layer: ConvLayer,
    inputs: np.ndarray,
    weights: np.ndarray,
    *,
    backend: str = "engine",
) -> np.ndarray:
    """Execute a conv layer under a design on a simulator backend.

    Args:
        design: a design whose nest is the layer's per-group nest.
        layer: the layer descriptor (for padding/group handling).
        inputs: (I, H, W) tensor.
        weights: (O, I/groups, K, K) tensor.
        backend: a :data:`repro.sim.backends.WAVEFRONT_BACKENDS` name —
            ``"engine"`` (cycle-accurate, exponential; small shapes
            only), ``"fast"`` (vectorized, Table-2 scale) or ``"rtl"``
            (the generated Verilog, interpreted); bit-identical outputs.

    Returns:
        (O, R, C) output tensor.
    """
    padded = pad_input(inputs, layer.pad)
    groups = layer.groups
    per_group = layer.group_view()
    out = np.zeros(
        (layer.out_channels, layer.out_height, layer.out_width), dtype=np.float64
    )
    in_per_group = layer.in_channels // groups
    out_per_group = layer.out_channels // groups
    if per_group.to_loop_nest().bounds != design.nest.bounds:
        raise ValueError(
            f"design nest bounds {design.nest.bounds} do not match layer "
            f"{layer.name}'s per-group nest {per_group.to_loop_nest().bounds}"
        )
    if backend not in WAVEFRONT_BACKENDS:
        raise ValueError(
            f"unknown simulator backend {backend!r} ({' | '.join(WAVEFRONT_BACKENDS)})"
        )
    run = WAVEFRONT_BACKENDS[backend].run
    for g in range(groups):
        # The simulators address tensors by array name; the weight tensor is
        # the rank-4 read (o,i,p,q), the feature map the rank-3 read.
        name_arrays = {}
        for access in design.nest.reads:
            if access.rank == 4:
                name_arrays[access.array] = weights[
                    g * out_per_group : (g + 1) * out_per_group
                ]
            else:
                name_arrays[access.array] = padded[
                    g * in_per_group : (g + 1) * in_per_group
                ]
        result = run(design, name_arrays)
        out[g * out_per_group : (g + 1) * out_per_group] = result.output[
            :out_per_group, : layer.out_height, : layer.out_width
        ]
    return out


def audit_tiling_coverage(design: DesignPoint) -> None:
    """Assert the decomposition covers the iteration space exactly once.

    Walks every (block, wave, PE row, PE column, SIMD lane) of the design
    and reconstructs the original iteration vector; every point of the
    nest's iteration domain must be produced exactly once, and no
    out-of-domain point may be produced except as recognizable padding
    (index >= bound).

    Raises:
        AssertionError: on multiple or missing coverage.
    """
    nest = design.nest
    tiling = design.tiling
    iterators = nest.iterators
    bounds = nest.bounds
    inner_roles = design.mapping.inner_bounds(design.shape)
    seen: Counter[tuple[int, ...]] = Counter()
    for block in enumerate_blocks(design.tiled, clip=True):
        bases = block.base_map
        for wave in enumerate_waves(block, iterators):
            inner_ranges = [range(inner_roles.get(it, 1)) for it in iterators]
            import itertools

            for inner in itertools.product(*inner_ranges):
                idx = tuple(
                    bases[it] + wave[it] * tiling.t(it) + k
                    for it, k in zip(iterators, inner)
                )
                if all(v < bounds[it] for it, v in zip(iterators, idx)):
                    seen[idx] += 1
    expected = nest.total_iterations
    assert len(seen) == expected, (
        f"coverage holes: visited {len(seen)} of {expected} iterations"
    )
    duplicates = {k: v for k, v in seen.items() if v != 1}
    assert not duplicates, f"{len(duplicates)} iterations visited more than once"


__all__ = ["audit_tiling_coverage", "simulate_layer"]
