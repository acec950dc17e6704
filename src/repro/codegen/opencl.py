"""OpenCL systolic kernel emission.

Emits an Intel-FPGA-style single-work-item kernel realizing the design:
``#define`` parameter header, double-buffered on-chip reuse buffers
(IB/WB/OB), and the PE array as fully unrolled shift registers with
boundary refill — the mapping's horizontal array propagating right along
rows, its vertical array down columns, per-PE SIMD accumulation
(Figs. 1–3).  The blocked nest itself is :func:`repro.codegen.template.emit_nest`;
this module contributes the flat compile-time-stride addressing and the
shift chains.  In the sequential
single-work-item formulation the register chains are combinational within
one wave (exactly how the Intel systolic reference expresses them; the
HLS compiler retimes them into the skewed pipeline), so the kernel is
*functionally* executable as plain C99.

With no OpenCL toolchain in this environment, the kernel is validated by
compiling it with the host C compiler against :data:`OPENCL_SHIM`
(``__kernel``/``__global`` erased, ``__local`` lowered to ``static``)
together with a generated driver (:func:`generate_kernel_driver`) that
runs it against a naive reference — the same check the plain-C testbench
performs, applied to the shipped artifact itself.
"""

from __future__ import annotations

from repro.model.design_point import DesignPoint
from repro.model.platform import Platform
from repro.codegen.emitter import CodeWriter
from repro.codegen.template import (
    Dialect,
    Layout,
    brackets,
    emit_fill,
    emit_lcg,
    emit_nest,
    emit_reference,
    emit_scaled_compare,
    flat_size,
    global_dim,
)


OPENCL_SHIM = """\
/* Shim so a host C compiler can compile OpenCL C kernels as C99.      */
/* __local on-chip buffers become statics (they are per-kernel state). */
#ifndef OPENCL_SHIM_H
#define OPENCL_SHIM_H
#define __kernel
#define __global
#define __local static
#define __constant const
#define __private
#endif
"""


class _FlatStatic(Dialect):
    """Flat global arrays with compile-time row-major strides; operands
    reach the PEs through the ``w_reg``/``in_reg`` shift chains."""

    opencl = True
    prefix = "g_"
    notes = {
        "blocks": "Outer loops: one iteration per data block.",
        "load": "Load phase (overlaps the previous block's compute in HW).",
        "zero": "Zero the output accumulator buffer.",
        "compute": "Compute phase: waves stream through the PE array.",
        "mac": "boundary refill, then the shift chains",
        "drain": "Drain phase: write the output block back (guarded).",
    }

    def global_ref(self, name, access, terms, atoms=False):
        parts: list[str] = []
        stride = 1
        for d in reversed(range(access.rank)):
            term = terms[d] if atoms else f"({terms[d]})"
            parts.insert(0, term if stride == 1 else f"{term} * {stride}")
            stride *= global_dim(access, self.bounds, d)
        return f"{name}[{' + '.join(parts)}]"

    def operand(self, w, layout, access, slot):
        """Refill at the chain's boundary PE, else take the neighbour's
        register: the vertical array enters at row 0 and moves down, the
        horizontal one enters at column 0 and moves right."""
        reg = "w_reg" if access is layout.weight else "in_reg"
        if access.array == layout.mapping.vertical_array:
            edge, neighbour = "x", "[x-1][y]"
        else:
            edge, neighbour = "y", "[x][y-1]"
        w.line(f"{reg}[x][y][v] = ({edge} == 0) ? {slot} : {reg}{neighbour}[v];")
        return f"{reg}[x][y][v]"


def kernel_args(layout: Layout) -> str:
    """The ``__global`` tensor parameters, in the nest's access order."""
    return ", ".join(
        f"__global {layout.type_of[a.array]} *{'' if a.is_write else ' const'} "
        f"restrict g_{a.array}"
        for a in layout.nest.accesses
    )


def generate_kernel(
    design: DesignPoint, platform: Platform, *, name: str = "systolic_conv"
) -> str:
    """Emit the OpenCL kernel source for one design point."""
    nest = design.nest
    tiling = design.tiling
    layout = Layout.of(nest, design.mapping, platform)
    type_of = layout.type_of
    dialect = _FlatStatic(design)
    weight_down = layout.weight.array == design.mapping.vertical_array

    w = CodeWriter()
    w.comment(f"Auto-generated systolic array kernel: {design.signature}")
    w.comment(f"Target: {platform.device.name}, {platform.datatype.name}")
    w.comment(
        f"PE array {design.shape.rows} x {design.shape.cols}, SIMD {design.shape.vector}"
    )
    w.line()
    for it in nest.iterators:
        w.line(f"#define N_{it} {nest.bounds[it]}")
        w.line(f"#define T_{it} {tiling.t(it)}")
        w.line(f"#define S_{it} {tiling.s(it)}")
        w.line(f"#define B_{it} {dialect.block_extent[it]}")
    layout.array_defines(w)

    with w.block(f"__kernel void {name}({kernel_args(layout)})"):
        w.comment("Double-buffered on-chip reuse buffers (ping-pong on `pp`).")
        for access in nest.accesses:
            dims = brackets(dialect.local_extent(access, d) for d in range(access.rank))
            w.line(f"__local {type_of[access.array]} buf_{access.array}[2]{dims};")
        w.comment(
            "PE-array shift registers: weights move "
            + ("down, inputs move right." if weight_down else "right, inputs move down.")
        )
        w.line(f"{type_of[layout.weight.array]} w_reg[ROWS][COLS][VEC];")
        w.line(f"{type_of[layout.feature.array]} in_reg[ROWS][COLS][VEC];")
        w.line("int pp = 0;")
        w.line()
        emit_nest(w, layout, dialect)
    return w.render()


def generate_kernel_driver(
    design: DesignPoint, platform: Platform, *, kernel_file: str = "kernel.cl"
) -> str:
    """A C driver that includes the kernel (through the shim), runs it on
    pseudo-random data and checks against a naive reference.

    Compile as: ``gcc -O2 driver.c -lm`` (the kernel is #included).
    """
    nest = design.nest
    bounds = nest.bounds
    out = nest.output
    layout = Layout.of(nest, design.mapping, platform)
    type_of = layout.type_of
    flat_out = flat_size(out, bounds)

    w = CodeWriter()
    w.comment(f"Driver for generated kernel {kernel_file} ({design.signature}).")
    w.lines("#include <stdio.h>", "#include <stdlib.h>", "#include <math.h>")
    w.line('#include "opencl_shim.h"')
    w.line(f'#include "{kernel_file}"')
    w.line()
    for access in nest.accesses:
        w.line(f"static {type_of[access.array]} A_{access.array}[{flat_size(access, bounds)}];")
    w.line(f"static {layout.ref_type} A_ref[{flat_out}];")
    w.line()
    w.line("static unsigned lcg_state = 99u;")
    emit_lcg(w)
    with w.block("static void reference(void)"):
        emit_reference(w, layout, _FlatStatic(design), nest.reads, "A_", "A_ref")
    w.line()
    with w.block("int main(void)"):
        emit_fill(w, layout, bounds, "A_{array}[k] = ({type}){fill}")
        w.line("reference();")
        args = ", ".join(f"A_{a.array}" for a in nest.accesses)
        w.line(f"systolic_conv({args});")
        w.comment("Globally normalized error (float accumulation-order noise).")
        emit_scaled_compare(
            w, flat_out, f"A_{out.array}[k]", "(double)A_ref[k]",
            "2e-3" if layout.is_float else "1e-12", "KERNEL",
        )
        w.line("return 0;")
    return w.render()


__all__ = ["OPENCL_SHIM", "generate_kernel", "generate_kernel_driver"]
