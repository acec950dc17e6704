"""Runtime-parameterized (unified) kernel generation.

The unified deployment of Section 5.3 runs *every* conv layer of a
network on one hardware design.  The PE-array shape is frozen into the
bitstream, but loop bounds and data-reuse (middle) bounds are ordinary
loop limits — runtime arguments of the kernel — as long as every layer's
block footprint fits the synthesized buffers.  This module emits that
kernel:

* buffer capacities are compile-time constants derived from the
  *envelope* (per-loop maxima over the network's layers, with the
  selected middle bounds);
* original loop bounds ``N_*`` and middle bounds ``S_*`` are function
  parameters; array extents and row-major strides are computed from them
  at runtime;
* a guard rejects invocations whose block footprint would overflow the
  buffers (the contract the DSE maintains).

:func:`generate_unified_testbench` emits a ``main`` that runs several
layer shapes through the *same* kernel instance and checks each against
a naive reference — executing, in C, exactly the deployment model the
multi-layer DSE assumes.  Compiled and run by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.access import ArrayAccess
from repro.ir.loop import LoopNest
from repro.model.mapping import Mapping
from repro.model.design_point import ArrayShape
from repro.model.platform import Platform
from repro.codegen.emitter import CodeWriter
from repro.codegen.opencl import kernel_args
from repro.codegen.template import (
    Dialect,
    Layout,
    brackets,
    emit_fill,
    emit_lcg,
    emit_nest,
    emit_reference,
    flat_size,
)


@dataclass(frozen=True)
class UnifiedLayerSpec:
    """One layer invocation of the unified kernel.

    Attributes:
        name: label.
        bounds: iterator -> original trip count N_l.
        middle: iterator -> middle bound S_l for this layer.
    """

    name: str
    bounds: dict[str, int]
    middle: dict[str, int]


def _dim_expr(access: ArrayAccess, dim: int, prefix: str) -> str:
    """C expression for one array dimension's extent from per-loop
    extents spelled ``<prefix><iterator>``."""
    parts = [
        f"({prefix}{name} - 1)" if coeff == 1 else f"{coeff} * ({prefix}{name} - 1)"
        for name, coeff in access.indices[dim].terms
    ]
    return " + ".join(parts + ["1"])


class _FlatRuntime(Dialect):
    """Flat global arrays whose extents (``dim_*``) and row-major strides
    (``str_*``) are computed from the runtime bounds; buffer extents come
    from the runtime block sizes ``B_*`` under ``BMAX_*`` capacities."""

    opencl = True
    prefix = "g_"
    notes = {
        "load": "Load phase (runtime extents, zero-padded edges).",
        "zero": "Zero the output accumulator buffer.",
        "compute": "Compute phase.",
        "drain": "Drain phase (guarded, accumulating partial sums).",
    }

    def local_extent(self, access, dim):
        return f"({_dim_expr(access, dim, 'B_')})"

    def in_range(self, access, dim):
        return f" < dim_{access.array}_{dim}"

    def global_ref(self, name, access, terms, atoms=False):
        parts = (
            f"(long){term if atoms else f'({term})'} * str_{access.array}_{d}"
            for d, term in enumerate(terms)
        )
        return f"{name}[{' + '.join(parts)}]"


def _emit_runtime_extents(w: CodeWriter, template: LoopNest) -> None:
    """``dim_*`` / ``str_*`` of every array from the ``N_*`` in scope."""
    for access in template.accesses:
        for d in range(access.rank):
            w.line(f"int dim_{access.array}_{d} = {_dim_expr(access, d, 'N_')};")
        for d in range(access.rank - 1, -1, -1):
            if d == access.rank - 1:
                w.line(f"long str_{access.array}_{d} = 1;")
            else:
                w.line(
                    f"long str_{access.array}_{d} = "
                    f"str_{access.array}_{d + 1} * dim_{access.array}_{d + 1};"
                )


def generate_unified_kernel(
    template: LoopNest,
    mapping: Mapping,
    shape: ArrayShape,
    specs: tuple[UnifiedLayerSpec, ...],
    platform: Platform,
    *,
    name: str = "systolic_conv_rt",
) -> str:
    """Emit the runtime-parameterized kernel.

    Args:
        template: a nest giving the loop order and access functions (any
            layer's nest works — bounds are ignored).
        mapping: the frozen loop-to-architecture assignment.
        shape: the frozen PE-array shape.
        specs: the layers the kernel must accommodate (buffer sizing).
        platform: datatype for C types.
        name: kernel function name.
    """
    iterators = template.iterators
    layout = Layout.of(template, mapping, platform)
    shape_of = mapping.inner_bounds(shape)

    w = CodeWriter()
    w.comment(f"Unified runtime-parameterized systolic kernel ({shape} frozen,")
    w.comment("loop and reuse bounds as arguments; buffers sized for the envelope).")
    w.line()
    for it in iterators:
        # Envelope: the largest block extent S_l * t_l any layer asks for.
        envelope = max(spec.middle.get(it, 1) * shape_of.get(it, 1) for spec in specs)
        w.line(f"#define T_{it} {shape_of.get(it, 1)}")
        w.line(f"#define BMAX_{it} {envelope}")
    layout.array_defines(w)

    bound_args = ", ".join(f"int N_{it}" for it in iterators)
    middle_args = ", ".join(f"int S_{it}" for it in iterators)
    w.comment("Returns 0 on success, 1 if a block would overflow the buffers;")
    w.comment("wrapped by a thin __kernel void entry in the OpenCL build.")
    with w.block(f"int {name}({kernel_args(layout)}, {bound_args}, {middle_args})"):
        w.comment("Runtime block extents and buffer-capacity guard.")
        for it in iterators:
            w.line(f"int B_{it} = S_{it} * T_{it};")
            w.line(f"if (B_{it} > BMAX_{it}) return 1;  /* buffers too small */")
        w.comment("Runtime array extents (row-major) from the loop bounds.")
        _emit_runtime_extents(w, template)
        w.comment("On-chip buffers at envelope capacity (double-buffered).")
        for access in template.accesses:
            # buffer dims must be compile-time: use the envelope constants
            dims = brackets(_dim_expr(access, d, "BMAX_") for d in range(access.rank))
            w.line(f"__local {layout.type_of[access.array]} buf_{access.array}[2]{dims};")
        w.line("int pp = 0;")
        w.line()
        emit_nest(w, layout, _FlatRuntime())
        w.line("return 0;")
    return w.render()


def generate_unified_testbench(
    template: LoopNest,
    mapping: Mapping,
    shape: ArrayShape,
    specs: tuple[UnifiedLayerSpec, ...],
    platform: Platform,
    *,
    kernel_file: str = "unified_kernel.cl",
) -> str:
    """A driver running every layer spec through one kernel instance."""
    iterators = template.iterators
    out = template.output
    layout = Layout.of(template, mapping, platform)
    type_of = layout.type_of
    max_flat = lambda access: max(flat_size(access, spec.bounds) for spec in specs)

    w = CodeWriter()
    w.comment(f"Unified-deployment driver: {len(specs)} layer shapes, one kernel.")
    w.lines("#include <stdio.h>", "#include <stdlib.h>", "#include <math.h>", "#include <string.h>")
    w.line('#include "opencl_shim.h"')
    w.line(f'#include "{kernel_file}"')
    w.line()
    for access in template.accesses:
        w.line(f"static {type_of[access.array]} A_{access.array}[{max_flat(access)}];")
    w.line(f"static {layout.ref_type} A_ref[{max_flat(out)}];")
    w.line()
    w.line("static unsigned lcg_state;")
    emit_lcg(w)
    bound_params = ", ".join(f"int N_{it}" for it in iterators)
    with w.block(f"static void reference({bound_params})"):
        _emit_runtime_extents(w, template)
        emit_reference(
            w, layout, _FlatRuntime(), (layout.weight, layout.feature), "A_", "A_ref"
        )
    w.line()
    with w.block("int main(void)"):
        w.line("int failures = 0;")
        for index, spec in enumerate(specs):
            w.comment(f"--- layer {spec.name}: bounds {spec.bounds}, middle {spec.middle} ---")
            with w.block("", footer="}"):
                w.line(f"lcg_state = {1000 + index}u;")
                emit_fill(w, layout, spec.bounds, "A_{array}[k] = ({type}){fill}")
                out_total = flat_size(out, spec.bounds)
                loop = f"for (long k = 0; k < {out_total}L; k++)"
                w.line(f"memset(A_{out.array}, 0, sizeof(A_{out.array}[0]) * {out_total}L);")
                w.line(f"memset(A_ref, 0, sizeof(A_ref[0]) * {out_total}L);")
                bounds_vals = ", ".join(str(spec.bounds[it]) for it in iterators)
                middle_vals = ", ".join(str(spec.middle.get(it, 1)) for it in iterators)
                w.line(f"reference({bounds_vals});")
                tensor_vals = ", ".join(f"A_{a.array}" for a in template.accesses)
                w.line(
                    f"int rc = systolic_conv_rt({tensor_vals}, {bounds_vals}, {middle_vals});"
                )
                w.line(
                    f'if (rc) {{ printf("UNIFIED FAIL {spec.name}: buffer overflow\\n"); '
                    "return 1; }"
                )
                if layout.is_float:
                    w.line("double worst = 0.0, scale = 0.0;")
                    w.line(f"{loop} if (fabs(A_ref[k]) > scale) scale = fabs(A_ref[k]);")
                    w.line(
                        f"{loop} {{ double e = fabs((double)A_{out.array}[k] - A_ref[k]); "
                        "if (e > worst) worst = e; }"
                    )
                    w.line(
                        'if (worst > 2e-3 * (scale + 1e-9)) { '
                        f'printf("UNIFIED FAIL {spec.name} worst=%g\\n", worst); failures++; }} '
                        f'else printf("UNIFIED OK {spec.name} worst=%g\\n", worst);'
                    )
                else:
                    w.line(
                        f"{loop} if (A_{out.array}[k] != A_ref[k]) {{ "
                        f'printf("UNIFIED FAIL {spec.name} at %ld\\n", k); return 1; }}'
                    )
                    w.line(f'printf("UNIFIED OK {spec.name} exact\\n");')
        w.line('if (!failures) printf("UNIFIED PASS all layers\\n");')
        w.line("return failures ? 1 : 0;")
    return w.render()


__all__ = [
    "UnifiedLayerSpec",
    "generate_unified_kernel",
    "generate_unified_testbench",
]
