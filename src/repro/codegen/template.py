"""The one parameterized systolic template (the paper's Fig. 6).

Every C-family artifact of a design — the OpenCL kernel the flow ships,
the plain-C testbench gcc validates, the runtime-parameterized unified
kernel — is the same blocked nest: block loops, a zero-padded buffer
load, wave loops, the PE array, a guarded drain.  It is written here
once, in three parts:

* :class:`Layout` — what the design fixes for every target: which
  iterator is ``x``/``y``/``v``, which read is the weight and which the
  input (:func:`repro.model.mapping.array_roles`, the same assignment
  Eq. 6/9/10 price), which of them shifts down the columns
  (``Mapping.vertical_array``), and the C type of each array;
* :func:`emit_nest` — the skeleton;
* :class:`Dialect` — how one target spells what the skeleton leaves
  open: buffer extents, the edge guard, a global element reference and
  the PE's operand fetch.  The base class is the static multi-dimensional
  C-array dialect of the testbench; :mod:`repro.codegen.opencl` and
  :mod:`repro.codegen.unified` override the addressing.

The driver side (LCG fill, naive reference, normalized compare) is
shared the same way, so the program gcc checks and the kernel the flow
writes out cannot drift apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.codegen.emitter import CodeWriter
from repro.ir.access import ArrayAccess
from repro.ir.loop import LoopNest
from repro.model.design_point import DesignPoint
from repro.model.mapping import Mapping, array_roles
from repro.model.platform import Platform

_C_TYPES = {
    True: {"weight": "float", "input": "float", "output": "float"},
    False: {"weight": "signed char", "input": "short", "output": "long long"},
}


def global_dim(access: ArrayAccess, bounds: dict[str, int], dim: int) -> int:
    """Allocated extent of one global array dimension (full range)."""
    lo, hi = access.indices[dim].value_range(bounds)
    if lo < 0:
        raise ValueError(f"negative subscript range on {access.array} dim {dim}")
    return hi + 1


def flat_size(access: ArrayAccess, bounds: dict[str, int]) -> int:
    """Element count of the whole global array."""
    return math.prod(global_dim(access, bounds, d) for d in range(access.rank))


def subscripts(access: ArrayAccess, value_of: Callable[[str], str]) -> list[str]:
    """Every subscript of ``access`` as a C expression, each iterator
    rendered through ``value_of``."""
    rendered = []
    for expr in access.indices:
        parts = [
            value_of(name) if coeff == 1 else f"{coeff}*{value_of(name)}"
            for name, coeff in expr.terms
        ]
        if expr.const:
            parts.append(str(expr.const))
        rendered.append(" + ".join(parts) if parts else "0")
    return rendered


def brackets(terms) -> str:
    """``[a][b]...`` — a multi-dimensional C subscript or declarator."""
    return "".join(f"[{term}]" for term in terms)


@dataclass(frozen=True)
class Layout:
    """What a design fixes for every emitted target.

    Attributes:
        nest: loop order and access functions.
        mapping: iterator -> PE row / column / SIMD lane, and the array
            on each shift chain.
        type_of: C type per array name, by :func:`array_roles`.
        weight / feature: the two reads, weight-role first.
        is_float: floating-point datapath (else 8/16-bit fixed).
    """

    nest: LoopNest
    mapping: Mapping
    type_of: dict[str, str]
    weight: ArrayAccess
    feature: ArrayAccess
    is_float: bool

    @classmethod
    def of(cls, nest: LoopNest, mapping: Mapping, platform: Platform) -> "Layout":
        for access in nest.accesses:
            if not access.array.isidentifier():
                raise ValueError(
                    f"array name {access.array!r} is not a valid C identifier"
                )
        is_float = platform.datatype.is_floating_point
        roles = array_roles(nest)
        weight, feature = sorted(nest.reads, key=lambda a: roles[a.array] != "weight")
        type_of = {name: _C_TYPES[is_float][role] for name, role in roles.items()}
        return cls(nest, mapping, type_of, weight, feature, is_float)

    @property
    def inner_of(self) -> dict[str, str]:
        """Iterator -> its PE-array coordinate (``x`` row, ``y`` col, ``v`` lane)."""
        return {self.mapping.row: "x", self.mapping.col: "y", self.mapping.vector: "v"}

    @property
    def acc_type(self) -> str:
        return "double" if self.is_float else "long long"

    @property
    def ref_type(self) -> str:
        return "double" if self.is_float else self.type_of[self.nest.output.array]

    def array_defines(self, w: CodeWriter) -> None:
        w.line(f"#define ROWS T_{self.mapping.row}")
        w.line(f"#define COLS T_{self.mapping.col}")
        w.line(f"#define VEC  T_{self.mapping.vector}")
        w.line()


class Dialect:
    """How one target spells the skeleton's open ends.

    The base class is the testbench's: static extents, plain
    multi-dimensional C arrays, operands read straight from the buffers.

    Attributes:
        opencl: a single-work-item kernel — buffers carry the ``[pp]``
            ping-pong plane, the PE loops ``#pragma unroll``, the
            accumulate casts to the output type, and reads are loaded
            before the accumulator is zeroed.
        prefix: spelling of a global array (``g_`` kernel argument).
        notes: the comment lines of each phase, by skeleton position.
    """

    opencl = False
    prefix = ""
    notes: dict[str, str] = {}

    def __init__(self, design: DesignPoint | None = None) -> None:
        """``design`` fixes the static bounds and block extents; a dialect
        that spells every extent as a C expression takes none."""
        if design is not None:
            self.bounds = design.nest.bounds
            self.block_extent = {
                it: design.tiling.block_extent(it) for it in design.nest.iterators
            }

    def local_extent(self, access: ArrayAccess, dim: int) -> str:
        """Extent of one on-chip buffer dimension (range over a block)."""
        terms = access.indices[dim].terms
        return str(1 + sum(c * (self.block_extent[name] - 1) for name, c in terms))

    def in_range(self, access: ArrayAccess, dim: int) -> str:
        """The edge guard's comparison, appended to the global index."""
        return f" <= {global_dim(access, self.bounds, dim) - 1}"

    def global_ref(self, name: str, access: ArrayAccess, terms, atoms=False) -> str:
        """One global element; ``atoms`` marks ``terms`` as parenthesized."""
        return name + brackets(terms)

    def operand(self, w: CodeWriter, layout: Layout, access: ArrayAccess, slot: str) -> str:
        """The expression a PE multiplies, given the operand's buffer slot."""
        return slot


def emit_nest(w: CodeWriter, layout: Layout, dialect: Dialect) -> None:
    """The blocked systolic nest: block loops -> load -> zero -> wave
    loops -> PE array -> drain, at the writer's current indentation."""
    nest = layout.nest
    iterators = nest.iterators
    out = nest.output
    pp = "[pp]" if dialect.opencl else ""
    if dialect.opencl:  # reads first, then the accumulator; weight operand first
        buffers, operands = nest.reads + (out,), (layout.weight, layout.feature)
    else:  # declaration order throughout
        buffers, operands = nest.accesses, nest.reads

    def note(key: str, **names: str) -> None:
        if key in dialect.notes:
            w.comment(dialect.notes[key].format(**names))

    def buf(access: ArrayAccess, terms) -> str:
        return f"buf_{access.array}{pp}{brackets(terms)}"

    def pragma_unroll() -> None:
        if dialect.opencl:
            w.line("#pragma unroll")

    note("blocks")
    for it in iterators:
        w.line(f"for (int blk_{it} = 0; blk_{it} < N_{it}; blk_{it} += B_{it})")
    with w.block(""):
        note("load")
        for access in buffers:
            note("zero" if access.is_write else "fill", array=access.array)
            dims = range(access.rank)
            for d in dims:
                w.line(
                    f"for (int u{d} = 0; u{d} < {dialect.local_extent(access, d)}; u{d}++)"
                )
            slot = buf(access, (f"u{d}" for d in dims))
            with w.indented():
                if access.is_write:
                    w.line(f"{slot} = 0;")
                else:
                    base = subscripts(access, lambda n: f"blk_{n}")
                    terms = [f"({base[d]} + u{d})" for d in dims]
                    cond = " && ".join(
                        terms[d] + dialect.in_range(access, d) for d in dims
                    )
                    source = dialect.global_ref(
                        dialect.prefix + access.array, access, terms, atoms=True
                    )
                    w.line(f"{slot} = ({cond}) ? {source} : 0;")
        w.line()
        note("compute")
        for it in iterators:
            w.line(f"for (int m_{it} = 0; m_{it} < S_{it}; m_{it}++)")
        with w.block(""):
            note("array")
            pragma_unroll()
            w.line("for (int x = 0; x < ROWS; x++)")
            pragma_unroll()
            w.line("for (int y = 0; y < COLS; y++)")
            with w.block(""):
                local = {
                    it: f"m_{it} * T_{it} + {layout.inner_of.get(it, '0')}"
                    for it in iterators
                }
                w.line(f"{layout.acc_type} sum = 0;")
                pragma_unroll()
                with w.block("for (int v = 0; v < VEC; v++)"):
                    note("locals")
                    for it in iterators:
                        w.line(f"int l_{it} = {local[it]};")
                    note("mac")
                    a, b = (
                        dialect.operand(
                            w, layout, access, buf(access, subscripts(access, "l_{}".format))
                        )
                        for access in operands
                    )
                    w.line(f"sum += ({layout.acc_type}){a} * ({layout.acc_type}){b};")
                note("accumulate")
                cast = f"({layout.type_of[out.array]})" if dialect.opencl else ""
                slot = buf(out, subscripts(out, lambda n: f"({local[n]})"))
                w.line(f"{slot} += {cast}sum;")
        w.line()
        note("drain")
        out_iters = [it for it in iterators if out.depends_on(it)]
        for it in out_iters:
            w.line(f"for (int l_{it} = 0; l_{it} < B_{it}; l_{it}++)")
        with w.block(""):
            conds = " && ".join(f"blk_{it} + l_{it} < N_{it}" for it in out_iters)
            target = dialect.global_ref(
                dialect.prefix + out.array, out, subscripts(out, lambda n: f"(blk_{n} + l_{n})")
            )
            w.line(
                f"if ({conds}) {target} += {buf(out, subscripts(out, 'l_{}'.format))};"
            )
        if dialect.opencl:
            w.line("pp = 1 - pp;")


def emit_lcg(w: CodeWriter) -> None:
    """The deterministic operand generator, uniform in [-1, 1)."""
    with w.block("static double lcg(void)"):
        w.line("lcg_state = lcg_state * 1664525u + 1013904223u;")
        w.line("return ((double)(lcg_state >> 8) / (double)(1u << 24)) * 2.0 - 1.0;")
    w.line()


def emit_fill(w: CodeWriter, layout: Layout, bounds: dict[str, int], store: str) -> None:
    """Fill every read array with LCG values; ``store`` spells one
    assignment from ``{array}``, ``{type}`` and ``{fill}``."""
    fill = "lcg()" if layout.is_float else "(int)(100.0 * lcg())"
    for access in layout.nest.reads:
        stmt = store.format(array=access.array, type=layout.type_of[access.array], fill=fill)
        w.line(f"for (long k = 0; k < {flat_size(access, bounds)}L; k++) {stmt};")


def emit_reference(
    w: CodeWriter, layout: Layout, dialect: Dialect, operands, prefix: str, ref: str
) -> None:
    """The naive transcription of the original nest: the product of the
    two ``operands`` (arrays spelled ``<prefix><name>``) into ``ref``."""
    nest = layout.nest
    for it in nest.iterators:
        w.line(f"for (int {it} = 0; {it} < N_{it}; {it}++)")
    at = lambda name, a: dialect.global_ref(name, a, subscripts(a, str))
    a, b = (at(prefix + access.array, access) for access in operands)
    with w.indented():
        w.line(f"{at(ref, nest.output)} += {a} * {b};")


def emit_scaled_compare(
    w: CodeWriter, count: int, got: str, want: str, tolerance: str, tag: str
) -> None:
    """Fail unless ``got`` is within ``tolerance`` of ``want``, relative to
    the output's scale (accumulation order differs from the reference)."""
    loop = f"for (long k = 0; k < {count}L; k++)"
    w.line("double worst = 0.0, scale = 0.0;")
    w.line(f"{loop} if (fabs({want}) > scale) scale = fabs({want});")
    with w.block(loop):
        w.line(f"double err = fabs((double){got} - {want});")
        w.line("if (err > worst) worst = err;")
    with w.block(f"if (worst > {tolerance} * (scale + 1e-9))"):
        w.line(f'printf("{tag} FAIL worst=%g scale=%g\\n", worst, scale);')
        w.line("return 1;")
    w.line(f'printf("{tag} PASS worst=%g scale=%g\\n", worst, scale);')


__all__ = [
    "Dialect",
    "Layout",
    "brackets",
    "emit_fill",
    "emit_lcg",
    "emit_nest",
    "emit_reference",
    "emit_scaled_compare",
    "flat_size",
    "global_dim",
    "subscripts",
]
