"""Structural Verilog-2001 backend for the systolic PE array.

Unlike :mod:`repro.codegen.opencl` (behavioral, text-template style),
this backend first builds a small *module-graph IR* — registers, memories,
combinational wires, sequential assignments and module instances — and
then renders Verilog-2001 text from it.  The same IR is what
:mod:`repro.sim.rtl` elaborates and interprets with two-phase
eval/commit semantics, so the text the tests lint and the circuit the
Python RTL simulator executes cannot disagree: both are projections of
one structure.

Architecture emitted (paper Figs. 1–3):

* a ``pe`` module per design — registered weight/input shift stages
  (the horizontal/vertical chains), a lane-ordered SIMD dot product in
  IEEE double (``real``) arithmetic, a wave-tag equality check feeding
  an ``err`` output, and a *ping-pong* pair of accumulator memories
  addressed by the wave's base offset plus a per-instance ``PE_OFF``
  parameter;
* a ``systolic_top`` module holding the R x C array as one :class:`Grid`
  node, rendered as one nested ``generate for`` over ``genvar gx, gy``
  with a single ``pe`` instance: every chain field is a net array
  (PE ``(gx, gy)`` reads ``[gx][gy]`` and drives ``[gx][gy + 1]`` along a
  row or ``[gx + 1][gy]`` down a column), the per-row and per-column
  top-level ports join element ``[x][0]`` / ``[0][y]`` with one
  ``assign`` each, ``PE_OFF`` is ``OFF_X * gx + OFF_Y * gy``, and ``err``
  is ``|pe_err`` over a flat vector; plus a single ``bank`` selector
  register toggled by ``flip`` and a ``clear`` input that zeroes the
  just-drained bank.  The text grows with rows + cols, not rows x cols.

The interpreter elaborates the same grid node through
:meth:`Grid.instances` into one ``pe_<x>_<y>`` instance per PE.

Data is IEEE binary64 carried as ``[63:0]`` vectors; rendered Verilog
converts at the boundary with ``$bitstoreal`` / ``$realtobits`` so an
event-driven simulator (iverilog) computes with native doubles — the
same arithmetic the Python interpreter and the other simulators use.
Designs the structural form cannot express raise ``SA150``.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.analysis.diagnostics import (
    RTL_UNSUPPORTED_DESIGN,
    AnalysisReport,
    DiagnosticError,
    Severity,
)
from repro.codegen.emitter import CodeWriter
from repro.model.design_point import DesignPoint
from repro.sim.schedule import BlockSpec

#: Largest per-PE accumulator footprint (in words, per bank) the backend
#: will emit.  Bigger designs are rejected with SA150 — a local buffer
#: this size would not fit in BRAM either.
RTL_MAX_BOX = 1 << 20

# --------------------------------------------------------------------------
# Expression IR: small nested tuples, one constructor per node kind.
# Integer/bit ops work on Python ints; f64 ops on Python floats (exactly
# IEEE binary64, the arithmetic the rendered Verilog performs in `real`).

Expr = tuple


def const(value: int) -> Expr:
    return ("const", int(value))


def rconst(value: float) -> Expr:
    return ("rconst", float(value))


def sig(name: str) -> Expr:
    return ("sig", name)


def param(name: str) -> Expr:
    return ("param", name)


def iadd(a: Expr, b: Expr) -> Expr:
    return ("iadd", a, b)


def band(a: Expr, b: Expr) -> Expr:
    return ("and", a, b)


def bor(a: Expr, b: Expr) -> Expr:
    return ("or", a, b)


def bnot(a: Expr) -> Expr:
    return ("not", a)


def ne(a: Expr, b: Expr) -> Expr:
    return ("ne", a, b)


def mux(cond: Expr, then: Expr, other: Expr) -> Expr:
    return ("mux", cond, then, other)


def fadd(a: Expr, b: Expr) -> Expr:
    return ("fadd", a, b)


def fmul(a: Expr, b: Expr) -> Expr:
    return ("fmul", a, b)


def memread(mem: str, addr: Expr) -> Expr:
    return ("memread", mem, addr)


def expr_signals(expr: Expr) -> set[str]:
    """Every signal name an expression reads (memories excluded)."""
    kind = expr[0]
    if kind == "sig":
        return {expr[1]}
    if kind in ("const", "rconst", "param"):
        return set()
    if kind == "memread":
        return expr_signals(expr[2])
    names: set[str] = set()
    for operand in expr[1:]:
        if isinstance(operand, tuple):
            names |= expr_signals(operand)
    return names


# --------------------------------------------------------------------------
# Structural IR nodes.

#: Signal kinds -> rendered Verilog widths.  ``f64`` is IEEE binary64
#: carried as a 64-bit vector; ``int`` covers tags, offsets, addresses.
KIND_WIDTH = {"bit": 1, "int": 32, "f64": 64}


@dataclass(frozen=True)
class Port:
    name: str
    direction: str  # "in" | "out"
    kind: str


@dataclass(frozen=True)
class Reg:
    name: str
    kind: str
    init: Any = 0


@dataclass(frozen=True)
class Mem:
    name: str
    kind: str
    depth: int


@dataclass(frozen=True)
class Wire:
    name: str
    kind: str
    expr: Expr


@dataclass(frozen=True)
class RegSet:
    """Nonblocking ``reg <= expr`` at every clock edge."""

    reg: str
    expr: Expr


@dataclass(frozen=True)
class MemWrite:
    """Guarded read-modify-write of one memory word at the clock edge."""

    mem: str
    addr: Expr
    data: Expr
    enable: Expr


@dataclass(frozen=True)
class MemClear:
    """Guarded whole-memory zeroing at the clock edge (ping-pong reset)."""

    mem: str
    enable: Expr


@dataclass(frozen=True)
class Instance:
    """One child module instantiation, as elaboration sees it: the
    cells of a :class:`Grid` (:meth:`Grid.instances`), which is what a
    top module holds and the renderer writes.

    Attributes:
        name: instance name (``pe_0_0`` — also the hierarchical prefix).
        module: child module name.
        params: parameter overrides.
        inputs: child input port -> parent-scope expression.
        outputs: child output port -> parent-scope wire name to declare.
            Unlisted outputs are left unconnected.
    """

    name: str
    module: str
    params: dict[str, int] = field(default_factory=dict)
    inputs: dict[str, Expr] = field(default_factory=dict)
    outputs: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Chain:
    """One packet field shifted cell to cell through a :class:`Grid`.

    Cell (x, y) reads port ``<stem>_in`` from chain element ``[x][y]``
    and drives ``<stem>_out`` into ``[x][y + 1]`` (``along == "row"``)
    or ``[x + 1][y]`` (``along == "col"``).  Element ``[x][0]`` of a row
    chain is the top input ``<stem>_<x>``; ``[0][y]`` of a column chain
    is ``<stem>_<y>``.
    """

    stem: str
    kind: str
    along: str  # "row" | "col"


#: Per-direction packet fields carried by the chains, with their kinds;
#: each packet also carries one ``val_<v>`` f64 lane per SIMD lane.
W_FIELDS = {"valid": "bit", "tag": "int", "boff": "int", "rowok": "bit"}
I_FIELDS = {"valid": "bit", "tag": "int", "colok": "bit"}


def chains(vector: int) -> tuple[Chain, ...]:
    """The shift chains in ``pe`` port order: the weight packet along
    each row, then the input packet down each column."""
    lanes = {f"val_{v}": "f64" for v in range(vector)}
    return tuple(
        Chain(f"{side}_{fld}", kind, along)
        for side, fields, along in (("w", W_FIELDS, "row"), ("i", I_FIELDS, "col"))
        for fld, kind in {**fields, **lanes}.items()
    )


@dataclass(frozen=True)
class Grid:
    """``rows x cols`` instances of one module, rendered as one nested
    ``generate for`` and elaborated as :meth:`instances`.

    Cell (x, y) gets ``PE_OFF = offset[0] * x + offset[1] * y``, the
    parent nets named in ``shared`` on the same-named ports, and its
    ``err`` output on bit ``x * cols + y`` of a flat vector whose
    reduction OR drives the parent's ``err`` (:meth:`err_wire`).
    """

    module: str
    rows: int
    cols: int
    offset: tuple[int, int]
    shared: tuple[str, ...]
    chains: tuple[Chain, ...]

    def cell(self, x: int, y: int) -> str:
        return f"{self.module}_{x}_{y}"

    def instances(self) -> Iterator[Instance]:
        """The grid as flat instances, row-major: ``pe_<x>_<y>``, chain
        links as ``pe_<x>_<y>_<stem>`` wires, the last cell's chain
        outputs unconnected."""
        for x in range(self.rows):
            for y in range(self.cols):
                name = self.cell(x, y)
                inputs = {port: sig(port) for port in self.shared}
                outputs = {"err": f"{name}_err"}
                for chain in self.chains:
                    row = chain.along == "row"
                    if (y if row else x) == 0:
                        source = f"{chain.stem}_{x if row else y}"
                    else:
                        prev = self.cell(x, y - 1) if row else self.cell(x - 1, y)
                        source = f"{prev}_{chain.stem}"
                    inputs[f"{chain.stem}_in"] = sig(source)
                    if (y + 1 < self.cols) if row else (x + 1 < self.rows):
                        outputs[f"{chain.stem}_out"] = f"{name}_{chain.stem}"
                offset = self.offset[0] * x + self.offset[1] * y
                yield Instance(name, self.module, {"PE_OFF": offset}, inputs, outputs)

    def err_wire(self) -> Wire:
        """The parent's ``err``: every cell's ``err``, ORed row-major."""
        cells = itertools.product(range(self.rows), range(self.cols))
        errs = [sig(f"{self.cell(x, y)}_err") for x, y in cells]
        return Wire("err", "bit", functools.reduce(bor, errs))


@dataclass(frozen=True)
class ModuleDef:
    name: str
    ports: tuple[Port, ...]
    params: tuple[tuple[str, int], ...] = ()
    regs: tuple[Reg, ...] = ()
    mems: tuple[Mem, ...] = ()
    wires: tuple[Wire, ...] = ()
    seq: tuple[Any, ...] = ()  # RegSet | MemClear | MemWrite, in commit order
    instances: tuple[Grid | Instance, ...] = ()  # only a Grid renders


# --------------------------------------------------------------------------
# Planning: geometry and legality of the structural lowering.


@dataclass(frozen=True)
class RtlPlan:
    """Constants the structural array needs, derived from one design.

    The per-PE accumulator is a dense row-major *box* covering the local
    output footprint of one block: dimension ``d`` spans
    ``1 + sum_it coeff_d,it * (s_it * t_it - 1)`` words, and the flat
    address of an output element is ``base_offset(wave) + PE_OFF(x, y)``
    where the first term is wave-dependent (streamed in with the weight
    packet) and the second is a per-instance elaboration constant.
    """

    design: DesignPoint
    box_dims: tuple[int, ...]
    strides: tuple[int, ...]

    @property
    def box(self) -> int:
        return math.prod(self.box_dims)

    def pe_offset(self, x: int, y: int) -> int:
        """The ``PE_OFF`` parameter of instance (x, y)."""
        out = self.design.nest.output
        mapping = self.design.mapping
        total = 0
        for stride, expr in zip(self.strides, out.indices):
            total += stride * (
                expr.coefficient(mapping.row) * x + expr.coefficient(mapping.col) * y
            )
        return total

    def base_offset(self, wave: dict[str, int]) -> int:
        """Wave-dependent part of the accumulator address (all PEs)."""
        out = self.design.nest.output
        t = self.design.tiling.t
        total = 0
        for stride, expr in zip(self.strides, out.indices):
            local = sum(coeff * wave[it] * t(it) for it, coeff in expr.terms)
            total += stride * local
        return total

    def block_base_key(self, block: BlockSpec) -> tuple[int, ...]:
        """Global output coordinates of the block's local origin."""
        out = self.design.nest.output
        bases = block.base_map
        return tuple(
            expr.const + sum(coeff * bases[it] for it, coeff in expr.terms)
            for expr in out.indices
        )


def plan_rtl(design: DesignPoint) -> RtlPlan:
    """Validate a design for structural lowering and compute its plan.

    Raises:
        DiagnosticError: with ``SA150`` when the design cannot be
            expressed as the fixed PE-array structure.
    """
    nest, out, tiling = design.nest, design.nest.output, design.tiling
    problems = []
    if out.depends_on(design.mapping.vector):
        problems.append(
            f"output access of {nest.name!r} depends on the vector iterator "
            f"{design.mapping.vector!r}; a PE accumulates one whole SIMD dot "
            f"product per output element"
        )
    for expr in out.indices:
        problems += [
            f"output subscript coefficient {coeff} of iterator {it!r} is negative; "
            f"RTL address generation requires non-negative offsets"
            for it, coeff in expr.terms
            if coeff < 0
        ]
        if expr.const < 0:
            problems.append(f"output subscript constant {expr.const} is negative")
    if not problems:
        dims = [
            1 + sum(coeff * (tiling.s(it) * tiling.t(it) - 1) for it, coeff in expr.terms)
            for expr in out.indices
        ]
        strides = [math.prod(dims[k + 1:]) for k in range(len(dims))]
        if math.prod(dims) > RTL_MAX_BOX:
            problems.append(
                f"per-PE accumulator box of {math.prod(dims)} words exceeds the RTL "
                f"local-buffer budget ({RTL_MAX_BOX})"
            )
    report = AnalysisReport()
    for message in problems:
        report.add(RTL_UNSUPPORTED_DESIGN, Severity.ERROR, message)
    report.raise_if_errors()
    return RtlPlan(design=design, box_dims=tuple(dims), strides=tuple(strides))


# --------------------------------------------------------------------------
# IR construction.


def build_pe_module(plan: RtlPlan) -> ModuleDef:
    """The per-design ``pe`` module (shift stages + MAC + ping-pong acc)."""
    vector = plan.design.shape.vector
    ports: list[Port] = []
    regs: list[Reg] = []
    seq: list[Any] = []
    # One registered shift stage per chain field.
    for chain in chains(vector):
        stem, kind = chain.stem, chain.kind
        ports += [Port(f"{stem}_in", "in", kind), Port(f"{stem}_out", "out", kind)]
        regs.append(Reg(f"{stem}_out", kind, 0.0 if kind == "f64" else 0))
        seq.append(RegSet(f"{stem}_out", sig(f"{stem}_in")))

    ports += [Port("bank", "in", "bit"), Port("clear", "in", "bit"), Port("err", "out", "bit")]

    # Combinational: pairing, tag check, write enable, address, dot.
    both = band(sig("w_valid_out"), sig("i_valid_out"))
    wires = [
        Wire("both", "bit", both),
        Wire("err", "bit", band(sig("both"), ne(sig("w_tag_out"), sig("i_tag_out")))),
        Wire(
            "wen",
            "bit",
            band(band(sig("both"), sig("w_rowok_out")), sig("i_colok_out")),
        ),
        Wire("addr", "int", iadd(sig("w_boff_out"), param("PE_OFF"))),
    ]
    # Lane-ordered running sum from +0.0: the simd_dot contract.
    dot: Expr = rconst(0.0)
    for v in range(vector):
        dot = fadd(dot, fmul(sig(f"w_val_{v}_out"), sig(f"i_val_{v}_out")))
    wires.append(Wire("dot", "f64", dot))

    # Clear the just-drained (pre-flip active) bank; write the active one.
    # Clears precede writes in commit order.
    banks = (("acc0", bnot(sig("bank"))), ("acc1", sig("bank")))
    mems = tuple(Mem(mem, "f64", plan.box) for mem, _ in banks)
    seq += [MemClear(mem, band(sig("clear"), active)) for mem, active in banks]
    for mem, active in banks:
        data = fadd(memread(mem, sig("addr")), sig("dot"))
        seq.append(MemWrite(mem, sig("addr"), data, band(sig("wen"), active)))

    return ModuleDef(
        name="pe",
        ports=tuple(ports),
        params=(("PE_OFF", 0),),
        regs=tuple(regs),
        mems=mems,
        wires=tuple(wires),
        seq=tuple(seq),
    )



def build_top_module(plan: RtlPlan) -> ModuleDef:
    """The ``systolic_top`` module: the R x C grid and the bank register."""
    shape = plan.design.shape
    rows, cols, vector = shape.rows, shape.cols, shape.vector
    grid_chains = chains(vector)
    ports = [
        Port(f"{chain.stem}_{k}", "in", chain.kind)
        for along, count in (("row", rows), ("col", cols))
        for k in range(count)
        for chain in grid_chains
        if chain.along == along
    ]
    ports += [Port("flip", "in", "bit"), Port("clear", "in", "bit"), Port("err", "out", "bit")]

    grid = Grid(
        module="pe",
        rows=rows,
        cols=cols,
        # RtlPlan.pe_offset is linear in x and y with no constant term.
        offset=(plan.pe_offset(1, 0), plan.pe_offset(0, 1)),
        shared=("bank", "clear"),
        chains=grid_chains,
    )
    return ModuleDef(
        name="systolic_top",
        ports=tuple(ports),
        regs=(Reg("bank", "bit", 0),),
        seq=(RegSet("bank", mux(sig("flip"), bnot(sig("bank")), sig("bank"))),),
        instances=(grid,),
    )


def build_rtl_modules(design: DesignPoint) -> tuple[ModuleDef, ModuleDef, RtlPlan]:
    """(top, pe, plan) for one design — the single source both the
    renderer and the interpreter project from."""
    plan = plan_rtl(design)
    return build_top_module(plan), build_pe_module(plan), plan


# --------------------------------------------------------------------------
# Verilog-2001 rendering.


def _width_decl(kind: str) -> str:
    width = KIND_WIDTH[kind]
    return "" if width == 1 else f"[{width - 1}:0] "


#: Binary IR operators and their Verilog infix operators.
_INFIX = {"iadd": "+", "and": "&", "or": "|", "ne": "!=", "fadd": "+", "fmul": "*"}


def _render_int_expr(expr: Expr) -> str:
    kind = expr[0]
    if kind in ("const", "sig", "param"):
        return str(expr[1])
    if kind in ("iadd", "and", "or", "ne"):
        left, right = _render_int_expr(expr[1]), _render_int_expr(expr[2])
        return f"({left} {_INFIX[kind]} {right})"
    if kind == "not":
        return f"(!{_render_int_expr(expr[1])})"
    if kind == "mux":
        cond, then, other = map(_render_int_expr, expr[1:])
        return f"({cond} ? {then} : {other})"
    raise ValueError(f"not an integer/bit expression: {expr[0]!r}")


def _render_real_expr(expr: Expr) -> str:
    """An f64 expression as Verilog ``real`` arithmetic."""
    kind = expr[0]
    if kind == "rconst":
        value = expr[1]
        return "0.0" if value == 0.0 else repr(value)
    if kind == "sig":
        return f"$bitstoreal({expr[1]})"
    if kind == "memread":
        return f"$bitstoreal({expr[1]}[{_render_int_expr(expr[2])}])"
    if kind in ("fadd", "fmul"):
        left, right = _render_real_expr(expr[1]), _render_real_expr(expr[2])
        return f"({left} {_INFIX[kind]} {right})"
    raise ValueError(f"not an f64 expression: {expr[0]!r}")


def comma_lines(w: CodeWriter, items: list[str]) -> None:
    """One item per line, each but the last followed by a comma."""
    w.lines(*(item + ("," if k + 1 < len(items) else "") for k, item in enumerate(items)))


def _render_module(w: CodeWriter, module: ModuleDef) -> None:
    reg_names = {r.name for r in module.regs}
    port_names = {p.name for p in module.ports}
    depths = {mem.name: mem.depth for mem in module.mems}
    w.line(f"module {module.name} (")
    with w.indented():
        comma_lines(w, ["clk"] + [p.name for p in module.ports])
    w.line(");")
    with w.indented():
        for name, default in module.params:
            w.line(f"parameter {name} = {default};")
        w.line("input clk;")
        for port in module.ports:
            if port.direction == "in":
                w.line(f"input {_width_decl(port.kind)}{port.name};")
            elif port.name in reg_names:
                w.line(f"output reg {_width_decl(port.kind)}{port.name};")
            else:
                w.line(f"output {_width_decl(port.kind)}{port.name};")
        for reg in module.regs:
            if reg.name not in port_names:
                w.line(f"reg {_width_decl(reg.kind)}{reg.name};")
        for mem in module.mems:
            w.line(f"reg {_width_decl(mem.kind)}{mem.name} [0:{mem.depth - 1}];")
        if module.mems:
            w.line("integer mi;")
        w.line()

        # Power-on state: zero registers and memories (FPGA-style init).
        if module.regs or module.mems:
            with vblock(w, "initial begin"):
                for reg in module.regs:
                    w.line(f"{reg.name} = 0;")
                for mem in module.mems:
                    w.line(f"for (mi = 0; mi < {mem.depth}; mi = mi + 1)")
                    with w.indented():
                        w.line(f"{mem.name}[mi] = 0;")
            w.line()

        # Combinational wires: bit/int as assigns, f64 as always @* blocks.
        for wire in module.wires:
            if wire.name not in port_names:
                net = "reg" if wire.kind == "f64" else "wire"
                w.line(f"{net} {_width_decl(wire.kind)}{wire.name};")
        for wire in module.wires:
            if wire.kind == "f64":
                real = _render_real_expr(wire.expr)
                w.line(f"always @* {wire.name} = $realtobits({real});")
            else:
                w.line(f"assign {wire.name} = {_render_int_expr(wire.expr)};")
        if module.wires:
            w.line()

        for grid in module.instances:
            _render_grid(w, grid)
            w.line()

        # The single sequential process: registers, clears, then writes.
        if module.seq:
            with vblock(w, "always @(posedge clk) begin"):
                for op in module.seq:
                    if isinstance(op, RegSet):
                        w.line(f"{op.reg} <= {_render_int_expr(op.expr)};")
                for op in module.seq:
                    if isinstance(op, MemClear):
                        with vblock(w, f"if ({_render_int_expr(op.enable)}) begin"):
                            w.line(f"for (mi = 0; mi < {depths[op.mem]}; mi = mi + 1)")
                            with w.indented():
                                w.line(f"{op.mem}[mi] <= 0;")
                for op in module.seq:
                    if isinstance(op, MemWrite):
                        with vblock(w, f"if ({_render_int_expr(op.enable)}) begin"):
                            addr, data = _render_int_expr(op.addr), _render_real_expr(op.data)
                            w.line(f"{op.mem}[{addr}] <= $realtobits({data});")
    w.line("endmodule")


@contextmanager
def vblock(w: CodeWriter, header: str) -> Iterator[None]:
    """``header`` ... ``end`` around the context (Verilog has no braces,
    so :meth:`CodeWriter.block`'s C-style ``{`` would corrupt the text)."""
    w.line(header)
    with w.indented():
        yield
    w.line("end")


def _render_grid(w: CodeWriter, grid: Grid) -> None:
    """The grid as chain arrays, port joins and one ``generate`` loop."""
    rows, cols = grid.rows, grid.cols
    dims = {"row": f"[0:{rows - 1}][0:{cols}]", "col": f"[0:{rows}][0:{cols - 1}]"}
    link = {"row": "[gx][gy + 1]", "col": "[gx + 1][gy]"}
    w.lines(f"parameter OFF_X = {grid.offset[0]};", f"parameter OFF_Y = {grid.offset[1]};")
    w.comment("Cell (x, y) reads chain element [x][y] and drives [x][y + 1]")
    w.comment("(a row chain) or [x + 1][y] (a column chain).")
    for chain in grid.chains:
        w.line(f"wire {_width_decl(chain.kind)}{chain.stem}_chain {dims[chain.along]};")
    w.line(f"wire [{rows * cols - 1}:0] {grid.module}_err;")
    for chain in grid.chains:  # the top ports join element [x][0] or [0][y]
        row = chain.along == "row"
        for k in range(rows if row else cols):
            at = f"[{k}][0]" if row else f"[0][{k}]"
            w.line(f"assign {chain.stem}_chain{at} = {chain.stem}_{k};")
    w.line(f"assign err = |{grid.module}_err;")
    w.line()
    w.line("genvar gx, gy;")
    w.line("generate")
    with w.indented():
        with vblock(w, f"for (gx = 0; gx < {rows}; gx = gx + 1) begin : row"):
            with vblock(w, f"for (gy = 0; gy < {cols}; gy = gy + 1) begin : col"):
                w.line(f"{grid.module} #(.PE_OFF(OFF_X * gx + OFF_Y * gy)) u (")
                with w.indented():
                    conns = [".clk(clk)"] + [f".{net}({net})" for net in grid.shared]
                    for chain in grid.chains:
                        conns.append(f".{chain.stem}_in({chain.stem}_chain[gx][gy])")
                        conns.append(f".{chain.stem}_out({chain.stem}_chain{link[chain.along]})")
                    conns.append(f".err({grid.module}_err[gx * {cols} + gy])")
                    comma_lines(w, conns)
                w.line(");")
    w.line("endgenerate")


def render_verilog(top: ModuleDef, pe: ModuleDef, plan: RtlPlan) -> str:
    """Verilog-2001 text for the two modules (pe first)."""
    design = plan.design
    shape = design.shape
    w = CodeWriter()
    w.comment(f"Systolic array RTL for design {design.signature}")
    w.comment(
        f"{shape.rows}x{shape.cols} PEs, {shape.vector} SIMD lanes, "
        f"per-PE acc box {plan.box} words "
        f"({'x'.join(str(d) for d in plan.box_dims)})"
    )
    w.comment("Data is IEEE binary64 carried as [63:0]; arithmetic in `real`.")
    w.line()
    _render_module(w, pe)
    w.line()
    _render_module(w, top)
    return w.render()


def generate_rtl(design: DesignPoint, platform: Any = None) -> str:
    """The complete Verilog source for one design point.

    Args:
        design: the design to lower.
        platform: accepted for backend-signature uniformity; the RTL
            structure depends only on the design.

    Raises:
        DiagnosticError: ``SA150`` when the design is not lowerable.
    """
    top, pe, plan = build_rtl_modules(design)
    return render_verilog(top, pe, plan)


def rtl_module_hash(source: str) -> str:
    """Stable content hash of emitted Verilog (for golden fixtures)."""
    return hashlib.sha256(source.encode()).hexdigest()


__all__ = [
    "Chain",
    "Grid",
    "Instance",
    "Mem",
    "MemClear",
    "MemWrite",
    "ModuleDef",
    "Port",
    "Reg",
    "RegSet",
    "RTL_MAX_BOX",
    "RtlPlan",
    "Wire",
    "build_pe_module",
    "build_rtl_modules",
    "build_top_module",
    "expr_signals",
    "generate_rtl",
    "plan_rtl",
    "render_verilog",
    "rtl_module_hash",
]
