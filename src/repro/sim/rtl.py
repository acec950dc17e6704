"""Pure-Python RTL simulator for the emitted Verilog module graph.

:mod:`repro.codegen.rtl` builds a structural IR and renders Verilog-2001
text from it; this module *elaborates the same IR* into a flat netlist,
compiles it into one Python function per clock edge and steps it with
two-phase synchronous semantics:

1. **eval** — combinational wires recomputed in topological order from
   the current registers, memories and input ports;
2. **commit** — every sequential right-hand side evaluated against the
   pre-edge state, then applied at once (Verilog nonblocking ``<=``).

Because every arithmetic value is a Python float (IEEE binary64 — the
same ``real`` arithmetic the rendered text performs under iverilog) and
the boundary streams come from the shared :class:`repro.sim.feed.WaveFeeder`,
the RTL run is bit-identical to the fast simulator by construction, and
the tests hold it to that (and to the cycle engine they keep as an
oracle).  It is the product's only cycle-level simulator: the wave-tag
checker in the emitted Verilog (the ``err`` wire) asserts the Fig. 3
schedule on every edge of every run.

The optional :func:`run_iverilog_check` compiles the rendered Verilog
plus a generated ``$readmemh`` testbench under iverilog and compares the
dumped accumulator bit patterns against the interpreter, cross-checking
the interpreter itself.  A missing toolchain degrades gracefully
(``SA153``, mirroring the SA504 testbench downgrade).
"""

from __future__ import annotations

import hashlib
import itertools
import shutil
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from repro.analysis.diagnostics import RTL_TOOLCHAIN_MISSING
from repro.codegen.rtl import (
    I_FIELDS,
    W_FIELDS,
    Grid,
    MemClear,
    ModuleDef,
    RegSet,
    RtlPlan,
    build_rtl_modules,
    expr_signals,
    render_verilog,
)
from repro.model.design_point import DesignPoint
from repro.resilience.retry import (
    DEFAULT_COMPILE_TIMEOUT,
    DEFAULT_RUN_TIMEOUT,
    ToolUnavailable,
    run_tool,
)
from repro.sim.fast import EngineResult
from repro.sim.feed import WaveFeeder, WaveStreams
from repro.sim.schedule import first_all_active_cycle


# --------------------------------------------------------------------------
# Netlist elaboration and compilation.


def _scoped(expr: tuple, prefix: str, params: dict[str, int]) -> tuple:
    """An IR expression with its nets renamed into the flat namespace and
    its parameters folded to constants."""
    kind = expr[0]
    if kind == "sig":
        return ("sig", prefix + expr[1])
    if kind == "param":
        return ("const", int(params[expr[1]]))
    if kind in ("const", "rconst"):
        return expr
    if kind == "memread":
        return ("memread", prefix + expr[1], _scoped(expr[2], prefix, params))
    return (kind, *(_scoped(op, prefix, params) for op in expr[1:]))


#: Infix operators.  Python evaluates ``a + b + c`` as ``(a + b) + c``, so a
#: left-nested chain renders flat — the same operation order without one
#: parenthesis level per link (the tokenizer caps nesting at 200 levels).
_INFIX = {"iadd": "+", "fadd": "+", "fmul": "*"}


def _chain(expr: tuple, kinds: tuple[str, ...], *, left_only: bool) -> list[tuple]:
    """Operands of a chain of ``kinds`` ops, left to right: ``or(or(a, b), c)``
    gives ``[a, b, c]``.  With ``left_only`` only the left operand is
    unrolled (infix ops keep their evaluation order)."""
    out: list[tuple] = []
    for index, operand in enumerate(expr[1:]):
        if operand[0] in kinds and (index == 0 or not left_only):
            out.extend(_chain(operand, kinds, left_only=left_only))
        else:
            out.append(operand)
    return out


class NetlistSimulator:
    """Two-phase eval/commit simulator of an elaborated module graph.

    Elaboration flattens the instance tree (a :class:`Grid` through its
    flat :meth:`~repro.codegen.rtl.Grid.instances`, ``pe_<x>_<y>.``-prefixed
    nets) into slot-indexed storage: every net owns one slot of :attr:`values`
    and every memory one list in :attr:`mems`.  An instance port connected
    to a bare signal is an *alias*: it shares its source's slot.  The
    combinational nets (in topological order) and the sequential commit
    are then compiled into one Python function per simulator, generated as
    text over slot indices, numeric literals and operators only:

    1. **eval** — drive the top inputs, recompute every wire;
    2. **commit** — evaluate every sequential right-hand side against the
       pre-edge state, then apply them (Verilog nonblocking ``<=``).

    Registers and memories are disjoint storage, so committing all
    registers at once and then the memory clears and writes in ``seq``
    order is the same edge as applying every op in ``seq`` order.

    Raises:
        ValueError: on a combinational loop (through wires or aliases).
    """

    def __init__(self, top: ModuleDef, library: dict[str, ModuleDef]) -> None:
        self.inputs: tuple[str, ...] = tuple(
            p.name for p in top.ports if p.direction == "in"
        )
        self._regs: dict[str, Any] = {}
        self._wires: dict[str, tuple] = {}
        self._aliases: dict[str, str] = {}
        self._mems: dict[str, int] = {}
        self._seq: list[tuple] = []
        self._elaborate(top, library, prefix="", params={})
        self._edge = self._compile()

    # ------------------------------------------------------- construction

    def _elaborate(
        self,
        module: ModuleDef,
        library: dict[str, ModuleDef],
        prefix: str,
        params: dict[str, int],
    ) -> None:
        merged = {**dict(module.params), **params}

        def scope(expr: tuple) -> tuple:
            return _scoped(expr, prefix, merged)

        # A grid stands for its flat instances and its err wire.
        wires, instances = list(module.wires), []
        for node in module.instances:
            if isinstance(node, Grid):
                wires.append(node.err_wire())
                instances += node.instances()
            else:
                instances.append(node)

        for reg in module.regs:
            self._regs[prefix + reg.name] = reg.init
        for mem in module.mems:
            self._mems[prefix + mem.name] = mem.depth
        for wire in wires:
            self._wires[prefix + wire.name] = scope(wire.expr)
        for op in module.seq:  # RegSet | MemClear | MemWrite
            if isinstance(op, RegSet):
                self._seq.append(("reg", prefix + op.reg, scope(op.expr)))
            elif isinstance(op, MemClear):
                self._seq.append(("clear", prefix + op.mem, scope(op.enable)))
            else:
                ops = (scope(op.addr), scope(op.data), scope(op.enable))
                self._seq.append(("write", prefix + op.mem, *ops))

        for inst in instances:
            child = library[inst.module]
            child_prefix = f"{prefix}{inst.name}."
            # Child input ports: aliases of bare parent signals, otherwise
            # wires computing the parent expression.
            for port_name, expr in inst.inputs.items():
                scoped = scope(expr)
                if scoped[0] == "sig":
                    self._aliases[child_prefix + port_name] = scoped[1]
                else:
                    self._wires[child_prefix + port_name] = scoped
            # Parent-scope wires alias the child's output signals.
            for port_name, wire_name in inst.outputs.items():
                self._aliases[prefix + wire_name] = child_prefix + port_name
            child_params = {**dict(child.params), **inst.params}
            self._elaborate(child, library, child_prefix, child_params)

    def _compile(self) -> Callable[[list, list, Sequence], None]:
        """Assign slots, order the wires and generate the edge function."""
        # Slots: top inputs (port order), registers in commit order, the
        # rest; the input drive and the register commit are then one slice
        # store each.
        committed = list(dict.fromkeys(op[1] for op in self._seq if op[0] == "reg"))
        owners = list(
            dict.fromkeys([*self.inputs, *committed, *self._regs, *self._wires])
        )
        self.slots: dict[str, int] = {name: k for k, name in enumerate(owners)}
        for name in self._aliases:
            self.slots[name] = self._resolve(name)
        self.values: list[Any] = [self._regs.get(name, 0) for name in owners]
        mem_names = list(self._mems)
        self._mem_slots = {name: k for k, name in enumerate(mem_names)}
        self.mems: list[list[float]] = [[0.0] * self._mems[n] for n in mem_names]

        slot, mem = self.slots.__getitem__, self._mem_slots.__getitem__
        lines = ["def edge(v, m, inp):", f"    v[0:{len(self.inputs)}] = inp"]
        for name in self._topo_order():
            lines.append(f"    v[{slot(name)}] = {self._render(self._wires[name])}")
        # Every sequential right-hand side is evaluated before any commit.
        reg_rhs = {op[1]: op[2] for op in self._seq if op[0] == "reg"}
        commits = []
        for k, op in enumerate(self._seq):
            if op[0] == "clear":
                lines.append(f"    c{k} = {self._render(op[2])}")
                commits.append(
                    f"    if c{k}: m[{mem(op[1])}] = [0.0] * {self._mems[op[1]]}"
                )
            elif op[0] == "write":
                lines.append(f"    e{k} = {self._render(op[4])}")
                lines.append(
                    f"    if e{k}: a{k} = {self._render(op[2])}; "
                    f"d{k} = {self._render(op[3])}"
                )
                commits.append(f"    if e{k}: m[{mem(op[1])}][a{k}] = d{k}")
        if committed:
            first = len(self.inputs)
            rhs = ", ".join(self._render(reg_rhs[name]) for name in committed)
            lines.append(f"    v[{first}:{first + len(committed)}] = ({rhs},)")
        lines.extend(commits)
        namespace: dict[str, Any] = {"__builtins__": {}}
        exec(compile("\n".join(lines) + "\n", "<netlist>", "exec"), namespace)
        return namespace["edge"]

    def _resolve(self, name: str) -> int:
        """Slot of a net, following alias chains to their source."""
        seen = set()
        while name in self._aliases:
            if name in seen:
                raise ValueError(f"combinational loop through {name!r}")
            seen.add(name)
            name = self._aliases[name]
        return self.slots[name]

    def _topo_order(self) -> list[str]:
        """Wires ordered so every dependency is evaluated first."""
        by_slot = {self.slots[name]: name for name in self._wires}
        ordered: list[str] = []
        state: dict[str, int] = {}  # 1 visiting, 2 done

        def visit(name: str) -> None:
            if state.get(name) == 2:
                return
            if state.get(name) == 1:
                raise ValueError(f"combinational loop through {name!r}")
            state[name] = 1
            for dep in sorted(expr_signals(self._wires[name])):
                source = by_slot.get(self.slots[dep])
                if source is not None:
                    visit(source)
            state[name] = 2
            ordered.append(name)

        for name in self._wires:
            visit(name)
        return ordered

    def _render(self, expr: tuple) -> str:
        """Python text of a scoped expression over ``v`` (nets) and ``m``
        (memories)."""
        kind = expr[0]
        if kind == "sig":
            return f"v[{self.slots[expr[1]]}]"
        if kind in ("const", "rconst"):
            return f"({expr[1]!r})"
        if kind == "memread":
            return f"m[{self._mem_slots[expr[1]]}][{self._render(expr[2])}]"
        if kind in ("and", "or"):
            terms = map(self._render, _chain(expr, (kind,), left_only=False))
            return f"(1 if ({f' {kind} '.join(terms)}) else 0)"
        if kind in _INFIX:
            symbol = _INFIX[kind]
            same = tuple(k for k, s in _INFIX.items() if s == symbol)
            terms = map(self._render, _chain(expr, same, left_only=True))
            return f"({f' {symbol} '.join(terms)})"
        if kind == "not":
            return f"(0 if {self._render(expr[1])} else 1)"
        if kind == "ne":
            return f"(1 if {self._render(expr[1])} != {self._render(expr[2])} else 0)"
        if kind == "mux":
            cond, then, other = map(self._render, expr[1:])
            return f"({then} if {cond} else {other})"
        raise ValueError(f"unknown IR expression kind {kind!r}")

    # ----------------------------------------------------------- stepping

    def step(self, inputs: Sequence[Any]) -> None:
        """One clock edge: drive the top inputs (values in :attr:`inputs`
        order), eval wires, commit sequentials."""
        if len(inputs) != len(self.inputs):
            raise ValueError(
                f"{len(inputs)} input values for {len(self.inputs)} input ports"
            )
        self._edge(self.values, self.mems, inputs)

    def signal(self, name: str) -> Any:
        return self.values[self.slots[name]]

    def memory(self, name: str) -> list[float]:
        return self.mems[self._mem_slots[name]]


# --------------------------------------------------------------------------
# The design-level harness.


@dataclass(frozen=True)
class RtlRunResult:
    """Outcome of one interpreted RTL run.

    Attributes:
        result: the run's output and emergent counters, in the shared
            :class:`~repro.sim.fast.EngineResult` shape.
        block_digests: per-block SHA-256 of the drained accumulator
            bytes (PE row-major, address-ascending) — the golden-corpus
            artifact.
        block_accs: raw per-block accumulator contents, shaped
            ``(rows*cols, box)``, kept only when requested (the
            iverilog cross-check compares these bit patterns).
    """

    result: EngineResult
    block_digests: tuple[str, ...]
    block_accs: tuple[np.ndarray, ...] | None = None


class RtlSimulator:
    """Executes a design's generated RTL with the netlist simulator."""

    def __init__(self, design: DesignPoint) -> None:
        top, pe, plan = build_rtl_modules(design)  # raises SA150 if unsupported
        self.design = design
        self.plan: RtlPlan = plan
        self.top = top
        self.pe = pe
        self._feeder = WaveFeeder(design)
        shape = design.shape
        self.rows, self.cols, self.vector = shape.rows, shape.cols, shape.vector
        self._ports = [p for p in top.ports if p.direction == "in"]
        #: An all-invalid edge that flips the bank and clears the old one.
        self._flip_row = tuple(
            1 if p.name in ("flip", "clear") else (0.0 if p.kind == "f64" else 0)
            for p in self._ports
        )

    # ----------------------------------------------------------- stimulus

    def _edges(self, streams: WaveStreams) -> list[list[tuple]]:
        """Per block, the top-input rows (port order) of its ``cycles + 1``
        edges, built for the whole run at once.

        At local edge s, row x receives the block's wave ``s - x`` and
        column y wave ``s - y`` (the skewed schedule); a boundary with no
        live wave drives zeros.
        """
        starts = np.array(streams.starts)
        waves = np.diff(starts)
        spans = waves + self.rows + self.cols - 1  # wave_schedule_cycles + 1
        edge_starts = np.concatenate(([0], np.cumsum(spans)))
        owner = np.repeat(np.arange(len(waves)), spans)[:, None]
        local = (np.arange(edge_starts[-1]) - edge_starts[:-1].repeat(spans))[:, None]
        iterators = self.design.nest.iterators
        boffs = np.array(
            [
                self.plan.base_offset(dict(zip(iterators, mid)))
                for mid in streams.middle.tolist()
            ]
        )
        columns: dict[str, list] = {
            "flip": [0] * int(edge_starts[-1]),
            "clear": [0] * int(edge_starts[-1]),
        }
        sides = (
            ("w", W_FIELDS, streams.w, streams.row_ok, "rowok"),
            ("i", I_FIELDS, streams.inp, streams.col_ok, "colok"),
        )
        for side, names, lanes, ok, ok_name in sides:
            position = np.arange(lanes.shape[1])
            wave = local - position
            live = (wave >= 0) & (wave < waves[owner])
            held = starts[owner] + np.clip(wave, 0, waves[owner] - 1)
            fields = {
                "valid": live,
                "tag": np.where(live, wave, 0),
                "boff": np.where(live, boffs[held], 0),
                ok_name: live & ok[held, position],
            }
            ints = np.stack([fields[f] for f in names], axis=2).astype(np.int64)
            values = np.where(live[:, :, None], lanes[held, position], 0.0)
            int_cols = ints.transpose(1, 2, 0).tolist()
            val_cols = values.transpose(1, 2, 0).tolist()
            for p in position.tolist():
                for f, column in zip(names, int_cols[p]):
                    columns[f"{side}_{f}_{p}"] = column
                for v, column in enumerate(val_cols[p]):
                    columns[f"{side}_val_{v}_{p}"] = column
        rows = list(zip(*(columns[port.name] for port in self._ports)))
        return [rows[lo:hi] for lo, hi in itertools.pairwise(edge_starts.tolist())]

    # ---------------------------------------------------------- execution

    def run(
        self, arrays: dict[str, np.ndarray], *, record_accs: bool = False
    ) -> RtlRunResult:
        """Execute all blocks on the netlist; drain into a dense output.

        Raises:
            AssertionError: when the emitted schedule checker (the
                ``err`` wire) fires: a weight and an input of different
                waves met in some PE.
        """
        plan = self.plan
        out_shape = self._feeder.out_shape
        output = np.zeros(out_shape)
        netsim = NetlistSimulator(self.top, {"pe": self.pe})
        values = netsim.values
        err = netsim.slots["err"]
        both = [
            netsim.slots[f"pe_{x}_{y}.both"]
            for x in range(self.rows)
            for y in range(self.cols)
        ]

        busy_cycles = 0
        pe_active = 0
        digests: list[str] = []
        accs: list[np.ndarray] = []

        streams = self._feeder.streams(arrays)
        for index, (block, edges) in enumerate(
            zip(streams.blocks, self._edges(streams))
        ):
            # cycles + 1 edges: the commit of compute state S_s happens at
            # edge s + 1, so one trailing all-invalid edge flushes the
            # final compute into the accumulators.
            for step, row in enumerate(edges):
                netsim.step(row)
                if values[err]:
                    raise AssertionError(
                        f"RTL schedule violation (err wire) in block {index} "
                        f"at edge {step}"
                    )
                active = sum(map(values.__getitem__, both))
                if active:
                    busy_cycles += 1
                pe_active += active
            # Drain the active bank, PE row-major, address-ascending.
            bank = netsim.signal("bank")
            block_bytes = hashlib.sha256()
            base_key = plan.block_base_key(block)
            # Untouched slots hold +0.0 (bit-neutral under +=); slots past
            # the global extent are provably untouched.
            spans = tuple(
                slice(0, min(dim, extent - lo))
                for dim, extent, lo in zip(plan.box_dims, out_shape, base_key)
            )
            region = tuple(slice(lo, lo + s.stop) for lo, s in zip(base_key, spans))
            pe_accs = []
            for x in range(self.rows):
                for y in range(self.cols):
                    mem = netsim.memory(f"pe_{x}_{y}.acc{bank}")
                    box = np.array(mem, dtype=np.float64).reshape(plan.box_dims)
                    block_bytes.update(box.tobytes())
                    if record_accs:
                        pe_accs.append(box.reshape(-1))
                    output[region] += box[spans]
            digests.append(block_bytes.hexdigest())
            if record_accs:
                accs.append(np.stack(pe_accs))
            # Flip the ping-pong bank and clear the drained one.
            netsim.step(self._flip_row)

        result = EngineResult(
            output=output,
            compute_cycles=busy_cycles,
            blocks=len(streams.blocks),
            waves=streams.starts[-1],
            pe_active_cycles=pe_active,
            first_all_active_cycle=first_all_active_cycle(self.rows, self.cols),
        )
        return RtlRunResult(
            result=result,
            block_digests=tuple(digests),
            block_accs=tuple(accs) if record_accs else None,
        )


# --------------------------------------------------------------------------
# iverilog cross-check of the interpreter itself.


class RtlToolchainUnavailable(ToolUnavailable):
    """iverilog/vvp cannot deliver a verdict (missing or hung tool).

    Attributes:
        diagnostic: structured ``SA153``/``SA505`` description.
    """


_HINTS = {"missing": "apt-get install iverilog, or rely on the Python interpreter"}


def iverilog_available() -> bool:
    """Both iverilog and vvp resolve on PATH."""
    return shutil.which("iverilog") is not None and shutil.which("vvp") is not None


@dataclass(frozen=True)
class IverilogCheck:
    """Outcome of one iverilog-vs-interpreter comparison.

    Attributes:
        ok: every dumped accumulator word matched bit-for-bit.
        words: number of 64-bit words compared.
        mismatches: count of differing words.
        detail: one-line human summary.
    """

    ok: bool
    words: int
    mismatches: int
    detail: str


def _f64_bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def generate_rtl_testbench(
    top: ModuleDef, plan: RtlPlan, n_steps: int
) -> str:
    """A self-checking Verilog testbench driving ``systolic_top``.

    The stimulus is one flat ``$readmemh`` memory with one 64-bit word
    per top-level input per step, plus a trailing control word whose
    bit 0 requests an accumulator dump *before* the step is driven.
    Dumps print every PE's active-bank words (row-major, ascending) as
    ``D <hex>`` lines that :func:`run_iverilog_check` parses; PE (x, y)
    is the generate-scope instance ``dut.row[x].col[y].u``.
    """
    from repro.codegen.emitter import CodeWriter
    from repro.codegen.rtl import KIND_WIDTH, comma_lines, vblock

    inputs = [p for p in top.ports if p.direction == "in"]
    widths = [KIND_WIDTH[port.kind] for port in inputs]
    wps = len(inputs) + 1  # + control word
    shape = plan.design.shape
    w = CodeWriter()
    w.comment("Generated stimulus-replay testbench for systolic_top.")
    w.line("module tb;")
    with w.indented():
        w.lines("reg clk = 0;", "integer s, k;", f"reg [63:0] stim [0:{n_steps * wps - 1}];")
        for port, width in zip(inputs, widths):
            w.line(f"reg {'' if width == 1 else f'[{width - 1}:0] '}{port.name};")
        w.lines("wire err;", "systolic_top dut (")
        with w.indented():
            comma_lines(w, [".clk(clk)", *(f".{p.name}({p.name})" for p in inputs), ".err(err)"])
        w.lines(");", "")
        with vblock(w, "initial begin"):
            w.line('$readmemh("stim.hex", stim);')
            with vblock(w, f"for (s = 0; s < {n_steps}; s = s + 1) begin"):
                with vblock(w, f"if (stim[s * {wps} + {wps - 1}] & 64'd1) begin"):
                    for x, y in itertools.product(range(shape.rows), range(shape.cols)):
                        pe = f"dut.row[{x}].col[{y}].u"
                        w.line(f"for (k = 0; k < {plan.box}; k = k + 1)")
                        with w.indented():
                            w.line(
                                f'if (dut.bank) $display("D %h", {pe}.acc1[k]); '
                                f'else $display("D %h", {pe}.acc0[k]);'
                            )
                for index, (port, width) in enumerate(zip(inputs, widths)):
                    slice_ = "[0]" if width == 1 else f"[{width - 1}:0]"
                    w.line(f"{port.name} = stim[s * {wps} + {index}]{slice_};")
                w.line("#1 clk = 1;")
                w.line("#1 clk = 0;")
                w.line('if (err) $display("E %0d", s);')
            w.line("$finish;")
    w.line("endmodule")
    return w.render()


def _stimulus_words(
    sim: RtlSimulator, arrays: dict[str, np.ndarray]
) -> tuple[list[int], int]:
    """The flat stimulus stream (64-bit words) and the step count.

    Replays exactly the edges :meth:`RtlSimulator.run` drives, with the
    dump-control bit set on each post-block flip edge.
    """
    kinds = [port.kind for port in sim._ports]
    words: list[int] = []
    steps = 0

    def emit(row: tuple, dump: bool) -> None:
        nonlocal steps
        for kind, value in zip(kinds, row):
            if kind == "f64":
                words.append(_f64_bits(float(value)))
            else:
                words.append(int(value))
        words.append(1 if dump else 0)
        steps += 1

    for edges in sim._edges(sim._feeder.streams(arrays)):
        for row in edges:
            emit(row, dump=False)
        emit(sim._flip_row, dump=True)
    return words, steps


def run_iverilog_check(
    design: DesignPoint,
    arrays: dict[str, np.ndarray],
    *,
    workdir: Path | None = None,
    compile_timeout: float = DEFAULT_COMPILE_TIMEOUT,
    run_timeout: float = DEFAULT_RUN_TIMEOUT,
) -> IverilogCheck:
    """Compile the emitted Verilog under iverilog and diff accumulators.

    The Python interpreter runs first (recording raw per-block
    accumulator contents); the same stimulus is then replayed through
    iverilog/vvp and every dumped 64-bit accumulator word is compared
    bit-for-bit.  Both tools go through
    :func:`repro.resilience.retry.run_tool` (fault points
    ``rtl.compile`` / ``rtl.run``; transient failures are retried and
    ``RetryPolicy.timeout`` bounds every attempt).

    Raises:
        DiagnosticError: ``SA150`` when the design is not lowerable.
        RtlToolchainUnavailable: iverilog/vvp missing (SA153) or over
            budget (SA505) — the verdict is "unknown", not "failed".
    """
    if workdir is None:
        with tempfile.TemporaryDirectory(prefix="systolic_rtl_") as tmp:
            return run_iverilog_check(
                design,
                arrays,
                workdir=Path(tmp),
                compile_timeout=compile_timeout,
                run_timeout=run_timeout,
            )
    sim = RtlSimulator(design)
    interpreted = sim.run(arrays, record_accs=True)
    words, n_steps = _stimulus_words(sim, arrays)

    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "systolic.v").write_text(render_verilog(sim.top, sim.pe, sim.plan))
    (workdir / "tb.v").write_text(generate_rtl_testbench(sim.top, sim.plan, n_steps))
    (workdir / "stim.hex").write_text(
        "\n".join(f"{word:016x}" for word in words) + "\n"
    )

    try:
        build = run_tool(
            ["iverilog", "-g2001", "-o", "sim.vvp", "systolic.v", "tb.v"],
            fault_point="rtl.compile",
            timeout=compile_timeout,
            cwd=workdir,
        )
        if build.returncode != 0:
            return IverilogCheck(
                False, 0, 0, f"iverilog compile error: {build.stderr.strip()[:400]}"
            )
        run = run_tool(
            ["vvp", "sim.vvp"], fault_point="rtl.run", timeout=run_timeout, cwd=workdir
        )
    except ToolUnavailable as exc:
        raise RtlToolchainUnavailable.diagnosed(
            exc, RTL_TOOLCHAIN_MISSING, _HINTS
        ) from exc

    if "E " in run.stdout and any(
        line.startswith("E ") for line in run.stdout.splitlines()
    ):
        return IverilogCheck(False, 0, 0, "iverilog run raised the err wire")
    dumped = [
        int(line[2:].strip(), 16)
        for line in run.stdout.splitlines()
        if line.startswith("D ")
    ]
    expected: list[int] = []
    assert interpreted.block_accs is not None
    for block_acc in interpreted.block_accs:
        for value in block_acc.reshape(-1):
            expected.append(_f64_bits(float(value)))
    if len(dumped) != len(expected):
        return IverilogCheck(
            False,
            len(dumped),
            abs(len(dumped) - len(expected)),
            f"dump length {len(dumped)} != expected {len(expected)}",
        )
    mismatches = sum(1 for got, want in zip(dumped, expected) if got != want)
    if mismatches:
        return IverilogCheck(
            False,
            len(dumped),
            mismatches,
            f"{mismatches}/{len(dumped)} accumulator words differ",
        )
    return IverilogCheck(
        True, len(dumped), 0, f"{len(dumped)} accumulator words bit-identical"
    )


__all__ = [
    "IverilogCheck",
    "NetlistSimulator",
    "RtlRunResult",
    "RtlSimulator",
    "RtlToolchainUnavailable",
    "generate_rtl_testbench",
    "iverilog_available",
    "run_iverilog_check",
]
