"""Pure-Python RTL simulator for the emitted Verilog module graph.

:mod:`repro.codegen.rtl` builds a structural IR and renders Verilog-2001
text from it; this module *elaborates the same IR* into a flat netlist
and interprets it with two-phase synchronous semantics:

1. **eval** — combinational wires recomputed in topological order from
   the current registers, memories and input ports;
2. **commit** — every sequential right-hand side evaluated against the
   pre-edge state, then applied at once (Verilog nonblocking ``<=``).

Because every arithmetic value is a Python float (IEEE binary64 — the
same ``real`` arithmetic the rendered text performs under iverilog) and
the boundary streams come from the shared :class:`repro.sim.feed.WaveFeeder`,
the RTL run is bit-identical to the cycle engine and the fast simulator
by construction, and the tests hold it to that.

The optional :func:`run_iverilog_check` compiles the rendered Verilog
plus a generated ``$readmemh`` testbench under iverilog and compares the
dumped accumulator bit patterns against the interpreter, cross-checking
the interpreter itself.  A missing toolchain degrades gracefully
(``SA153``, mirroring the SA504 testbench downgrade).
"""

from __future__ import annotations

import hashlib
import shutil
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.analysis.diagnostics import RTL_TOOLCHAIN_MISSING
from repro.codegen.rtl import (
    MemClear,
    MemWrite,
    ModuleDef,
    RegSet,
    RtlPlan,
    build_rtl_modules,
    render_verilog,
)
from repro.model.design_point import DesignPoint
from repro.resilience.retry import (
    DEFAULT_COMPILE_TIMEOUT,
    DEFAULT_RUN_TIMEOUT,
    ToolUnavailable,
    run_tool,
)
from repro.sim.engine import EngineResult
from repro.sim.feed import WaveFeeder
from repro.sim.schedule import (
    enumerate_blocks,
    enumerate_waves,
    first_all_active_cycle,
    wave_schedule_cycles,
)


# --------------------------------------------------------------------------
# Netlist elaboration and interpretation.

_EvalFn = Callable[[dict, dict], Any]


def _compile_expr(
    expr: tuple, rename: Callable[[str], str], params: dict[str, int]
) -> _EvalFn:
    """Compile an IR expression to a closure over (env, mems)."""
    kind = expr[0]
    if kind == "const":
        value = int(expr[1])
        return lambda env, mems: value
    if kind == "rconst":
        rvalue = float(expr[1])
        return lambda env, mems: rvalue
    if kind == "sig":
        name = rename(expr[1])
        return lambda env, mems: env[name]
    if kind == "param":
        pvalue = int(params[expr[1]])
        return lambda env, mems: pvalue
    if kind == "memread":
        mem = rename(expr[1])
        addr = _compile_expr(expr[2], rename, params)
        return lambda env, mems: mems[mem][addr(env, mems)]
    if kind in ("iadd", "fadd"):
        a = _compile_expr(expr[1], rename, params)
        b = _compile_expr(expr[2], rename, params)
        return lambda env, mems: a(env, mems) + b(env, mems)
    if kind == "fmul":
        a = _compile_expr(expr[1], rename, params)
        b = _compile_expr(expr[2], rename, params)
        return lambda env, mems: a(env, mems) * b(env, mems)
    if kind == "and":
        a = _compile_expr(expr[1], rename, params)
        b = _compile_expr(expr[2], rename, params)
        return lambda env, mems: 1 if (a(env, mems) and b(env, mems)) else 0
    if kind == "or":
        a = _compile_expr(expr[1], rename, params)
        b = _compile_expr(expr[2], rename, params)
        return lambda env, mems: 1 if (a(env, mems) or b(env, mems)) else 0
    if kind == "not":
        a = _compile_expr(expr[1], rename, params)
        return lambda env, mems: 0 if a(env, mems) else 1
    if kind == "ne":
        a = _compile_expr(expr[1], rename, params)
        b = _compile_expr(expr[2], rename, params)
        return lambda env, mems: 1 if a(env, mems) != b(env, mems) else 0
    if kind == "mux":
        c = _compile_expr(expr[1], rename, params)
        a = _compile_expr(expr[2], rename, params)
        b = _compile_expr(expr[3], rename, params)
        return lambda env, mems: a(env, mems) if c(env, mems) else b(env, mems)
    raise ValueError(f"unknown IR expression kind {kind!r}")


def _expr_deps(expr: tuple, rename: Callable[[str], str]) -> set[str]:
    kind = expr[0]
    if kind == "sig":
        return {rename(expr[1])}
    if kind in ("const", "rconst", "param"):
        return set()
    if kind == "memread":
        return _expr_deps(expr[2], rename)
    deps: set[str] = set()
    for operand in expr[1:]:
        if isinstance(operand, tuple):
            deps |= _expr_deps(operand, rename)
    return deps


class NetlistSimulator:
    """Two-phase eval/commit interpreter of an elaborated module graph."""

    def __init__(self, top: ModuleDef, library: dict[str, ModuleDef]) -> None:
        self.env: dict[str, Any] = {}
        self.mems: dict[str, list[float]] = {}
        self.inputs: tuple[str, ...] = tuple(
            p.name for p in top.ports if p.direction == "in"
        )
        wires: list[tuple[str, set[str], _EvalFn]] = []
        self._seq: list[tuple] = []
        self._elaborate(top, library, prefix="", params={})
        # Resolve elaboration products gathered by _elaborate.
        wires = self._pending_wires
        del self._pending_wires
        self._wires = self._topo_sort(wires)

    # ------------------------------------------------------- construction

    def _elaborate(
        self,
        module: ModuleDef,
        library: dict[str, ModuleDef],
        prefix: str,
        params: dict[str, int],
    ) -> None:
        if not hasattr(self, "_pending_wires"):
            self._pending_wires: list[tuple[str, set[str], _EvalFn]] = []

        def rename(name: str) -> str:
            return prefix + name

        merged = dict(module.params)
        merged.update(params)

        for reg in module.regs:
            self.env[rename(reg.name)] = reg.init
        for mem in module.mems:
            self.mems[rename(mem.name)] = [0.0] * mem.depth
        for port in module.ports:
            if port.direction == "in" and not prefix:
                self.env.setdefault(port.name, 0)
        for wire in module.wires:
            self._pending_wires.append(
                (
                    rename(wire.name),
                    _expr_deps(wire.expr, rename),
                    _compile_expr(wire.expr, rename, merged),
                )
            )
        for op in module.seq:
            if isinstance(op, RegSet):
                self._seq.append(
                    ("reg", rename(op.reg), _compile_expr(op.expr, rename, merged))
                )
            elif isinstance(op, MemClear):
                self._seq.append(
                    (
                        "clear",
                        rename(op.mem),
                        _compile_expr(op.enable, rename, merged),
                    )
                )
            elif isinstance(op, MemWrite):
                self._seq.append(
                    (
                        "write",
                        rename(op.mem),
                        _compile_expr(op.addr, rename, merged),
                        _compile_expr(op.data, rename, merged),
                        _compile_expr(op.enable, rename, merged),
                    )
                )
            else:  # pragma: no cover - IR is closed
                raise TypeError(f"unknown sequential op {op!r}")

        for inst in module.instances:
            child = library[inst.module]
            child_prefix = f"{prefix}{inst.name}."
            # Child input ports become alias wires of parent expressions.
            for port_name, expr in inst.inputs.items():
                self._pending_wires.append(
                    (
                        child_prefix + port_name,
                        _expr_deps(expr, rename),
                        _compile_expr(expr, rename, merged),
                    )
                )
            # Parent-scope wires alias the child's output signals.
            for port_name, wire_name in inst.outputs.items():
                source = child_prefix + port_name
                self._pending_wires.append(
                    (rename(wire_name), {source}, _make_alias(source))
                )
            child_params = dict(child.params)
            child_params.update(inst.params)
            self._elaborate(child, library, child_prefix, child_params)

    def _topo_sort(
        self, wires: list[tuple[str, set[str], _EvalFn]]
    ) -> list[tuple[str, _EvalFn]]:
        """Order wires so every dependency is evaluated first."""
        by_name = {name: (deps, fn) for name, deps, fn in wires}
        ordered: list[tuple[str, _EvalFn]] = []
        state: dict[str, int] = {}  # 1 visiting, 2 done

        def visit(name: str) -> None:
            if state.get(name) == 2 or name not in by_name:
                return
            if state.get(name) == 1:
                raise ValueError(f"combinational loop through {name!r}")
            state[name] = 1
            deps, fn = by_name[name]
            for dep in sorted(deps):
                visit(dep)
            state[name] = 2
            ordered.append((name, fn))

        for name, _, _ in wires:
            visit(name)
        # Wires may read regs/inputs that exist in env already; unknown
        # names would KeyError at eval time, which is the right failure.
        return ordered

    # ----------------------------------------------------------- stepping

    def step(self, inputs: dict[str, Any]) -> None:
        """One clock edge: drive inputs, eval wires, commit sequentials."""
        env, mems = self.env, self.mems
        env.update(inputs)
        for name, fn in self._wires:
            env[name] = fn(env, mems)
        pending: list[tuple] = []
        for op in self._seq:
            tag = op[0]
            if tag == "reg":
                pending.append(("reg", op[1], op[2](env, mems)))
            elif tag == "clear":
                if op[2](env, mems):
                    pending.append(("clear", op[1]))
            else:  # write
                if op[4](env, mems):
                    pending.append(
                        ("write", op[1], op[2](env, mems), op[3](env, mems))
                    )
        for item in pending:
            if item[0] == "reg":
                env[item[1]] = item[2]
            elif item[0] == "clear":
                mems[item[1]] = [0.0] * len(mems[item[1]])
            else:
                mems[item[1]][item[2]] = item[3]

    def signal(self, name: str) -> Any:
        return self.env[name]

    def memory(self, name: str) -> list[float]:
        return self.mems[name]


def _make_alias(source: str) -> _EvalFn:
    return lambda env, mems: env[source]


# --------------------------------------------------------------------------
# The design-level harness.


@dataclass(frozen=True)
class RtlRunResult:
    """Outcome of one interpreted RTL run.

    Attributes:
        result: the run's output and emergent counters, in the shared
            :class:`~repro.sim.engine.EngineResult` shape.
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
    """Executes a design's generated RTL with the netlist interpreter."""

    def __init__(self, design: DesignPoint) -> None:
        top, pe, plan = build_rtl_modules(design)  # raises SA150 if unsupported
        self.design = design
        self.plan: RtlPlan = plan
        self.top = top
        self.pe = pe
        self._feeder = WaveFeeder(design)
        shape = design.shape
        self.rows, self.cols, self.vector = shape.rows, shape.cols, shape.vector

    # ----------------------------------------------------------- stimulus

    def _step_inputs(
        self,
        block,
        waves: list[dict[str, int]],
        boffs: list[int],
        arrays: dict[str, np.ndarray],
        step: int,
    ) -> dict[str, Any]:
        """Boundary injection for one clock edge (the skewed schedule)."""
        feeder = self._feeder
        n_waves = len(waves)
        inputs: dict[str, Any] = {"flip": 0, "clear": 0}
        for x in range(self.rows):
            m = step - x
            live = 0 <= m < n_waves
            inputs[f"w_valid_{x}"] = 1 if live else 0
            inputs[f"w_tag_{x}"] = m if live else 0
            inputs[f"w_boff_{x}"] = boffs[m] if live else 0
            inputs[f"w_rowok_{x}"] = (
                1 if live and feeder.row_ok(block, waves[m], x) else 0
            )
            if live:
                vec = feeder.w_vector(block, waves[m], x, arrays)
                for v in range(self.vector):
                    inputs[f"w_val_{v}_{x}"] = float(vec[v])
            else:
                for v in range(self.vector):
                    inputs[f"w_val_{v}_{x}"] = 0.0
        for y in range(self.cols):
            m = step - y
            live = 0 <= m < n_waves
            inputs[f"i_valid_{y}"] = 1 if live else 0
            inputs[f"i_tag_{y}"] = m if live else 0
            inputs[f"i_colok_{y}"] = (
                1 if live and feeder.col_ok(block, waves[m], y) else 0
            )
            if live:
                vec = feeder.in_vector(block, waves[m], y, arrays)
                for v in range(self.vector):
                    inputs[f"i_val_{v}_{y}"] = float(vec[v])
            else:
                for v in range(self.vector):
                    inputs[f"i_val_{v}_{y}"] = 0.0
        return inputs

    def _flip_inputs(self) -> dict[str, Any]:
        """An all-invalid edge that flips the bank and clears the old one."""
        inputs = self._step_inputs(None, [], [], {}, -1)
        inputs["flip"] = 1
        inputs["clear"] = 1
        return inputs

    # ---------------------------------------------------------- execution

    def run(
        self, arrays: dict[str, np.ndarray], *, record_accs: bool = False
    ) -> RtlRunResult:
        """Execute all blocks on the netlist; drain into a dense output.

        Raises:
            AssertionError: when the emitted schedule checker (the
                ``err`` wire) fires — the RTL analogue of the engine's
                wave-tag assertion.
        """
        design = self.design
        plan = self.plan
        nest = design.nest
        out_shape = tuple(
            expr.value_range(nest.bounds)[1] + 1 for expr in nest.output.indices
        )
        output = np.zeros(out_shape)
        netsim = NetlistSimulator(self.top, {"pe": self.pe})
        both_wires = [
            f"pe_{x}_{y}.both" for x in range(self.rows) for y in range(self.cols)
        ]

        blocks = 0
        total_waves = 0
        busy_cycles = 0
        pe_active = 0
        digests: list[str] = []
        accs: list[np.ndarray] = []

        for block in enumerate_blocks(design.tiled, clip=True):
            blocks += 1
            waves = list(enumerate_waves(block, nest.iterators))
            total_waves += len(waves)
            boffs = [plan.base_offset(w) for w in waves]
            cycles = wave_schedule_cycles(len(waves), self.rows, self.cols)
            # cycles + 1 edges: the commit of compute state S_s happens at
            # edge s + 1, so one trailing all-invalid edge flushes the
            # final compute into the accumulators.
            for step in range(cycles + 1):
                netsim.step(self._step_inputs(block, waves, boffs, arrays, step))
                env = netsim.env
                if env["err"]:
                    raise AssertionError(
                        f"RTL schedule violation (err wire) in block {blocks - 1} "
                        f"at edge {step}"
                    )
                active = 0
                for name in both_wires:
                    if env[name]:
                        active += 1
                if active:
                    busy_cycles += 1
                pe_active += active
            # Drain the active bank, PE row-major, address-ascending.
            bank = netsim.signal("bank")
            block_bytes = hashlib.sha256()
            base_key = plan.block_base_key(block)
            pe_accs = []
            for x in range(self.rows):
                for y in range(self.cols):
                    mem = netsim.memory(f"pe_{x}_{y}.acc{bank}")
                    box = np.array(mem, dtype=np.float64).reshape(plan.box_dims)
                    block_bytes.update(box.tobytes())
                    if record_accs:
                        pe_accs.append(box.reshape(-1))
                    # Untouched slots hold +0.0 (bit-neutral under +=);
                    # slots past the global extent are provably untouched.
                    spans = tuple(
                        slice(0, min(dim, extent - lo))
                        for dim, extent, lo in zip(
                            plan.box_dims, out_shape, base_key
                        )
                    )
                    region = tuple(
                        slice(lo, lo + s.stop) for lo, s in zip(base_key, spans)
                    )
                    output[region] += box[spans]
            digests.append(block_bytes.hexdigest())
            if record_accs:
                accs.append(np.stack(pe_accs))
            # Flip the ping-pong bank and clear the drained one.
            netsim.step(self._flip_inputs())

        result = EngineResult(
            output=output,
            compute_cycles=busy_cycles,
            blocks=blocks,
            waves=total_waves,
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
    ``D <hex>`` lines that :func:`run_iverilog_check` parses.
    """
    from repro.codegen.emitter import CodeWriter
    from repro.codegen.rtl import KIND_WIDTH, vblock

    inputs = [p for p in top.ports if p.direction == "in"]
    wps = len(inputs) + 1  # + control word
    shape = plan.design.shape
    w = CodeWriter()
    w.comment("Generated stimulus-replay testbench for systolic_top.")
    w.line("module tb;")
    with w.indented():
        w.line("reg clk = 0;")
        w.line("integer s, k;")
        w.line(f"reg [63:0] stim [0:{n_steps * wps - 1}];")
        for port in inputs:
            width = KIND_WIDTH[port.kind]
            decl = "" if width == 1 else f"[{width - 1}:0] "
            w.line(f"reg {decl}{port.name};")
        w.line("wire err;")
        w.line("systolic_top dut (")
        with w.indented():
            conns = [".clk(clk)"] + [f".{p.name}({p.name})" for p in inputs]
            conns.append(".err(err)")
            for index, conn in enumerate(conns):
                comma = "," if index + 1 < len(conns) else ""
                w.line(f"{conn}{comma}")
        w.line(");")
        w.line()
        with vblock(w, "initial begin"):
            w.line('$readmemh("stim.hex", stim);')
            with vblock(w, f"for (s = 0; s < {n_steps}; s = s + 1) begin"):
                with vblock(
                    w, f"if (stim[s * {wps} + {wps - 1}] & 64'd1) begin"
                ):
                    for x in range(shape.rows):
                        for y in range(shape.cols):
                            w.line(
                                f"for (k = 0; k < {plan.box}; k = k + 1)"
                            )
                            with w.indented():
                                w.line(
                                    f'if (dut.bank) $display("D %h", '
                                    f"dut.pe_{x}_{y}.acc1[k]); "
                                    f'else $display("D %h", '
                                    f"dut.pe_{x}_{y}.acc0[k]);"
                                )
                for index, port in enumerate(inputs):
                    width = KIND_WIDTH[port.kind]
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
    inputs = [p for p in sim.top.ports if p.direction == "in"]
    words: list[int] = []
    steps = 0

    def emit(step_inputs: dict[str, Any], dump: bool) -> None:
        nonlocal steps
        for port in inputs:
            value = step_inputs[port.name]
            if port.kind == "f64":
                words.append(_f64_bits(float(value)))
            else:
                words.append(int(value))
        words.append(1 if dump else 0)
        steps += 1

    nest = sim.design.nest
    for block in enumerate_blocks(sim.design.tiled, clip=True):
        waves = list(enumerate_waves(block, nest.iterators))
        boffs = [sim.plan.base_offset(w) for w in waves]
        cycles = wave_schedule_cycles(len(waves), sim.rows, sim.cols)
        for step in range(cycles + 1):
            emit(sim._step_inputs(block, waves, boffs, arrays, step), dump=False)
        emit(sim._flip_inputs(), dump=True)
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
