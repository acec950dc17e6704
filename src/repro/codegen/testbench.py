"""Self-contained C testbench generation and execution.

With no OpenCL toolchain available, functional validation of a generated
design happens here: :func:`generate_testbench` emits a single C file
containing

* the design's parameter header (bounds, tiling, buffer extents),
* a ``systolic_blocked`` function that executes the design's exact
  block / buffer-load / wave / drain structure — the same address
  generation the OpenCL kernel uses,
* a naive ``reference`` transcription of the original nest,
* a ``main`` that fills the arrays with deterministic pseudo-random data,
  runs both, and compares.

:func:`compile_and_run_testbench` builds it with the system C compiler
and runs it, turning "the generated design is functionally correct" into
an executable check (the RTL-simulation stand-in of this reproduction).

The compiler and the binary are treated as unreliable external services
and run through the flow's one tool runner
(:func:`repro.resilience.retry.run_tool`): every invocation carries a
hard timeout (a hung gcc cannot wedge a synthesis run), transient
failures are retried under a :mod:`repro.resilience` policy, the
``testbench.compile`` / ``testbench.run`` fault points let the chaos
suite rehearse each path, and a missing or persistently hung toolchain
surfaces as :class:`TestbenchUnavailable` carrying a structured
``SA504``/``SA505`` diagnostic — not a traceback — so the simulate stage
can degrade gracefully.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.diagnostics import RESILIENCE_TESTBENCH_DEGRADED
from repro.ir.access import ArrayAccess
from repro.model.design_point import DesignPoint
from repro.model.platform import Platform
from repro.codegen.emitter import CodeWriter
from repro.resilience.faults import corrupt_text
from repro.resilience.retry import (
    DEFAULT_COMPILE_TIMEOUT,
    DEFAULT_RUN_TIMEOUT,
    OnRetry,
    RetryPolicy,
    ToolUnavailable,
    run_tool,
)


def _check_identifier(name: str) -> str:
    if not name.isidentifier():
        raise ValueError(f"array name {name!r} is not a valid C identifier")
    return name


def _ctypes(platform: Platform) -> dict[str, str]:
    """C types for (weight, input, output/accumulator) at this precision."""
    if platform.datatype.is_floating_point:
        return {"w": "float", "in": "float", "out": "float", "acc": "double"}
    return {"w": "signed char", "in": "short", "out": "long long", "acc": "long long"}


def _global_dim(access: ArrayAccess, bounds: dict[str, int], dim: int) -> int:
    """Allocated extent of one global array dimension (full range)."""
    lo, hi = access.indices[dim].value_range(bounds)
    if lo < 0:
        raise ValueError(f"negative subscript range on {access.array} dim {dim}")
    return hi + 1


def _local_dim(access: ArrayAccess, block_extent: dict[str, int], dim: int) -> int:
    """Extent of one on-chip buffer dimension (range over a block)."""
    span = 1
    for name, coeff in access.indices[dim].terms:
        span += coeff * (block_extent[name] - 1)
    return span


def _subscript(access: ArrayAccess, dim: int, value_of) -> str:
    """Render subscript ``dim`` as a C expression via a per-iterator hook."""
    expr = access.indices[dim]
    parts = []
    for name, coeff in expr.terms:
        term = value_of(name)
        parts.append(term if coeff == 1 else f"{coeff}*{term}")
    if expr.const:
        parts.append(str(expr.const))
    return " + ".join(parts) if parts else "0"


def generate_testbench(design: DesignPoint, platform: Platform) -> str:
    """Emit the complete C testbench for one design point."""
    nest = design.nest
    bounds = nest.bounds
    tiling = design.tiling
    iterators = nest.iterators
    out = nest.output
    reads = nest.reads
    ctypes = _ctypes(platform)
    is_float = platform.datatype.is_floating_point

    # Identify the weight (rank-4 / horizontal by default) vs input tensor
    # only for type assignment; the schedule itself is array-agnostic.
    type_of = {out.array: ctypes["out"]}
    for access in reads:
        role = "w" if access is max(reads, key=lambda a: a.rank) else "in"
        type_of[access.array] = ctypes[role]

    block_extent = {it: tiling.block_extent(it) for it in iterators}
    inner_of = {
        design.mapping.row: "x",
        design.mapping.col: "y",
        design.mapping.vector: "v",
    }

    w = CodeWriter()
    w.comment(f"Auto-generated testbench for design: {design.signature}")
    w.comment("Structure: block loops -> buffer loads -> wave loops -> PE array -> drain.")
    w.lines("#include <stdio.h>", "#include <stdlib.h>", "#include <math.h>", "#include <string.h>")
    w.line()

    w.comment("Original loop bounds.")
    for it in iterators:
        w.line(f"#define N_{it} {bounds[it]}")
    w.comment("Tiling: T = inner (PE array) bound, S = middle bound, B = S*T.")
    for it in iterators:
        w.line(f"#define T_{it} {tiling.t(it)}")
        w.line(f"#define S_{it} {tiling.s(it)}")
        w.line(f"#define B_{it} {block_extent[it]}")
    w.line(f"#define ROWS T_{design.mapping.row}")
    w.line(f"#define COLS T_{design.mapping.col}")
    w.line(f"#define VEC  T_{design.mapping.vector}")
    w.line()

    w.comment("Global arrays (full access ranges).")
    for access in nest.accesses:
        _check_identifier(access.array)
        dims = "".join(f"[{_global_dim(access, bounds, d)}]" for d in range(access.rank))
        w.line(f"static {type_of[access.array]} {access.array}{dims};")
    out_dims = "".join(f"[{_global_dim(out, bounds, d)}]" for d in range(out.rank))
    ref_type = "double" if is_float else type_of[out.array]
    w.line(f"static {ref_type} {out.array}_ref{out_dims};")
    w.line()

    w.comment("On-chip reuse buffers (one block's footprint).")
    for access in nest.accesses:
        dims = "".join(
            f"[{_local_dim(access, block_extent, d)}]" for d in range(access.rank)
        )
        w.line(f"static {type_of[access.array]} buf_{access.array}{dims};")
    w.line()

    _emit_reference(w, design, type_of)
    w.line()
    _emit_systolic(w, design, type_of, inner_of)
    w.line()
    _emit_main(w, design, type_of, is_float)
    return w.render()


def _emit_reference(w: CodeWriter, design: DesignPoint, type_of) -> None:
    nest = design.nest
    out = nest.output
    reads = nest.reads
    with w.block("static void reference(void)"):
        depth = 0
        for it in nest.iterators:
            w.line(
                f"{'for (int ' + it + ' = 0; ' + it + ' < N_' + it + '; ' + it + '++)'}"
            )
            depth += 1
        sub = lambda a: "".join(
            f"[{_subscript(a, d, lambda n: n)}]" for d in range(a.rank)
        )
        with w.indented():
            w.line(
                f"{out.array}_ref{sub(out)} += {reads[0].array}{sub(reads[0])}"
                f" * {reads[1].array}{sub(reads[1])};"
            )
        del depth


def _emit_systolic(w: CodeWriter, design: DesignPoint, type_of, inner_of) -> None:
    nest = design.nest
    iterators = nest.iterators
    out = nest.output
    reads = nest.reads

    with w.block("static void systolic_blocked(void)"):
        w.comment("Outer loops: one iteration per data block.")
        for it in iterators:
            w.line(f"for (int blk_{it} = 0; blk_{it} < N_{it}; blk_{it} += B_{it})")
        with w.block(""):
            w.comment("--- load phase: fill the double buffers (zero-pad the ragged edge) ---")
            for access in nest.accesses:
                is_out = access.is_write
                w.comment(f"{'output accumulator' if is_out else 'reuse buffer'} for {access.array}")
                # iterate buffer coordinates u0..u{rank-1}
                for d in range(access.rank):
                    dim = f"u{d}"
                    w.line(
                        f"for (int {dim} = 0; {dim} < "
                        f"{_local_dim(access, {i: design.tiling.block_extent(i) for i in iterators}, d)}; {dim}++)"
                    )
                local_idx = "".join(f"[u{d}]" for d in range(access.rank))
                with w.indented():
                    if is_out:
                        w.line(f"buf_{access.array}{local_idx} = 0;")
                    else:
                        base = lambda a, d: _subscript(a, d, lambda n: f"blk_{n}")
                        conds = []
                        globals_ = []
                        for d in range(access.rank):
                            g = f"({base(access, d)} + u{d})"
                            globals_.append(g)
                            lo, hi = access.indices[d].value_range(nest.bounds)
                            conds.append(f"{g} <= {hi}")
                        cond = " && ".join(conds)
                        gsub = "".join(f"[{g}]" for g in globals_)
                        w.line(
                            f"buf_{access.array}{local_idx} = ({cond}) ? "
                            f"{access.array}{gsub} : 0;"
                        )
            w.line()
            w.comment("--- compute phase: middle loops feed waves into the PE array ---")
            for it in iterators:
                w.line(f"for (int m_{it} = 0; m_{it} < S_{it}; m_{it}++)")
            with w.block(""):
                w.comment("The fully unrolled PE array (rows x cols), SIMD inside.")
                w.line("for (int x = 0; x < ROWS; x++)")
                w.line("for (int y = 0; y < COLS; y++)")
                with w.block(""):
                    acc_type = "double" if type_of[out.array] == "float" else "long long"
                    w.line(f"{acc_type} sum = 0;")
                    with w.block("for (int v = 0; v < VEC; v++)"):
                        w.comment("local (in-block) iteration indexes")
                        for it in iterators:
                            inner = inner_of.get(it, "0")
                            w.line(f"int l_{it} = m_{it} * T_{it} + {inner};")
                        local = lambda a: "".join(
                            f"[{_subscript(a, d, lambda n: f'l_{n}')}]"
                            for d in range(a.rank)
                        )
                        w.line(
                            f"sum += ({acc_type})buf_{reads[0].array}{local(reads[0])}"
                            f" * ({acc_type})buf_{reads[1].array}{local(reads[1])};"
                        )
                    w.comment("accumulate into the output buffer slot")
                    out_locals = {}
                    for it in iterators:
                        if out.depends_on(it):
                            inner = inner_of.get(it, "0")
                            out_locals[it] = f"(m_{it} * T_{it} + {inner})"
                    out_sub = "".join(
                        f"[{_subscript(out, d, lambda n: out_locals[n])}]"
                        for d in range(out.rank)
                    )
                    w.line(f"buf_{out.array}{out_sub} += sum;")
            w.line()
            w.comment("--- drain phase: write the output buffer back (guarded) ---")
            out_iters = [it for it in iterators if out.depends_on(it)]
            for it in out_iters:
                w.line(f"for (int l_{it} = 0; l_{it} < B_{it}; l_{it}++)")
            with w.block(""):
                conds = " && ".join(f"blk_{it} + l_{it} < N_{it}" for it in out_iters)
                local_sub = "".join(
                    f"[{_subscript(out, d, lambda n: f'l_{n}')}]" for d in range(out.rank)
                )
                global_sub = "".join(
                    f"[{_subscript(out, d, lambda n: f'(blk_{n} + l_{n})')}]"
                    for d in range(out.rank)
                )
                w.line(f"if ({conds}) {out.array}{global_sub} += buf_{out.array}{local_sub};")


def _emit_main(w: CodeWriter, design: DesignPoint, type_of, is_float: bool) -> None:
    nest = design.nest
    out = nest.output
    w.line("static unsigned lcg_state = 12345u;")
    w.line()
    with w.block("static double lcg(void)"):
        w.line("lcg_state = lcg_state * 1664525u + 1013904223u;")
        w.line("return ((double)(lcg_state >> 8) / (double)(1u << 24)) * 2.0 - 1.0;")
    w.line()
    with w.block("int main(void)"):
        w.comment("deterministic pseudo-random fill")
        for access in nest.reads:
            flat = 1
            for d in range(access.rank):
                flat *= _global_dim(access, nest.bounds, d)
            cast = "" if is_float else "(int)(100.0 * "
            close = "" if is_float else ")"
            w.line(
                f"for (long k = 0; k < {flat}L; k++) "
                f"(({type_of[access.array]}*){access.array})[k] = "
                f"{cast}{'lcg()' if is_float else 'lcg()'}{close};"
            )
        w.line("reference();")
        w.line("systolic_blocked();")
        flat_out = 1
        for d in range(out.rank):
            flat_out *= _global_dim(out, nest.bounds, d)
        ref_type = "double" if is_float else type_of[out.array]
        w.line(f"{type_of[out.array]} *a = ({type_of[out.array]}*){out.array};")
        w.line(f"{ref_type} *b = ({ref_type}*){out.array}_ref;")
        if is_float:
            w.comment(
                "Globally normalized error: float32 accumulation order differs "
                "between the systolic schedule and the reference (the paper's "
                "'precision error of reordering' note), so compare against the "
                "output scale, not element-wise relative."
            )
            w.line("double worst = 0.0, scale = 0.0;")
            w.line(
                f"for (long k = 0; k < {flat_out}L; k++) "
                "if (fabs(b[k]) > scale) scale = fabs(b[k]);"
            )
            with w.block(f"for (long k = 0; k < {flat_out}L; k++)"):
                w.line("double err = fabs((double)a[k] - b[k]);")
                w.line("if (err > worst) worst = err;")
            with w.block("if (worst > 2e-3 * (scale + 1e-9))"):
                w.line('printf("TESTBENCH FAIL worst=%g scale=%g\\n", worst, scale);')
                w.line("return 1;")
            w.line('printf("TESTBENCH PASS worst=%g scale=%g\\n", worst, scale);')
        else:
            with w.block(f"for (long k = 0; k < {flat_out}L; k++)"):
                w.line("if (a[k] != b[k]) { printf(\"TESTBENCH FAIL at %ld\\n\", k); return 1; }")
            w.line('printf("TESTBENCH PASS exact\\n");')
        w.line("return 0;")


class TestbenchUnavailable(ToolUnavailable):
    """The C toolchain cannot deliver a verdict (missing or hung tool).

    Distinct from a *failing* testbench: unavailability means nothing
    was checked, so callers (the simulate stage) can degrade to another
    backend instead of reporting a functional failure.

    Attributes:
        diagnostic: structured ``SA504``/``SA505`` description.
    """

    __test__ = False  # keep pytest from collecting this as a test class


_HINTS = {
    "missing": "install gcc, or pass compiler=... / --sim-backend fast",
    "timeout": "raise the timeout, or use --sim-backend fast",
}


@dataclass(frozen=True)
class TestbenchRun:
    """Outcome of one compile-and-execute testbench check.

    Attributes:
        passed: exit 0 plus the PASS marker.
        output: combined stdout/stderr of the failing or passing step.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    passed: bool
    output: str


def run_testbench(
    source: str,
    *,
    workdir: Path | None = None,
    compiler: str = "gcc",
    policy: RetryPolicy | None = None,
    compile_timeout: float = DEFAULT_COMPILE_TIMEOUT,
    run_timeout: float = DEFAULT_RUN_TIMEOUT,
    on_retry: OnRetry | None = None,
) -> TestbenchRun:
    """Compile the testbench and execute it, with timeouts and retries.

    Both invocations go through :func:`repro.resilience.retry.run_tool`
    (fault points ``testbench.compile`` / ``testbench.run``).

    Args:
        source: C source from :func:`generate_testbench`.
        workdir: directory for artifacts (a temp dir by default).
        compiler: C compiler executable.
        policy: retry budget (the process default if None).
        compile_timeout / run_timeout: per-attempt budgets in seconds
            (``policy.timeout``, when set, overrides both).
        on_retry: hook fired per retry (event emission).

    Raises:
        TestbenchUnavailable: the compiler is missing (SA504) or a tool
            exceeded its budget on every attempt (SA505) — the verdict
            is "unknown", not "failed".
    """
    if workdir is None:
        with tempfile.TemporaryDirectory(prefix="systolic_tb_") as tmp:
            return run_testbench(
                source,
                workdir=Path(tmp),
                compiler=compiler,
                policy=policy,
                compile_timeout=compile_timeout,
                run_timeout=run_timeout,
                on_retry=on_retry,
            )
    workdir.mkdir(parents=True, exist_ok=True)
    src = workdir / "testbench.c"
    binary = workdir / "testbench"
    src.write_text(source)

    def compile_argv(path: Path) -> list[str]:
        return [compiler, "-O2", "-std=c99", "-o", str(binary), str(path), "-lm"]

    def corrupted_argv() -> list[str]:
        path = workdir / "testbench_corrupt.c"
        path.write_text(corrupt_text(source))
        return compile_argv(path)

    try:
        build = run_tool(
            compile_argv(src),
            fault_point="testbench.compile",
            timeout=compile_timeout,
            policy=policy,
            on_retry=on_retry,
            corrupted=corrupted_argv,
        )
        if build.returncode != 0:
            return TestbenchRun(False, f"COMPILE ERROR:\n{build.stderr}")
        run = run_tool(
            [str(binary)],
            fault_point="testbench.run",
            timeout=run_timeout,
            policy=policy,
            on_retry=on_retry,
        )
    except ToolUnavailable as exc:
        raise TestbenchUnavailable.diagnosed(
            exc, RESILIENCE_TESTBENCH_DEGRADED, _HINTS
        ) from exc
    output = run.stdout + run.stderr
    return TestbenchRun(run.returncode == 0 and "TESTBENCH PASS" in output, output)


def compile_and_run_testbench(
    source: str, *, workdir: Path | None = None, compiler: str = "gcc"
) -> tuple[bool, str]:
    """Compile the testbench with the system C compiler and execute it.

    Back-compatible wrapper over :func:`run_testbench`: an unavailable
    toolchain comes back as a failed check whose output is the rendered
    diagnostic — never a traceback.

    Returns:
        (passed, combined output).  ``passed`` requires exit code 0 and
        the PASS marker.
    """
    try:
        outcome = run_testbench(source, workdir=workdir, compiler=compiler)
    except TestbenchUnavailable as exc:
        return False, f"TOOLCHAIN UNAVAILABLE:\n{exc.diagnostic.render()}"
    return outcome.passed, outcome.output


__all__ = [
    "DEFAULT_COMPILE_TIMEOUT",
    "DEFAULT_RUN_TIMEOUT",
    "TestbenchRun",
    "TestbenchUnavailable",
    "compile_and_run_testbench",
    "generate_testbench",
    "run_testbench",
]
