"""Self-contained C testbench generation and execution.

With no OpenCL toolchain available, functional validation of a generated
design happens here: :func:`generate_testbench` emits a single C file
containing

* the design's parameter header (bounds, tiling, buffer extents),
* a ``systolic_blocked`` function that executes the design's exact
  block / buffer-load / wave / drain structure — the skeleton of
  :func:`repro.codegen.template.emit_nest`, the one the OpenCL kernel is
  emitted from, over plain multi-dimensional C arrays,
* a naive ``reference`` transcription of the original nest,
* a ``main`` that fills the arrays with deterministic pseudo-random data,
  runs both, and compares.

:func:`run_testbench` builds it with the system C compiler
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

import contextlib
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from repro.analysis.diagnostics import RESILIENCE_TESTBENCH_DEGRADED
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
from repro.resilience.faults import corrupt_text
from repro.resilience.retry import (
    DEFAULT_COMPILE_TIMEOUT,
    DEFAULT_RUN_TIMEOUT,
    OnRetry,
    RetryPolicy,
    ToolUnavailable,
    run_tool,
)


class _Arrays(Dialect):
    """Plain multi-dimensional C arrays at file scope."""

    notes = {
        "blocks": "Outer loops: one iteration per data block.",
        "load": "--- load phase: fill the double buffers (zero-pad the ragged edge) ---",
        "zero": "output accumulator for {array}",
        "fill": "reuse buffer for {array}",
        "compute": "--- compute phase: middle loops feed waves into the PE array ---",
        "array": "The fully unrolled PE array (rows x cols), SIMD inside.",
        "locals": "local (in-block) iteration indexes",
        "accumulate": "accumulate into the output buffer slot",
        "drain": "--- drain phase: write the output buffer back (guarded) ---",
    }


def generate_testbench(design: DesignPoint, platform: Platform) -> str:
    """Emit the complete C testbench for one design point."""
    nest = design.nest
    bounds = nest.bounds
    tiling = design.tiling
    iterators = nest.iterators
    out = nest.output
    layout = Layout.of(nest, design.mapping, platform)
    type_of = layout.type_of
    dialect = _Arrays(design)
    block_extent = dialect.block_extent

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
    layout.array_defines(w)

    w.comment("Global arrays (full access ranges).")
    global_dims = lambda a: brackets(global_dim(a, bounds, d) for d in range(a.rank))
    for access in nest.accesses:
        w.line(f"static {type_of[access.array]} {access.array}{global_dims(access)};")
    w.line(f"static {layout.ref_type} {out.array}_ref{global_dims(out)};")
    w.line()

    w.comment("On-chip reuse buffers (one block's footprint).")
    for access in nest.accesses:
        dims = brackets(dialect.local_extent(access, d) for d in range(access.rank))
        w.line(f"static {type_of[access.array]} buf_{access.array}{dims};")
    w.line()

    with w.block("static void reference(void)"):
        emit_reference(w, layout, dialect, nest.reads, "", f"{out.array}_ref")
    w.line()
    with w.block("static void systolic_blocked(void)"):
        emit_nest(w, layout, dialect)
    w.line()
    _emit_main(w, layout)
    return w.render()


def _emit_main(w: CodeWriter, layout: Layout) -> None:
    bounds = layout.nest.bounds
    out = layout.nest.output
    out_type = layout.type_of[out.array]
    w.line("static unsigned lcg_state = 12345u;")
    w.line()
    emit_lcg(w)
    with w.block("int main(void)"):
        w.comment("deterministic pseudo-random fill")
        emit_fill(w, layout, bounds, "(({type}*){array})[k] = {fill}")
        w.line("reference();")
        w.line("systolic_blocked();")
        flat_out = flat_size(out, bounds)
        w.line(f"{out_type} *a = ({out_type}*){out.array};")
        w.line(f"{layout.ref_type} *b = ({layout.ref_type}*){out.array}_ref;")
        if layout.is_float:
            w.comment(
                "Globally normalized error: float32 accumulation order differs "
                "between the systolic schedule and the reference (the paper's "
                "'precision error of reordering' note), so compare against the "
                "output scale, not element-wise relative."
            )
            emit_scaled_compare(w, flat_out, "a[k]", "b[k]", "2e-3", "TESTBENCH")
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
    extra_files: Mapping[str, str] | None = None,
    marker: str = "TESTBENCH PASS",
) -> TestbenchRun:
    """Compile a self-checking C program and execute it, with timeouts
    and retries.

    Both invocations go through :func:`repro.resilience.retry.run_tool`
    (fault points ``testbench.compile`` / ``testbench.run``).

    Args:
        source: C source from :func:`generate_testbench` — or the kernel
            driver of :func:`repro.codegen.opencl.generate_kernel_driver`,
            with the kernel and the shim it includes in ``extra_files``.
        workdir: directory for artifacts (a temp dir by default).
        compiler: C compiler executable.
        policy: retry budget (the process default if None).
        compile_timeout / run_timeout: per-attempt budgets in seconds
            (``policy.timeout``, when set, overrides both).
        on_retry: hook fired per retry (event emission).
        extra_files: ``{file name: text}`` written beside the source.
        marker: what a passing run prints.

    Raises:
        TestbenchUnavailable: the compiler is missing (SA504) or a tool
            exceeded its budget on every attempt (SA505) — the verdict
            is "unknown", not "failed".
    """
    with contextlib.ExitStack() as stack:
        if workdir is None:
            workdir = Path(
                stack.enter_context(tempfile.TemporaryDirectory(prefix="systolic_tb_"))
            )
        workdir.mkdir(parents=True, exist_ok=True)
        src = workdir / "testbench.c"
        binary = workdir / "testbench"
        for name, text in {**(extra_files or {}), src.name: source}.items():
            (workdir / name).write_text(text)

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
        return TestbenchRun(run.returncode == 0 and marker in output, output)


__all__ = [
    "DEFAULT_COMPILE_TIMEOUT",
    "DEFAULT_RUN_TIMEOUT",
    "TestbenchRun",
    "TestbenchUnavailable",
    "generate_testbench",
    "run_testbench",
]
