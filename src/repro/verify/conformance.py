"""The differential-conformance harness behind :func:`cross_check`.

Each *leg* of the conformance matrix compares two independent estimates
of the same quantity and yields a :class:`LegResult`; disagreements also
emit an ``SA4xx`` diagnostic into an :class:`repro.analysis.AnalysisReport`
so callers get both a human summary and a machine-readable verdict.

:func:`cross_check` runs the legs in report order: the fast simulator
(the reference) against the golden model and against the cycle model,
the optional layer leg, then — when ``rtl`` is selected — the emitted
Verilog run once within its budget and held to the fast simulator, to
the cycle model and to iverilog, or all three RTL legs skipped with one
note.

Tolerance policy (documented in ``docs/simulation.md``), one per kind
of leg:

* RTL vs. fast (``rtl-vs-fast``) — **bit-exact**: equal
  output bytes, equal counters.  The RTL and the fast simulator perform
  the identical sequence of IEEE double operations, so any difference is
  a bug, not rounding.
* output vs. golden (:func:`_golden`) — relative tolerance
  ``rel_tol`` (default 1e-9).
  The golden evaluations sum in a different order (einsum / flat index
  chunks), so last-ulp drift is legitimate; the observed gap on real
  layers is ~1e-11.  Golden references are computed in float64 even for
  float32 tensors — the simulators accumulate in double precision, and
  comparing against a float32 accumulation would measure the *oracle's*
  rounding, not the simulator's.
* counters vs. model (:func:`_model`) — **exact**: under clipped-middle
  semantics the closed form ``waves = prod ceil(N_l / t_l)``,
  ``compute = waves + blocks * (R + C - 2)`` is not an approximation,
  and the pipeline fill/drain term is the only allowed gap between the
  simulator's count and the Eq. 5 ideal ``executed / lanes``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from repro.analysis.diagnostics import (
    RTL_CYCLE_DIVERGENCE,
    RTL_OUTPUT_MISMATCH,
    RTL_TOOLCHAIN_MISSING,
    VERIFY_CYCLE_MODEL_MISMATCH,
    VERIFY_GOLDEN_MISMATCH,
    VERIFY_LEG_SKIPPED,
    AnalysisReport,
    DiagnosticError,
    Severity,
)
from repro.ir.loop import LoopNest
from repro.model.design_point import DesignPoint
from repro.sim.backends import COUNTERS, DEFAULT_RTL_ITERATION_LIMIT, WAVEFRONT_BACKENDS
from repro.sim.fast import EngineResult, cycle_statistics

#: Relative tolerance for output-vs-golden legs (different but valid
#: floating-point summation orders).
DEFAULT_REL_TOL = 1e-9


def synthetic_arrays(
    nest: LoopNest, *, seed: int = 0, dtype: Any = np.float64
) -> dict[str, np.ndarray]:
    """Deterministic operand tensors sized from the nest's access ranges.

    Args:
        nest: the loop nest to feed.
        seed: RNG seed (same seed, same tensors — reports are replayable).
        dtype: element type of the generated tensors.
    """
    rng = np.random.default_rng(seed)
    arrays: dict[str, np.ndarray] = {}
    for access in nest.reads:
        shape = tuple(
            expr.value_range(nest.bounds)[1] + 1 for expr in access.indices
        )
        arrays[access.array] = rng.standard_normal(shape).astype(dtype)
    return arrays


def golden_nest_output(
    nest: LoopNest, arrays: dict[str, np.ndarray], *, chunk: int = 1 << 18
) -> np.ndarray:
    """Independent NumPy evaluation of the nest (no tiling, no schedule).

    Walks the original iteration space in flat chunks, gathers both read
    operands through their affine access functions and scatter-adds the
    products into the output — sharing *nothing* with the simulators
    except the nest itself, which is what makes it an oracle.
    """
    iterators = nest.iterators
    bounds = nest.bounds
    out_access = nest.output
    out_shape = tuple(expr.value_range(bounds)[1] + 1 for expr in out_access.indices)
    output = np.zeros(out_shape)

    strides: dict[str, int] = {}
    stride = 1
    for it in reversed(iterators):
        strides[it] = stride
        stride *= bounds[it]
    total = stride

    read_a, read_b = nest.reads

    def index(access: Any, vals: dict[str, np.ndarray]) -> tuple[np.ndarray, ...]:
        dims = []
        for expr in access.indices:
            dim = np.full(len(next(iter(vals.values()))), expr.const, dtype=np.int64)
            for name, coeff in expr.terms:
                dim = dim + coeff * vals[name]
            dims.append(dim)
        return tuple(dims)

    def gather(access: Any, vals: dict[str, np.ndarray]) -> np.ndarray:
        return np.asarray(arrays[access.array][index(access, vals)], dtype=np.float64)

    for start in range(0, total, chunk):
        flat = np.arange(start, min(start + chunk, total), dtype=np.int64)
        vals = {it: (flat // strides[it]) % bounds[it] for it in iterators}
        products = gather(read_a, vals) * gather(read_b, vals)
        np.add.at(output, index(out_access, vals), products)
    return output


@dataclass(frozen=True)
class LegResult:
    """Outcome of one conformance leg.

    Attributes:
        name: leg identifier, e.g. ``"rtl-vs-fast"``.
        status: ``"ok"``, ``"mismatch"`` or ``"skipped"``.
        detail: one-line human explanation.
        metrics: (name, value) measurement pairs backing the verdict.
    """

    name: str
    status: str
    detail: str
    metrics: tuple[tuple[str, float], ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {**asdict(self), "metrics": dict(self.metrics)}


@dataclass(frozen=True)
class ConformanceReport:
    """Everything :func:`cross_check` established about one design.

    Attributes:
        design_signature: the checked design's signature string.
        legs: per-leg verdicts, in execution order.
        report: ``SA4xx`` diagnostics (errors on mismatch, notes on
            skipped legs) in the shared :mod:`repro.analysis` format.
        result: the fast simulator's :class:`EngineResult` (the artifact
            every leg was checked against).
    """

    design_signature: str
    legs: tuple[LegResult, ...]
    report: AnalysisReport = field(compare=False)
    result: EngineResult = field(compare=False)

    @property
    def ok(self) -> bool:
        """True when every executed leg agreed (skipped legs allowed)."""
        return self.report.ok

    @property
    def exit_code(self) -> int:
        """Process exit convention: 0 all legs agree, 1 any mismatch."""
        return self.report.exit_code

    def leg(self, name: str) -> LegResult:
        """The leg with a given name (KeyError if the leg did not run)."""
        for leg in self.legs:
            if leg.name == name:
                return leg
        raise KeyError(f"no conformance leg named {name!r}")

    def to_dict(self) -> dict[str, Any]:
        """Machine-readable summary (JSON-serializable)."""
        return {
            "design": self.design_signature,
            "ok": self.ok,
            "legs": [leg.to_dict() for leg in self.legs],
            "diagnostics": self.report.to_dict(),
        }

    def render(self) -> str:
        """Terminal rendering: the matrix, then any diagnostics."""
        lines = [f"conformance check: {self.design_signature}"]
        for leg in self.legs:
            lines.append(f"  {leg.name:<22} {leg.status:<9} {leg.detail}")
        if len(self.report):
            lines.append(self.report.render())
        else:
            lines.append("all conformance legs agree")
        return "\n".join(lines)

    __str__ = render


def cross_check(
    design: DesignPoint,
    layer: Any = None,
    *,
    arrays: dict[str, np.ndarray] | None = None,
    seed: int = 0,
    rel_tol: float = DEFAULT_REL_TOL,
    rtl: bool = False,
    rtl_iteration_limit: int | None = None,
    iverilog: str = "auto",
) -> ConformanceReport:
    """Run the full conformance matrix over one design point.

    Args:
        design: the design to check.
        layer: optional :class:`~repro.nn.layers.ConvLayer` whose
            per-group nest the design targets; adds a layer-level leg
            against the golden convolution (padding and groups included).
        arrays: operand tensors for the nest-level legs (synthetic,
            seeded tensors by default).
        seed: seed for the synthetic tensors.
        rel_tol: relative tolerance of the golden-output legs.
        rtl: additionally run the generated RTL through the netlist
            interpreter and hold it bit-identical to the fast simulator
            (``SA151``) and cycle-identical to the analytical model
            (``SA152``); when iverilog is on PATH the emitted Verilog is
            also executed natively and diffed against the interpreter.
        rtl_iteration_limit: skip the RTL legs above this iteration
            count (with an ``SA404`` note); None = the ``rtl`` backend's
            own budget.
        iverilog: ``"auto"`` uses iverilog when available (an ``SA153``
            note records its absence), ``"require"`` turns absence into
            a mismatch, ``"off"`` skips the native leg.

    Returns:
        a :class:`ConformanceReport`; never raises on disagreement —
        call ``.report.raise_if_errors()`` for exception semantics.
    """
    if arrays is None:
        arrays = synthetic_arrays(design.nest, seed=seed)
    report = AnalysisReport()
    fast = WAVEFRONT_BACKENDS["fast"].run(design, arrays)
    golden = golden_nest_output(design.nest, arrays)
    sim = fast.output[tuple(slice(0, n) for n in golden.shape)]
    subject = f"simulated output of {design.nest.name!r}"
    legs = [
        _golden(report, "fast-vs-golden", "golden model", sim, golden, subject, rel_tol),
        _model(report, "cycles-vs-model", design, fast),
    ]
    if layer is not None:
        legs.append(_layer(report, design, layer, seed, rel_tol))
    if rtl:
        legs += _rtl_legs(report, design, arrays, fast, rtl_iteration_limit, iverilog)
    return ConformanceReport(design.signature, tuple(legs), report, fast)


def _settle(
    report: AnalysisReport, name: str, code: str, error: str | None, detail: str,
    metrics: tuple = (),
) -> LegResult:
    """Close a leg: ``ok``, or ``mismatch`` plus its SA error."""
    if error is None:
        return LegResult(name, "ok", detail, metrics)
    report.add(code, Severity.ERROR, error)
    return LegResult(name, "mismatch", detail, metrics)


def _counter_diffs(
    got: Any, want: Any, counters: tuple[str, ...], got_label: str, want_label: str
) -> list[str]:
    return [
        f"{c}: {got_label}={getattr(got, c)} {want_label}={getattr(want, c)}"
        for c in counters
        if getattr(got, c) != getattr(want, c)
    ]


def _golden(
    report: AnalysisReport, name: str, says: str, sim: np.ndarray, golden: np.ndarray,
    subject: str, rel_tol: float,
) -> LegResult:
    """A simulated tensor vs. an independent evaluation, within ``rel_tol``."""
    scale = max(1.0, float(np.max(np.abs(golden))))
    max_abs = float(np.max(np.abs(sim - golden))) if golden.size else 0.0
    max_rel = max_abs / scale
    error = None
    if not np.allclose(sim, golden, rtol=rel_tol, atol=rel_tol * scale):
        error = (
            f"{subject} deviates from the {says} by {max_rel:.3e} "
            f"(relative; tolerance {rel_tol:.1e})"
        )
    metrics = (("max_abs_error", max_abs), ("max_rel_error", max_rel))
    detail = f"max relative error {max_rel:.3e}"
    return _settle(report, name, VERIFY_GOLDEN_MISMATCH, error, detail, metrics)


def _layer(
    report: AnalysisReport, design: DesignPoint, layer: Any, seed: int, rel_tol: float
) -> LegResult:
    """The full layer (padding + groups) on the fast simulator vs. the
    golden convolution."""
    from repro.nn.golden import conv2d_layer, random_layer_tensors
    from repro.sim.functional import simulate_layer

    inputs, weights = random_layer_tensors(layer, seed=seed)
    sim = simulate_layer(design, layer, inputs, weights, backend="fast")
    golden = conv2d_layer(layer, inputs.astype(np.float64), weights.astype(np.float64))
    subject = f"layer {layer.name!r} simulated under {design.signature}"
    says = "golden convolution"
    return _golden(report, "layer-vs-conv-golden", says, sim, golden, subject, rel_tol)


def _model(
    report: AnalysisReport, name: str, design: DesignPoint, result: EngineResult, rtl: bool = False
) -> LegResult:
    """Emergent cycle counters (of the fast simulator, or of the RTL with
    ``rtl``) vs. the closed-form analytical model."""
    stats = cycle_statistics(design)
    mismatches = _counter_diffs(result, stats, COUNTERS, "rtl" if rtl else "simulated", "model")
    if rtl:
        code, subject = RTL_CYCLE_DIVERGENCE, "RTL cycle counters"
        detail = f"exact ({result.compute_cycles} cycles, {result.blocks} blocks)"
        metrics: tuple = () if mismatches else (("rtl_cycles", float(result.compute_cycles)),)
    else:
        # Eq. 5 ideal: executed iterations / lanes; the fill/drain term is
        # the only legitimate gap between ideal and simulated cycles.
        code, subject = VERIFY_CYCLE_MODEL_MISMATCH, "cycle counters"
        ideal = design.tiled.executed_iterations_clipped // design.shape.lanes
        fill = stats.blocks * (design.shape.rows + design.shape.cols - 2)
        if result.compute_cycles - ideal != fill:
            mismatches.append(
                f"fill overhead: simulated-ideal={result.compute_cycles - ideal} "
                f"expected={fill}"
            )
        detail = f"exact (+{fill} fill/drain cycles over Eq. 5 ideal)"
        metrics = (
            ("ideal_cycles", float(ideal)),
            ("fill_overhead_cycles", float(fill)),
            ("fill_overhead_fraction", fill / ideal if ideal else 0.0),
        )
    if not mismatches:
        return _settle(report, name, code, None, detail, metrics)
    joined = "; ".join(mismatches)
    error = f"{subject} of {design.signature} deviate from the analytical model: {joined}"
    return _settle(report, name, code, error, joined, metrics)


def _rtl_legs(
    report: AnalysisReport, design: DesignPoint, arrays: dict[str, np.ndarray],
    fast: EngineResult, limit: int | None, iverilog: str,
) -> list[LegResult]:
    """``rtl-vs-fast`` (bit-exact: the RTL and the fast simulator perform
    the identical sequence of IEEE double operations),
    ``rtl-cycles-vs-model`` and ``rtl-vs-iverilog`` — or all three
    skipped for one reason."""
    result = _run_rtl_or_skip(report, design, arrays, limit)
    if isinstance(result, str):
        names = ("rtl-vs-fast", "rtl-cycles-vs-model", "rtl-vs-iverilog")
        return [LegResult(name, "skipped", result) for name in names]
    diffs = _counter_diffs(fast, result, ("pe_active_cycles",), "fast", "rtl")
    if fast.output.shape != result.output.shape or fast.output.tobytes() != result.output.tobytes():
        diffs.append(f"output differs in {int(np.sum(fast.output != result.output))} element(s)")
    if diffs:
        joined = "; ".join(diffs)
        error = f"RTL simulation of {design.signature} diverges from the fast simulator: {joined}"
        identity = _settle(report, "rtl-vs-fast", RTL_OUTPUT_MISMATCH, error, joined)
    else:
        total = design.nest.total_iterations
        metrics = (("iterations", float(total)),)
        identity = LegResult("rtl-vs-fast", "ok", f"bit-identical over {total} iterations", metrics)
    return [
        identity,
        _model(report, "rtl-cycles-vs-model", design, result, rtl=True),
        _native(report, design, arrays, iverilog),
    ]


def _run_rtl_or_skip(
    report: AnalysisReport, design: DesignPoint, arrays: dict[str, np.ndarray], limit: int | None
) -> EngineResult | str:
    """Run the RTL backend, or say why its legs are skipped.

    The skip ladder (mirroring the testbench SA5xx policy): an oversized
    design skips with an ``SA404`` note; a design the RTL cannot lower
    skips with its ``SA150`` demoted to a note.
    """
    backend = WAVEFRONT_BACKENDS["rtl"]
    total = design.nest.total_iterations
    limit = backend.over_budget(design, limit)
    if limit is not None:
        report.add(
            VERIFY_LEG_SKIPPED,
            Severity.NOTE,
            f"RTL legs skipped: {total} iterations exceed the "
            f"{limit}-iteration RTL interpreter budget",
        )
        return f"{total} iterations > RTL budget {limit}"
    try:
        return backend.run(design, arrays)
    except DiagnosticError as exc:
        first = exc.diagnostics[0]
        report.add(first.code, Severity.NOTE, f"RTL legs skipped: {first.message}")
        return first.message


def _native(
    report: AnalysisReport, design: DesignPoint, arrays: dict[str, np.ndarray], iverilog: str
) -> LegResult:
    """Native iverilog execution vs. the RTL interpreter.

    A missing iverilog skips the leg with an ``SA153`` note (or fails it
    when ``iverilog="require"``).
    """
    from repro.sim import rtl

    name = "rtl-vs-iverilog"
    if iverilog == "off":
        return LegResult(name, "skipped", "native leg disabled")
    if iverilog == "auto" and not rtl.iverilog_available():
        report.add(
            RTL_TOOLCHAIN_MISSING,
            Severity.NOTE,
            "iverilog not found on PATH; RTL checked by the Python "
            "interpreter only",
            hint="apt-get install iverilog to enable the native leg",
        )
        return LegResult(name, "skipped", "iverilog not on PATH")
    try:
        check = rtl.run_iverilog_check(design, arrays)
    except rtl.RtlToolchainUnavailable as exc:
        diag = exc.diagnostic
        required = iverilog == "require"
        severity = Severity.ERROR if required else Severity.NOTE
        report.add(diag.code, severity, diag.message, hint=diag.hint)
        return LegResult(name, "mismatch" if required else "skipped", diag.message)
    if check.ok:
        metrics = (("words_compared", float(check.words)),)
        return _settle(report, name, RTL_OUTPUT_MISMATCH, None, check.detail, metrics)
    error = f"iverilog execution of {design.signature} diverges from the RTL interpreter: "
    return _settle(report, name, RTL_OUTPUT_MISMATCH, error + check.detail, check.detail)


__all__ = [
    "ConformanceReport",
    "DEFAULT_REL_TOL",
    "DEFAULT_RTL_ITERATION_LIMIT",
    "LegResult",
    "cross_check",
    "golden_nest_output",
    "synthetic_arrays",
]
