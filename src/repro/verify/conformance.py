"""The differential-conformance harness behind :func:`cross_check`.

Each *leg* of the conformance matrix compares two independent estimates
of the same quantity and yields a :class:`LegResult`; disagreements also
emit an ``SA4xx`` diagnostic into an :class:`repro.analysis.AnalysisReport`
so callers get both a human summary and a machine-readable verdict.

The legs are the rows of :data:`MATRIX`: the first entry of
:data:`repro.sim.backends.WAVEFRONT_BACKENDS` (``fast``) is the reference,
the other (``rtl``, the emitted Verilog) is run once within its budget
when selected, and each row names the comparator that holds one
backend's result to what.

Tolerance policy (documented in ``docs/simulation.md``), one comparator
each:

* backend vs. reference (:func:`_identity`) — **bit-exact**: equal
  output bytes, equal counters.  The RTL and the fast simulator perform
  the identical sequence of IEEE double operations, so any difference is
  a bug, not rounding.
* output vs. golden (:func:`_within_tolerance`) — relative tolerance
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

from dataclasses import dataclass, field
from typing import Any, Callable

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

    @property
    def ok(self) -> bool:
        return self.status != "mismatch"

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "status": self.status,
            "detail": self.detail,
            "metrics": dict(self.metrics),
        }


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

    def __str__(self) -> str:
        return self.render()


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
    reference = WAVEFRONT_BACKENDS[REFERENCE].run(design, arrays)
    run = _Run(design, arrays, reference, AnalysisReport(), rel_tol, layer, seed, iverilog)
    # Per backend: its result, or the reason its legs are skipped.  The
    # RTL runs at its first leg, so its notes follow the reference legs'.
    outcomes: dict[str, EngineResult | str] = {REFERENCE: reference}
    legs: list[LegResult] = []
    for leg in MATRIX:
        if (leg.backend == "rtl" and not rtl) or (leg.compare is _layer and layer is None):
            continue
        if leg.backend not in outcomes:
            outcomes[leg.backend] = _run_rtl_or_skip(run, rtl_iteration_limit)
        outcome = outcomes[leg.backend]
        if isinstance(outcome, str):
            legs.append(LegResult(leg.name, "skipped", outcome))
        else:
            legs.append(leg.compare(run, leg, outcome))

    return ConformanceReport(
        design_signature=design.signature,
        legs=tuple(legs),
        report=run.report,
        result=reference,
    )


# --------------------------------------------------------------- matrix

#: The table entry every other backend is held bit-identical to.
REFERENCE = next(iter(WAVEFRONT_BACKENDS))


@dataclass(frozen=True)
class Leg:
    """One row of the matrix: a comparator holding one backend's result.

    Attributes:
        name: leg identifier in the report.
        code: the ``SA`` diagnostic a mismatch raises.
        backend: the :data:`WAVEFRONT_BACKENDS` entry whose result the
            comparator receives (its legs are skipped together).
        compare: ``(run, leg, result) -> LegResult``.
        says: the comparator's SA message wording (``{}`` = design
            signature).
        counters: the counters compared.
    """

    name: str
    code: str
    backend: str
    compare: Callable[[_Run, Leg, EngineResult], LegResult]
    says: str
    counters: tuple[str, ...] = COUNTERS


@dataclass(frozen=True)
class _Run:
    """What the comparators of one :func:`cross_check` call share."""

    design: DesignPoint
    arrays: dict[str, np.ndarray]
    reference: EngineResult
    report: AnalysisReport
    rel_tol: float
    layer: Any
    seed: int
    iverilog: str

    def settle(
        self, leg: Leg, error: str | None, detail: str, metrics: tuple = ()
    ) -> LegResult:
        """Close a leg: ``ok``, or ``mismatch`` plus the leg's SA error."""
        if error is None:
            return LegResult(leg.name, "ok", detail, metrics)
        self.report.add(leg.code, Severity.ERROR, error)
        return LegResult(leg.name, "mismatch", detail, metrics)


def _run_rtl_or_skip(run: _Run, limit: int | None) -> EngineResult | str:
    """Run the RTL backend, or say why its legs are skipped.

    The skip ladder (mirroring the testbench SA5xx policy): an oversized
    design skips with an ``SA404`` note; a design the RTL cannot lower
    skips with its ``SA150`` demoted to a note.
    """
    backend = WAVEFRONT_BACKENDS["rtl"]
    total = run.design.nest.total_iterations
    limit = backend.over_budget(run.design, limit)
    if limit is not None:
        run.report.add(
            VERIFY_LEG_SKIPPED,
            Severity.NOTE,
            f"RTL legs skipped: {total} iterations exceed the "
            f"{limit}-iteration RTL interpreter budget",
        )
        return f"{total} iterations > RTL budget {limit}"
    try:
        return backend.run(run.design, run.arrays)
    except DiagnosticError as exc:
        first = exc.diagnostics[0]
        run.report.add(first.code, Severity.NOTE, f"RTL legs skipped: {first.message}")
        return first.message


def _counter_diffs(
    got: Any, want: Any, counters: tuple[str, ...], got_label: str, want_label: str
) -> list[str]:
    return [
        f"{c}: {got_label}={getattr(got, c)} {want_label}={getattr(want, c)}"
        for c in counters
        if getattr(got, c) != getattr(want, c)
    ]


def _identity(run: _Run, leg: Leg, result: EngineResult) -> LegResult:
    """Bit-exact differential identity of a backend against the reference."""
    reference = run.reference
    total = run.design.nest.total_iterations
    mismatches = _counter_diffs(reference, result, leg.counters, REFERENCE, leg.backend)
    bit_equal = (
        reference.output.shape == result.output.shape
        and reference.output.tobytes() == result.output.tobytes()
    )
    if not bit_equal:
        diff = int(np.sum(reference.output != result.output))
        mismatches.append(f"output differs in {diff} element(s)")
    if mismatches:
        joined = "; ".join(mismatches)
        return run.settle(leg, f"{leg.says.format(run.design.signature)}: {joined}", joined)
    return run.settle(
        leg, None, f"bit-identical over {total} iterations", (("iterations", float(total)),)
    )


def _within_tolerance(
    run: _Run, leg: Leg, sim: np.ndarray, golden: np.ndarray, subject: str
) -> LegResult:
    """A simulated tensor vs. an independent evaluation, within ``rel_tol``."""
    scale = max(1.0, float(np.max(np.abs(golden))))
    max_abs = float(np.max(np.abs(sim - golden))) if golden.size else 0.0
    max_rel = max_abs / scale
    error = None
    if not np.allclose(sim, golden, rtol=run.rel_tol, atol=run.rel_tol * scale):
        error = (
            f"{subject} deviates from the {leg.says} by {max_rel:.3e} "
            f"(relative; tolerance {run.rel_tol:.1e})"
        )
    metrics = (("max_abs_error", max_abs), ("max_rel_error", max_rel))
    return run.settle(leg, error, f"max relative error {max_rel:.3e}", metrics)


def _nest(run: _Run, leg: Leg, result: EngineResult) -> LegResult:
    """Simulated output vs. an independent NumPy evaluation of the nest."""
    nest = run.design.nest
    golden = golden_nest_output(nest, run.arrays)
    sim = result.output[tuple(slice(0, n) for n in golden.shape)]
    return _within_tolerance(run, leg, sim, golden, f"simulated output of {nest.name!r}")


def _layer(run: _Run, leg: Leg, result: EngineResult) -> LegResult:
    """Full layer (padding + groups) vs. the golden convolution."""
    from repro.nn.golden import conv2d_layer, random_layer_tensors
    from repro.sim.functional import simulate_layer

    layer, design = run.layer, run.design
    inputs, weights = random_layer_tensors(layer, seed=run.seed)
    sim = simulate_layer(design, layer, inputs, weights, backend=leg.backend)
    golden = conv2d_layer(layer, inputs.astype(np.float64), weights.astype(np.float64))
    subject = f"layer {layer.name!r} simulated under {design.signature}"
    return _within_tolerance(run, leg, sim, golden, subject)


def _model(run: _Run, leg: Leg, result: EngineResult) -> LegResult:
    """Emergent cycle counters vs. the closed-form analytical model."""
    design = run.design
    stats = cycle_statistics(design)
    label = "simulated" if leg.backend == REFERENCE else leg.backend
    mismatches = _counter_diffs(result, stats, leg.counters, label, "model")
    if leg.backend == REFERENCE:
        # Eq. 5 ideal: executed iterations / lanes; the fill/drain term is
        # the only legitimate gap between ideal and simulated cycles.
        ideal = design.tiled.executed_iterations_clipped // design.shape.lanes
        fill = stats.blocks * (design.shape.rows + design.shape.cols - 2)
        if result.compute_cycles - ideal != fill:
            mismatches.append(
                f"fill overhead: simulated-ideal={result.compute_cycles - ideal} "
                f"expected={fill}"
            )
        detail = f"exact (+{fill} fill/drain cycles over Eq. 5 ideal)"
        metrics: tuple = (
            ("ideal_cycles", float(ideal)),
            ("fill_overhead_cycles", float(fill)),
            ("fill_overhead_fraction", fill / ideal if ideal else 0.0),
        )
    else:
        detail = f"exact ({result.compute_cycles} cycles, {result.blocks} blocks)"
        metrics = () if mismatches else ((f"{label}_cycles", float(result.compute_cycles)),)
    if not mismatches:
        return run.settle(leg, None, detail, metrics)
    joined = "; ".join(mismatches)
    error = f"{leg.says.format(design.signature)} deviate from the analytical model: {joined}"
    return run.settle(leg, error, joined, metrics)


def _native(run: _Run, leg: Leg, result: EngineResult) -> LegResult:
    """Native iverilog execution vs. the RTL interpreter.

    A missing iverilog skips the leg with an ``SA153`` note (or fails it
    when ``iverilog="require"``).
    """
    from repro.sim import rtl

    if run.iverilog == "off":
        return LegResult(leg.name, "skipped", "native leg disabled")
    if run.iverilog == "auto" and not rtl.iverilog_available():
        run.report.add(
            RTL_TOOLCHAIN_MISSING,
            Severity.NOTE,
            "iverilog not found on PATH; RTL checked by the Python "
            "interpreter only",
            hint="apt-get install iverilog to enable the native leg",
        )
        return LegResult(leg.name, "skipped", "iverilog not on PATH")
    try:
        check = rtl.run_iverilog_check(run.design, run.arrays)
    except rtl.RtlToolchainUnavailable as exc:
        diag = exc.diagnostic
        required = run.iverilog == "require"
        severity = Severity.ERROR if required else Severity.NOTE
        run.report.add(diag.code, severity, diag.message, hint=diag.hint)
        return LegResult(leg.name, "mismatch" if required else "skipped", diag.message)
    if check.ok:
        return run.settle(leg, None, check.detail, (("words_compared", float(check.words)),))
    error = f"{leg.says.format(run.design.signature)}: {check.detail}"
    return run.settle(leg, error, check.detail)


#: Rows in report order.
MATRIX = (
    Leg("fast-vs-golden", VERIFY_GOLDEN_MISMATCH, REFERENCE, _nest, "golden model"),
    Leg("cycles-vs-model", VERIFY_CYCLE_MODEL_MISMATCH, REFERENCE, _model,
        "cycle counters of {}"),
    Leg("layer-vs-conv-golden", VERIFY_GOLDEN_MISMATCH, REFERENCE, _layer,
        "golden convolution"),
    Leg("rtl-vs-fast", RTL_OUTPUT_MISMATCH, "rtl", _identity,
        "RTL simulation of {} diverges from the fast simulator",
        counters=("pe_active_cycles",)),
    Leg("rtl-cycles-vs-model", RTL_CYCLE_DIVERGENCE, "rtl", _model,
        "RTL cycle counters of {}"),
    Leg("rtl-vs-iverilog", RTL_OUTPUT_MISMATCH, "rtl", _native,
        "iverilog execution of {} diverges from the RTL interpreter"),
)


__all__ = [
    "ConformanceReport",
    "DEFAULT_REL_TOL",
    "DEFAULT_RTL_ITERATION_LIMIT",
    "Leg",
    "LegResult",
    "MATRIX",
    "cross_check",
    "golden_nest_output",
    "synthetic_arrays",
]
