"""Structured diagnostics shared by every static-analysis pass.

This is the leaf module of :mod:`repro.analysis` — it imports nothing
from the rest of the package so the front end can depend on it without
cycles.  It defines

* :class:`SourceSpan` — a located region of an input artifact (user C,
  or a generated-code file), built from lexer tokens or line numbers;
* :class:`Diagnostic` — one coded finding (``SA<nnn>``) with severity,
  message, optional span and fix hint;
* :class:`AnalysisReport` — an ordered collection with terminal
  rendering (source excerpt + caret) and JSON output;
* :class:`DiagnosticError` — the exception analysis entry points raise
  when a caller asked for exceptions rather than reports;
* the :data:`CODE_CATALOG` registry that ``docs/diagnostics.md`` and the
  catalog test are pinned against.

Code blocks:

* ``SA0xx`` — lexical / syntactic rejection of user C,
* ``SA1xx`` — nest legality (systolizability, Eq. 3 reuse, Eq. 2 mapping
  existence, shape checking), import/emit (``SA14x``) and the RTL
  backend (``SA15x``: unsupported designs, RTL/reference divergence,
  toolchain degradation),
* ``SA2xx`` — design-point validation (Eq. 2 feasibility, Eqs. 4–6
  resource budgets, tiling invariants),
* ``SA3xx`` — generated-code lint (index bounds, parameter consistency,
  double-buffer discipline, and ``SA33x`` Verilog structure: undriven or
  multiply-driven nets, width mismatches, inferred latches),
* ``SA4xx`` — differential conformance (:mod:`repro.verify`): fast-sim
  vs. analytical model vs. golden outputs (the RTL legs are ``SA15x``),
* ``SA5xx`` — resilience / graceful degradation (:mod:`repro.resilience`
  plus the recovery sites it instruments): quarantined cache entries,
  resubmitted or serially replayed DSE work, degraded simulate backends
  and external-tool timeouts.

The ``SA6xx`` and ``SA7xx`` blocks are retired; their codes are not reused.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable, Iterator


class Severity(Enum):
    """How bad a finding is.

    ERROR blocks the flow; WARNING is suspicious but legal; NOTE is
    informational context attached to another finding.
    """

    ERROR = "error"
    WARNING = "warning"
    NOTE = "note"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class SourceSpan:
    """A located region of some text artifact (1-based line/column).

    Attributes:
        line: 1-based start line.
        column: 1-based start column.
        end_line: inclusive end line (defaults to ``line``).
        end_column: inclusive end column (defaults to ``column``).
        filename: optional origin label (path, or e.g. ``"<testbench>"``).
    """

    line: int
    column: int = 1
    end_line: int | None = None
    end_column: int | None = None
    filename: str | None = None

    @staticmethod
    def from_token(token: Any, filename: str | None = None) -> "SourceSpan":
        """Span of one lexer token (anything with .line/.column/.text)."""
        width = max(1, len(getattr(token, "text", "") or ""))
        return SourceSpan(
            line=token.line,
            column=token.column,
            end_line=token.line,
            end_column=token.column + width - 1,
            filename=filename,
        )

    def with_filename(self, filename: str | None) -> "SourceSpan":
        """The same span attributed to a file."""
        if filename is None or self.filename is not None:
            return self
        return SourceSpan(self.line, self.column, self.end_line, self.end_column, filename)

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly representation."""
        data: dict[str, Any] = {"line": self.line, "column": self.column}
        if self.end_line is not None:
            data["end_line"] = self.end_line
        if self.end_column is not None:
            data["end_column"] = self.end_column
        if self.filename is not None:
            data["filename"] = self.filename
        return data

    def __str__(self) -> str:
        prefix = f"{self.filename}:" if self.filename else ""
        return f"{prefix}{self.line}:{self.column}"


CODE_CATALOG: dict[str, str] = {}
"""Every registered diagnostic code -> one-line title.  Populated by
:func:`register_code`; ``docs/diagnostics.md`` must document all of it
(enforced by a test)."""


def register_code(code: str, title: str) -> str:
    """Register a diagnostic code in the catalog and return it."""
    if not (code.startswith("SA") and code[2:].isdigit()):
        raise ValueError(f"diagnostic codes look like 'SA123', got {code!r}")
    existing = CODE_CATALOG.get(code)
    if existing is not None and existing != title:
        raise ValueError(f"code {code} already registered as {existing!r}")
    CODE_CATALOG[code] = title
    return code


# --- SA0xx: lexical / syntactic -------------------------------------------
LEX_BAD_CHAR = register_code("SA001", "character outside the C subset")
LEX_UNTERMINATED_COMMENT = register_code("SA002", "unterminated block comment")
PARSE_SYNTAX = register_code("SA010", "syntax error in the restricted C subset")
PARSE_LOOP_NOT_NORMALIZED = register_code("SA011", "loop does not start at 0")
PARSE_LOOP_STEP = register_code("SA012", "loop stride is not 1")
PARSE_LOOP_VAR_MISMATCH = register_code("SA013", "loop condition/increment variable mismatch")
PARSE_DECL_NOT_ARRAY = register_code("SA014", "declaration is not an array")
PARSE_MISSING_SUBSCRIPT = register_code("SA015", "array reference without subscripts")

# --- SA1xx: nest legality --------------------------------------------------
NEST_MISSING_PRAGMA = register_code("SA101", "missing '#pragma systolic' annotation")
NEST_DUPLICATE_ITERATOR = register_code("SA102", "duplicate loop iterator in nest")
NEST_UNBOUND_ITERATOR = register_code("SA103", "subscript uses an iterator not bound by any loop")
NEST_NON_SYSTOLIZABLE_SUBSCRIPT = register_code(
    "SA110", "subscript is not a single iterator or a sum of two iterators"
)
NEST_SUBSCRIPT_TOO_MANY_ITERATORS = register_code(
    "SA111", "subscript sums more than two iterators"
)
NEST_SUBSCRIPT_NEGATIVE = register_code("SA112", "subscript can evaluate to a negative index")
NEST_NOT_SINGLE_ACCUMULATION = register_code(
    "SA120", "nest does not accumulate into exactly one array"
)
NEST_NOT_TWO_READS = register_code("SA121", "statement does not read exactly two arrays")
NEST_SHAPE_OVERFLOW = register_code("SA122", "subscript range exceeds the declared array shape")
NEST_RANK_MISMATCH = register_code("SA123", "access rank differs from the declaration")
NEST_NO_REUSE_LOOP = register_code(
    "SA130", "array has no loop carrying fine-grained reuse (Eq. 3)"
)
NEST_NO_FEASIBLE_MAPPING = register_code(
    "SA131", "no feasible systolic mapping exists for the nest (Eq. 2)"
)
NEST_TOO_SHALLOW = register_code("SA132", "nest has fewer than three loops")
IMPORT_SPEC_MALFORMED = register_code("SA140", "network spec is not well-formed")
IMPORT_UNSUPPORTED_OP = register_code("SA141", "unsupported operator in the network graph")
IMPORT_UNSUPPORTED_ATTRIBUTE = register_code(
    "SA142", "unsupported operator attribute for systolic lowering"
)
IMPORT_ASYMMETRIC_ATTRIBUTE = register_code(
    "SA143", "asymmetric kernel/stride/dilation/padding is not supported"
)
IMPORT_SHAPE_MISMATCH = register_code(
    "SA144", "graph tensor shapes are inconsistent or cannot be inferred"
)
LAYER_KERNEL_TOO_LARGE = register_code(
    "SA145", "kernel does not fit in the padded input (nonpositive output size)"
)
EMIT_NOT_SUBSET = register_code("SA133", "nest cannot be rendered in the C subset")

# --- SA15x: RTL backend (repro.codegen.rtl / repro.sim.rtl) ---------------
RTL_UNSUPPORTED_DESIGN = register_code(
    "SA150", "design cannot be lowered to the RTL backend"
)
RTL_OUTPUT_MISMATCH = register_code(
    "SA151", "RTL simulation output diverges from the reference simulators"
)
RTL_CYCLE_DIVERGENCE = register_code(
    "SA152", "RTL cycle counts diverge from the analytical cycle model"
)
RTL_TOOLCHAIN_MISSING = register_code(
    "SA153", "iverilog toolchain unavailable; RTL checked by the Python interpreter only"
)

# --- SA2xx: design-point validation ---------------------------------------
DESIGN_UNKNOWN_ITERATOR = register_code(
    "SA201", "mapping references an iterator the nest does not have"
)
DESIGN_INFEASIBLE_MAPPING = register_code(
    "SA202", "mapping violates the Eq. 2 feasibility condition"
)
DESIGN_DSP_EXCEEDED = register_code("SA203", "DSP usage exceeds the device budget (Eq. 4)")
DESIGN_BRAM_EXCEEDED = register_code("SA204", "BRAM usage exceeds the device budget (Eq. 6)")
DESIGN_EFFICIENCY_RANGE = register_code("SA205", "DSP efficiency outside (0, 1] (Eq. 1)")
DESIGN_SHAPE_EXCEEDS_TRIPCOUNT = register_code(
    "SA206", "PE-array dimension exceeds its loop trip count (idle lanes)"
)
DESIGN_MIDDLE_UNKNOWN_ITERATOR = register_code(
    "SA207", "middle bound set on an iterator the nest does not have"
)
DESIGN_BLOCK_EXCEEDS_TRIPCOUNT = register_code(
    "SA208", "block extent s*t exceeds the padded loop extent (oversized buffers)"
)
DESIGN_NONPOSITIVE_BOUND = register_code("SA210", "tiling bound is not positive")

# --- SA3xx: generated-code lint -------------------------------------------
LINT_INDEX_OVERFLOW = register_code(
    "SA301", "array index can exceed the declared dimension"
)
LINT_INDEX_NEGATIVE = register_code("SA302", "array index can be negative")
LINT_RANK_MISMATCH = register_code(
    "SA303", "array accessed with a different rank than declared"
)
LINT_DEFINE_MISMATCH = register_code(
    "SA310", "#define parameter disagrees with the design point"
)
LINT_DEFINE_MISSING = register_code("SA311", "expected #define parameter is missing")
LINT_PINGPONG_INIT_MISSING = register_code(
    "SA320", "double-buffer selector is never initialized"
)
LINT_PINGPONG_FLIP_MISSING = register_code(
    "SA321", "double-buffer selector is never flipped between blocks"
)
LINT_PINGPONG_NOT_USED = register_code(
    "SA322", "double-buffered array access does not select a buffer with the ping-pong index"
)
LINT_VERILOG_UNDRIVEN = register_code(
    "SA330", "net is read but never driven in the emitted Verilog"
)
LINT_VERILOG_MULTIDRIVEN = register_code(
    "SA331", "net is driven from more than one always block or assign"
)
LINT_VERILOG_WIDTH_MISMATCH = register_code(
    "SA332", "assignment connects nets of different declared widths"
)
LINT_VERILOG_LATCH = register_code(
    "SA333", "combinational always block infers a latch (incomplete if/else)"
)

# --- SA4xx: differential conformance (repro.verify) -----------------------
VERIFY_GOLDEN_MISMATCH = register_code(
    "SA401", "simulated output diverges from the NumPy golden model"
)
VERIFY_CYCLE_MODEL_MISMATCH = register_code(
    "SA403", "simulated cycle counts diverge from the analytical model"
)
VERIFY_LEG_SKIPPED = register_code(
    "SA404", "conformance leg skipped (problem too large for that oracle)"
)

# --- SA5xx: resilience / graceful degradation ------------------------------
RESILIENCE_CACHE_QUARANTINED = register_code(
    "SA501", "corrupt stage-cache entry quarantined and recomputed"
)
RESILIENCE_WORKER_RESUBMITTED = register_code(
    "SA502", "crashed DSE worker task resubmitted"
)
RESILIENCE_SERIAL_FALLBACK = register_code(
    "SA503", "parallel DSE degraded to the bit-identical serial fallback"
)
RESILIENCE_TESTBENCH_DEGRADED = register_code(
    "SA504", "testbench toolchain unavailable; simulate degraded to the fast backend"
)
RESILIENCE_TOOL_TIMEOUT = register_code(
    "SA505", "external tool exceeded its time budget"
)


@dataclass(frozen=True)
class Diagnostic:
    """One coded finding of an analysis pass.

    Attributes:
        code: catalog code, e.g. ``"SA110"``.
        severity: ERROR / WARNING / NOTE.
        message: human-readable, self-contained description.
        span: where in the analyzed artifact, if locatable.
        hint: optional one-line suggested fix.
    """

    code: str
    severity: Severity
    message: str
    span: SourceSpan | None = None
    hint: str | None = None

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR

    @property
    def title(self) -> str:
        """Catalog title of the code ('' for unregistered codes)."""
        return CODE_CATALOG.get(self.code, "")

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly representation."""
        data: dict[str, Any] = {
            "code": self.code,
            "severity": str(self.severity),
            "message": self.message,
        }
        if self.span is not None:
            data["span"] = self.span.to_dict()
        if self.hint is not None:
            data["hint"] = self.hint
        return data

    def render(self, source: str | None = None) -> str:
        """Pretty one-finding rendering, with a caret excerpt if possible.

        Args:
            source: the analyzed text; when given and the span falls
                inside it, the offending line is shown with a caret.
        """
        loc = f"{self.span}: " if self.span else ""
        lines = [f"{loc}{self.severity}: {self.message} [{self.code}]"]
        if source is not None and self.span is not None:
            excerpt = _excerpt(source, self.span)
            if excerpt:
                lines.extend(excerpt)
        if self.hint:
            lines.append(f"  hint: {self.hint}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def _excerpt(source: str, span: SourceSpan) -> list[str]:
    """The source line of ``span`` plus a caret line (empty if out of range)."""
    all_lines = source.splitlines()
    if not (1 <= span.line <= len(all_lines)):
        return []
    text = all_lines[span.line - 1]
    caret_col = max(1, min(span.column, len(text) + 1))
    width = 1
    if span.end_column is not None and span.end_line in (None, span.line):
        width = max(1, span.end_column - span.column + 1)
    width = min(width, max(1, len(text) - caret_col + 1))
    return [
        f"  {span.line:4} | {text}",
        f"       | {' ' * (caret_col - 1)}{'^' * width}",
    ]


class AnalysisReport:
    """An ordered collection of diagnostics with summary views.

    Reports are what every ``repro.analysis`` entry point returns: they
    never raise on findings, so callers decide whether errors are fatal
    (:meth:`raise_if_errors`) or just rendered.
    """

    def __init__(self, diagnostics: Iterable[Diagnostic] = ()) -> None:
        self.diagnostics: list[Diagnostic] = list(diagnostics)

    # ------------------------------------------------------------ collection

    def add(
        self,
        code: str,
        severity: Severity,
        message: str,
        span: SourceSpan | None = None,
        hint: str | None = None,
    ) -> Diagnostic:
        """Append a new diagnostic and return it.

        Raises:
            KeyError: for a code that was never :func:`register_code`-ed
                (catching typos at the emission site, not in a consumer).
        """
        if code not in CODE_CATALOG:
            raise KeyError(f"unregistered diagnostic code {code!r}")
        diag = Diagnostic(code, severity, message, span, hint)
        self.diagnostics.append(diag)
        return diag

    def extend(self, diagnostics: Iterable[Diagnostic]) -> "AnalysisReport":
        """Append many diagnostics; returns self for chaining."""
        self.diagnostics.extend(diagnostics)
        return self

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    # --------------------------------------------------------------- queries

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is Severity.ERROR)

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is Severity.WARNING)

    @property
    def ok(self) -> bool:
        """True when no errors were found (warnings allowed)."""
        return not self.errors

    @property
    def exit_code(self) -> int:
        """Process exit code convention: 0 clean, 1 errors."""
        return 0 if self.ok else 1

    def codes(self) -> tuple[str, ...]:
        """All finding codes, in order."""
        return tuple(d.code for d in self.diagnostics)

    def by_code(self, code: str) -> tuple[Diagnostic, ...]:
        """All findings with one code."""
        return tuple(d for d in self.diagnostics if d.code == code)

    # -------------------------------------------------------------- rendering

    def render(self, source: str | None = None) -> str:
        """Terminal rendering: every finding plus a one-line summary."""
        lines = [d.render(source) for d in self.diagnostics]
        n_err, n_warn = len(self.errors), len(self.warnings)
        if n_err or n_warn:
            lines.append(f"{n_err} error(s), {n_warn} warning(s)")
        else:
            lines.append("no issues found")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly representation of the whole report."""
        return {
            "ok": self.ok,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def to_json(self, *, indent: int | None = 2) -> str:
        """The report as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    def raise_if_errors(self) -> "AnalysisReport":
        """Raise :class:`DiagnosticError` when the report has errors."""
        if not self.ok:
            raise DiagnosticError(self)
        return self

    def __str__(self) -> str:
        return self.render()


class DiagnosticError(ValueError):
    """Raised by strict-mode entry points when analysis finds errors.

    A ``ValueError`` subclass so callers that guarded the non-strict
    entry points with ``except ValueError`` keep working in strict mode.

    Attributes:
        report: the full report (all findings, not just errors).
    """

    def __init__(self, report: AnalysisReport, message: str | None = None) -> None:
        self.report = report
        if message is None:
            first = report.errors[0] if report.errors else None
            message = first.render() if first else "analysis failed"
            extra = len(report.errors) - 1
            if extra > 0:
                message += f" (+{extra} more error(s))"
        super().__init__(message)

    @property
    def diagnostics(self) -> tuple[Diagnostic, ...]:
        return tuple(self.report.diagnostics)


def error(
    code: str, message: str, span: SourceSpan | None = None, hint: str | None = None
) -> Diagnostic:
    """Shorthand for an ERROR diagnostic."""
    return Diagnostic(code, Severity.ERROR, message, span, hint)


def warning(
    code: str, message: str, span: SourceSpan | None = None, hint: str | None = None
) -> Diagnostic:
    """Shorthand for a WARNING diagnostic."""
    return Diagnostic(code, Severity.WARNING, message, span, hint)


def note(code: str, message: str, span: SourceSpan | None = None) -> Diagnostic:
    """Shorthand for a NOTE diagnostic."""
    return Diagnostic(code, Severity.NOTE, message, span)


__all__ = [
    "AnalysisReport",
    "CODE_CATALOG",
    "Diagnostic",
    "DiagnosticError",
    "Severity",
    "SourceSpan",
    "error",
    "note",
    "register_code",
    "warning",
]
