"""Cross-layer static analysis: structured diagnostics for the whole flow.

Every stage of the synthesis pipeline — front end, DSE, code generation —
can reject an input; this package gives those rejections one shared
shape: a :class:`Diagnostic` with a stable ``SAxxx`` code, a severity, a
source span where one exists, and an optional fix hint, collected into
:class:`AnalysisReport` objects that render for terminals or serialize
to JSON (see ``docs/diagnostics.md`` for the catalog).  Four passes
build on the framework:

* :mod:`repro.analysis.nest_check` — is a loop nest systolizable
  (Code-1 structure, Section 3.3 subscripts, Eq. 2/3 reuse)?
* :mod:`repro.analysis.design_check` — does a design point satisfy the
  feasibility condition and the Eq. 4–6 resource budgets?
* :mod:`repro.analysis.codegen_lint` — is the emitted C/OpenCL text
  internally consistent (buffer bounds, ``#define`` header, ping-pong
  protocol) and the emitted Verilog structurally sound (drivers,
  widths, latches), checked without a compiler?
* :mod:`repro.analysis.check` — the combined ``systolic-synth check``
  pipeline and the :func:`check_design` machine-readable API.

Only the diagnostics framework is imported eagerly: the pass modules
pull in the front end and the model layer, which themselves use this
package's diagnostics, so they are resolved lazily (PEP 562) to keep
the import graph acyclic.
"""

from typing import Any

from repro.analysis.diagnostics import (
    CODE_CATALOG,
    AnalysisReport,
    Diagnostic,
    DiagnosticError,
    Severity,
    SourceSpan,
    register_code,
)

_LAZY = {
    "check_source": "repro.analysis.nest_check",
    "check_program": "repro.analysis.nest_check",
    "check_nest": "repro.analysis.nest_check",
    "check_design_point": "repro.analysis.design_check",
    "verify_design_points": "repro.analysis.design_check",
    "lint_generated_code": "repro.analysis.codegen_lint",
    "lint_against_design": "repro.analysis.codegen_lint",
    "lint_verilog": "repro.analysis.codegen_lint",
    "run_checks": "repro.analysis.check",
    "check_design": "repro.analysis.check",
    "CheckResult": "repro.analysis.check",
}

__all__ = [
    "AnalysisReport",
    "CODE_CATALOG",
    "CheckResult",
    "Diagnostic",
    "DiagnosticError",
    "Severity",
    "SourceSpan",
    "check_design",
    "check_design_point",
    "check_nest",
    "check_program",
    "check_source",
    "lint_against_design",
    "lint_generated_code",
    "lint_verilog",
    "register_code",
    "run_checks",
    "verify_design_points",
]


def __getattr__(name: str) -> Any:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
