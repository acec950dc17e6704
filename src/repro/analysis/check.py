"""The one-call static-analysis entry point (and the ``check`` CLI).

Chains the three passes over a restricted-C source:

1. :mod:`repro.analysis.nest_check` — is the nest systolizable at all?
2. :mod:`repro.analysis.design_check` — re-verify the design point the
   flow ships (one uncached :func:`~repro.flow.compile.synthesize_nest`
   run, the same DSE and codegen a compile without DSE flags performs)
   against the paper's constraints;
3. :mod:`repro.analysis.codegen_lint` — lint that run's testbench,
   kernel, driver and Verilog
   (:func:`~repro.analysis.codegen_lint.lint_artifacts`, the same call
   a strict compile makes).

Nothing here invokes a compiler or the OpenCL toolchain; a failing
check is always a structured :class:`AnalysisReport`, never a traceback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.analysis.diagnostics import (
    NEST_NO_FEASIBLE_MAPPING,
    AnalysisReport,
    Severity,
)

LEVELS = ("nest", "design", "full")


@dataclass
class CheckResult:
    """Everything the combined check produced.

    Attributes:
        report: all diagnostics from every pass that ran.
        level: the deepest pass level requested.
        nest: the extracted loop nest (None if pass 1 rejected it).
        design: the validated design point (None below level "design"
            or when no feasible design exists).
        artifacts: generated sources that were linted at level "full"
            (keys: ``testbench``, ``kernel``, ``driver``, and ``rtl``
            unless the RTL backend cannot lower the design).
    """

    report: AnalysisReport
    level: str
    nest: Any = None
    design: Any = None
    artifacts: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when no pass reported an error."""
        return self.report.ok

    @property
    def exit_code(self) -> int:
        """Process exit status: 0 clean, 1 errors."""
        return self.report.exit_code

    def to_dict(self) -> dict[str, Any]:
        """Machine-readable summary (JSON-serializable)."""
        payload = self.report.to_dict()
        payload["level"] = self.level
        payload["nest"] = self.nest.name if self.nest is not None else None
        payload["design"] = (
            self.design.signature if self.design is not None else None
        )
        return payload


def run_checks(
    source: str,
    *,
    platform: Any = None,
    level: str = "full",
    name: str = "user_nest",
    filename: str | None = None,
    require_pragma: bool = True,
) -> CheckResult:
    """Run the analysis passes over restricted-C text.

    After the located nest pass, the design and artifacts come from one
    uncached run of the flow itself (:func:`repro.flow.compile.synthesize_nest`
    with the default :class:`~repro.dse.DseConfig`), so the
    verdict is about the design a compile with the same platform ships.

    Args:
        source: the C program.
        platform: evaluation :class:`Platform` (Arria 10 float default).
        level: ``"nest"``, ``"design"`` or ``"full"``.
        name: nest label used in messages.
        filename: attached to diagnostic spans.
        require_pragma: reject programs without ``#pragma systolic``.
    """
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
    from repro.analysis.nest_check import check_source

    nest, report = check_source(
        source, name=name, filename=filename, require_pragma=require_pragma
    )
    result = CheckResult(report=report, level=level, nest=nest)
    if level == "nest" or nest is None or not report.ok:
        return result

    from repro.dse import NoFeasibleDesign
    from repro.flow.compile import synthesize_nest
    from repro.model.platform import Platform

    platform = platform or Platform()
    try:
        shipped = synthesize_nest(nest, platform)
    except NoFeasibleDesign as exc:
        report.add(
            NEST_NO_FEASIBLE_MAPPING,
            Severity.ERROR,
            f"the design-space exploration found no design fitting "
            f"{platform.device.name}: {exc}",
        )
        return result
    result.design = shipped.evaluation.design

    from repro.analysis.design_check import check_design_point

    report.extend(check_design_point(result.design, platform))
    if level == "design":
        return result

    from repro.analysis.codegen_lint import lint_artifacts

    artifacts = {
        "testbench": shipped.testbench_source,
        "kernel": shipped.kernel_source,
        "driver": shipped.driver_source,
        "rtl": shipped.rtl_source,
    }
    # The RTL is None for a design that backend cannot lower (SA150).
    result.artifacts = {label: text for label, text in artifacts.items() if text is not None}
    report.extend(lint_artifacts(result.design, result.artifacts))
    return result


def check_design(
    source: str,
    *,
    platform: Any = None,
    level: str = "full",
    name: str = "user_nest",
    filename: str | None = None,
    require_pragma: bool = True,
) -> dict[str, Any]:
    """Public API: analyze a program, return a machine-readable report.

    The returned dict carries ``ok``, ``errors``, ``warnings``, the
    analysis ``level``, the extracted ``nest`` name, the winning
    ``design`` signature, and one entry per diagnostic (code, severity,
    message, span, hint).  See :func:`run_checks` for the object form.
    """
    return run_checks(
        source,
        platform=platform,
        level=level,
        name=name,
        filename=filename,
        require_pragma=require_pragma,
    ).to_dict()


__all__ = ["CheckResult", "LEVELS", "check_design", "run_checks"]
