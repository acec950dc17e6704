"""Pass 2 — design-point validation against the paper's constraints.

Checks, from nothing but a :class:`DesignPoint` and a
:class:`Platform`, every invariant a legal design must satisfy:

* the Eq. 2 feasibility condition of its mapping (via the reuse table,
  not via whatever produced the mapping),
* the DSP budget (Eq. 4) and BRAM budget (Eq. 6),
* DSP efficiency within (0, 1] (Eq. 1),
* tiling sanity: positive bounds, middle bounds only on real loops, PE
  dimensions and block extents that do not overshoot their loops.

The structural, Eq. 1, Eq. 2 and Eq. 4 checks are re-derived here.  The
BRAM budget is checked against :meth:`DesignPoint.evaluate` — the one
Eq. 5/6 cost model, which the search also tunes with — so it audits
that the search's feasibility verdict holds for the design it emitted,
not a second formula.  :mod:`repro.dse.explore` and
:mod:`repro.flow.compile` run it over their winners in strict mode.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from repro.analysis.diagnostics import (
    DESIGN_BLOCK_EXCEEDS_TRIPCOUNT,
    DESIGN_BRAM_EXCEEDED,
    DESIGN_DSP_EXCEEDED,
    DESIGN_EFFICIENCY_RANGE,
    DESIGN_INFEASIBLE_MAPPING,
    DESIGN_MIDDLE_UNKNOWN_ITERATOR,
    DESIGN_NONPOSITIVE_BOUND,
    DESIGN_SHAPE_EXCEEDS_TRIPCOUNT,
    DESIGN_UNKNOWN_ITERATOR,
    AnalysisReport,
    Severity,
)
from repro.model.design_point import DesignPoint
from repro.model.mapping import is_feasible
from repro.model.platform import Platform
from repro.model.resources import dsp_usage


def check_design_point(design: DesignPoint, platform: Platform) -> AnalysisReport:
    """Validate one design point; returns the full report.

    Structural problems (unknown iterators, nonpositive bounds) abort
    the resource checks — the analytical models would throw on them —
    but everything checkable is always checked.
    """
    report = AnalysisReport()
    nest = design.nest
    mapping = design.mapping
    shape = design.shape
    bounds = nest.bounds

    # --- structural: the mapping and tiling must speak the nest's language
    structural_ok = True
    for role, iterator in (
        ("row", mapping.row),
        ("column", mapping.col),
        ("vector", mapping.vector),
    ):
        if iterator not in bounds:
            structural_ok = False
            report.add(
                DESIGN_UNKNOWN_ITERATOR,
                Severity.ERROR,
                f"mapping assigns loop {iterator!r} to the PE {role} "
                f"dimension, but nest {nest.name!r} only has loops "
                f"{list(nest.iterators)}",
            )
    for iterator, value in design.middle:
        if iterator not in bounds:
            structural_ok = False
            report.add(
                DESIGN_MIDDLE_UNKNOWN_ITERATOR,
                Severity.ERROR,
                f"middle bound s[{iterator!r}]={value} refers to a loop "
                f"nest {nest.name!r} does not have",
            )
        if value < 1:
            structural_ok = False
            report.add(
                DESIGN_NONPOSITIVE_BOUND,
                Severity.ERROR,
                f"middle bound s[{iterator!r}]={value} must be >= 1",
            )
    if min(shape.rows, shape.cols, shape.vector) < 1:
        structural_ok = False
        report.add(
            DESIGN_NONPOSITIVE_BOUND,
            Severity.ERROR,
            f"PE-array shape {shape} has a nonpositive dimension",
        )
    if not structural_ok:
        return report

    # --- Eq. 2 feasibility, re-derived from the reuse table
    if not is_feasible(nest, mapping):
        report.add(
            DESIGN_INFEASIBLE_MAPPING,
            Severity.ERROR,
            f"mapping {mapping} violates the Eq. 2 feasibility condition "
            f"for nest {nest.name!r}: some array has no fine-grained reuse "
            f"on any inner loop (or an operand is assigned against its "
            f"reuse direction)",
        )

    # --- Eq. 4: DSP budget
    dsp_blocks = dsp_usage(shape.rows, shape.cols, shape.vector, platform)
    dsp_budget = platform.dsp_total * platform.dsp_per_mac
    if dsp_blocks > dsp_budget:
        report.add(
            DESIGN_DSP_EXCEEDED,
            Severity.ERROR,
            f"design needs {dsp_blocks:.0f} DSP blocks but "
            f"{platform.device.name} provides {dsp_budget:.0f} at "
            f"{platform.datatype.name} (Eq. 4)",
        )

    # --- Eq. 6: BRAM budget
    bram = design.evaluate(platform).bram
    if bram.total > platform.bram_total:
        report.add(
            DESIGN_BRAM_EXCEEDED,
            Severity.ERROR,
            f"design needs {bram.total} RAM blocks but "
            f"{platform.device.name} provides {platform.bram_total} (Eq. 6)",
        )

    # --- Eq. 1: efficiency is a ratio of iteration counts
    efficiency = design.tiled.efficiency
    if not 0.0 < efficiency <= 1.0:
        report.add(
            DESIGN_EFFICIENCY_RANGE,
            Severity.ERROR,
            f"DSP efficiency {efficiency:.4f} is outside (0, 1]; the "
            f"executed-iteration accounting is inconsistent",
        )

    # --- quantization sanity: no dimension should overshoot its loop
    for role, iterator, extent in (
        ("rows", mapping.row, shape.rows),
        ("cols", mapping.col, shape.cols),
        ("vector", mapping.vector, shape.vector),
    ):
        trip = bounds[iterator]
        if extent > trip:
            report.add(
                DESIGN_SHAPE_EXCEEDS_TRIPCOUNT,
                Severity.WARNING,
                f"PE-array {role}={extent} exceeds loop {iterator!r}'s trip "
                f"count {trip}; {extent - trip} lane(s) along that dimension "
                f"can never receive work",
            )
    for iterator in nest.iterators:
        block = design.tiling.block_extent(iterator)
        t = design.tiling.t(iterator)
        padded = math.ceil(bounds[iterator] / t) * t
        if block > padded:
            report.add(
                DESIGN_BLOCK_EXCEEDS_TRIPCOUNT,
                Severity.WARNING,
                f"block extent s*t={block} along {iterator!r} exceeds the "
                f"padded trip count {padded}; the reuse buffers are sized "
                f"for iterations that never execute",
            )
    return report


def verify_design_points(
    designs: Iterable[DesignPoint], platform: Platform, *, context: str = "DSE result"
) -> AnalysisReport:
    """Validate a batch of design points into one combined report.

    Used by strict-mode DSE: every emitted design is re-checked; the
    combined report carries each design's signature in the messages.
    """
    combined = AnalysisReport()
    for design in designs:
        report = check_design_point(design, platform)
        for diag in report:
            combined.add(
                diag.code,
                diag.severity,
                f"[{context}: {design.signature}] {diag.message}",
                diag.span,
                diag.hint,
            )
    return combined


__all__ = ["check_design_point", "verify_design_points"]
