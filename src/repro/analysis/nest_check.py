"""Pass 1 — frontend/IR legality: is this nest systolizable?

The paper's flow assumes a "Code 1"-style input: a perfect nest of
normalized counted loops around one multiply-accumulate statement whose
subscripts are a single iterator or a sum of two iterators (Section 3.3),
with every array's fine-grained reuse (Eq. 3) carried by at least one
loop so a feasible mapping (Eq. 2) can exist at all.  This pass verifies
all of it *statically* and explains each rejection with a coded, located
diagnostic — the answer to "why was my nest rejected?".

Entry points:

* :func:`check_source` — from C text; lex/parse rejections become
  diagnostics, never tracebacks.
* :func:`check_program` — from a parsed :class:`Program` (AST spans).
* :func:`check_nest` — from an IR :class:`LoopNest` (no spans; used for
  programmatically built nests, e.g. from CNN layer descriptors).
* :func:`nest_from_source` — C text to the nest a synthesis request
  runs on, the one parse every door into the flow shares.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import replace

from repro.analysis.diagnostics import (
    NEST_MISSING_PRAGMA,
    NEST_NO_FEASIBLE_MAPPING,
    NEST_NO_REUSE_LOOP,
    NEST_NON_SYSTOLIZABLE_SUBSCRIPT,
    NEST_NOT_SINGLE_ACCUMULATION,
    NEST_NOT_TWO_READS,
    NEST_SUBSCRIPT_NEGATIVE,
    NEST_SUBSCRIPT_TOO_MANY_ITERATORS,
    NEST_TOO_SHALLOW,
    AnalysisReport,
    Severity,
    SourceSpan,
)
from repro.frontend.ast_nodes import ArrayRef, ForLoop, MacStatement, Program
from repro.frontend.cparser import ParseError, parse_program
from repro.frontend.extract import extract_loop_nest, loop_nest_from_source
from repro.frontend.lexer import LexError
from repro.ir.loop import LoopNest
from repro.ir.reuse import analyze_reuse


def _sub_span(ref: ArrayRef, dim: int) -> SourceSpan | None:
    """Span of one subscript of an AST reference (None if unlocated)."""
    sub = ref.subscripts[dim]
    if sub.line > 0:
        return SourceSpan(sub.line, max(1, sub.column))
    if ref.line > 0:
        return SourceSpan(ref.line, max(1, ref.column))
    return None


def _check_subscript_terms(
    report: AnalysisReport,
    array: str,
    dim: int,
    terms: list[tuple[str, int]],
    constant: int,
    span: SourceSpan | None,
    *,
    allow_strided: bool,
) -> None:
    """Section 3.3 pattern check for one subscript of one access.

    Legal forms are ``i`` and ``i + j`` (plus a nonnegative constant,
    which folding and padding introduce).  Strided forms like ``2*i``
    are produced by the stride-folding transformation and accepted only
    when ``allow_strided`` is set; user-facing checks reject them so the
    DSE's reuse analysis assumptions hold.
    """
    rendered_terms = [
        (f"{coeff}*{name}" if coeff != 1 else name) for name, coeff in terms
    ]
    rendered = " + ".join(rendered_terms + ([str(constant)] if constant else [])) or "0"
    if len(terms) > 2:
        report.add(
            NEST_SUBSCRIPT_TOO_MANY_ITERATORS,
            Severity.ERROR,
            f"subscript {dim} of {array!r} ({rendered}) sums "
            f"{len(terms)} iterators; the systolic mapping analysis "
            f"covers a single iterator or a sum of two",
            span,
        )
    for name, coeff in terms:
        if coeff < 0:
            report.add(
                NEST_SUBSCRIPT_NEGATIVE,
                Severity.ERROR,
                f"subscript {dim} of {array!r} ({rendered}) has a negative "
                f"coefficient on {name!r}, so the index can go negative",
                span,
            )
        elif coeff != 1 and not allow_strided:
            report.add(
                NEST_NON_SYSTOLIZABLE_SUBSCRIPT,
                Severity.ERROR,
                f"subscript {dim} of {array!r} ({rendered}) is not in the "
                f"systolizable form: {name!r} carries coefficient {coeff}, "
                f"but only single-iterator ('i') or two-iterator sums "
                f"('i + j') are supported",
                span,
                hint="express the stride through loop restructuring (the "
                "flow's folding pass introduces strides itself where legal)",
            )
    if constant < 0:
        report.add(
            NEST_SUBSCRIPT_NEGATIVE,
            Severity.ERROR,
            f"subscript {dim} of {array!r} ({rendered}) has negative "
            f"constant {constant}, so the first iterations index out of bounds",
            span,
        )


def _check_structure_and_reuse(
    report: AnalysisReport,
    nest: LoopNest,
    *,
    span_of: Callable[[str], SourceSpan | None] | None = None,
) -> None:
    """IR-level checks shared by the AST and LoopNest entry points.

    Args:
        report: accumulates findings.
        nest: the extracted nest.
        span_of: optional ``(array_name) -> SourceSpan | None`` hook so
            AST callers can locate array-level findings.
    """
    locate = span_of or (lambda _array: None)

    structure_ok = True
    if nest.depth < 3:
        structure_ok = False
        report.add(
            NEST_TOO_SHALLOW,
            Severity.ERROR,
            f"nest {nest.name!r} has {nest.depth} loop(s); mapping to PE "
            f"rows, PE columns and the SIMD vector needs at least three",
        )
    writes = nest.writes
    if len(writes) != 1:
        structure_ok = False
        report.add(
            NEST_NOT_SINGLE_ACCUMULATION,
            Severity.ERROR,
            f"nest {nest.name!r} must accumulate into exactly one array, "
            f"found {len(writes)}: {[w.array for w in writes]}",
        )
    reads = nest.reads
    if len(reads) != 2:
        structure_ok = False
        report.add(
            NEST_NOT_TWO_READS,
            Severity.ERROR,
            f"the accumulation must read exactly two arrays (a*b), "
            f"nest {nest.name!r} reads {len(reads)}: {[r.array for r in reads]}",
        )

    # Eq. 3 reuse analysis: every array needs at least one reuse-carrying
    # loop, otherwise no selection of three inner loops can satisfy Eq. 2.
    table = analyze_reuse(nest)
    reuse_ok = True
    for array in nest.array_names:
        if not table.reuse_loops(array):
            reuse_ok = False
            report.add(
                NEST_NO_REUSE_LOOP,
                Severity.ERROR,
                f"array {array!r} has no loop carrying fine-grained reuse "
                f"(every loop of {list(nest.iterators)} appears in its "
                f"subscripts), so the Eq. 2 feasibility condition can never "
                f"hold for it",
                locate(array),
                hint="a systolizable nest keeps at least one loop out of "
                "each array's subscripts (e.g. the output-channel loop for IN)",
            )

    # Eq. 2: a feasible ordered mapping must exist.  Only meaningful when
    # the structural preconditions hold.
    if structure_ok and reuse_ok:
        from repro.model.mapping import feasible_mappings

        if not feasible_mappings(nest):
            report.add(
                NEST_NO_FEASIBLE_MAPPING,
                Severity.ERROR,
                f"no ordered (row, column, vector) loop triple satisfies the "
                f"Eq. 2 feasibility condition for nest {nest.name!r}: reuse "
                f"table\n{table}",
            )


def check_program(
    program: Program,
    *,
    name: str = "user_nest",
    require_pragma: bool = True,
    allow_strided: bool = False,
) -> tuple[LoopNest | None, AnalysisReport]:
    """Check a parsed program; returns (nest or None, report).

    The nest is None when extraction itself failed; the report then
    carries the located extraction error.
    """
    report = AnalysisReport()

    if program.pragma is None or "systolic" not in program.pragma:
        severity = Severity.ERROR if require_pragma else Severity.WARNING
        described = (
            "no pragma" if program.pragma is None else f"pragma {program.pragma!r}"
        )
        report.add(
            NEST_MISSING_PRAGMA,
            severity,
            f"{described} on the nest; the flow synthesizes nests marked "
            f"'#pragma systolic'",
            SourceSpan(program.nest.line),
            hint="add '#pragma systolic' above the outer loop",
        )

    # AST-level subscript pattern checks (these have precise spans).
    node: ForLoop | MacStatement = program.nest
    while isinstance(node, ForLoop):
        node = node.body
    for ref in (node.target, node.lhs, node.rhs):
        for dim, sub in enumerate(ref.subscripts):
            _check_subscript_terms(
                report,
                ref.name,
                dim,
                [(t.iterator, t.coefficient) for t in sub.terms],
                sub.constant,
                _sub_span(ref, dim),
                allow_strided=allow_strided,
            )

    try:
        nest = extract_loop_nest(program, name=name)
    except ParseError as exc:
        report.extend([exc.diagnostic])
        return None, report

    ref_of = {r.name: r for r in (node.target, node.lhs, node.rhs)}

    def locate(array: str) -> SourceSpan | None:
        ref = ref_of.get(array)
        if ref is not None and ref.line > 0:
            return SourceSpan(ref.line, max(1, ref.column))
        return None

    _check_structure_and_reuse(report, nest, span_of=locate)
    return nest, report


def check_source(
    source: str,
    *,
    name: str = "user_nest",
    filename: str | None = None,
    require_pragma: bool = True,
    allow_strided: bool = False,
) -> tuple[LoopNest | None, AnalysisReport]:
    """Check C text end to end; never raises on bad input.

    Returns (nest or None, report); lexer and parser rejections arrive
    as located diagnostics in the report.
    """
    nest: LoopNest | None = None
    try:
        program = parse_program(source)
    except (LexError, ParseError) as exc:
        report = AnalysisReport([exc.diagnostic])
    else:
        nest, report = check_program(
            program, name=name, require_pragma=require_pragma, allow_strided=allow_strided
        )
    if filename is not None:
        report = AnalysisReport(
            replace(d, span=d.span.with_filename(filename)) if d.span else d for d in report
        )
    return nest, report


def nest_from_source(
    source: str, *, name: str, require_pragma: bool, strict: bool
) -> LoopNest:
    """C text to the loop nest a synthesis request runs on.

    The one parse behind both doors into the flow — the pipeline's parse
    stage (the library's C-text requests) and
    :meth:`repro.flow.request.SynthesisRequest.from_payload` (the command
    line and ``POST /v1/jobs``) — so a request's verdict
    does not depend on how it arrived.  Under ``strict`` the located
    legality pass (:func:`check_source`) runs; otherwise the nest is
    extracted as written and only the pragma is checked.

    Raises:
        ValueError: a missing pragma, or unparsable text; under
            ``strict``, a :class:`~repro.analysis.DiagnosticError` (itself
            a ``ValueError``) with every located finding.
    """
    if strict:
        nest, report = check_source(source, name=name, require_pragma=require_pragma)
        report.raise_if_errors()
        assert nest is not None  # check_source only returns None with errors
        return nest
    nest, pragma = loop_nest_from_source(source, name=name)
    if require_pragma and (pragma is None or "systolic" not in pragma):
        raise ValueError(
            "no '#pragma systolic' found; annotate the nest or set "
            "require_pragma to false"
        )
    return nest


def check_nest(nest: LoopNest, *, allow_strided: bool = False) -> AnalysisReport:
    """Check an IR-level nest (no source spans available).

    Used for nests built programmatically — e.g. from CNN layer
    descriptors — where the same legality rules apply but there is no
    text to point into.
    """
    report = AnalysisReport()
    for access in nest.accesses:
        for dim, expr in enumerate(access.indices):
            _check_subscript_terms(
                report,
                access.array,
                dim,
                list(expr.terms),
                expr.const,
                None,
                allow_strided=allow_strided,
            )
    _check_structure_and_reuse(report, nest)
    return report


__all__ = ["check_nest", "check_program", "check_source", "nest_from_source"]
