"""Pass 3 — linting the generated C / OpenCL / Verilog text, without a compiler.

The emitters in :mod:`repro.codegen` produce a restricted, regular C
shape: ``#define`` parameter headers, literal-dimension array
declarations, counted ``for`` loops, and straight-line subscripted
statements.  That regularity makes a *static* correctness check
tractable where one for arbitrary C would not be:

* every loop variable gets a value interval from its ``for`` header,
  every ``int v = expr;`` from interval arithmetic over the header's
  ``#define`` table and the live intervals;
* every subscript ``NAME[e0][e1]..`` of a declared array is then checked
  against the declared extents (SA301 overflow / SA302 negative /
  SA303 rank);
* the ``#define`` header is cross-checked against the design point that
  supposedly produced the file (SA310 / SA311);
* OpenCL kernels are checked for the double-buffer protocol: ``pp``
  initialised, flipped once per block, and used on every ping-pong
  buffer access (SA320–SA322).

The analysis is deliberately conservative about guards: text after a
ternary ``?`` and lines carrying an ``if (`` are exactly where the
emitters put their boundary guards, so upper-bound checks are skipped
there; everything unguarded is checked exactly.  On the shipped
templates the intervals are tight (the hottest access peaks at
``dimension - 1``), so a buffer sized even one element short is caught.

The emitted Verilog gets a structural lint of its own
(:func:`lint_verilog`, SA330–SA333; ``docs/rtl.md`` says how it reads a
file), and :func:`lint_artifacts` is the one table of which artifact
gets which of the three lints.  All scanning is linear in the text:
comments are blanked by one compiled scan, every pattern is compiled
once at import, and a Verilog line meets only the pattern its leading
word selects.
"""

from __future__ import annotations

import functools
import itertools
import re
from collections.abc import Iterable, Iterator, Mapping
from typing import TYPE_CHECKING

from repro.analysis.diagnostics import (
    LINT_DEFINE_MISMATCH,
    LINT_DEFINE_MISSING,
    LINT_INDEX_NEGATIVE,
    LINT_INDEX_OVERFLOW,
    LINT_PINGPONG_FLIP_MISSING,
    LINT_PINGPONG_INIT_MISSING,
    LINT_PINGPONG_NOT_USED,
    LINT_RANK_MISMATCH,
    LINT_VERILOG_LATCH,
    LINT_VERILOG_MULTIDRIVEN,
    LINT_VERILOG_UNDRIVEN,
    LINT_VERILOG_WIDTH_MISMATCH,
    AnalysisReport,
    Severity,
    SourceSpan,
)

if TYPE_CHECKING:
    # Type-only: this pass lints text without a compiler and stays off
    # the model layer's import graph at runtime.
    from repro.model.design_point import DesignPoint

_DEFINE_RE = re.compile(r"^\s*#\s*define\s+(\w+)\s+(.+?)\s*$")
_DECL_RE = re.compile(
    r"^\s*(?:static\s+|__local\s+|__constant\s+)*"
    r"(?:unsigned\s+|signed\s+)?[A-Za-z_]\w*(?:\s+[A-Za-z_]\w*)*\s+"
    r"(\w+)\s*((?:\[[^\[\]]+\])+)\s*;"
)
_FOR_RE = re.compile(
    r"for\s*\(\s*(?:int|long|unsigned|size_t)\s+(\w+)\s*=\s*([^;]+?)\s*;"
    r"\s*\1\s*<=?\s*([^;]+?)\s*;"
)
# (the type keeps its own `\s*`: two adjacent ones backtrack quadratically
# on a long blank line, which is what a blanked comment is)
_ASSIGN_RE = re.compile(
    r"^\s*(?:(?:int|long)\s*)?(\w+)\s*=\s*([^;=<>!]+?)\s*;\s*$"
)
_ACCESS_RE = re.compile(r"\b([A-Za-z_]\w*)\s*((?:\[[^\[\]]+\])+)")
_DIM_RE = re.compile(r"\[([^\[\]]+)\]")
_NUMBER_RE = re.compile(r"^(\d+)[uUlL]*$")
_EXPR_TOKEN_RE = re.compile(r"\d+[uUlL]*|[A-Za-z_]\w*|[+\-*()]")
_SPACE_RE = re.compile(r"\s+")
_PP_INIT_RE = re.compile(r"\bint\s+pp\s*=\s*0\s*;")
_PP_FLIP_RE = re.compile(r"\bpp\s*=\s*1\s*-\s*pp\s*;")
# The characters str.splitlines() ends a line on.
_EOL = r"\n\r\v\f\x1c-\x1e\x85\u2028\u2029"
# A comment, from its opening `/`: to the end of the line, or through the
# closing `*/` (the end of the text when it never closes).
_COMMENT_RE = re.compile(rf"/(?:/[^{_EOL}]*|\*.*?(?:\*/|\Z))", re.DOTALL)
_COMMENT_RUN_RE = re.compile(rf"[^{_EOL}]+")  # (a run: one match per line)


class _Unknown(Exception):
    """An expression mentions a symbol the analysis has no interval for."""


class _IntervalEvaluator:
    """Interval arithmetic over ``+ - * ( )``, integers, and symbols."""

    def __init__(self, defines: dict[str, int], env: dict[str, tuple[int, int]]) -> None:
        self.defines = defines
        self.env = env

    def eval(self, text: str) -> tuple[int, int]:
        self._tokens = _EXPR_TOKEN_RE.findall(text)
        if "".join(self._tokens) != _SPACE_RE.sub("", text):
            raise _Unknown(text)  # unsupported operator (/, %, ?:, comparisons)
        self._pos = 0
        result = self._sum()
        if self._pos != len(self._tokens):
            raise _Unknown(text)
        return result

    def _peek(self) -> str | None:
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def _sum(self) -> tuple[int, int]:
        lo, hi = self._product()
        while self._peek() in ("+", "-"):
            op = self._tokens[self._pos]
            self._pos += 1
            rlo, rhi = self._product()
            if op == "+":
                lo, hi = lo + rlo, hi + rhi
            else:
                lo, hi = lo - rhi, hi - rlo
        return lo, hi

    def _product(self) -> tuple[int, int]:
        lo, hi = self._atom()
        while self._peek() == "*":
            self._pos += 1
            rlo, rhi = self._atom()
            corners = (lo * rlo, lo * rhi, hi * rlo, hi * rhi)
            lo, hi = min(corners), max(corners)
        return lo, hi

    def _atom(self) -> tuple[int, int]:
        token = self._peek()
        if token is None:
            raise _Unknown("truncated expression")
        self._pos += 1
        if token == "(":
            inner = self._sum()
            if self._peek() != ")":
                raise _Unknown("unbalanced parenthesis")
            self._pos += 1
            return inner
        if token == "-":
            lo, hi = self._atom()
            return -hi, -lo
        match = _NUMBER_RE.match(token)
        if match:
            value = int(match.group(1))
            return value, value
        if token in self.defines:
            value = self.defines[token]
            return value, value
        if token in self.env:
            return self.env[token]
        raise _Unknown(token)


def _blank(comment: re.Match[str]) -> str:
    return _COMMENT_RUN_RE.sub(lambda run: " " * len(run.group()), comment.group())


def _strip_comments(source: str) -> list[str]:
    """Source lines with ``//`` and ``/* */`` comments blanked out: each
    comment character becomes a space, so every column survives."""
    if "/" in source:
        source = _COMMENT_RE.sub(_blank, source)
    return source.splitlines()


def _resolve_defines(lines: list[str]) -> dict[str, int]:
    """The ``#define`` table with name-to-name chains resolved to ints."""
    raw: dict[str, str] = {}
    for line in lines:
        match = _DEFINE_RE.match(line)
        if match:
            raw[match.group(1)] = match.group(2).strip()
    resolved: dict[str, int] = {}
    for _ in range(len(raw) + 1):
        progressed = False
        for name, value in raw.items():
            if name in resolved:
                continue
            number = _NUMBER_RE.match(value)
            if number:
                resolved[name] = int(number.group(1))
                progressed = True
            elif value in resolved:
                resolved[name] = resolved[value]
                progressed = True
        if not progressed:
            break
    return resolved


def _span(line_no: int, column: int, filename: str | None) -> SourceSpan:
    return SourceSpan(line_no, max(1, column), filename=filename)


def lint_generated_code(
    source: str,
    *,
    filename: str | None = None,
    kind: str | None = None,
) -> AnalysisReport:
    """Lint one generated C/OpenCL file; returns the report.

    Args:
        source: the generated text (testbench, kernel, or driver).
        filename: attached to diagnostic spans.
        kind: ``"kernel"`` forces the double-buffer protocol checks;
            auto-detected from a ``__kernel`` marker when None.
    """
    report = AnalysisReport()
    lines = _strip_comments(source)
    defines = _resolve_defines(lines)
    is_kernel = kind == "kernel" or (kind is None and "__kernel" in source)

    # --- collect literal-dimension array declarations
    arrays: dict[str, tuple[int, ...]] = {}
    decl_line: dict[str, int] = {}
    env: dict[str, tuple[int, int]] = {"pp": (0, 1)}
    evaluator = _IntervalEvaluator(defines, env)
    for line_no, line in enumerate(lines, start=1):
        match = _DECL_RE.match(line)
        if not match or "(" in line.split("[", 1)[0]:
            continue
        name, dim_text = match.group(1), match.group(2)
        dims = []
        try:
            for dim_expr in _DIM_RE.findall(dim_text):
                lo, hi = evaluator.eval(dim_expr)
                if lo != hi:
                    raise _Unknown(dim_expr)
                dims.append(lo)
        except _Unknown:
            continue
        arrays[name] = tuple(dims)
        decl_line[name] = line_no

    # --- walk the code: track intervals, check every unguarded subscript
    for line_no, line in enumerate(lines, start=1):
        if _DEFINE_RE.match(line):
            continue
        for match in _FOR_RE.finditer(line):
            var, start_text, limit_text = match.groups()
            inclusive = "<=" in match.group(0)
            try:
                start_lo, _ = evaluator.eval(start_text)
                _, limit_hi = evaluator.eval(limit_text)
            except _Unknown:
                env.pop(var, None)
                continue
            env[var] = (start_lo, limit_hi if inclusive else limit_hi - 1)
        if _DECL_RE.match(line):
            # The bracket chain on a declaration line states extents,
            # not an access.
            continue
        assign = _ASSIGN_RE.match(line)
        if assign:
            var, expr = assign.groups()
            try:
                env[var] = evaluator.eval(expr)
            except _Unknown:
                env.pop(var, None)

        # Guard handling: everything after `?` sits under the emitted
        # boundary condition; `if (`-guarded lines only get the
        # negativity check.
        guarded = "if (" in line or "if(" in line
        checkable = line.split("?", 1)[0]
        for match in _ACCESS_RE.finditer(checkable):
            name = match.group(1)
            dims = arrays.get(name)
            if dims is None:
                continue
            subscripts = _DIM_RE.findall(match.group(2))
            if len(subscripts) > len(dims):
                report.add(
                    LINT_RANK_MISMATCH,
                    Severity.ERROR,
                    f"{name!r} is declared with {len(dims)} dimension(s) "
                    f"(line {decl_line[name]}) but indexed with "
                    f"{len(subscripts)}",
                    _span(line_no, match.start() + 1, filename),
                )
                continue
            for dim, sub in enumerate(subscripts):
                try:
                    lo, hi = evaluator.eval(sub)
                except _Unknown:
                    continue
                if lo < 0:
                    report.add(
                        LINT_INDEX_NEGATIVE,
                        Severity.ERROR,
                        f"subscript {dim} of {name!r} ({sub.strip()}) can "
                        f"reach {lo} < 0",
                        _span(line_no, match.start() + 1, filename),
                    )
                if hi >= dims[dim] and not guarded:
                    report.add(
                        LINT_INDEX_OVERFLOW,
                        Severity.ERROR,
                        f"subscript {dim} of {name!r} ({sub.strip()}) can "
                        f"reach {hi}, but the dimension declared on line "
                        f"{decl_line[name]} is {dims[dim]}",
                        _span(line_no, match.start() + 1, filename),
                        hint=f"the buffer needs extent >= {hi + 1} here",
                    )

    if is_kernel:
        _check_double_buffering(report, lines, filename)
    return report


def _check_double_buffering(
    report: AnalysisReport, lines: list[str], filename: str | None
) -> None:
    """SA320–SA322: the ping-pong protocol on ``buf_*[2][..]`` buffers."""
    pingpong: list[str] = []
    for line in lines:
        match = _DECL_RE.match(line)
        if match and match.group(2).startswith("[2]"):
            pingpong.append(match.group(1))
    if not pingpong:
        return
    text = "\n".join(lines)
    if not _PP_INIT_RE.search(text):
        report.add(
            LINT_PINGPONG_INIT_MISSING,
            Severity.ERROR,
            f"double-buffered arrays {pingpong} are declared but the "
            f"ping-pong selector is never initialised (`int pp = 0;`)",
        )
    if not _PP_FLIP_RE.search(text):
        report.add(
            LINT_PINGPONG_FLIP_MISSING,
            Severity.ERROR,
            "the ping-pong selector is never flipped (`pp = 1 - pp;`), so "
            "the load phase of block k+1 would overwrite the buffer the "
            "compute phase of block k is reading",
        )
    for line_no, line in enumerate(lines, start=1):
        if _DECL_RE.match(line):
            continue
        for match in _ACCESS_RE.finditer(line):
            if match.group(1) not in pingpong:
                continue
            first = _DIM_RE.findall(match.group(2))[0]
            if "pp" not in first:
                report.add(
                    LINT_PINGPONG_NOT_USED,
                    Severity.WARNING,
                    f"access to double-buffered {match.group(1)!r} selects "
                    f"plane [{first.strip()}] instead of the ping-pong "
                    f"selector [pp]",
                    _span(line_no, match.start() + 1, filename),
                )


def lint_against_design(
    source: str,
    design: DesignPoint,
    *,
    filename: str | None = None,
) -> AnalysisReport:
    """SA310/SA311: the ``#define`` header must restate the design point.

    Every generated file carries ``N_/T_/S_/B_`` definitions per loop
    plus ``ROWS/COLS/VEC``; this cross-checks them against the
    :class:`DesignPoint` the file claims to implement, catching stale or
    hand-edited headers before anything consumes the file.
    """
    report = AnalysisReport()
    lines = _strip_comments(source)
    defines = _resolve_defines(lines)
    nest = design.nest
    tiling = design.tiling
    expected: dict[str, int] = {}
    for it in nest.iterators:
        expected[f"N_{it}"] = nest.bounds[it]
        expected[f"T_{it}"] = tiling.t(it)
        expected[f"S_{it}"] = tiling.s(it)
        expected[f"B_{it}"] = tiling.block_extent(it)
    expected["ROWS"] = design.shape.rows
    expected["COLS"] = design.shape.cols
    expected["VEC"] = design.shape.vector
    for name, want in expected.items():
        have = defines.get(name)
        if have is None:
            report.add(
                LINT_DEFINE_MISSING,
                Severity.ERROR,
                f"generated header does not define {name} "
                f"(design {design.signature} requires {name}={want})",
            )
        elif have != want:
            report.add(
                LINT_DEFINE_MISMATCH,
                Severity.ERROR,
                f"#define {name} {have} contradicts the design point "
                f"({design.signature} implies {name}={want})",
                _find_define_span(lines, name, filename),
            )
    return report


def _find_define_span(
    lines: list[str], name: str, filename: str | None
) -> SourceSpan | None:
    for line_no, line in enumerate(lines, start=1):
        match = _DEFINE_RE.match(line)
        if match and match.group(1) == name:
            return _span(line_no, line.index(name) + 1, filename)
    return None


# --------------------------------------------------------------------------
# Verilog structural lint (SA330–SA333) for the RTL backend's output.
#
# One pass: each line is classified once, by its leading word, and meets
# only the pattern that word selects.

_V_LEAD_RE = re.compile(r"\s*(\w*)")
_V_MODULE_RE = re.compile(r"\s*module\s+(\w+)")
_V_DECL_WORDS = frozenset(("input", "output", "inout", "wire", "reg"))
_V_DECL_RE = re.compile(
    r"\s*(input|output|inout)?\s*(reg|wire)?\s*"
    r"(?:\[(\d+):(\d+)\]\s*)?(\w+)\s*((?:\[[^\]]+\]\s*)*);\s*$"
)
_V_RANGE_RE = re.compile(r"\[\s*(\d+)\s*:\s*(\d+)\s*\]")
_V_PARAM_RE = re.compile(r"\s*parameter\s+(\w+)\s*=")
_V_INTEGER_RE = re.compile(r"\s*integer\s+(\w+)\s*;")
_V_ASSIGN_RE = re.compile(r"\s*assign\s+(\w+(?:\s*\[[^\]]+\])*)\s*=\s*(.*);\s*$")
# `for (gx = 0; gx < 4; gx = gx + 1) begin : label` at module level
_V_GENFOR_RE = re.compile(r"\s*for\s*\(\s*(\w+)\s*=\s*(\d+)\s*;\s*\1\s*<\s*(\d+)\s*;")
# group 1 is set for a clocked block, unset for a combinational one
_V_ALWAYS_RE = re.compile(
    r"\s*always\s*@\s*(?:\*|\(\s*\*\s*\)|(\(\s*posedge\b[^)]*\)))"
)
_V_BLOCK_RE = re.compile(r"\b(?:begin|end)\b")
_V_IF_RE = re.compile(r"\bif\s*\(")
_V_ELSE_RE = re.compile(r"\belse\b")
_V_STMT_RE = re.compile(r"\s*(\w+)\s*(\[[^\]]*\])?\s*<?=\s*(.*);\s*$")
_V_COND_RE = re.compile(r"(?:if|for)\s*\((.*)\)")
_V_INSTANCE_RE = re.compile(
    r"\s*(\w+)\s*(?:#\s*\((?:[^()]|\([^()]*\))*\)\s*)?(\w+)\s*\(\s*$"
)
# One connection on one line, `.port(net)` to a plain net or `.port(expr)`
# to anything else — or a line break, so that a findall over an
# instance's block yields the line structure with the connections.
_V_CONN_RE = re.compile(
    r"\n|\.(\w+)[ \t]*\([ \t]*(?:([A-Za-z_]\w*)[ \t]*\)|([^)\n]*)\))"
)
_V_NAME_RE = re.compile(r"[A-Za-z_]\w*")
_V_WORD_RE = re.compile(r"\w+")
# system task | sized literal | other number | identifier (the one group)
_V_TOKEN_RE = re.compile(
    r"\$\w+|\d+'[bdh][0-9a-fA-F_xz]+|\d\w*|([A-Za-z_]\w*)"
)
#: The identifiers an expression mentions ("" for each other token).
_v_idents = _V_TOKEN_RE.findall
_V_KEYWORDS = frozenset(
    "module endmodule input output inout reg wire assign always initial begin "
    "end if else for posedge negedge parameter integer or and not genvar "
    "generate endgenerate".split()
)
_V_NOT_SIGNALS = _V_KEYWORDS | {""}


#: An index box: one inclusive ``(lo, hi)`` interval per dimension.
Box = tuple[tuple[int, int], ...]


class _VModule:
    """Declarations, drivers and reads of one parsed module.

    A net array, or a vector read through bit selects, has an index
    space; each access to it by index is recorded as a *box* of that
    space, so a generate loop's ``net[gx][gy + 1]`` is checked element by
    element rather than as one name.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.kinds: dict[str, str] = {}  # name -> input/output/wire/reg/...
        self.widths: dict[str, int] = {}
        self.memories: set[str] = set()
        self.params: set[str] = set()
        self.decl_line: dict[str, int] = {}
        self.drivers: dict[str, list[tuple[str, int]]] = {}
        self.reads: dict[str, int] = {}  # name -> first read line
        self.port_dirs: dict[str, tuple[str, int]] = {}  # for instances of me
        self.spaces: dict[str, tuple[Box, int]] = {}  # -> (space, element width)
        # name -> [(box, driver label, or "" for a read, line)]
        self.parts: dict[str, list[tuple[Box, str, int]]] = {}

    def declare(
        self,
        name: str,
        direction: str | None,
        kind: str | None,
        bits: tuple[int, int] | None,
        line_no: int,
        dims: str,
    ) -> None:
        self.kinds[name] = (
            f"{direction} {kind}" if direction and kind else direction or kind or ""
        )
        width = abs(bits[0] - bits[1]) + 1 if bits else 1
        self.widths[name] = width
        self.decl_line.setdefault(name, line_no)
        if dims and kind == "reg":
            self.memories.add(name)
        elif dims:
            ranges = _V_RANGE_RE.findall(dims)
            if len(ranges) == dims.count("["):
                space = tuple((min(map(int, r)), max(map(int, r))) for r in ranges)
                self.spaces[name] = (space, width)
        elif bits:
            self.spaces[name] = ((min(bits), max(bits)),), 1
        if direction == "input" or direction == "output":
            self.port_dirs[name] = (direction, width)

    def drive(self, name: str, source: str, line_no: int) -> None:
        self.drivers.setdefault(name, []).append((source, line_no))

    def read(self, names: Iterable[str], line_no: int) -> None:
        """The signals among ``names`` (keywords are none) are read here."""
        for name in names:
            if name not in _V_NOT_SIGNALS:
                self.reads.setdefault(name, line_no)

    def access(
        self,
        text: str,
        env: dict[str, tuple[int, int]],
        memo: dict[str, tuple[int, int] | None],
        source: str,
        line_no: int,
    ) -> int | None:
        """Record ``text`` as a driver (labelled ``source``; ``""`` for a
        read) of the elements it indexes, and return their width — when it
        is ``name[sub]...`` over a net with an index space and each ``sub``
        evaluates over the genvar ranges ``env``; None otherwise.
        ``memo`` holds the subscripts already evaluated under ``env``."""
        name, _, rest = text.partition("[")
        name = name.rstrip()
        space = self.spaces.get(name)
        subscripts = rest[:-1].split("][")
        if space is None or rest[-1:] != "]" or len(subscripts) != len(space[0]):
            return None
        box = []
        for sub in subscripts:
            if sub not in memo:
                try:
                    memo[sub] = _IntervalEvaluator({}, env).eval(sub)
                except _Unknown:
                    memo[sub] = None
            bounds = memo[sub]
            if bounds is None:
                return None
            box.append(bounds)
        self.parts.setdefault(name, []).append((tuple(box), source, line_no))
        return space[1]


def lint_verilog(source: str, *, filename: str | None = None) -> AnalysisReport:
    """Structural lint of emitted Verilog: SA330–SA333.

    Works on the regular shape :mod:`repro.codegen.rtl` produces (and
    intentionally nothing fancier): per-signal declarations, ``assign``
    statements, ``always @*`` and ``always @(posedge clk)`` processes
    with one statement per line, instance connections (child port
    directions resolved from modules defined in the same file), and
    ``generate for`` loops over ``genvar`` ranges whose instances connect
    to elements of net arrays.

    * **SA330** — a declared net is read but has no driver: no assign,
      no always block, no instance output connection; for a net array or
      a bit-selected vector, an element some reader touches that no
      driver covers; and a plain ``output`` with no driver at all.
    * **SA331** — a net, or one element of it, is driven from more than
      one source (two assigns, an assign plus an always block, two
      always blocks, two connections, ...).
    * **SA332** — an identifier-to-identifier assignment (continuous,
      blocking or nonblocking) or port connection joins nets of
      different declared widths; an array element has the array's
      element width, a bit of a vector one bit.
    * **SA333** *(warning)* — a combinational ``always @*`` block
      contains more ``if`` arms than ``else`` arms, which infers a latch
      for any signal not assigned on the missing path.
    """
    report = AnalysisReport()
    lines = _strip_comments(source)
    modules: list[_VModule] = []
    module: _VModule | None = None
    # deferred instance connections:
    # (module, child, first line, block text, genvar ranges)
    pending: list[tuple[_VModule, str, int, str, dict[str, tuple[int, int]]]] = []
    loops: list[str] = []  # the genvars of the enclosing generate loops
    genvars: dict[str, tuple[int, int]] = {}  # their ranges, where known
    constants: dict[str, tuple[int, int] | None] = {}  # subscripts outside loops

    n = len(lines)
    i = 0  # lines consumed so far == the 1-based number of the current line
    while i < n:
        line = lines[i]
        i += 1
        # (the pattern cannot fail: both of its parts may be empty)
        word = _V_LEAD_RE.match(line).group(1)  # type: ignore[union-attr]
        if word == "module":
            m = _V_MODULE_RE.match(line)
            if m:
                module = _VModule(m.group(1))
                modules.append(module)
                loops.clear()
                genvars.clear()
                if "(" in line and ");" not in line:
                    # The port list names no directions; the declarations
                    # that follow it do.
                    while i < n:
                        i += 1
                        if ");" in lines[i - 1] or lines[i - 1].strip().rstrip(";") == ")":
                            break
        elif module is None or not word:
            continue
        elif word in _V_DECL_WORDS:
            decl = _V_DECL_RE.match(line)
            if decl:
                direction, kind, msb, lsb, name, dims = decl.groups()
                if direction or kind:
                    bits = (int(msb), int(lsb)) if msb is not None else None
                    module.declare(name, direction, kind, bits, i, dims)
        elif word == "assign":
            m = _V_ASSIGN_RE.match(line)
            if m:
                target, rhs = m.groups()
                width = None
                if "[" in target:
                    width = module.access(target, genvars, {} if loops else constants, "assign", i)
                if width is None:  # a name, or a select the scan cannot place
                    module.drive(target.split("[")[0].rstrip(), "assign", i)
                    width = module.widths.get(target)
                module.read((rhs,) if rhs in module.widths else _v_idents(rhs), i)
                _check_width_pair(report, module, target, width, rhs, i, filename)
        elif word == "always" or word == "initial":
            i = _scan_process(lines, i, module, report, filename)
        elif word == "endmodule":
            module = None
        elif word == "parameter" or word == "integer":
            m = (_V_PARAM_RE if word == "parameter" else _V_INTEGER_RE).match(line)
            if m:
                module.params.add(m.group(1))
        elif word == "genvar":
            module.params.update(_V_NAME_RE.findall(line)[1:])
        elif word == "for":  # a generate loop: `for (gx = 0; gx < 4; ...) begin`
            m = _V_GENFOR_RE.match(line)
            loops.append(m[1] if m else "")
            if m:
                genvars[m[1]] = (int(m[2]), int(m[3]) - 1)
        elif word == "end" and loops:
            genvars.pop(loops.pop(), None)
        elif word not in _V_KEYWORDS:
            inst = _V_INSTANCE_RE.match(line)
            if inst:
                # The connection list runs through the line that closes it.
                first = i
                while i < n:
                    i += 1
                    if ");" in lines[i - 1]:
                        break
                block = "\n".join(lines[first:i])
                pending.append((module, inst.group(1), first + 1, block, dict(genvars)))

    # Resolve instance connections now that all modules are parsed.
    by_name = {mod.name: mod for mod in modules}
    for parent, child_name, line_no, block, env in pending:
        evaluated: dict[str, tuple[int, int] | None] = {}
        child = by_name.get(child_name)
        ports = child.port_dirs if child is not None else {}
        source_label = f"{child_name} output"
        for port, net, expr in _V_CONN_RE.findall(block):
            if not port:
                line_no += 1
                continue
            direction, width = ports.get(port, (None, None))
            expr = net or expr.strip()
            label = source_label if direction == "output" else ""
            have = None if net else parent.access(expr, env, evaluated, label, line_no)
            if have is None:
                if direction != "output":
                    parent.read((net,) if net else _v_idents(expr), line_no)
                elif _V_WORD_RE.fullmatch(base := expr.split("[")[0].rstrip()):
                    parent.drive(base, source_label, line_no)
                have = parent.widths.get(net, width) if net else width
            if width is not None and have != width:
                report.add(
                    LINT_VERILOG_WIDTH_MISMATCH,
                    Severity.ERROR,
                    f"port {port!r} of {child_name!r} is {width} bit(s) wide "
                    f"but is connected to {expr!r} ({have} bit(s))",
                    _span(line_no, 1, filename),
                )

    for mod in modules:
        _check_drivers(report, mod, filename)
    return report


def _elements(boxes: Iterable[Box]) -> set[tuple[int, ...]]:
    return {e for box in boxes for e in itertools.product(*(range(a, b + 1) for a, b in box))}


def _hole(box: Box, cover: tuple[Box, ...]) -> tuple[int, ...] | None:
    """The lowest element of ``box`` that no box of ``cover`` holds, or None."""
    if not cover:
        return tuple(lo for lo, _ in box)
    return min(_elements((box,)) - _elements(cover), default=None)


def _clash(boxes: tuple[Box, ...]) -> tuple[int, ...] | None:
    """The lowest element two of ``boxes`` share, or None."""
    seen: set[tuple[int, ...]] = set()
    for box in boxes:
        elements = _elements((box,))
        if not seen.isdisjoint(elements):
            return min(seen & elements)
        seen |= elements
    return None


def _check_drivers(report: AnalysisReport, mod: _VModule, filename: str | None) -> None:
    """SA330 and SA331 over one parsed module."""
    # An input is driven by the parent, an output reg by a process the
    # scan may not model; a plain net or reg with no driver anywhere is
    # provably floating, and so is a plain output.
    outputs = {name for name, kind in mod.kinds.items() if kind == "output"}
    exempt = mod.params | mod.memories | {
        name for name, kind in mod.kinds.items() if kind[:5] == "input" or kind == "output reg"
    }
    # The chains of one grid share one layout, so each is audited once.
    hole_of, clash_of = functools.cache(_hole), functools.cache(_clash)
    cover = {name: tuple(b for b, src, _ in parts if src) for name, parts in mod.parts.items()}
    candidates = (mod.reads.keys() | mod.parts.keys() | outputs) & mod.kinds.keys()
    for name in sorted(candidates - mod.drivers.keys() - exempt):
        boxes = cover.get(name, ())
        wanted = [(box, ln) for box, src, ln in mod.parts.get(name, ()) if not src]
        if name in mod.reads:
            wanted.insert(0, (mod.spaces[name][0] if name in mod.spaces else (), mod.reads[name]))
        message = "" if wanted or boxes else f"{mod.name}.{name} is an output but never driven"
        for box, line in wanted:
            hole = hole_of(box, boxes)
            if hole is not None:
                element = "".join(f"[{index}]" for index in hole) if boxes else ""
                message = f"{mod.name}.{name}{element} is read (line {line}) but never driven"
                break
        if message:
            span = _span(mod.decl_line[name], 1, filename)
            report.add(LINT_VERILOG_UNDRIVEN, Severity.ERROR, message, span)
    multiple = {name for name, sources in mod.drivers.items() if len(sources) > 1}
    for name in sorted(multiple | {name for name, boxes in cover.items() if boxes}):
        parts = [(src, ln) for _, src, ln in mod.parts.get(name, ()) if src]
        if name in mod.drivers:
            labels = [src for src, _ in mod.drivers[name]]
            if not (parts or len(set(labels)) > 1 or labels.count("assign") > 1):
                continue
            element, sources = "", mod.drivers[name] + parts
        elif (clash := clash_of(cover[name])) is not None:
            element = "".join(f"[{index}]" for index in clash)
            driven = [(box, src, ln) for box, src, ln in mod.parts[name] if src]
            sources = [(src, ln) for box, src, ln in driven if clash in _elements((box,))]
        else:
            continue
        report.add(
            LINT_VERILOG_MULTIDRIVEN,
            Severity.ERROR,
            f"{mod.name}.{name}{element} is driven from multiple sources: "
            + ", ".join(f"{src} (line {ln})" for src, ln in sources),
            _span(sources[0][1], 1, filename),
        )


def _check_width_pair(
    report: AnalysisReport,
    module: _VModule,
    target: str,
    width: int | None,
    rhs: str,
    line_no: int,
    filename: str | None,
) -> None:
    """SA332 on plain identifier-to-identifier assignments; ``width`` is
    the target's (an array element's width for an indexed target)."""
    rhs = rhs.strip()
    rw = module.widths.get(rhs)  # (declared names are identifiers)
    if width is not None and rw is not None and width != rw:
        report.add(
            LINT_VERILOG_WIDTH_MISMATCH,
            Severity.ERROR,
            f"assign joins {target!r} ({width} bit(s)) and {rhs!r} ({rw} bit(s))",
            _span(line_no, 1, filename),
        )


def _block(lines: list[str], line_no: int, text: str) -> Iterator[tuple[int, str]]:
    """The lines of one procedural block, as ``(line number, text)``.

    ``text`` is what follows the block's header on line ``line_no``.
    ``begin`` and ``end`` are matched as tokens, the header's own
    ``begin`` included; a block that never opens one is a single
    statement and ends with the first line that holds a ``;``.
    """
    depth = 0
    opened = False
    while True:
        yield line_no, text
        # (the substring test spares most lines the token scan)
        for token in _V_BLOCK_RE.findall(text) if "end" in text or "begin" in text else ():
            if token == "begin":
                depth += 1
                opened = True
            else:
                depth -= 1
        closed = depth <= 0 if opened else ";" in text
        if closed or line_no == len(lines):
            return
        text = lines[line_no]
        line_no += 1


def _scan_process(
    lines: list[str],
    line_no: int,
    module: _VModule,
    report: AnalysisReport,
    filename: str | None,
) -> int:
    """Walk the ``always``/``initial`` block headed on ``line_no``:
    record its drivers and reads, check SA332/SA333; returns its last
    line.  ``initial`` blocks, and ``always`` blocks with a sensitivity
    list other than ``*`` or ``posedge``, are skipped whole."""
    header_line = line_no
    line = lines[line_no - 1]
    header = _V_ALWAYS_RE.match(line)
    if header is None:
        for line_no, _ in _block(lines, line_no, line):
            pass
        return line_no
    comb = header.group(1) is None
    source_label = f"always@{'*' if comb else 'posedge'}:{header_line}"
    if_count = else_count = 0
    targets: set[str] = set()
    for line_no, text in _block(lines, line_no, line[header.end():]):
        if "if" in text:
            if_count += len(_V_IF_RE.findall(text))
        if "else" in text:
            else_count += len(_V_ELSE_RE.findall(text))
        stmt = _V_STMT_RE.match(text)
        if stmt:
            target, subscript, rhs = stmt.groups()
            if target in module.kinds:
                module.drive(target, source_label, line_no)
                targets.add(target)
            module.read((rhs,) if rhs in module.widths else _v_idents(rhs), line_no)
            if subscript:
                module.read(_v_idents(subscript), line_no)
            else:
                _check_width_pair(
                    report, module, target, module.widths.get(target), rhs, line_no, filename
                )
        else:
            condition = _V_COND_RE.search(text)
            if condition:
                module.read(_v_idents(condition.group(1)), line_no)
    if comb and if_count > else_count and targets:
        report.add(
            LINT_VERILOG_LATCH,
            Severity.WARNING,
            f"combinational always block (line {header_line}) has "
            f"{if_count} if arm(s) but {else_count} else arm(s); "
            f"{sorted(targets)} infer latches on the missing path",
            _span(header_line, 1, filename),
        )
    return line_no


def lint_artifacts(
    design: DesignPoint, artifacts: Mapping[str, str | None]
) -> AnalysisReport:
    """Every emitted artifact through the lints it gets.

    The C family (``testbench``, ``kernel``, ``driver``) gets
    :func:`lint_generated_code`; the two that restate the design point in
    their ``#define`` header also get :func:`lint_against_design`; the
    Verilog (``rtl``) gets :func:`lint_verilog`.  An artifact that is
    absent or None — the RTL of a design that backend cannot lower — is
    skipped; other keys are ignored.
    """
    report = AnalysisReport()
    for label in ("testbench", "kernel", "driver", "rtl"):
        text = artifacts.get(label)
        if text is None:
            continue
        filename = f"<{label}>"
        if label == "rtl":
            report.extend(lint_verilog(text, filename=filename))
            continue
        report.extend(lint_generated_code(text, filename=filename))
        if label != "driver":
            report.extend(lint_against_design(text, design, filename=filename))
    return report


__all__ = [
    "lint_against_design",
    "lint_artifacts",
    "lint_generated_code",
    "lint_verilog",
]
