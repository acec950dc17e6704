"""RTL backend property suite: emit, lint, simulate, diverge on purpose.

Three contracts, each checked over generated designs rather than a
hand-picked example:

* **Emission** is deterministic, registered behind the backend
  protocol, and every module it produces passes :func:`lint_verilog`
  with zero findings.
* **Execution** of the emitted netlist through the Python RTL
  interpreter is bit-identical to the fast simulator and to the
  cycle-accurate engine the tests keep as an oracle — output tensor
  bytes and every emergent counter.
* **Reachability**: each SA15x conformance diagnostic and each SA33x
  Verilog lint diagnostic is actually emitted by a crafted scenario
  (mirroring the SA14x mutation audit), so a regression cannot
  silently retire a code while the catalog still advertises it.

The native iverilog round-trip runs only where the toolchain exists;
``RTL_REQUIRE_IVERILOG=1`` (the CI conformance job) turns that skip
into a failure.
"""

import dataclasses
import os
import re

import pytest
from hypothesis import HealthCheck, assume, example, given, settings

from repro.analysis.codegen_lint import lint_verilog
from repro.analysis.diagnostics import (
    CODE_CATALOG,
    Diagnostic,
    DiagnosticError,
    Severity,
)
from repro.codegen.backend import BACKENDS, CodegenBackend, get_backend
from repro.codegen.rtl import (
    RTL_MAX_BOX,
    build_rtl_modules,
    generate_rtl,
    plan_rtl,
    rtl_module_hash,
)
from repro.ir.loop import conv_loop_nest
from repro.model.design_point import ArrayShape, DesignPoint
from repro.model.mapping import Mapping
from repro.resilience.faults import FaultPlan, injected
from repro.sim import rtl as rtl_sim
from repro.nn.layers import ConvLayer
from repro.sim.backends import COUNTERS
from repro.sim.engine import SystolicArrayEngine
from repro.sim.fast import FastWavefrontSimulator
from repro.sim.rtl import (
    NetlistSimulator,
    RtlSimulator,
    RtlToolchainUnavailable,
    iverilog_available,
    run_iverilog_check,
)
from repro.verify.conformance import cross_check, synthetic_arrays
from tests.sim.oracle import flat_top_module
from tests.sim.test_feed import feeder_designs
from tests.strategies import seeds, small_designs


def reference_design():
    """The workhorse fixed design: strided, nothing divides anything."""
    nest = conv_loop_nest(4, 2, 5, 5, 3, 3, stride=2, name="rtlprop")
    return DesignPoint.create(
        nest, Mapping("o", "c", "i", "IN", "W"), ArrayShape(2, 3, 2), {"r": 2}
    )


class TestEmission:
    @settings(
        max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(design=small_designs())
    def test_property_emit_is_deterministic_and_lint_clean(self, design):
        """Same design -> same bytes, and the lint finds nothing."""
        source = generate_rtl(design)
        assert generate_rtl(design) == source
        assert rtl_module_hash(generate_rtl(design)) == rtl_module_hash(source)
        report = lint_verilog(source, filename="<rtl>")
        assert not report.diagnostics, [d.render() for d in report.diagnostics]

    def test_rtl_backend_is_registered(self):
        backend = get_backend("rtl")
        assert isinstance(backend, CodegenBackend)
        assert backend.language == "Verilog-2001"
        assert backend.artifacts == ("rtl",)
        assert "rtl" in BACKENDS

    def test_backend_emit_matches_direct_call(self):
        design = reference_design()
        artifacts = get_backend("rtl").emit(design, None)
        assert set(artifacts) == {"rtl"}
        assert artifacts["rtl"] == generate_rtl(design)

    def test_unknown_backend_names_the_options(self):
        with pytest.raises(KeyError, match="rtl"):
            get_backend("vhdl")


#: Strided, dilated, grouped and depthwise layers whose 3x4x2 designs hit
#: clipped last blocks, padding lanes and padding PEs (see test_feed.py).
NAMED_LAYERS = [
    ConvLayer("strided", 3, 4, 11, 11, kernel=3, stride=2),
    ConvLayer("dilated", 3, 5, 9, 9, kernel=3, dilation=2),
    ConvLayer("grouped", 6, 6, 6, 6, kernel=3, pad=1, groups=2),
    ConvLayer("depthwise", 4, 4, 6, 6, kernel=3, pad=1, groups=4),
]

#: A ``pe`` instantiation line: the module name, then overrides or a name.
PE_INSTANCE = re.compile(r"^\s*pe\s*(?:#|\w+\s*\()", re.MULTILINE)


def assert_grid_is_the_flat_netlist(design):
    """The generate grid elaborates to the per-instance netlist, net for
    net and slot for slot."""
    top, pe, plan = build_rtl_modules(design)
    grid = NetlistSimulator(top, {"pe": pe})
    flat = NetlistSimulator(flat_top_module(plan), {"pe": pe})
    for part in ("inputs", "_aliases", "_wires", "_seq", "_regs", "_mems", "slots"):
        assert getattr(grid, part) == getattr(flat, part), part


class TestGridElaboration:
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(design=feeder_designs())
    def test_property_grid_equals_the_flat_oracle(self, design):
        try:
            plan_rtl(design)
        except DiagnosticError:
            assume(False)
        assert_grid_is_the_flat_netlist(design)

    @pytest.mark.parametrize("layer", NAMED_LAYERS, ids=lambda layer: layer.name)
    @pytest.mark.parametrize("shape", [(3, 4, 2), (1, 1, 1), (5, 1, 3)], ids=str)
    def test_named_layers_equal_the_flat_oracle(self, layer, shape):
        design = DesignPoint.create(
            layer.to_loop_nest(),
            Mapping("o", "c", "i", "IN", "W"),
            ArrayShape(*shape),
            {"r": 4},
        )
        assert_grid_is_the_flat_netlist(design)

    def test_text_holds_one_pe_and_grows_with_rows_plus_cols(self):
        """One ``pe`` instantiation at any shape; at one vector width a
        16x16 array's text is at most 4x a 4x4 array's (16x when every
        PE was spelled out)."""
        nest = conv_loop_nest(32, 8, 16, 16, 3, 3, name="size")
        lines = {}
        for rows, cols in [(1, 1), (4, 4), (16, 16), (7, 2)]:
            design = DesignPoint.create(
                nest, Mapping("o", "c", "i", "IN", "W"), ArrayShape(rows, cols, 4)
            )
            source = generate_rtl(design)
            assert len(PE_INSTANCE.findall(source)) == 1, (rows, cols)
            lines[rows, cols] = len(source.splitlines())
        assert lines[16, 16] <= 4 * lines[4, 4], lines


#: The vector lane walks an output subscript: the RTL cannot lower it.
SA150_DESIGN = DesignPoint.create(
    conv_loop_nest(2, 2, 3, 3, 2, 2, name="sa150"),
    Mapping("o", "c", "r", "IN", "W"),
    ArrayShape(2, 2, 2),
    {},
)


def _assert_identical(got, want):
    assert got.output.shape == want.output.shape
    assert got.output.tobytes() == want.output.tobytes()
    for counter in COUNTERS:
        assert getattr(got, counter) == getattr(want, counter), counter


class TestInterpreterIdentity:
    @settings(
        max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(design=feeder_designs(), seed=seeds)
    @example(design=SA150_DESIGN, seed=0)
    def test_property_rtl_equals_engine(self, design, seed):
        """The two product backends and the oracle engine agree bit for
        bit on strided, dilated, grouped and depthwise layers with
        non-dividing tiles; a design the RTL cannot lower (SA150) still
        holds fast to the engine."""
        arrays = synthetic_arrays(design.nest, seed=seed)
        fast = FastWavefrontSimulator(design).run(arrays)
        _assert_identical(fast, SystolicArrayEngine(design).run(arrays))
        try:
            rtl = RtlSimulator(design).run(arrays).result
        except DiagnosticError as exc:
            assert [d.code for d in exc.diagnostics] == ["SA150"]
            return
        _assert_identical(rtl, fast)

    def test_wide_array_compiles_and_equals_engine(self):
        """240 PEs put 240 links on the top's err chain: the generated edge
        function must stay within the parser's nesting limit."""
        nest = conv_loop_nest(16, 8, 3, 3, 1, 1, name="wide")
        design = DesignPoint.create(
            nest, Mapping("o", "c", "i", "IN", "W"), ArrayShape(15, 16, 8)
        )
        arrays = synthetic_arrays(nest, seed=2)
        rtl = RtlSimulator(design).run(arrays).result
        slow = SystolicArrayEngine(design).run(arrays)
        assert rtl.output.tobytes() == slow.output.tobytes()
        assert rtl.pe_active_cycles == slow.pe_active_cycles

    def test_run_is_deterministic(self):
        design = reference_design()
        arrays = synthetic_arrays(design.nest, seed=5)
        first = RtlSimulator(design).run(arrays)
        second = RtlSimulator(design).run(arrays)
        assert first.block_digests == second.block_digests
        assert first.result.output.tobytes() == second.result.output.tobytes()


def _corrupted_run(self, arrays, **kwargs):
    """Flip one output bit — SA151 territory."""
    run = _REAL_RUN(self, arrays, **kwargs)
    output = run.result.output.copy()
    output.flat[0] += 1.0
    return dataclasses.replace(
        run, result=dataclasses.replace(run.result, output=output)
    )


def _slowed_run(self, arrays, **kwargs):
    """Inflate a counter without touching the bits — SA152 territory."""
    run = _REAL_RUN(self, arrays, **kwargs)
    return dataclasses.replace(
        run,
        result=dataclasses.replace(
            run.result, compute_cycles=run.result.compute_cycles + 7
        ),
    )


_REAL_RUN = RtlSimulator.run


class TestSa15xReachability:
    """Every SA15x code is emitted by a concrete scenario.

    ``cross_check`` imports the RTL simulator lazily from
    :mod:`repro.sim.rtl`, so the mutations patch that module's
    attributes, not the conformance module's.
    """

    def test_sa150_vector_in_output_access(self):
        with pytest.raises(DiagnosticError) as err:
            plan_rtl(SA150_DESIGN)
        assert err.value.diagnostics[0].code == "SA150"

    def test_sa150_box_beyond_budget(self):
        nest = conv_loop_nest(256, 1, 128, 128, 1, 1, name="bigbox")
        design = DesignPoint.create(
            nest,
            Mapping("o", "c", "i", "IN", "W"),
            ArrayShape(2, 2, 1),
            {"o": 128, "r": 64, "c": 64},
        )
        with pytest.raises(DiagnosticError) as err:
            plan_rtl(design)
        diag = err.value.diagnostics[0]
        assert diag.code == "SA150"
        assert str(RTL_MAX_BOX) in diag.message

    def test_sa150_degrades_cross_check_to_skips(self):
        nest = conv_loop_nest(2, 2, 3, 3, 2, 2, name="sa150x")
        design = DesignPoint.create(
            nest, Mapping("o", "c", "r", "IN", "W"), ArrayShape(2, 2, 2), {}
        )
        report = cross_check(design, rtl=True)
        assert "SA150" in {d.code for d in report.report.diagnostics}
        for name in ("rtl-vs-fast", "rtl-cycles-vs-model", "rtl-vs-iverilog"):
            assert report.leg(name).status == "skipped"

    def test_sa151_output_corruption_is_caught(self, monkeypatch):
        monkeypatch.setattr(rtl_sim.RtlSimulator, "run", _corrupted_run)
        report = cross_check(reference_design(), rtl=True)
        assert not report.ok
        assert "SA151" in {d.code for d in report.report.diagnostics}
        assert report.leg("rtl-vs-fast").status == "mismatch"
        assert "output differs" in report.leg("rtl-vs-fast").detail

    def test_sa152_cycle_divergence_is_caught(self, monkeypatch):
        monkeypatch.setattr(rtl_sim.RtlSimulator, "run", _slowed_run)
        report = cross_check(reference_design(), rtl=True)
        assert not report.ok
        assert "SA152" in {d.code for d in report.report.diagnostics}
        assert report.leg("rtl-cycles-vs-model").status == "mismatch"
        assert "compute_cycles" in report.leg("rtl-cycles-vs-model").detail

    def test_sa153_missing_toolchain_is_a_note_in_auto(self, monkeypatch):
        monkeypatch.setattr(rtl_sim, "iverilog_available", lambda: False)
        report = cross_check(reference_design(), rtl=True)
        assert report.ok, report.render()
        assert "SA153" in {d.code for d in report.report.diagnostics}
        assert report.leg("rtl-vs-iverilog").status == "skipped"

    def test_sa153_missing_toolchain_fails_under_require(self, monkeypatch):
        def _unavailable(design, arrays, **kwargs):
            raise RtlToolchainUnavailable(
                Diagnostic("SA153", Severity.ERROR, "iverilog not found")
            )

        monkeypatch.setattr(rtl_sim, "run_iverilog_check", _unavailable)
        report = cross_check(reference_design(), rtl=True, iverilog="require")
        assert not report.ok
        assert "SA153" in {d.code for d in report.report.diagnostics}
        assert report.leg("rtl-vs-iverilog").status == "mismatch"

    def test_audit_every_sa15x_code_is_reachable(self):
        """Catalog parity: this class exercises every registered SA15x."""
        registered = {c for c in CODE_CATALOG if c.startswith("SA15")}
        assert registered == {"SA150", "SA151", "SA152", "SA153"}


SA33X_SNIPPETS = {
    "SA330": """
module m(input clk, output reg [7:0] q);
  wire [7:0] ghost;
  always @(posedge clk) begin
    q <= ghost;
  end
endmodule
""",
    "SA331": """
module m(input [7:0] a, input [7:0] b, output [7:0] y);
  assign y = a;
  assign y = b;
endmodule
""",
    "SA332": """
module m(a, y);
  input [7:0] a;
  output [15:0] y;
  assign y = a;
endmodule
""",
    "SA333": """
module m(sel, a, y);
  input sel;
  input [7:0] a;
  output reg [7:0] y;
  always @* begin
    if (sel) begin
      y = a;
    end
  end
endmodule
""",
}


#: Complete modules the always-block walker must read to the matching
#: ``end``: each is clean, or fires exactly the codes listed.  On the
#: scanner that started after the header line and counted ``begin`` /
#: ``end`` as substrings, every one of them produced something else.
ALWAYS_WALKER_SNIPPETS = {
    "else-arm-on-its-own-line": (
        """
module m(sel, a, b, y);
  input sel;
  input [7:0] a;
  input [7:0] b;
  output reg [7:0] y;
  always @* begin
    if (sel) begin
      y = a;
    end
    else begin
      y = b;
    end
  end
endmodule
""",
        [],
    ),
    "second-statement-drives": (
        """
module m(clk, a, y);
  input clk;
  input [7:0] a;
  output [7:0] y;
  reg [7:0] held;
  reg [7:0] q;
  always @(posedge clk) begin
    held <= a;
    q <= held;
  end
  assign y = q;
endmodule
""",
        [],
    ),
    "begin-end-inside-names": (
        """
module m(clk, a, y);
  input clk;
  input [7:0] a;
  output [7:0] y;
  reg [7:0] begin_r;
  reg [7:0] w_end;
  reg [7:0] pending;
  always @(posedge clk) begin
    begin_r <= a;
    w_end <= begin_r;
    pending <= w_end;
  end
  assign y = pending;
endmodule
""",
        [],
    ),
    "two-clocked-blocks": (
        """
module m(clk, a, b, y);
  input clk;
  input [7:0] a;
  input [7:0] b;
  output [7:0] y;
  reg [7:0] p;
  reg [7:0] q;
  always @(posedge clk) begin
    p <= a;
    q <= a;
  end
  always @(posedge clk) begin
    p <= b;
    q <= b;
  end
  assign y = p & q;
endmodule
""",
        ["SA331", "SA331"],
    ),
    "two-one-line-blocks": (
        """
module m(a, b, y);
  input [7:0] a;
  input [7:0] b;
  output reg [7:0] y;
  always @* y = a;
  always @* y = b;
endmodule
""",
        ["SA331"],
    ),
    "nonblocking-width-mismatch": (
        """
module m(clk, a, q);
  input clk;
  input [7:0] a;
  output reg [15:0] q;
  always @(posedge clk) begin
    q <= a;
  end
endmodule
""",
        ["SA332"],
    ),
    "nested-if-without-else": (
        """
module m(sel, en, a, b, y);
  input sel;
  input en;
  input [7:0] a;
  input [7:0] b;
  output reg [7:0] y;
  always @* begin
    if (sel) begin
      y = a;
    end
    else begin
      if (en) begin
        y = b;
      end
    end
  end
endmodule
""",
        ["SA333"],
    ),
}


#: A 2x3 generate grid of a one-bit relay: ``c`` is a row chain joined to
#: the ports by two assigns, ``e`` a flat vector ORed into ``err``.
_GRID = """
module cell(clk, d, q, e);
  input clk;
  input d;
  output reg q;
  output e;
  always @(posedge clk) begin
    q <= d;
  end
  assign e = q;
endmodule

module top(clk, d_0, d_1, err);
  input clk;
  input d_0;
  input d_1;
  output err;
  wire c [0:1][0:3];
  wire [5:0] e;
  assign c[0][0] = d_0;
  assign c[1][0] = d_1;
  assign err = |e;
  genvar gx, gy;
  generate
    for (gx = 0; gx < 2; gx = gx + 1) begin : row
      for (gy = 0; gy < 3; gy = gy + 1) begin : col
        cell u (
          .clk(clk),
          .d(c[gx][gy]),
          .q(c[gx][gy + 1]),
          .e(e[gx * 3 + gy])
        );
      end
    end
  endgenerate
endmodule
"""

#: Edits of :data:`_GRID` -> the findings they must produce.
GRID_EDITS = {
    "clean": ("", "", []),
    "missing-join": ("  assign c[1][0] = d_1;\n", "", [("SA330", "top.c[1][0] is read")]),
    "link-down-not-along": (
        ".q(c[gx][gy + 1])",
        ".q(c[gx + 1][gy])",
        [("SA330", "top.c[0][1] is read (line 29)"), ("SA331", "top.c[1][0]")],
    ),
    "join-overlaps-the-loop": (
        "assign c[1][0] = d_1;",
        "assign c[1][0] = d_1;\n  assign c[1][2] = d_1;",
        [
            (
                "SA331",
                "top.c[1][2] is driven from multiple sources: "
                "assign (line 22), cell output (line 31)",
            )
        ],
    ),
    "join-width": ("input d_1;", "input [1:0] d_1;", [("SA332", "'c[1][0]' (1 bit(s))")]),
    "vector-too-long": ("wire [5:0] e;", "wire [6:0] e;", [("SA330", "top.e[6] is read")]),
    "link-width": ("wire c [0:1][0:3];", "wire [3:0] c [0:1][0:3];", ["SA332"] * 4),
}


class TestGenerateGrid:
    """How the lint reads a generate loop over net arrays."""

    @pytest.mark.parametrize("case", sorted(GRID_EDITS))
    def test_grid_edit_fires_exactly_its_findings(self, case):
        old, new, want = GRID_EDITS[case]
        source = _GRID.replace(old, new, 1) if old else _GRID
        assert old == "" or source != _GRID
        found = lint_verilog(source).diagnostics
        if want and isinstance(want[0], str):
            assert [d.code for d in found] == want, [d.render() for d in found]
            return
        assert [d.code for d in found] == [code for code, _ in want], [
            d.render() for d in found
        ]
        for diagnostic, (_, text) in zip(found, want):
            assert text in diagnostic.message

    def test_floating_plain_output_is_undriven(self):
        """A plain ``output`` nothing drives floats even when nothing in
        its module reads it; an ``output reg`` is left to the processes."""
        source = """
module m(a, y, q);
  input a;
  output y;
  output reg q;
endmodule
"""
        found = lint_verilog(source).diagnostics
        assert [(d.code, d.message) for d in found] == [
            ("SA330", "m.y is an output but never driven")
        ]

    def test_output_driven_through_an_unplaced_select_is_driven(self):
        """A select the scan cannot evaluate drives the whole net."""
        source = """
module cell(a, q);
  input a;
  output q;
  assign q = a;
endmodule

module m(a, y, z);
  parameter K = 1;
  input a;
  output [1:0] y;
  output [1:0] z;
  assign y[K] = a;
  cell u (
    .a(a),
    .q(z[K])
  );
endmodule
"""
        assert not lint_verilog(source).diagnostics


class TestSa33xReachability:
    @pytest.mark.parametrize("case", sorted(ALWAYS_WALKER_SNIPPETS))
    def test_always_block_is_walked_to_its_matching_end(self, case):
        source, codes = ALWAYS_WALKER_SNIPPETS[case]
        report = lint_verilog(source)
        assert [d.code for d in report.diagnostics] == codes, report.render()

    def test_multidriven_names_both_blocks(self):
        source, _ = ALWAYS_WALKER_SNIPPETS["two-clocked-blocks"]
        first, second = lint_verilog(source).diagnostics
        assert "m.p" in first.message and "m.q" in second.message
        assert "always@posedge:9 (line 11), always@posedge:13 (line 15)" in second.message

    @pytest.mark.parametrize("code", sorted(SA33X_SNIPPETS))
    def test_snippet_fires_exactly_its_code(self, code):
        report = lint_verilog(SA33X_SNIPPETS[code])
        assert [d.code for d in report.diagnostics] == [code]

    def test_audit_every_sa33x_code_is_reachable(self):
        registered = {c for c in CODE_CATALOG if c.startswith("SA33")}
        assert registered == set(SA33X_SNIPPETS)

    def test_clean_module_has_no_findings(self):
        clean = """
module m(input [7:0] a, output [7:0] y);
  assign y = a;
endmodule
"""
        assert not lint_verilog(clean).diagnostics


_IVERILOG_REQUIRED = os.environ.get("RTL_REQUIRE_IVERILOG", "") not in ("", "0")


class TestIverilogRoundTrip:
    """Native execution of the emitted Verilog, where the tool exists."""

    @pytest.mark.skipif(
        not iverilog_available() and not _IVERILOG_REQUIRED,
        reason="iverilog not on PATH (set RTL_REQUIRE_IVERILOG=1 to force)",
    )
    def test_iverilog_matches_interpreter_bit_for_bit(self):
        design = reference_design()
        arrays = synthetic_arrays(design.nest, seed=1)
        check = run_iverilog_check(design, arrays)
        assert check.ok, check.detail
        assert check.mismatches == 0
        assert check.words > 0

    def test_unavailable_toolchain_raises_sa153(self):
        design = reference_design()
        arrays = synthetic_arrays(design.nest, seed=1)
        with injected(FaultPlan.parse("rtl.compile:crash")):
            with pytest.raises(RtlToolchainUnavailable) as err:
                run_iverilog_check(design, arrays)
        assert err.value.diagnostic.code == "SA153"

    def test_which_miss_means_unavailable(self, monkeypatch):
        monkeypatch.setattr(rtl_sim.shutil, "which", lambda _: None)
        assert not iverilog_available()
