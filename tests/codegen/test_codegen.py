"""Code-generation tests.

The heavyweight checks compile generated C with the system compiler and
execute it against a naive reference — true end-to-end validation of the
emitted designs.  They are skipped cleanly where no C compiler exists.
"""

import shutil
import subprocess
from pathlib import Path

import pytest

from repro.hw.datatype import FIXED_8_16
from repro.ir.access import ArrayAccess
from repro.ir.loop import Loop, LoopNest, conv_loop_nest
from repro.model.design_point import ArrayShape, DesignPoint
from repro.model.mapping import Mapping, array_roles, feasible_mappings
from repro.model.platform import Platform
from repro.codegen.emitter import CodeWriter
from repro.codegen.host import generate_host
from repro.codegen.opencl import OPENCL_SHIM, generate_kernel, generate_kernel_driver
from repro.codegen.testbench import generate_testbench, run_testbench

HAVE_CC = shutil.which("gcc") is not None
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler available")

FIXED = Platform().with_datatype(FIXED_8_16)
ALT_NEST = conv_loop_nest(6, 4, 5, 5, 2, 2, name="alt")


def small_design(middle=None, shape=ArrayShape(3, 4, 2)):
    nest = conv_loop_nest(16, 8, 7, 7, 3, 3, name="small")
    return DesignPoint.create(
        nest, Mapping("o", "c", "i", "IN", "W"), shape,
        middle or {"i": 2, "r": 3, "p": 3, "q": 3},
    )


class TestCodeWriter:
    def test_indentation(self):
        w = CodeWriter()
        w.line("a;")
        with w.indented():
            w.line("b;")
        w.line("c;")
        assert w.render() == "a;\n    b;\nc;\n"

    def test_block(self):
        w = CodeWriter()
        with w.block("if (x)"):
            w.line("y;")
        assert w.render() == "if (x) {\n    y;\n}\n"

    def test_blank_lines_unindented(self):
        w = CodeWriter()
        with w.indented():
            w.line()
        assert w.render() == "\n"


class TestGeneratedText:
    def test_testbench_mentions_design_parameters(self):
        src = generate_testbench(small_design(), Platform())
        assert "#define T_o 3" in src
        assert "#define S_i 2" in src
        assert "systolic_blocked" in src
        assert "reference" in src

    def test_kernel_structure(self):
        src = generate_kernel(small_design(), Platform())
        assert "__kernel void systolic_conv" in src
        assert "#pragma unroll" in src
        assert "w_reg" in src and "in_reg" in src
        assert "buf_OUT[2]" in src  # double-buffered output

    def test_kernel_fixed_point_types(self):
        src = generate_kernel(small_design(), Platform().with_datatype(FIXED_8_16))
        assert "signed char" in src  # 8-bit weights
        assert "short" in src  # 16-bit pixels

    def test_host_structure(self):
        src = generate_host(small_design(), Platform())
        assert "clCreateProgramWithBinary" in src
        assert "clEnqueueTask" in src  # single work-item launch
        assert "systolic_conv" in src
        assert "CL_CHECK" in src

    def test_operand_c_types_follow_array_roles(self):
        """Pointwise nest: the rank-2 read is *named* W, so the model
        prices it as the 8-bit weight and the rank-3 IN as the 16-bit
        input — and every artifact must declare them that way."""
        nest = LoopNest(
            (Loop("o", 4), Loop("i", 4), Loop("r", 3), Loop("c", 3)),
            (
                ArrayAccess.parse("OUT", ["o", "r", "c"], is_write=True),
                ArrayAccess.parse("W", ["o", "i"]),
                ArrayAccess.parse("IN", ["i", "r", "c"]),
            ),
            name="pointwise",
        )
        assert array_roles(nest) == {"OUT": "output", "W": "weight", "IN": "input"}
        design = DesignPoint.create(
            nest, Mapping("o", "c", "i", "IN", "W"), ArrayShape(2, 3, 2), {"r": 3}
        )
        declarations = {
            generate_kernel: ("__global signed char * const restrict g_W",
                              "__global short * const restrict g_IN",
                              "signed char w_reg[", "short in_reg["),
            generate_kernel_driver: ("static signed char A_W[", "static short A_IN["),
            generate_testbench: ("static signed char W[", "static short IN["),
            generate_host: ("std::vector<signed char> h_W(", "std::vector<short> h_IN("),
        }
        for emit, expected in declarations.items():
            src = emit(design, FIXED)
            for declaration in expected:
                assert declaration in src, (emit.__name__, declaration)

    def test_rejects_non_identifier_array(self):
        nest = LoopNest(
            (Loop("a", 2), Loop("b", 2), Loop("k", 2)),
            (
                ArrayAccess.parse("out-array", ["a", "b"], is_write=True),
                ArrayAccess.parse("A", ["a", "k"]),
                ArrayAccess.parse("B", ["k", "b"]),
            ),
        )
        design = DesignPoint.create(
            nest, Mapping("b", "a", "k", "A", "B"), ArrayShape(2, 2, 2)
        )
        with pytest.raises(ValueError):
            generate_testbench(design, Platform())


@needs_cc
class TestCompiledTestbench:
    def test_float_testbench_passes(self):
        run = run_testbench(generate_testbench(small_design(), Platform()))
        assert run.passed, run.output

    def test_fixed_testbench_passes_exactly(self):
        platform = Platform().with_datatype(FIXED_8_16)
        run = run_testbench(generate_testbench(small_design(), platform))
        assert run.passed, run.output
        assert "exact" in run.output

    def test_awkward_shape_testbench(self):
        """Shape dividing nothing: guards and padding must still hold."""
        design = small_design(shape=ArrayShape(5, 3, 4), middle={"r": 2, "p": 2})
        run = run_testbench(generate_testbench(design, Platform()))
        assert run.passed, run.output

    def test_strided_design_testbench(self):
        """Unfolded strided conv: subscripts 2*r + p flow through codegen."""
        nest = conv_loop_nest(8, 4, 5, 5, 3, 3, stride=2, name="strided")
        design = DesignPoint.create(
            nest, Mapping("o", "c", "i", "IN", "W"), ArrayShape(2, 5, 2), {"r": 5, "p": 3, "q": 3}
        )
        run = run_testbench(generate_testbench(design, Platform()))
        assert run.passed, run.output

    @pytest.mark.parametrize("mapping_index", [0, 5, 11])
    def test_alternative_mappings_generate_correct_code(self, mapping_index):
        nest = conv_loop_nest(6, 4, 5, 5, 2, 2, name="alt")
        mapping = feasible_mappings(nest)[mapping_index]
        design = DesignPoint.create(nest, mapping, ArrayShape(2, 3, 2), {"p": 2, "q": 2})
        run = run_testbench(generate_testbench(design, Platform()))
        assert run.passed, run.output


@needs_cc
class TestCompiledKernel:
    def run_kernel(self, design, platform, tmp_path):
        """Build ``driver.c`` + ``kernel.cl`` + ``opencl_shim.h`` the way
        ``--sim-backend testbench`` does."""
        outcome = run_testbench(
            generate_kernel_driver(design, platform),
            workdir=tmp_path,
            extra_files={
                "kernel.cl": generate_kernel(design, platform),
                "opencl_shim.h": OPENCL_SHIM,
            },
            marker="KERNEL PASS",
        )
        return outcome.passed, outcome.output

    @pytest.mark.parametrize("platform", [Platform(), FIXED], ids=["float32", "fixed8_16"])
    @pytest.mark.parametrize(
        "mapping",
        feasible_mappings(ALT_NEST),
        ids=lambda m: f"{m.row}{m.col}{m.vector}-{m.vertical_array}down",
    )
    def test_every_feasible_mapping_ships_a_correct_kernel(self, mapping, platform, tmp_path):
        """The shift chains follow ``Mapping.vertical_array`` /
        ``horizontal_array``: W on the vertical chain (6 of the 12) used
        to be wired by tensor rank and printed KERNEL FAIL."""
        design = DesignPoint.create(ALT_NEST, mapping, ArrayShape(2, 3, 2), {"p": 2, "q": 2})
        ok, out = self.run_kernel(design, platform, tmp_path)
        assert ok, out

    @pytest.mark.slow
    def test_alexnet_conv2_winner_ships_a_correct_lint_clean_kernel(self, tmp_path):
        """A real DSE winner with W on the vertical chain."""
        from repro.analysis.codegen_lint import lint_artifacts
        from repro.codegen.backend import BACKENDS
        from repro.dse.explore import DseConfig, explore
        from repro.dse.multi_layer import prepare_network_nests
        from repro.nn import models

        nests = {w.name: w.nest for w in prepare_network_nests(models.alexnet())}
        design = explore(nests["conv2"], Platform(), DseConfig()).best.design
        assert design.mapping.vertical_array == "W"
        ok, out = self.run_kernel(design, Platform(), tmp_path)
        assert ok, out
        artifacts = {}
        for backend in BACKENDS.values():
            artifacts.update(backend.emit(design, Platform()))
        assert list(lint_artifacts(design, artifacts)) == []

    def test_float_kernel_runs_correctly(self, tmp_path):
        ok, out = self.run_kernel(small_design(), Platform(), tmp_path)
        assert ok, out

    def test_fixed_kernel_runs_exactly(self, tmp_path):
        ok, out = self.run_kernel(small_design(), FIXED, tmp_path)
        assert ok, out

    def test_kernel_is_valid_without_execution(self, tmp_path):
        """Syntax-only check via -fsyntax-only and the shim."""
        (tmp_path / "opencl_shim.h").write_text(OPENCL_SHIM)
        src = '#include "opencl_shim.h"\n' + generate_kernel(small_design(), Platform())
        (tmp_path / "k.c").write_text(src)
        result = subprocess.run(
            ["gcc", "-std=c99", "-fsyntax-only", "-I", str(tmp_path), str(tmp_path / "k.c")],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
