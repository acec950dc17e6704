"""End-to-end flow tests: C source in, artifacts + report out."""

import shutil

import pytest

from repro.model.platform import Platform
from repro.dse.explore import DseConfig
from repro.flow.compile import compile_c_source, synthesize_nest, synthesize_network
from repro.flow.report import format_table, render_synthesis_report
from repro.ir.loop import conv_loop_nest
from repro.nn.models import tiny_cnn


SMALL_SRC = """
#pragma systolic
for (o = 0; o < 16; o++)
  for (i = 0; i < 8; i++)
    for (c = 0; c < 7; c++)
      for (r = 0; r < 7; r++)
        for (p = 0; p < 3; p++)
          for (q = 0; q < 3; q++)
            OUT[o][r][c] += W[o][i][p][q] * IN[i][r+p][c+q];
"""

FAST = DseConfig(min_dsp_utilization=0.0, vector_choices=(2, 4), top_n=3)


class TestCompileCSource:
    @pytest.fixture(scope="class")
    def result(self):
        return compile_c_source(SMALL_SRC, Platform(), FAST, name="small")

    def test_produces_all_artifacts(self, result):
        assert "__kernel void systolic_conv" in result.kernel_source
        assert "clEnqueueTask" in result.host_source
        assert "TESTBENCH" in result.testbench_source
        assert "KERNEL" in result.driver_source

    def test_simulation_attached(self, result):
        assert result.measurement.seconds > 0
        assert result.throughput_gops > 0

    def test_report_renders(self, result):
        text = render_synthesis_report(result)
        assert "PE array" in text
        assert "MHz" in text

    def test_pragma_required(self):
        bare = SMALL_SRC.replace("#pragma systolic\n", "")
        with pytest.raises(ValueError, match="pragma"):
            compile_c_source(bare, Platform(), FAST)
        # but optional when asked
        result = compile_c_source(bare, Platform(), FAST, require_pragma=False)
        assert result.throughput_gops > 0

    @pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler")
    def test_generated_testbench_actually_passes(self, result):
        from repro.codegen.testbench import run_testbench

        run = run_testbench(result.testbench_source)
        assert run.passed, run.output


class TestSynthesizeNest:
    def test_single_layer_flow(self):
        nest = conv_loop_nest(16, 8, 7, 7, 3, 3, name="layer")
        result = synthesize_nest(nest, Platform(), FAST)
        assert result.evaluation.feasible
        assert result.configs_tuned <= result.configs_enumerated

    def test_measured_close_to_estimate(self):
        nest = conv_loop_nest(256, 128, 28, 28, 3, 3, name="vgg_like")
        result = synthesize_nest(
            nest, Platform(), DseConfig(min_dsp_utilization=0.5, vector_choices=(8,), top_n=3)
        )
        est = result.evaluation.throughput_gops
        sim = result.throughput_gops
        assert sim <= est * (1 + 1e-9)
        assert sim >= est * 0.9


class TestSynthesizeNetwork:
    def test_tiny_network(self):
        synthesis = synthesize_network(tiny_cnn(), Platform(), FAST)
        assert synthesis.latency_ms > 0
        assert "__kernel" in synthesis.kernel_source
        assert len(synthesis.result.layers) == 3


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["a", "bbbb"], [["x", 1], ["yyy", 22]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("a    bbbb")
        assert "yyy  22" in text

    def test_numbers_stringified(self):
        text = format_table(["v"], [[1.5]])
        assert "1.5" in text


class TestCli:
    def test_cli_on_source_file(self, tmp_path, capsys):
        from repro.flow.cli import main

        src = tmp_path / "layer.c"
        src.write_text(SMALL_SRC)
        out_dir = tmp_path / "out"
        code = main([
            str(src), "-o", str(out_dir), "--cs", "0.0", "--top-n", "2",
        ])
        assert code == 0
        assert (out_dir / "kernel.cl").exists()
        assert (out_dir / "host.cpp").exists()
        assert (out_dir / "testbench.c").exists()
        assert (out_dir / "report.txt").exists()
        assert "PE array" in capsys.readouterr().out

    def test_cli_network_mode(self, tmp_path, capsys):
        from repro.flow.cli import main

        out_dir = tmp_path / "out"
        code = main([
            "--network", "tiny_cnn", "-o", str(out_dir), "--cs", "0.0",
        ])
        assert code == 0
        assert (out_dir / "kernel.cl").exists()
        assert "per-layer performance" in capsys.readouterr().out

    def test_cli_requires_exactly_one_input(self, capsys):
        from repro.flow.cli import main

        assert main([]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_cli_fixed_point_flags(self, tmp_path, capsys):
        from repro.flow.cli import main

        src = tmp_path / "layer.c"
        src.write_text(SMALL_SRC)
        out_dir = tmp_path / "out"
        code = main([
            str(src), "-o", str(out_dir),
            "--datatype", "fixed8_16", "--cs", "0.0", "--top-n", "2",
            "--clock", "250",
        ])
        assert code == 0
        kernel = (out_dir / "kernel.cl").read_text()
        assert "signed char" in kernel  # 8-bit weights made it to codegen
        assert "fixed8_16" in kernel

    def test_cli_save_design_round_trips(self, tmp_path, capsys):
        from repro.flow.cli import main
        from repro.model.serialize import load_design

        src = tmp_path / "layer.c"
        src.write_text(SMALL_SRC)
        design_path = tmp_path / "design.json"
        code = main([
            str(src), "-o", str(tmp_path / "out"), "--cs", "0.0", "--top-n", "2",
            "--save-design", str(design_path),
        ])
        assert code == 0
        design = load_design(design_path)
        assert design.nest.bounds["o"] == 16
        # a reloaded design regenerates identical artifacts
        from repro.model import Platform
        from repro.codegen import generate_kernel

        regenerated = generate_kernel(design, Platform())
        assert (tmp_path / "out" / "kernel.cl").read_text() == regenerated

    def test_cli_compile_subcommand_alias(self, tmp_path, capsys):
        from repro.flow.cli import main

        src = tmp_path / "layer.c"
        src.write_text(SMALL_SRC)
        out_dir = tmp_path / "out"
        code = main([
            "compile", str(src), "-o", str(out_dir), "--cs", "0.0", "--top-n", "2",
        ])
        assert code == 0
        assert (out_dir / "kernel.cl").exists()

    def test_cli_jobs_flag_same_artifacts(self, tmp_path, capsys):
        from repro.flow.cli import main

        src = tmp_path / "layer.c"
        src.write_text(SMALL_SRC)
        code = main([
            str(src), "-o", str(tmp_path / "a"), "--cs", "0.0", "--top-n", "2",
            "--jobs", "2", "--no-cache",
        ])
        assert code == 0
        code = main([
            str(src), "-o", str(tmp_path / "b"), "--cs", "0.0", "--top-n", "2",
            "--no-cache",
        ])
        assert code == 0
        assert (
            (tmp_path / "a" / "kernel.cl").read_text()
            == (tmp_path / "b" / "kernel.cl").read_text()
        )

    def test_cli_cache_dir_and_progress(self, tmp_path, capsys):
        from repro.flow.cli import main

        src = tmp_path / "layer.c"
        src.write_text(SMALL_SRC)
        argv = [
            str(src), "-o", str(tmp_path / "out"), "--cs", "0.0", "--top-n", "2",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "[dse-phase1]" in first.err  # progress lines on stderr
        assert "cache hit" not in first.err
        assert main(argv) == 0
        second = capsys.readouterr()
        assert "cache hit" in second.err
        assert "(cached)" in second.err  # both the progress line and report
        assert "PE array" in second.out

    @pytest.mark.parametrize(
        "extra",
        [
            ["--sim-backend", "both"],
            ["--save-design", "d.json"],
            ["--sim-backend", "fast", "--save-result", "r.json"],
        ],
    )
    def test_cli_network_refuses_layer_only_options(self, tmp_path, capsys, extra):
        from repro.flow.cli import main

        out_dir = tmp_path / "out"
        extra = [str(tmp_path / e) if e.endswith(".json") else e for e in extra]
        code = main(["--network", "tiny_cnn", "-o", str(out_dir), "--no-cache", *extra])
        assert code == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()  # one stderr line, no traceback
        assert line.startswith("error: ") and "--network" in line
        for flag in extra[::2]:
            assert flag in line
        assert captured.out == ""
        assert not out_dir.exists()  # refused before any work
        assert not list(tmp_path.glob("*.json"))

    def test_cli_quiet_suppresses_progress(self, tmp_path, capsys):
        from repro.flow.cli import main

        src = tmp_path / "layer.c"
        src.write_text(SMALL_SRC)
        code = main([
            str(src), "-o", str(tmp_path / "out"), "--cs", "0.0", "--top-n", "2",
            "--no-cache", "--quiet",
        ])
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_cli_trace_json(self, tmp_path, capsys):
        import json

        from repro.flow.cli import main

        src = tmp_path / "layer.c"
        src.write_text(SMALL_SRC)
        trace = tmp_path / "trace.jsonl"
        code = main([
            str(src), "-o", str(tmp_path / "out"), "--cs", "0.0", "--top-n", "2",
            "--no-cache", "--trace-json", str(trace),
        ])
        assert code == 0
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        stages = [e["stage"] for e in events if e["event"] == "StageFinished"]
        assert stages == [
            "parse", "legality-check", "dse-phase1",
            "dse-phase2", "codegen", "simulate",
        ]

    def test_cli_save_result_round_trips(self, tmp_path, capsys):
        from repro.flow.cli import main
        from repro.model.serialize import load_result

        src = tmp_path / "layer.c"
        src.write_text(SMALL_SRC)
        result_path = tmp_path / "result.json"
        code = main([
            str(src), "-o", str(tmp_path / "out"), "--cs", "0.0", "--top-n", "2",
            "--no-cache", "--save-result", str(result_path),
        ])
        assert code == 0
        result = load_result(result_path)
        assert result.kernel_source == (tmp_path / "out" / "kernel.cl").read_text()
        assert result.throughput_gops > 0

    def test_cli_rejects_unknown_device(self, tmp_path, capsys):
        """A usage error (this test used to pin the KeyError traceback)."""
        from repro.flow.cli import main

        src = tmp_path / "layer.c"
        src.write_text(SMALL_SRC)
        assert main([str(src), "--device", "virtex2", "-o", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: unknown device 'virtex2'")
        assert not (tmp_path / "out").exists()
