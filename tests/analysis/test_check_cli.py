"""The combined checker (`run_checks` / `check_design`) and the CLI."""

import dataclasses
import json

import pytest

from repro.analysis.check import LEVELS, check_design, run_checks
from repro.flow import cli

GOOD = """
#pragma systolic
for (o = 0; o < 16; o++)
  for (i = 0; i < 8; i++)
    for (c = 0; c < 10; c++)
      for (r = 0; r < 10; r++)
        for (p = 0; p < 3; p++)
          for (q = 0; q < 3; q++)
            OUT[o][r][c] += W[o][i][p][q] * IN[i][r+p][c+q];
"""

BAD = GOOD.replace("IN[i][r+p][c+q]", "IN[i*2][r+p][c+q]")


class TestRunChecks:
    def test_full_level_on_good_source(self):
        result = run_checks(GOOD)
        assert result.ok and result.exit_code == 0
        assert result.nest is not None and result.design is not None
        assert set(result.artifacts) == {"testbench", "kernel", "driver", "rtl"}
        assert not [c for c in result.report.codes() if c.startswith("SA33")]

    def test_full_level_lints_the_verilog_a_strict_compile_lints(self, monkeypatch):
        """One artifact-to-lint table (`lint_artifacts`) behind both entry
        points, reaching the three lints by name at call time."""
        from repro.analysis import codegen_lint

        real = codegen_lint.lint_verilog
        seen = []

        def spy(source, *, filename=None):
            seen.append(filename)
            return real(source, filename=filename)

        monkeypatch.setattr(codegen_lint, "lint_verilog", spy)
        result = run_checks(GOOD)
        assert seen == ["<rtl>"]
        assert result.artifacts["rtl"].startswith("// Systolic array RTL")

    def test_full_level_skips_the_verilog_of_an_sa150_design(self, monkeypatch):
        from repro.analysis.diagnostics import AnalysisReport, DiagnosticError, Severity
        from repro.codegen import backend

        def cannot_lower(design, platform):
            report = AnalysisReport()
            report.add("SA150", Severity.ERROR, "not lowerable")
            raise DiagnosticError(report)

        unable = dataclasses.replace(
            backend.BACKENDS["rtl"], emitters=(("rtl", cannot_lower),)
        )
        monkeypatch.setitem(backend.BACKENDS, "rtl", unable)
        result = run_checks(GOOD)
        assert result.ok
        assert set(result.artifacts) == {"testbench", "kernel", "driver"}

    def test_nest_level_stops_before_dse(self):
        result = run_checks(GOOD, level="nest")
        assert result.ok
        assert result.design is None and result.artifacts == {}

    def test_design_level_stops_before_codegen(self):
        """The design level lints no artifact."""
        result = run_checks(GOOD, level="design")
        assert result.ok and result.design is not None
        assert result.artifacts == {}

    def test_bad_source_reports_and_stops(self):
        result = run_checks(BAD)
        assert not result.ok and result.exit_code == 1
        assert "SA110" in result.report.codes()
        assert result.design is None

    def test_no_feasible_design_is_a_diagnostic(self):
        from repro.hw.device import ARRIA10_GT1150
        from repro.model.platform import Platform

        tiny = dataclasses.replace(ARRIA10_GT1150, name="tiny", dsp_blocks=4, bram_blocks=2)
        result = run_checks(GOOD, platform=Platform(device=tiny))
        assert not result.ok and result.design is None
        assert result.report.codes() == ("SA131",)
        assert "no design fitting tiny" in result.report.render()

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            run_checks(GOOD, level="everything")
        assert LEVELS == ("nest", "design", "full")

    def test_check_design_dict_shape(self):
        payload = check_design(GOOD, level="nest")
        assert payload["ok"] is True
        assert payload["level"] == "nest"
        assert payload["nest"] == "user_nest"
        assert payload["design"] is None
        assert payload["diagnostics"] == []
        json.dumps(payload)  # must stay JSON-serializable


def alexnet_conv_source(name):
    from repro.frontend.emit import nest_to_c
    from repro.nn.models import alexnet

    return nest_to_c(alexnet().layer(name).to_loop_nest())


class TestChecksTheShippedDesign:
    """``check`` judges the design and artifacts a compile without DSE
    flags ships, not a design of its own search."""

    @pytest.mark.parametrize("layer", ["conv1", "conv2", "conv3", "conv4", "conv5"])
    def test_check_audits_what_the_compile_ships(self, layer):
        from repro.analysis.diagnostics import DiagnosticError
        from repro.flow.compile import compile_c_source

        source = alexnet_conv_source(layer)
        checked = run_checks(source)
        if not checked.ok:  # conv1's stride-4 subscripts: a strict compile refuses them too
            assert set(checked.report.codes()) == {"SA110"}
            with pytest.raises(DiagnosticError) as err:
                compile_c_source(source, strict=True)
            assert {d.code for d in err.value.diagnostics} == {"SA110"}
            return
        shipped = compile_c_source(source)
        assert checked.design == shipped.evaluation.design
        assert checked.artifacts == {
            "testbench": shipped.testbench_source,
            "kernel": shipped.kernel_source,
            "driver": shipped.driver_source,
            "rtl": shipped.rtl_source,
        }

    def test_verify_cross_checks_the_saved_design(self, tmp_path, capsys):
        from repro.model.serialize import load_design

        source = tmp_path / "conv5.c"
        source.write_text(alexnet_conv_source("conv5"))
        saved = tmp_path / "d.json"
        argv = [str(source), "-q", "--no-cache", "-o", str(tmp_path / "out")]
        assert cli.main([*argv, "--save-design", str(saved)]) == 0
        capsys.readouterr()
        assert cli.main(["verify", str(source), "--json", "--sim-backend", "fast"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["design"] == load_design(saved).signature


class TestCli:
    def _write(self, tmp_path, text, name="layer.c"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_clean_source_exits_zero(self, tmp_path, capsys):
        code = cli.main(["check", self._write(tmp_path, GOOD), "--level", "design"])
        out = capsys.readouterr().out
        assert code == 0
        assert "no issues found" in out
        assert "validated design:" in out

    def test_bad_source_exits_nonzero_with_location(self, tmp_path, capsys):
        path = self._write(tmp_path, BAD)
        code = cli.main(["check", path, "--level", "nest"])
        out = capsys.readouterr().out
        assert code == 1
        assert "SA110" in out
        assert "layer.c" in out  # diagnostics carry the filename
        assert "Traceback" not in out

    def test_json_output(self, tmp_path, capsys):
        code = cli.main(
            ["check", self._write(tmp_path, GOOD), "--level", "nest", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["ok"] is True and payload["level"] == "nest"

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code = cli.main(["check", str(tmp_path / "nope.c")])
        assert code == 2

    def test_no_pragma_flag(self, tmp_path, capsys):
        bare = GOOD.replace("#pragma systolic\n", "")
        path = self._write(tmp_path, bare)
        assert cli.main(["check", path, "--level", "nest"]) == 1
        capsys.readouterr()
        assert cli.main(["check", path, "--level", "nest", "--no-pragma"]) == 0
