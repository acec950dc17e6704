"""The combined checker (`run_checks` / `check_design`) and the CLI."""

import dataclasses
import json

import pytest

from repro.analysis.check import LEVELS, check_design, run_checks
from repro.dse.explore import DseConfig
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

FAST = DseConfig(min_dsp_utilization=0.0, vector_choices=(2, 4), top_n=1)


class TestRunChecks:
    def test_full_level_on_good_source(self):
        result = run_checks(GOOD, dse_config=FAST)
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
        result = run_checks(GOOD, dse_config=FAST)
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
        result = run_checks(GOOD, dse_config=FAST)
        assert result.ok
        assert set(result.artifacts) == {"testbench", "kernel", "driver"}

    def test_nest_level_stops_before_dse(self):
        result = run_checks(GOOD, level="nest")
        assert result.ok
        assert result.design is None and result.artifacts == {}

    def test_design_level_stops_before_codegen(self):
        result = run_checks(GOOD, level="design", dse_config=FAST)
        assert result.ok and result.design is not None
        assert result.artifacts == {}

    def test_bad_source_reports_and_stops(self):
        result = run_checks(BAD, dse_config=FAST)
        assert not result.ok and result.exit_code == 1
        assert "SA110" in result.report.codes()
        assert result.design is None

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
