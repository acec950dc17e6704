"""Tests for the combined report generator."""

import pytest

from repro.experiments.common import ExperimentResult, relative_error
from repro.experiments import report_all


class TestExperimentResultHelpers:
    def test_relative_error(self):
        assert relative_error(110, 100) == pytest.approx(0.1)
        with pytest.raises(ValueError):
            relative_error(1, 0)

    def test_format_includes_metrics_and_notes(self):
        result = ExperimentResult("X", "desc", ["a"], metrics={"m": 1.25})
        result.add_row("v")
        result.note("hello")
        text = result.format()
        assert "X: desc" in text
        assert "m: 1.25" in text
        assert "note: hello" in text


class TestReportAll:
    def test_driver_list_covers_all_exhibits(self):
        labels = [label for label, _ in report_all.DRIVERS]
        assert labels == [
            "Table 1", "Section 2.3", "Figure 3", "Section 4",
            "Figure 7(a)", "Figure 7(b)", "Table 3", "Table 4",
            "Table 5", "Table 2",
            "Ablation: pruning semantics", "Ablation: deployment",
            "Ablation: roofline baseline", "Ablation: clock surrogate",
        ]

    def test_generate_report_with_stubbed_drivers(self, monkeypatch):
        stub = ExperimentResult("Stub", "stubbed", ["col"])
        stub.add_row("value")
        monkeypatch.setattr(report_all, "DRIVERS", [("Stub", lambda: stub)])
        text = report_all.generate_report(echo=False)
        assert "Stub: stubbed" in text
        assert "regenerated in" in text

    def test_main_writes_output_file(self, monkeypatch, tmp_path, capsys):
        stub = ExperimentResult("Stub", "stubbed", ["col"])
        monkeypatch.setattr(report_all, "DRIVERS", [("Stub", lambda: stub)])
        out = tmp_path / "report.txt"
        assert report_all.main(["-o", str(out)]) == 0
        assert "Stub" in out.read_text()

    def test_fast_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            report_all.main(["--fast"])
        assert exit_info.value.code == 2
        assert "--fast" in capsys.readouterr().err
