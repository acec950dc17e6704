"""Pipeline-level graceful degradation and SA5xx reachability.

Mutation-style coverage: every registered SA5xx diagnostic code must be
*producible* by an actual recovery scenario (mirroring the SA401–SA404
conformance tests), so a future refactor cannot silently orphan a code.
"""

import json

import pytest

from repro.analysis.diagnostics import CODE_CATALOG
from repro.model.platform import Platform
from repro.dse.explore import DseConfig
from repro.flow.compile import compile_c_source
from repro.pipeline.events import FaultInjected, StageDegraded, StageRetried
from repro.resilience.faults import FaultPlan, activate, deactivate, injected

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


class Recorder:
    """Event observer collecting retry/degrade/fault events."""

    def __init__(self):
        self.retried = []
        self.degraded = []
        self.faults = []

    def __call__(self, event):
        if isinstance(event, StageRetried):
            self.retried.append(event)
        elif isinstance(event, StageDegraded):
            self.degraded.append(event)
        elif isinstance(event, FaultInjected):
            self.faults.append(event)


def compile_small(*, cache=False, observers=(), **kwargs):
    return compile_c_source(
        SMALL_SRC,
        Platform(),
        FAST,
        name="small",
        cache=cache,
        observers=list(observers),
        **kwargs,
    )


class TestSimulateDegradation:
    def test_unavailable_toolchain_degrades_to_fast_backend(self):
        """SA504: a dead compiler downgrades --sim-backend testbench to
        the fast wavefront simulator instead of failing the pipeline."""
        recorder = Recorder()
        with injected(FaultPlan.parse("testbench.compile:crash")):
            result = compile_small(sim_backend="testbench", observers=[recorder])
        assert ("SA504", ) in {(code,) for code, _ in result.degradations}
        assert result.engine_result is not None  # the fast backend ran
        codes = [e.code for e in recorder.degraded]
        assert "SA504" in codes
        assert any(e.fallback == "fast" for e in recorder.degraded)

    def test_sim_step_faults_are_retried(self):
        recorder = Recorder()
        with injected(FaultPlan.parse("sim.step:crash:times=1")):
            result = compile_small(sim_backend="fast", observers=[recorder])
        assert result.engine_result is not None
        assert recorder.retried  # the injected crash cost one retry

    def test_clean_run_reports_no_degradations(self):
        with injected(FaultPlan()):
            result = compile_small()
        assert result.degradations == ()


class TestCacheDegradation:
    def test_corrupt_cached_payload_is_quarantined_and_recomputed(self, tmp_path):
        """SA501: a structurally-bad cache entry degrades to a recompute
        whose result is bit-identical to the cold run."""
        cache_dir = tmp_path / "cache"
        with injected(FaultPlan()):
            cold = compile_small(cache=cache_dir)
            # Garble every stored codegen payload: still valid JSON, but
            # missing the keys the stage codec needs.
            payloads = list((cache_dir / "codegen").glob("*.json"))
            assert payloads
            for path in payloads:
                path.write_text(json.dumps({"__corrupt__": True}))
            recorder = Recorder()
            warm = compile_small(cache=cache_dir, observers=[recorder])
        assert warm == cold
        assert any(e.code == "SA501" for e in recorder.degraded)
        assert ("SA501",) in {(code,) for code, _ in warm.degradations}
        assert list((cache_dir / "codegen").glob("*.json.corrupt"))

    def test_unparseable_cache_file_reports_sa501(self, tmp_path):
        """SA501 too: a layer ``codegen`` entry that no longer parses is
        reported like one that parses but does not decode."""
        cache_dir = tmp_path / "cache"
        with injected(FaultPlan()):
            cold = compile_small(cache=cache_dir)
            (path,) = (cache_dir / "codegen").glob("*.json")
            cut = path.read_text()[:40]
            path.write_text(cut)
            recorder = Recorder()
            warm = compile_small(cache=cache_dir, observers=[recorder])
        assert warm == cold
        assert [(e.stage, e.code) for e in recorder.degraded] == [("codegen", "SA501")]
        assert [code for code, _ in warm.degradations] == ["SA501"]
        assert path.with_suffix(".json.corrupt").read_text() == cut


@pytest.mark.slow
class TestDseDegradationEvents:
    def test_worker_crashes_surface_sa502_and_sa503(self):
        """SA502 (resubmission) and SA503 (serial fallback) both reach
        the event stream and the result's degradation record."""
        recorder = Recorder()
        activate(FaultPlan.parse("dse.worker:crash", seed=7), export_env=True)
        try:
            result = compile_small(jobs=2, observers=[recorder])
        finally:
            deactivate(clear_env=True)
        degradation_codes = {code for code, _ in result.degradations}
        assert "SA502" in degradation_codes
        assert "SA503" in degradation_codes
        assert recorder.retried  # SA502 surfaces as StageRetried events
        assert any(e.code == "SA503" for e in recorder.degraded)
        # chaos leaves the answer untouched
        with injected(FaultPlan()):
            baseline = compile_small(jobs=1)
        assert result == baseline


class TestReachability:
    def test_every_sa5xx_code_is_producible(self, tmp_path):
        """The mutation-style audit: exercise one scenario per SA5xx code
        and check the produced artifact carries exactly that code."""
        from repro.codegen.testbench import TestbenchUnavailable, run_testbench
        from repro.pipeline.cache import StageCache
        from repro.pipeline.engine import PipelineEngine
        from repro.dse.parallel import resilient_map
        from repro.resilience.retry import RetryPolicy

        produced = set()

        # SA501 — corrupt cache payload quarantined by the engine.
        with injected(FaultPlan()):
            cache_dir = tmp_path / "cache"
            cold = compile_small(cache=cache_dir)
            for path in (cache_dir / "codegen").glob("*.json"):
                path.write_text(json.dumps({}))
            recorder = Recorder()
            warm = compile_small(cache=cache_dir, observers=[recorder])
            assert warm == cold
            produced.update(e.code for e in recorder.degraded)

        # SA502 / SA503 — resubmission and serial fallback (the pipeline
        # stage translates the hooks; here the map layer shows the same
        # codes are reachable without process pools).
        from tests.resilience.test_dse_resilience import FakePool, double

        retries, degradations = [], []
        resilient_map(
            FakePool(fail_plan={2: 99}),
            double,
            [1, 2, 3],
            serial_fn=double,
            on_retry=lambda n, r: retries.append("SA502"),
            on_degrade=lambda r: degradations.append("SA503"),
        )
        produced.update(retries)
        produced.update(degradations)

        # SA504 — unavailable toolchain.
        with injected(FaultPlan()):
            try:
                run_testbench(
                    "int main(void){return 0;}",
                    workdir=tmp_path / "tb504",
                    compiler="definitely-not-a-compiler-xyz",
                    policy=RetryPolicy(max_attempts=1),
                )
            except TestbenchUnavailable as exc:
                produced.add(exc.diagnostic.code)

        # SA505 — hung tool.
        fake = tmp_path / "slowcc"
        fake.write_text("#!/bin/sh\nsleep 30\n")
        fake.chmod(0o755)
        with injected(FaultPlan()):
            try:
                run_testbench(
                    "int main(void){return 0;}",
                    workdir=tmp_path / "tb505",
                    compiler=str(fake),
                    policy=RetryPolicy(max_attempts=1),
                    compile_timeout=0.2,
                )
            except TestbenchUnavailable as exc:
                produced.add(exc.diagnostic.code)

        registered = {code for code in CODE_CATALOG if code.startswith("SA5")}
        assert registered == {"SA501", "SA502", "SA503", "SA504", "SA505"}
        assert registered <= produced, f"unreachable codes: {registered - produced}"
        assert PipelineEngine is not None and StageCache is not None  # imports used


class TestReportRendering:
    def test_degradations_appear_in_the_report(self):
        from repro.flow.report import render_synthesis_report

        with injected(FaultPlan.parse("testbench.compile:crash")):
            result = compile_small(sim_backend="testbench")
        text = render_synthesis_report(result)
        assert "degradations survived" in text
        assert "[SA504]" in text

    def test_clean_report_has_no_degradation_section(self):
        with injected(FaultPlan()):
            result = compile_small()
        assert "degradations survived" not in render_report(result)


def render_report(result):
    from repro.flow.report import render_synthesis_report

    return render_synthesis_report(result)
