"""Testbench toolchain resilience: timeouts, retries, SA504/SA505."""

import shutil

import pytest

from repro.codegen.testbench import (
    DEFAULT_COMPILE_TIMEOUT,
    DEFAULT_RUN_TIMEOUT,
    TestbenchUnavailable,
    run_testbench,
)
from repro.resilience.faults import FaultPlan, injected
from repro.resilience.retry import RetryPolicy

HAS_GCC = shutil.which("gcc") is not None

TRIVIAL_PASS = (
    '#include <stdio.h>\n'
    'int main(void) { printf("TESTBENCH PASS\\n"); return 0; }\n'
)

ONE_SHOT = RetryPolicy(max_attempts=1, base_delay=0.0)
EAGER = RetryPolicy(max_attempts=3, base_delay=0.0)


class TestUnavailableToolchain:
    def test_missing_compiler_raises_sa504(self, tmp_path):
        with injected(FaultPlan()):
            with pytest.raises(TestbenchUnavailable) as excinfo:
                run_testbench(
                    TRIVIAL_PASS,
                    workdir=tmp_path,
                    compiler="definitely-not-a-compiler-xyz",
                    policy=ONE_SHOT,
                )
        diag = excinfo.value.diagnostic
        assert diag.code == "SA504"
        assert "not available" in diag.message

    def test_persistent_injected_compile_crash_raises_sa504(self, tmp_path):
        with injected(FaultPlan.parse("testbench.compile:crash")):
            with pytest.raises(TestbenchUnavailable) as excinfo:
                run_testbench(TRIVIAL_PASS, workdir=tmp_path, policy=EAGER)
        assert excinfo.value.diagnostic.code == "SA504"

    def test_hung_compiler_raises_sa505(self, tmp_path):
        fake = tmp_path / "slowcc"
        fake.write_text("#!/bin/sh\nsleep 30\n")
        fake.chmod(0o755)
        with injected(FaultPlan()):
            with pytest.raises(TestbenchUnavailable) as excinfo:
                run_testbench(
                    TRIVIAL_PASS,
                    workdir=tmp_path / "wd",
                    compiler=str(fake),
                    policy=ONE_SHOT,
                    compile_timeout=0.2,
                )
        diag = excinfo.value.diagnostic
        assert diag.code == "SA505"
        assert "budget" in diag.message


@pytest.mark.skipif(not HAS_GCC, reason="no C compiler")
class TestWithRealToolchain:
    def test_trivial_program_passes(self, tmp_path):
        with injected(FaultPlan()):
            outcome = run_testbench(TRIVIAL_PASS, workdir=tmp_path, policy=ONE_SHOT)
        assert outcome.passed
        assert "TESTBENCH PASS" in outcome.output

    def test_transient_compile_crashes_are_retried(self, tmp_path):
        retries = []
        with injected(FaultPlan.parse("testbench.compile:crash:times=2")):
            outcome = run_testbench(
                TRIVIAL_PASS,
                workdir=tmp_path,
                policy=EAGER,
                on_retry=lambda n, exc: retries.append(n),
            )
        assert outcome.passed
        assert retries == [1, 2]

    def test_transient_run_crashes_are_retried(self, tmp_path):
        with injected(FaultPlan.parse("testbench.run:crash:times=1")):
            outcome = run_testbench(TRIVIAL_PASS, workdir=tmp_path, policy=EAGER)
        assert outcome.passed

    def test_corrupted_source_fails_the_check_not_the_flow(self, tmp_path):
        with injected(FaultPlan.parse("testbench.compile:corrupt")):
            outcome = run_testbench(TRIVIAL_PASS, workdir=tmp_path, policy=ONE_SHOT)
        assert not outcome.passed
        assert "COMPILE ERROR" in outcome.output

    def test_failing_testbench_is_a_verdict_not_unavailability(self, tmp_path):
        failing = '#include <stdio.h>\nint main(void) { return 1; }\n'
        with injected(FaultPlan()):
            outcome = run_testbench(failing, workdir=tmp_path, policy=ONE_SHOT)
        assert not outcome.passed

    def test_policy_timeout_overrides_step_budgets(self, tmp_path):
        hang = '#include <unistd.h>\nint main(void) { sleep(30); return 0; }\n'
        with injected(FaultPlan()):
            with pytest.raises(TestbenchUnavailable) as excinfo:
                run_testbench(
                    hang,
                    workdir=tmp_path,
                    policy=RetryPolicy(max_attempts=1, timeout=1.0),
                )
        assert excinfo.value.diagnostic.code == "SA505"


class TestHardTimeouts:
    def test_every_subprocess_call_carries_a_timeout(self):
        """Mutation guard: the package shells out in exactly one place
        (``run_tool``), and that call names ``timeout=`` (a hung tool
        must never hang the flow)."""
        from pathlib import Path

        import repro
        import repro.resilience.retry as runner

        sites = {
            path: path.read_text().count("subprocess.run(")
            for path in Path(repro.__file__).parent.rglob("*.py")
        }
        assert {p for p, n in sites.items() if n} == {Path(runner.__file__)}
        assert sites[Path(runner.__file__)] == 1
        chunk = Path(runner.__file__).read_text().split("subprocess.run(")[1]
        assert "timeout=" in chunk.split(")")[0]

    def test_default_budgets_are_sane(self):
        assert 0 < DEFAULT_COMPILE_TIMEOUT <= DEFAULT_RUN_TIMEOUT
        assert DEFAULT_RUN_TIMEOUT <= 3600
