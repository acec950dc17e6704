"""The one external-tool runner: retries, hard timeout, one failure type.

``sys.executable`` stands in for the tool, so none of this needs gcc or
iverilog; explicit ``injected(...)`` plans keep the tests independent of
a standing ``REPRO_FAULT_PLAN`` (the CI chaos job).
"""

import sys

import pytest

from repro.resilience.faults import FaultPlan, injected
from repro.resilience.retry import RetryPolicy, ToolUnavailable, run_tool

EAGER = RetryPolicy(max_attempts=3, base_delay=0.0)
HELLO = [sys.executable, "-c", "print('hello')"]


def test_clean_run_returns_the_completed_process(tmp_path):
    with injected(FaultPlan()):
        done = run_tool(
            [sys.executable, "-c", "import os; print(os.getcwd()); raise SystemExit(3)"],
            fault_point="rtl.run",
            timeout=30.0,
            cwd=tmp_path,
        )
    assert done.returncode == 3  # a non-zero exit is a verdict, not an error
    assert done.stdout.strip() == str(tmp_path.resolve())


def test_transient_fault_is_retried_then_succeeds():
    retries = []
    with injected(FaultPlan.parse("rtl.compile:crash:times=2")):
        done = run_tool(
            HELLO,
            fault_point="rtl.compile",
            timeout=30.0,
            policy=EAGER,
            on_retry=lambda attempt, exc: retries.append((attempt, type(exc).__name__)),
        )
    assert done.stdout == "hello\n"
    assert retries == [(1, "InjectedFault"), (2, "InjectedFault")]  # once per retry


def test_exhausted_retries_raise_tool_unavailable():
    retries = []
    with injected(FaultPlan.parse("rtl.compile:crash")):
        with pytest.raises(ToolUnavailable) as excinfo:
            run_tool(
                HELLO,
                fault_point="rtl.compile",
                timeout=30.0,
                policy=EAGER,
                on_retry=lambda attempt, exc: retries.append(attempt),
            )
    assert excinfo.value.kind == "failed"
    assert excinfo.value.diagnostic is None  # the call site picks the SA code
    assert "injected fault" in str(excinfo.value)
    assert retries == [1, 2]


def test_missing_executable_is_kind_missing():
    with injected(FaultPlan()):
        with pytest.raises(ToolUnavailable) as excinfo:
            run_tool(
                ["definitely-not-a-tool-xyz"],
                fault_point="testbench.compile",
                timeout=30.0,
                policy=RetryPolicy(max_attempts=1),
            )
    assert excinfo.value.kind == "missing"
    assert "definitely-not-a-tool-xyz is not available" in str(excinfo.value)


def test_hung_tool_is_kind_timeout():
    with injected(FaultPlan()):
        with pytest.raises(ToolUnavailable) as excinfo:
            run_tool(
                [sys.executable, "-c", "import time; time.sleep(30)"],
                fault_point="testbench.run",
                timeout=0.3,
                policy=RetryPolicy(max_attempts=1),
            )
    assert excinfo.value.kind == "timeout"
    assert "budget" in str(excinfo.value)


def test_policy_timeout_overrides_the_site_budget():
    with injected(FaultPlan()):
        with pytest.raises(ToolUnavailable) as excinfo:
            run_tool(
                [sys.executable, "-c", "import time; time.sleep(30)"],
                fault_point="rtl.run",
                timeout=600.0,
                policy=RetryPolicy(max_attempts=1, timeout=0.3),
            )
    assert excinfo.value.kind == "timeout"


def test_corrupt_fault_swaps_in_the_sites_command():
    with injected(FaultPlan.parse("testbench.compile:corrupt:times=1")):
        done = run_tool(
            HELLO,
            fault_point="testbench.compile",
            timeout=30.0,
            corrupted=lambda: [sys.executable, "-c", "print('garbled')"],
        )
    assert done.stdout == "garbled\n"


def test_single_transient_fault_on_the_iverilog_path_is_retried():
    """The drift the shared runner closed: one injected ``rtl.compile``
    crash used to surface at once as SA153 "could not invoke iverilog:
    injected fault", while the same plan on ``testbench.compile`` was
    retried."""
    from repro.ir.loop import conv_loop_nest
    from repro.model.design_point import ArrayShape, DesignPoint
    from repro.model.mapping import Mapping
    from repro.sim.rtl import RtlToolchainUnavailable, iverilog_available, run_iverilog_check
    from repro.verify.conformance import synthetic_arrays

    nest = conv_loop_nest(4, 2, 5, 5, 3, 3, stride=2, name="rtlretry")
    design = DesignPoint.create(
        nest, Mapping("o", "c", "i", "IN", "W"), ArrayShape(2, 3, 2), {"r": 2}
    )
    arrays = synthetic_arrays(design.nest, seed=1)
    with injected(FaultPlan.parse("rtl.compile:crash:times=1")) as injector:
        if iverilog_available():
            assert run_iverilog_check(design, arrays).ok
        else:
            with pytest.raises(RtlToolchainUnavailable) as excinfo:
                run_iverilog_check(design, arrays)
            # Past the injected crash: what stopped the run is the real
            # (missing) toolchain, reported under the site's code.
            assert excinfo.value.kind == "missing"
            assert excinfo.value.diagnostic.code == "SA153"
            assert "injected fault" not in excinfo.value.diagnostic.message
    assert injector.fired == [("rtl.compile", "crash")]
