"""Smoke tests: every shipped example must run to completion.

Run in subprocesses from a temp cwd (some examples write artifact
directories) with fast flags where available.  These are integration
tests of the public API exactly as a new user would drive it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"
SRC_DIR = Path(__file__).parent.parent / "src"


def run_example(name: str, tmp_path: Path, *args: str, timeout: int = 420) -> str:
    # The subprocess runs from tmp_path, so a relative PYTHONPATH=src from
    # the invoking shell would no longer resolve: pin the absolute src dir.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name), *args],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=timeout,
        env=env,
    )
    assert result.returncode == 0, f"{name} failed:\n{result.stderr[-2000:]}"
    return result.stdout


class TestExamples:
    def test_quickstart(self, tmp_path):
        out = run_example("quickstart.py", tmp_path)
        assert "Systolic Array Synthesis Report" in out
        assert (tmp_path / "quickstart_out" / "kernel.cl").exists()
        assert (tmp_path / "quickstart_out" / "testbench.c").exists()

    @pytest.mark.slow
    def test_vgg16_accelerator_fast(self, tmp_path):
        out = run_example("vgg16_accelerator.py", tmp_path, "--fast")
        assert "per-layer performance" in out
        assert "conv13" in out
        assert "conv latency" in out

    def test_fixed_point_inference(self, tmp_path):
        out = run_example("fixed_point_inference.py", tmp_path)
        assert "relative L2 error" in out
        assert "fixed-point speedup" in out

    def test_explore_design_space(self, tmp_path):
        out = run_example("explore_design_space.py", tmp_path)
        assert "feasible loop-to-architecture mappings" in out
        assert "phase 2" in out
        assert "winner" in out

    def test_custom_layer_from_c(self, tmp_path):
        out = run_example("custom_layer_from_c.py", tmp_path)
        assert "custom_layer" in out
        assert "matmul" in out
        # with gcc present the testbenches must actually pass
        import shutil

        if shutil.which("gcc"):
            assert out.count("testbench: OK") == 2
