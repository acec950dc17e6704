"""The tutorial's snippets must actually run and produce what they claim.

Mirrors docs/tutorial.md step by step so the documentation can't rot.
"""

import shutil

import pytest

SOURCE = """
#pragma systolic
for (o = 0; o < 128; o++)
  for (i = 0; i < 192; i++)
    for (c = 0; c < 13; c++)
      for (r = 0; r < 13; r++)
        for (p = 0; p < 3; p++)
          for (q = 0; q < 3; q++)
            OUT[o][r][c] += W[o][i][p][q] * IN[i][r+p][c+q];
"""


@pytest.fixture(scope="module")
def nest():
    from repro.frontend import loop_nest_from_source

    nest, pragma = loop_nest_from_source(SOURCE, name="conv5")
    assert pragma == "systolic"
    return nest


class TestTutorialSteps:
    def test_step2_frontend(self, nest):
        assert nest.bounds == {"o": 128, "i": 192, "c": 13, "r": 13, "p": 3, "q": 3}
        from repro.ir import analyze_reuse, classify_parallelism

        assert analyze_reuse(nest).reuse_loops("IN") == ("o",)
        assert set(classify_parallelism(nest).reduction) == {"i", "p", "q"}

    def test_step3_mappings(self, nest):
        from repro.model import feasible_mappings

        assert len(feasible_mappings(nest)) == 12

    def test_step4_hand_pricing(self, nest):
        from repro.model import ArrayShape, DesignPoint, Mapping, Platform

        sys1 = DesignPoint.create(
            nest,
            Mapping("o", "c", "i", "IN", "W"),
            ArrayShape(11, 13, 8),
            {"i": 4, "o": 4, "r": 13, "c": 1, "p": 3, "q": 3},
        )
        ev = sys1.evaluate(Platform(dsp_total_override=1600))
        assert ev.performance.pt_gops == pytest.approx(621, rel=0.01)
        assert ev.dsp_utilization == pytest.approx(0.715)
        assert ev.performance.bound == "compute"

    @pytest.fixture(scope="class")
    def best(self, nest):
        from repro.model import Platform
        from repro.dse import DseConfig, explore

        return explore(nest, Platform(), DseConfig(min_dsp_utilization=0.8, top_n=4)).best

    def test_step5_dse(self, best):
        assert best.feasible
        assert best.throughput_gops > 500

    @pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler")
    def test_step6_artifacts(self, best):
        from repro.model import Platform
        from repro.codegen import generate_kernel, generate_testbench, run_testbench

        kernel = generate_kernel(best.design, Platform())
        assert "__kernel" in kernel
        run = run_testbench(generate_testbench(best.design, Platform()))
        assert run.passed, run.output

    def test_step7_measurement(self, best):
        from repro.model import Platform
        from repro.sim import simulate_performance

        measured = simulate_performance(
            best.design,
            Platform(),
            frequency_mhz=best.performance.frequency_mhz,
            streaming=True,
        )
        err = abs(measured.throughput_gops - best.throughput_gops)
        assert err / best.throughput_gops < 0.06  # conv5 is a small layer
