"""Conformance-harness tests: clean designs pass every leg, corrupted
simulators are caught with the right SA4xx/SA15x code, oversized
problems skip the RTL legs gracefully."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.ir.loop import conv_loop_nest
from repro.model.design_point import ArrayShape, DesignPoint
from repro.model.mapping import Mapping
from repro.nn.layers import ConvLayer
from repro.sim.backends import COUNTERS, WAVEFRONT_BACKENDS
from repro.sim.fast import FastWavefrontSimulator
from repro.verify.conformance import (
    ConformanceReport,
    cross_check,
    golden_nest_output,
    synthetic_arrays,
)
from tests.strategies import small_designs

#: Every backend the conformance legs hold to ``fast``, the reference.
OTHER_BACKENDS = [name for name in WAVEFRONT_BACKENDS if name != "fast"]
RTL_LEGS = ("rtl-vs-fast", "rtl-cycles-vs-model", "rtl-vs-iverilog")

TINY_SRC = """
#pragma systolic
for (o = 0; o < 8; o++)
  for (i = 0; i < 4; i++)
    for (c = 0; c < 6; c++)
      for (r = 0; r < 6; r++)
        for (p = 0; p < 3; p++)
          for (q = 0; q < 3; q++)
            OUT[o][r][c] += W[o][i][p][q] * IN[i][r+p][c+q];
"""


def small_design():
    nest = conv_loop_nest(6, 4, 5, 5, 3, 3, name="verify_t")
    return DesignPoint.create(
        nest, Mapping("o", "c", "i", "IN", "W"), ArrayShape(3, 3, 2), {"r": 2}
    )


class TestSyntheticArrays:
    def test_deterministic_per_seed(self):
        nest = small_design().nest
        a = synthetic_arrays(nest, seed=7)
        b = synthetic_arrays(nest, seed=7)
        c = synthetic_arrays(nest, seed=8)
        assert set(a) == {"W", "IN"}
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])
        assert any(not np.array_equal(a[n], c[n]) for n in a)

    def test_shapes_cover_access_ranges(self):
        nest = small_design().nest
        arrays = synthetic_arrays(nest)
        for access in nest.reads:
            shape = tuple(
                expr.value_range(nest.bounds)[1] + 1 for expr in access.indices
            )
            assert arrays[access.array].shape == shape


class TestGoldenNestOutput:
    def test_matches_fast_simulator(self):
        design = small_design()
        arrays = synthetic_arrays(design.nest, seed=1)
        golden = golden_nest_output(design.nest, arrays)
        sim = FastWavefrontSimulator(design).run(arrays).output
        np.testing.assert_allclose(
            sim[tuple(slice(0, n) for n in golden.shape)], golden, rtol=1e-9
        )

    def test_chunking_is_invisible(self):
        nest = small_design().nest
        arrays = synthetic_arrays(nest, seed=2)
        full = golden_nest_output(nest, arrays)
        tiny = golden_nest_output(nest, arrays, chunk=13)
        np.testing.assert_array_equal(full, tiny)


class TestCrossCheckClean:
    def test_all_legs_agree(self):
        report = cross_check(small_design())
        assert report.ok
        assert report.exit_code == 0
        assert [leg.status for leg in report.legs] == ["ok", "ok"]
        assert report.leg("fast-vs-golden").status == "ok"
        with pytest.raises(KeyError):
            report.leg("no-such-leg")

    def test_layer_mode_adds_a_leg(self):
        layer = ConvLayer("verify_l", 4, 6, 7, 7, kernel=3, pad=1)
        nest = layer.group_view().to_loop_nest()
        design = DesignPoint.create(
            nest, Mapping("o", "c", "i", "IN", "W"), ArrayShape(3, 3, 2), {"r": 2}
        )
        report = cross_check(design, layer)
        assert report.ok
        assert report.leg("layer-vs-conv-golden").status == "ok"

    def test_cycle_level_legs_skipped_above_budget(self):
        report = cross_check(small_design(), rtl=True, rtl_iteration_limit=10)
        assert report.ok  # a skip is a note, not an error
        assert report.leg("rtl-vs-fast").status == "skipped"
        assert report.leg("fast-vs-golden").status == "ok"
        notes = [d for d in report.report.diagnostics if d.code == "SA404"]
        assert [d.message for d in notes] == [
            "RTL legs skipped: 5400 iterations exceed the 10-iteration "
            "RTL interpreter budget"
        ]

    def test_report_is_json_serializable(self):
        report = cross_check(small_design())
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["ok"] is True
        assert {leg["name"] for leg in payload["legs"]} == {
            "fast-vs-golden", "cycles-vs-model",
        }

    def test_render_mentions_every_leg(self):
        report = cross_check(small_design())
        text = report.render()
        for leg in report.legs:
            assert leg.name in text
        assert "all conformance legs agree" in text

    @settings(
        max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(design=small_designs())
    def test_property_feasible_designs_conform(self, design):
        report = cross_check(design)
        assert report.ok, report.render()


class TestBackendMatrix:
    """Every non-reference entry of the backend table against ``fast``."""

    @pytest.mark.parametrize("name", OTHER_BACKENDS)
    @settings(
        max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(design=small_designs())
    def test_property_backend_is_bit_identical_to_reference(self, name, design):
        arrays = synthetic_arrays(design.nest, seed=3)
        want = WAVEFRONT_BACKENDS["fast"].run(design, arrays)
        got = WAVEFRONT_BACKENDS[name].run(design, arrays)
        assert got.output.shape == want.output.shape
        assert got.output.tobytes() == want.output.tobytes()
        for counter in COUNTERS:
            assert getattr(got, counter) == getattr(want, counter), counter

    @pytest.mark.parametrize("name", OTHER_BACKENDS)
    def test_over_budget_backend_skips_its_legs(self, name, monkeypatch):
        entry = WAVEFRONT_BACKENDS[name]
        monkeypatch.setitem(
            WAVEFRONT_BACKENDS, name, dataclasses.replace(entry, budget=10)
        )
        report = cross_check(small_design(), rtl=True, iverilog="off")
        assert report.ok  # a skip is a note, not an error
        assert name == "rtl"  # the RTL legs are the only non-reference legs
        for leg in report.legs:
            if leg.name != "rtl-vs-iverilog":  # disabled above either way
                assert leg.status == ("skipped" if leg.name in RTL_LEGS else "ok"), leg
        assert all(report.leg(leg).detail.endswith("budget 10") for leg in RTL_LEGS)
        assert [d.code for d in report.report.diagnostics] == ["SA404"]

    def test_stage_and_cross_check_read_the_same_budget(self, monkeypatch):
        """One budget per backend, homed in the table: patch it once and
        ``--sim-backend rtl`` refuses the run that ``cross_check`` skips."""
        from repro.dse.explore import DseConfig
        from repro.flow.compile import compile_c_source
        from repro.model.platform import Platform

        def compile_rtl():
            return compile_c_source(
                TINY_SRC,
                Platform(),
                DseConfig(min_dsp_utilization=0.0, vector_choices=(2,), top_n=1),
                name="tiny",
                cache=False,
                sim_backend="rtl",
            )

        result = compile_rtl()
        assert result.engine_result is not None
        monkeypatch.setitem(
            WAVEFRONT_BACKENDS,
            "rtl",
            dataclasses.replace(WAVEFRONT_BACKENDS["rtl"], budget=10),
        )
        with pytest.raises(ValueError, match="budget of 10"):
            compile_rtl()
        report = cross_check(result.evaluation.design, rtl=True)
        assert report.leg("rtl-vs-fast").status == "skipped"
        assert "budget 10" in report.leg("rtl-vs-fast").detail


def _corrupting_run(design, arrays):
    """A deliberately broken reference: flips one output element and
    inflates the cycle counter — both divergences must be caught."""
    result = FastWavefrontSimulator(design).run(arrays)
    output = result.output.copy()
    output.flat[0] += 1.0
    return dataclasses.replace(
        result, output=output, compute_cycles=result.compute_cycles + 5
    )


@pytest.fixture
def corrupted_reference(monkeypatch):
    entry = WAVEFRONT_BACKENDS["fast"]
    monkeypatch.setitem(
        WAVEFRONT_BACKENDS, "fast", dataclasses.replace(entry, run=_corrupting_run)
    )


class TestCrossCheckCatchesCorruption:
    def test_corrupted_simulator_fails_every_leg(self, corrupted_reference):
        report = cross_check(small_design(), rtl=True, iverilog="off")
        assert not report.ok
        assert report.exit_code == 1
        codes = {d.code for d in report.report.diagnostics}
        assert codes == {"SA401", "SA403", "SA151"}
        assert report.leg("fast-vs-golden").status == "mismatch"
        assert report.leg("cycles-vs-model").status == "mismatch"
        # The emitted RTL is the independent cycle-level check.
        assert report.leg("rtl-vs-fast").status == "mismatch"
        assert report.leg("rtl-cycles-vs-model").status == "ok"
        with pytest.raises(Exception):
            report.report.raise_if_errors()

    def test_mismatch_detail_names_the_counter(self, corrupted_reference):
        report = cross_check(small_design())
        assert "compute_cycles" in report.leg("cycles-vs-model").detail


class TestConformanceReportShape:
    def test_is_frozen(self):
        report = cross_check(small_design())
        assert isinstance(report, ConformanceReport)
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.design_signature = "x"


class TestRtlLegs:
    """``rtl=True`` grows the report by the three RTL legs.

    The default stays three legs (pinned above) so existing callers and
    serialized reports are untouched; the SA15x divergence scenarios
    themselves live in ``tests/codegen/test_rtl.py``.
    """

    def test_default_report_has_no_rtl_legs(self):
        report = cross_check(small_design())
        assert not any(leg.name.startswith("rtl-") for leg in report.legs)

    def test_rtl_flag_adds_three_legs(self):
        report = cross_check(small_design(), rtl=True)
        assert report.ok, report.render()
        assert tuple(leg.name for leg in report.legs[-3:]) == RTL_LEGS
        assert report.leg("rtl-vs-fast").status == "ok"
        assert report.leg("rtl-cycles-vs-model").status == "ok"
        # The native leg degrades to a skip (SA153 note) off-toolchain.
        native = report.leg("rtl-vs-iverilog")
        assert native.status in ("ok", "skipped")
        if native.status == "skipped":
            assert any(d.code == "SA153" for d in report.report.diagnostics)

    def test_rtl_budget_skips_all_rtl_legs(self):
        report = cross_check(small_design(), rtl=True, rtl_iteration_limit=10)
        assert report.ok  # a skip is a note, not an error
        for name in RTL_LEGS:
            assert report.leg(name).status == "skipped"
        assert any(d.code == "SA404" for d in report.report.diagnostics)

    def test_render_names_the_rtl_legs(self):
        report = cross_check(small_design(), rtl=True)
        text = report.render()
        assert "rtl-vs-fast" in text
        assert "rtl-vs-iverilog" in text
