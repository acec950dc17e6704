"""Pass 2: independent validation of design points against the paper."""

import pytest

from repro.analysis.design_check import check_design_point, verify_design_points
from repro.dse.explore import DseConfig, explore, phase1
from repro.analysis.diagnostics import DiagnosticError
from repro.ir.loop import conv_loop_nest
from repro.model.design_point import ArrayShape, DesignPoint
from repro.model.mapping import Mapping, feasible_mappings
from repro.model.platform import Platform

FAST = DseConfig(min_dsp_utilization=0.0, vector_choices=(2, 4), top_n=3)


@pytest.fixture(scope="module")
def nest():
    return conv_loop_nest(16, 8, 10, 10, 3, 3, name="small")


@pytest.fixture(scope="module")
def platform():
    return Platform()


@pytest.fixture(scope="module")
def good_design(nest, platform):
    return explore(nest, platform, FAST).best.design


class TestValidDesigns:
    def test_dse_winner_validates(self, good_design, platform):
        assert check_design_point(good_design, platform).ok

    def test_all_finalists_validate(self, nest, platform):
        finalists = phase1(nest, platform, FAST).finalists
        assert finalists
        report = verify_design_points(
            (ev.design for ev in finalists), platform, context="finalist"
        )
        assert report.ok

    def test_strict_dse_is_silent_on_good_nests(self, nest, platform):
        best = explore(nest, platform, FAST, strict=True).best
        assert best.feasible


class TestViolations:
    def test_dsp_budget_sa203(self, nest, platform):
        mapping = feasible_mappings(nest)[0]
        design = DesignPoint.create(nest, mapping, ArrayShape(10, 10, 8))
        tiny = Platform(dsp_total_override=16)
        report = check_design_point(design, tiny)
        assert "SA203" in report.codes()

    def test_infeasible_mapping_sa202(self, nest, platform):
        feasible = set(feasible_mappings(nest))
        bad = next(m for m in _all_mappings(nest) if m not in feasible)
        design = DesignPoint.create(nest, bad, ArrayShape(2, 2, 2))
        report = check_design_point(design, platform)
        assert "SA202" in report.codes()

    def test_unknown_mapping_iterator_sa201(self, nest, platform):
        mapping = Mapping("zz", "r", "q", "IN", "W")
        design = DesignPoint.create(nest, mapping, ArrayShape(2, 2, 2))
        report = check_design_point(design, platform)
        assert "SA201" in report.codes()

    def test_unknown_middle_iterator_sa207(self, nest, platform):
        mapping = feasible_mappings(nest)[0]
        design = DesignPoint.create(nest, mapping, ArrayShape(2, 2, 2), {"zz": 4})
        report = check_design_point(design, platform)
        assert "SA207" in report.codes()

    def test_nonpositive_middle_sa210(self, nest, platform):
        mapping = feasible_mappings(nest)[0]
        design = DesignPoint(nest, mapping, ArrayShape(2, 2, 2), (("o", 0),))
        report = check_design_point(design, platform)
        assert "SA210" in report.codes()

    def test_oversized_shape_warns_sa206(self, nest, platform):
        mapping = feasible_mappings(nest)[0]
        big = {mapping.row: nest.bounds[mapping.row] + 3}
        shape = ArrayShape(
            big[mapping.row],
            min(2, nest.bounds[mapping.col]),
            min(2, nest.bounds[mapping.vector]),
        )
        design = DesignPoint.create(nest, mapping, shape)
        report = check_design_point(design, platform)
        assert "SA206" in [d.code for d in report.warnings]

    def test_batch_report_carries_context(self, nest, platform):
        mapping = Mapping("zz", "r", "q", "IN", "W")
        design = DesignPoint.create(nest, mapping, ArrayShape(2, 2, 2))
        report = verify_design_points([design], platform, context="sweep")
        assert not report.ok
        assert "sweep" in report.errors[0].message
        assert design.signature in report.errors[0].message


class TestStrictDse:
    def test_strict_flag_default_off(self):
        import inspect

        for search in (phase1, explore):
            assert inspect.signature(search).parameters["strict"].default is False

    def test_strict_raise_is_diagnostic_error(self, nest, platform):
        # Force a violation by auditing against an impossible budget.
        mapping = feasible_mappings(nest)[0]
        design = DesignPoint.create(nest, mapping, ArrayShape(4, 4, 4))
        tiny = Platform(dsp_total_override=1)
        with pytest.raises(DiagnosticError) as exc:
            verify_design_points([design], tiny).raise_if_errors()
        assert "SA203" in [d.code for d in exc.value.diagnostics]


def _all_mappings(nest):
    from itertools import permutations

    reads = [a.array for a in nest.reads]
    for row, col, vector in permutations(nest.iterators, 3):
        for vertical, horizontal in (tuple(reads), tuple(reversed(reads))):
            yield Mapping(row, col, vector, vertical, horizontal)
