"""Tests for Problem-1 enumeration and the Eq. 12 pruning."""

import pytest

from repro.ir.loop import conv_loop_nest
from repro.model.mapping import Mapping
from repro.model.platform import Platform
from repro.dse.space import count_design_space, enumerate_configs, enumerate_shapes


def conv5():
    return conv_loop_nest(128, 192, 13, 13, 3, 3, name="conv5")


class TestEnumerateShapes:
    def test_all_within_budget(self):
        platform = Platform()
        mapping = Mapping("o", "c", "i", "IN", "W")
        for shape in enumerate_shapes(conv5(), mapping, platform):
            assert shape.lanes <= platform.dsp_total
            assert shape.rows <= 128  # never exceeds the mapped trip count
            assert shape.cols <= 13

    def test_cs_lower_bound_enforced(self):
        platform = Platform()
        mapping = Mapping("o", "c", "i", "IN", "W")
        for shape in enumerate_shapes(
            conv5(), mapping, platform, min_dsp_utilization=0.8
        ):
            assert shape.lanes >= 0.8 * platform.dsp_total

    def test_vector_choices_respected(self):
        platform = Platform()
        mapping = Mapping("o", "c", "i", "IN", "W")
        vecs = {
            s.vector
            for s in enumerate_shapes(conv5(), mapping, platform, vector_choices=(8,))
        }
        assert vecs == {8}

    def test_papers_sys_shapes_in_space(self):
        """Table 1's sys1 (11,13,8) and sys2 (16,10,8) are both points of
        the (unpruned) space."""
        platform = Platform(dsp_total_override=1600)
        mapping = Mapping("o", "c", "i", "IN", "W")
        shapes = set(enumerate_shapes(conv5(), mapping, platform))
        from repro.model.design_point import ArrayShape

        assert ArrayShape(11, 13, 8) in shapes
        assert ArrayShape(16, 10, 8) in shapes


    def test_bounds_are_read_once_per_enumeration(self, monkeypatch):
        """Regression: ``LoopNest.bounds`` builds a dict per access and
        was read inside the rows loop."""
        from repro.ir.loop import LoopNest

        reads = []
        bounds = LoopNest.bounds.fget
        monkeypatch.setattr(
            LoopNest, "bounds", property(lambda nest: reads.append(nest) or bounds(nest))
        )
        mapping = Mapping("o", "c", "i", "IN", "W")
        shapes = list(enumerate_shapes(conv5(), mapping, Platform()))
        assert len(shapes) > 1000 and len(reads) == 1


class TestCountDesignSpace:
    def test_eq12_prunes_substantially(self):
        """The paper: c_s = 80% cut the mapping space 160K -> 64K (2.5x).
        Absolute sizes depend on enumeration conventions; the pruning
        ratio is the reproducible claim."""
        platform = Platform()
        nest = conv5()
        full = count_design_space(nest, platform)
        pruned = count_design_space(nest, platform, min_dsp_utilization=0.8)
        assert pruned < full
        assert full / pruned > 2.0

    def test_space_is_nonempty_and_large(self):
        assert count_design_space(conv5(), Platform()) > 1000

    def test_configs_carry_feasible_mappings_only(self):
        from repro.model.mapping import is_feasible

        nest = conv5()
        seen_mappings = set()
        for config in enumerate_configs(
            nest, Platform(), min_dsp_utilization=0.95, vector_choices=(8,)
        ):
            seen_mappings.add(config.mapping)
        assert seen_mappings
        for mapping in seen_mappings:
            assert is_feasible(nest, mapping)
