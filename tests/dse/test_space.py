"""Tests for Problem-1 enumeration and the Eq. 12 pruning.

``CandidateTable.enumerate`` builds the space as columns; the scalar
walk it replaced lives in ``tests/dse/oracle.py`` and the property here
holds the two equal row for row, and the lazy ranked view equal to the
oracle's sorted pairs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.datatype import DATATYPES
from repro.hw.device import DEVICES
from repro.ir.loop import conv_loop_nest
from repro.model.design_point import ArrayShape
from repro.model.mapping import Mapping, feasible_mappings
from repro.model.platform import Platform
from repro.dse.explore import DseConfig
from repro.dse.space import SystolicConfig
from repro.dse.vector import CandidateTable, RankedCandidates, count_design_space, upper_bounds
from tests.dse import oracle
from tests.strategies import rich_conv_layers


def conv5():
    return conv_loop_nest(128, 192, 13, 13, 3, 3, name="conv5")


def configs_of(table):
    return [table.config(i) for i in range(len(table))]


def table_shapes(nest, mapping, platform, **window):
    table = CandidateTable.enumerate(nest, [mapping], platform, **window)
    return [config.shape for config in configs_of(table)]


class TestEnumerateShapes:
    def test_all_within_budget(self):
        platform = Platform()
        mapping = Mapping("o", "c", "i", "IN", "W")
        for shape in table_shapes(conv5(), mapping, platform):
            assert shape.lanes <= platform.dsp_total
            assert shape.rows <= 128  # never exceeds the mapped trip count
            assert shape.cols <= 13

    def test_cs_lower_bound_enforced(self):
        platform = Platform()
        mapping = Mapping("o", "c", "i", "IN", "W")
        for shape in table_shapes(
            conv5(), mapping, platform, min_dsp_utilization=0.8
        ):
            assert shape.lanes >= 0.8 * platform.dsp_total

    def test_vector_choices_respected(self):
        platform = Platform()
        mapping = Mapping("o", "c", "i", "IN", "W")
        vecs = {
            s.vector
            for s in table_shapes(conv5(), mapping, platform, vector_choices=(8,))
        }
        assert vecs == {8}

    def test_papers_sys_shapes_in_space(self):
        """Table 1's sys1 (11,13,8) and sys2 (16,10,8) are both points of
        the (unpruned) space."""
        platform = Platform(dsp_total_override=1600)
        mapping = Mapping("o", "c", "i", "IN", "W")
        shapes = set(table_shapes(conv5(), mapping, platform))

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
        table = CandidateTable.enumerate(conv5(), [mapping], Platform())
        assert len(table) > 1000 and len(reads) == 1


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
        table = CandidateTable.enumerate(
            nest, feasible_mappings(nest), Platform(), min_dsp_utilization=0.95,
            vector_choices=(8,),
        )
        seen_mappings = {config.mapping for config in configs_of(table)}
        assert seen_mappings
        for mapping in seen_mappings:
            assert is_feasible(nest, mapping)

    def test_count_equals_the_oracle_walk(self):
        nest, platform = conv5(), Platform()
        for window in ({}, {"min_dsp_utilization": 0.8, "vector_choices": (16, 4)}):
            assert count_design_space(nest, platform, **window) == sum(
                1 for _ in oracle.enumerate_configs(nest, platform, **window)
            )


class TestVectorChoicesValidation:
    """Regression: ``(0,)`` died in enumeration with ZeroDivisionError,
    ``(8, 8)`` enumerated and tuned every shape twice, and ``()`` or a
    negative width silently gave an empty space."""

    @pytest.mark.parametrize("widths", [(), (0,), (-4,), (8, 0), (8, 8), (4, 8, 4)])
    def test_rejected(self, widths):
        with pytest.raises(ValueError, match="vector_choices"):
            DseConfig(vector_choices=widths)

    def test_distinct_positive_widths_accepted(self):
        assert DseConfig(vector_choices=(16, 1, 3)).vector_choices == (16, 1, 3)


PLATFORMS = [
    (device, datatype) for device in sorted(DEVICES) for datatype in sorted(DATATYPES)
]


@st.composite
def problem1_windows(draw):
    """A layer, a platform and an Eq. 12 window over every device x
    datatype pair, c_s across [0, 1] (high values empty the window) and
    vector subsets in any order, sometimes with a width at or above the
    DSP budget."""
    layer = draw(rich_conv_layers())
    device, datatype = draw(st.sampled_from(PLATFORMS))
    platform = Platform(device=DEVICES[device], datatype=DATATYPES[datatype])
    budget = platform.dsp_total
    widths = draw(
        st.lists(
            st.sampled_from((1, 2, 3, 4, 8, 16, 64, budget, budget + 1, 4 * budget)),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    c_s = draw(st.one_of(st.sampled_from((0.0, 0.8, 1.0)), st.floats(0.0, 1.0)))
    window = {"min_dsp_utilization": c_s, "vector_choices": tuple(widths)}
    return layer.group_view().to_loop_nest(), platform, window


class TestEnumeratorProperty:
    @settings(max_examples=150, deadline=None)
    @given(case=problem1_windows())
    def test_table_equals_the_scalar_walk(self, case):
        nest, platform, window = case
        mappings = feasible_mappings(nest)
        table = CandidateTable.enumerate(nest, mappings, platform, **window)
        expected = list(oracle.enumerate_configs(nest, platform, **window))
        assert configs_of(table) == expected  # same rows, same order, same mapping
        assert table.mappings == tuple(mappings)
        for column in (table.mapping_index, table.rows, table.cols, table.vector):
            assert column.dtype.name == "int64" and len(column) == len(expected)

    @settings(max_examples=150, deadline=None)
    @given(case=problem1_windows(), size=st.integers(1, 9))
    def test_ranked_view_equals_the_sorted_oracle(self, case, size):
        nest, platform, window = case
        table = CandidateTable.enumerate(nest, feasible_mappings(nest), platform, **window)
        configs = list(oracle.enumerate_configs(nest, platform, **window))
        bounds = [oracle.throughput_upper_bound_gops(nest, c, platform) for c in configs]
        expected = sorted(zip(bounds, configs), key=lambda pair: pair[0], reverse=True)
        ranked = RankedCandidates(table, upper_bounds(table, platform))
        assert len(ranked) == len(expected)
        assert ranked[:] == expected  # pair for pair: bounds bit-equal, ties in order
        batches = [ranked[start : start + size] for start in range(0, len(ranked), size)]
        assert [pair for batch in batches for pair in batch] == expected

    def test_ranked_view_maps_rows_through_the_task(self):
        nest = conv5()
        table = CandidateTable.enumerate(
            nest, feasible_mappings(nest), Platform(), min_dsp_utilization=0.9
        )
        bounds = upper_bounds(table, Platform())
        plain = RankedCandidates(table, bounds)[:5]
        tasks = RankedCandidates(table, bounds, task=lambda c: (c, None))[:5]
        assert tasks == [(bound, (config, None)) for bound, config in plain]
        assert all(isinstance(config, SystolicConfig) for _, config in plain)
