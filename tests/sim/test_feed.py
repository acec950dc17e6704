"""The columnar boundary feeder equals the scalar per-lane oracle.

``WaveFeeder.streams`` is what the cycle engine and the RTL harness
inject; ``tests/sim/oracle.py`` computes the same operands, masks and
output keys one (block, wave, position, lane) at a time.  Every entry
must agree, bit for bit, on designs that exercise clipped last blocks,
padding lanes, strides, dilation and grouping.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.model.design_point import ArrayShape, DesignPoint
from repro.model.mapping import Mapping, feasible_mappings
from repro.nn.layers import ConvLayer
from repro.sim.feed import WaveFeeder
from repro.sim.schedule import enumerate_blocks, enumerate_waves
from repro.verify.conformance import synthetic_arrays
from tests.sim.oracle import ScalarFeeder
from tests.strategies import array_shapes, rich_conv_layers, seeds


def assert_streams_match_oracle(design, arrays):
    feeder = WaveFeeder(design)
    streams = feeder.streams(arrays)
    oracle = ScalarFeeder(design)
    nest = design.nest
    shape = design.shape
    blocks = list(enumerate_blocks(design.tiled, clip=True))
    assert list(streams.blocks) == blocks
    m = 0
    for k, block in enumerate(blocks):
        assert streams.starts[k] == m
        for wave in enumerate_waves(block, nest.iterators):
            assert streams.middle[m].tolist() == [wave[it] for it in nest.iterators]
            for x in range(shape.rows):
                want = np.array(oracle.w_vector(block, wave, x, arrays))
                assert streams.w[m, x].tobytes() == want.tobytes()
                assert bool(streams.row_ok[m, x]) == oracle.row_ok(block, wave, x)
            for y in range(shape.cols):
                want = np.array(oracle.in_vector(block, wave, y, arrays))
                assert streams.inp[m, y].tobytes() == want.tobytes()
                assert bool(streams.col_ok[m, y]) == oracle.col_ok(block, wave, y)
            for x in range(shape.rows):
                for y in range(shape.cols):
                    key = oracle.out_key(block, wave, x, y)
                    got = int(streams.out_key[m, x, y])
                    if key is None:
                        assert got == -1
                    else:
                        assert got == np.ravel_multi_index(key, feeder.out_shape)
            m += 1
    assert streams.starts[-1] == m == len(streams.middle)
    return streams


@st.composite
def feeder_designs(draw):
    """Rich conv layers (strided, dilated, grouped, depthwise) under any
    feasible mapping, with non-dividing tiles and 1-3 SIMD lanes."""
    nest = draw(rich_conv_layers(max_channels=6, max_size=7)).to_loop_nest()
    mappings = list(feasible_mappings(nest))
    assume(mappings)
    mapping = draw(st.sampled_from(mappings))
    shape = draw(array_shapes(max_rows=4, max_cols=4, vectors=(1, 2, 3)))
    middle = {
        it: draw(st.integers(1, 3)) for it in nest.iterators if draw(st.booleans())
    }
    return DesignPoint.create(nest, mapping, shape, middle)


class TestColumnarEqualsScalar:
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(design=feeder_designs(), seed=seeds)
    def test_property_streams_equal_oracle(self, design, seed):
        assert_streams_match_oracle(design, synthetic_arrays(design.nest, seed=seed))

    @pytest.mark.parametrize(
        "layer",
        [
            ConvLayer("strided", 3, 4, 11, 11, kernel=3, stride=2),
            ConvLayer("dilated", 3, 5, 9, 9, kernel=3, dilation=2),
            ConvLayer("grouped", 6, 6, 6, 6, kernel=3, pad=1, groups=2),
            ConvLayer("depthwise", 4, 4, 6, 6, kernel=3, pad=1, groups=4),
        ],
        ids=lambda layer: layer.name,
    )
    def test_named_shapes_with_clipped_blocks_and_padding_lanes(self, layer):
        """Each fixture provably hits a clipped last block (5 or 6 output
        rows in blocks of 4), padding lanes (an odd channel count on two
        lanes) and padding PE positions."""
        nest = layer.to_loop_nest()
        design = DesignPoint.create(
            nest, Mapping("o", "c", "i", "IN", "W"), ArrayShape(3, 4, 2), {"r": 4}
        )
        streams = assert_streams_match_oracle(design, synthetic_arrays(nest, seed=3))
        waves = np.diff(streams.starts)
        assert waves.min() < waves.max()
        assert nest.bounds["i"] % design.shape.vector != 0
        assert (streams.out_key == -1).any()
