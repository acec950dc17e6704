"""Fast wavefront simulator: differential identity against the engine.

The contract under test is absolute: for every design the cycle-accurate
engine can run, :class:`FastWavefrontSimulator` must return the same
:class:`EngineResult` — output tensor bit-for-bit, every counter equal.
Property tests draw designs from the shared strategies (awkward bounds,
strides, all twelve mappings) so nothing here is hand-picked.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.ir.loop import conv_loop_nest
from repro.model.design_point import ArrayShape, DesignPoint
from repro.model.mapping import Mapping, feasible_mappings
from repro.nn.golden import conv2d_layer, random_layer_tensors
from repro.nn.layers import ConvLayer
from repro.sim.engine import SystolicArrayEngine, simd_dot
from repro.sim.fast import FastWavefrontSimulator, cycle_statistics
from repro.sim.functional import simulate_layer
from repro.verify.conformance import synthetic_arrays
from tests.strategies import seeds, small_designs


def assert_identical(design, arrays, *, chunk_entries=None):
    """Run both backends and require bit-identical EngineResults."""
    kwargs = {} if chunk_entries is None else {"chunk_entries": chunk_entries}
    fast = FastWavefrontSimulator(design, **kwargs).run(arrays)
    slow = SystolicArrayEngine(design).run(arrays)
    assert fast.output.shape == slow.output.shape
    assert fast.output.tobytes() == slow.output.tobytes()
    assert fast.compute_cycles == slow.compute_cycles
    assert fast.blocks == slow.blocks
    assert fast.waves == slow.waves
    assert fast.pe_active_cycles == slow.pe_active_cycles
    assert fast.first_all_active_cycle == slow.first_all_active_cycle
    return fast


class TestDifferentialIdentity:
    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(design=small_designs(), seed=seeds)
    def test_property_fast_equals_engine(self, design, seed):
        arrays = synthetic_arrays(design.nest, seed=seed)
        assert_identical(design, arrays)

    @settings(
        max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(design=small_designs())
    def test_property_chunking_is_invisible(self, design):
        """Tiny chunk sizes split every wave batch — same bits out."""
        arrays = synthetic_arrays(design.nest, seed=3)
        full = FastWavefrontSimulator(design).run(arrays)
        tiny = FastWavefrontSimulator(design, chunk_entries=7).run(arrays)
        assert full.output.tobytes() == tiny.output.tobytes()
        assert full.compute_cycles == tiny.compute_cycles
        assert full.pe_active_cycles == tiny.pe_active_cycles

    def test_every_feasible_mapping_is_identical(self):
        nest = conv_loop_nest(4, 3, 5, 5, 2, 2, name="maps")
        arrays = synthetic_arrays(nest, seed=1)
        for mapping in feasible_mappings(nest):
            design = DesignPoint.create(nest, mapping, ArrayShape(2, 3, 2), {"r": 2})
            assert_identical(design, arrays)

    def test_strided_nest_is_identical(self):
        nest = conv_loop_nest(4, 2, 4, 4, 3, 3, stride=2, name="strided")
        design = DesignPoint.create(
            nest, Mapping("o", "c", "i", "IN", "W"), ArrayShape(2, 2, 2), {"r": 2}
        )
        assert_identical(design, synthetic_arrays(nest, seed=2))

    def test_counters_match_closed_form(self):
        nest = conv_loop_nest(6, 4, 5, 5, 3, 3, name="cf")
        design = DesignPoint.create(
            nest, Mapping("o", "c", "i", "IN", "W"), ArrayShape(4, 3, 2), {"r": 2}
        )
        result = FastWavefrontSimulator(design).run(synthetic_arrays(nest))
        stats = cycle_statistics(design)
        assert result.blocks == stats.blocks
        assert result.waves == stats.waves
        assert result.compute_cycles == stats.compute_cycles
        assert result.pe_active_cycles == stats.pe_active_cycles
        assert result.first_all_active_cycle == stats.first_all_active_cycle


class TestLayerBackend:
    def test_simulate_layer_backends_agree_bitwise(self):
        layer = ConvLayer("t", 4, 6, 7, 7, kernel=3, pad=1)
        design = DesignPoint.create(
            layer.group_view().to_loop_nest(),
            Mapping("o", "c", "i", "IN", "W"),
            ArrayShape(3, 3, 2),
            {"r": 2},
        )
        x, w = random_layer_tensors(layer, seed=11, dtype=np.float64)
        fast = simulate_layer(design, layer, x, w, backend="fast")
        engine = simulate_layer(design, layer, x, w, backend="engine")
        assert fast.tobytes() == engine.tobytes()
        np.testing.assert_allclose(fast, conv2d_layer(layer, x, w), rtol=1e-9)

    def test_grouped_layer_fast_backend(self):
        layer = ConvLayer("g", 4, 6, 7, 7, kernel=3, pad=1, groups=2)
        design = DesignPoint.create(
            layer.group_view().to_loop_nest(),
            Mapping("o", "c", "i", "IN", "W"),
            ArrayShape(3, 3, 2),
            {"r": 2},
        )
        x, w = random_layer_tensors(layer, seed=12, dtype=np.float64)
        got = simulate_layer(design, layer, x, w, backend="fast")
        np.testing.assert_allclose(got, conv2d_layer(layer, x, w), rtol=1e-9)

    def test_unknown_backend_rejected(self):
        layer = ConvLayer("t", 2, 2, 4, 4, kernel=2)
        design = DesignPoint.create(
            layer.group_view().to_loop_nest(),
            Mapping("o", "c", "i", "IN", "W"),
            ArrayShape(2, 2, 1),
            {},
        )
        x, w = random_layer_tensors(layer, seed=0)
        with pytest.raises(ValueError, match="unknown simulator backend"):
            simulate_layer(design, layer, x, w, backend="hdl")


class TestGuardRails:
    def test_negative_coefficient_access_rejected(self):
        from repro.ir.access import AffineExpr, ArrayAccess
        from repro.ir.loop import Loop, LoopNest

        nest = LoopNest(
            loops=(Loop("i", 4), Loop("j", 4), Loop("k", 4)),
            accesses=(
                ArrayAccess(
                    "O",
                    (AffineExpr.of({"i": 1}), AffineExpr.of({"j": 1})),
                    is_write=True,
                ),
                ArrayAccess("A", (AffineExpr.of({"i": 1}), AffineExpr.of({"k": 1}))),
                ArrayAccess(
                    "B",
                    (
                        AffineExpr.of({"k": 1, "j": -1}, const=3),
                        AffineExpr.of({"j": 1}),
                    ),
                ),
            ),
            name="neg",
        )
        mapping = next(iter(feasible_mappings(nest)), None)
        if mapping is None:
            pytest.skip("no feasible mapping for the negative-access nest")
        design = DesignPoint.create(nest, mapping, ArrayShape(2, 2, 1), {})
        with pytest.raises(ValueError, match="systolizable subset"):
            FastWavefrontSimulator(design)


class TestSimdDot:
    def test_matches_sequential_sum(self):
        w = np.array([1.5, -2.0, 3.25])
        x = np.array([2.0, 0.5, -1.0])
        total = 0.0
        for a, b in zip(w, x):
            total += a * b
        assert simd_dot(w, x) == total


@pytest.mark.slow
class TestScale:
    def test_alexnet_conv_layer_under_ten_seconds(self):
        """The acceptance criterion: a full AlexNet conv layer in seconds,
        on a realistically tuned design (the paper's (11, 13, 8) shape)."""
        import time

        from repro.dse.tuner import MiddleTuner
        from repro.model.platform import Platform
        from repro.nn.models import alexnet

        network = alexnet()
        layer = max(network.conv_layers, key=lambda l: l.macs)
        nest = layer.group_view().to_loop_nest()
        mapping = Mapping("o", "c", "i", "IN", "W")
        shape = ArrayShape(11, 13, 8)
        design = MiddleTuner(nest, mapping, shape, Platform()).tune().design
        x, w = random_layer_tensors(layer, seed=0, dtype=np.float64)
        start = time.monotonic()
        got = simulate_layer(design, layer, x, w, backend="fast")
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"fast sim took {elapsed:.1f}s"
        np.testing.assert_allclose(got, conv2d_layer(layer, x, w), rtol=1e-9)
