"""Fast wavefront simulator: differential identity against the engine.

The contract under test is absolute: for every design the cycle-accurate
engine can run, :class:`FastWavefrontSimulator` must return the same
:class:`EngineResult` — output tensor bit-for-bit, every counter equal.
Property tests draw designs from the shared strategies (awkward bounds,
strides, all twelve mappings) so nothing here is hand-picked.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.ir.access import AffineExpr, ArrayAccess
from repro.ir.loop import Loop, LoopNest, conv_loop_nest
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


def matmul_like_nest(out_subscripts, name):
    """``O[...] += A[i][k] * B[k][j]`` over i < 5, j < 4, k < 6."""
    return LoopNest(
        loops=(Loop("i", 5), Loop("j", 4), Loop("k", 6)),
        accesses=(
            ArrayAccess("O", tuple(AffineExpr.of(s) for s in out_subscripts), is_write=True),
            ArrayAccess("A", (AffineExpr.var("i"), AffineExpr.var("k"))),
            ArrayAccess("B", (AffineExpr.var("k"), AffineExpr.var("j"))),
        ),
        name=name,
    )


#: Ragged against every conv bound below in rows, columns *and* lanes.
RAGGED_SHAPE = ArrayShape(4, 4, 3)


class TestPlaneRule:
    """One accumulator plane per PE coordinate the output element does
    not already determine — and the same bits as the engine either way."""

    @pytest.mark.parametrize(
        "kwargs", [{}, {"stride": 2}, {"dilation": 2}], ids=["plain", "strided", "dilated"]
    )
    def test_every_mapping_ragged_shape_both_chunkings(self, kwargs):
        nest = conv_loop_nest(6, 4, 5, 5, 2, 2, name="planes", **kwargs)
        arrays = synthetic_arrays(nest, seed=4)
        mappings = feasible_mappings(nest)
        assert len(mappings) == 12
        for mapping in mappings:
            design = DesignPoint.create(
                nest, mapping, RAGGED_SHAPE, {"r": 2, "c": 2, "i": 2, "q": 2}
            )
            # row and col are both bare OUT subscripts in every conv mapping
            assert FastWavefrontSimulator(design).accumulator_planes == 1
            default = assert_identical(design, arrays)
            tiny = assert_identical(design, arrays, chunk_entries=7)
            assert default.output.tobytes() == tiny.output.tobytes()

    def test_non_bare_output_subscript_keeps_every_plane(self):
        """``O[i+j]``: PEs (x, y) and (x+1, y-1) hit the same element, so
        each PE needs its own accumulator and the drain adds all R*C."""
        nest = matmul_like_nest([{"i": 1, "j": 1}], "diag")
        design = DesignPoint.create(
            nest, Mapping("i", "j", "k", "B", "A"), ArrayShape(3, 3, 4), {"i": 2, "k": 2}
        )
        assert FastWavefrontSimulator(design).accumulator_planes == 9
        arrays = synthetic_arrays(nest, seed=6)
        assert_identical(design, arrays)
        assert_identical(design, arrays, chunk_entries=7)

    def test_scaled_output_subscript_is_not_bare(self):
        """``O[2*i][j]`` fixes x too, but only coefficient 1 is claimed."""
        nest = matmul_like_nest([{"i": 2}, {"j": 1}], "scaled")
        design = DesignPoint.create(
            nest, Mapping("i", "j", "k", "B", "A"), ArrayShape(3, 3, 4), {"j": 2}
        )
        assert FastWavefrontSimulator(design).accumulator_planes == 3
        assert_identical(design, synthetic_arrays(nest, seed=7))

    def test_plane_count(self):
        def planes(out_subscripts, mapping, shape=ArrayShape(3, 2, 4)):
            nest = matmul_like_nest(out_subscripts, "count")
            design = DesignPoint.create(nest, mapping, shape, {})
            return FastWavefrontSimulator(design).accumulator_planes

        conv = conv_loop_nest(4, 3, 5, 5, 2, 2, name="count")
        paper = DesignPoint.create(conv, Mapping("o", "c", "i", "IN", "W"), ArrayShape(3, 2, 2))
        assert FastWavefrontSimulator(paper).accumulator_planes == 1
        # O[i][j], row=i, col=j: the element fixes both coordinates
        assert planes([{"i": 1}, {"j": 1}], Mapping("i", "j", "k", "B", "A")) == 1
        # O[i]: j is a reduction iterator; on rows it keeps R planes...
        assert planes([{"i": 1}], Mapping("j", "i", "k", "A", "B")) == 3
        # ...on columns C planes...
        assert planes([{"i": 1}], Mapping("i", "j", "k", "B", "A")) == 2
        # ...and with reductions on both axes, all R*C
        assert planes([{"i": 1}], Mapping("j", "k", "i", "A", "B")) == 6

    @pytest.mark.parametrize(
        "mapping",
        [Mapping("j", "i", "k", "A", "B"), Mapping("i", "j", "k", "B", "A")],
        ids=["reduction_on_rows", "reduction_on_cols"],
    )
    def test_reduction_iterator_on_an_array_axis_is_identical(self, mapping):
        nest = matmul_like_nest([{"i": 1}], "reduce")
        design = DesignPoint.create(nest, mapping, ArrayShape(3, 2, 4), {"j": 2, "k": 2})
        arrays = synthetic_arrays(nest, seed=8)
        assert_identical(design, arrays)
        assert_identical(design, arrays, chunk_entries=7)


class TestOperandTensors:
    """The flat gather reads a raveled float64 copy; whatever layout or
    dtype the caller hands in must give the engine's bytes."""

    def _design(self):
        nest = conv_loop_nest(5, 4, 5, 5, 2, 2, name="operands")
        design = DesignPoint.create(
            nest, Mapping("o", "c", "i", "IN", "W"), ArrayShape(3, 2, 3), {"r": 2, "i": 2}
        )
        return design, synthetic_arrays(nest, seed=9)

    def test_non_contiguous_views(self):
        design, arrays = self._design()
        reference = FastWavefrontSimulator(design).run(arrays)
        big_in = np.zeros((8, 9, 9))
        big_in[2:6, 1:7, 3:9] = arrays["IN"]
        views = {
            "IN": big_in[2:6, 1:7, 3:9],  # a window of a larger tensor
            "W": np.ascontiguousarray(arrays["W"].transpose(3, 2, 1, 0)).transpose(3, 2, 1, 0),
        }
        assert not views["IN"].flags.c_contiguous
        assert not views["W"].flags.c_contiguous
        got = assert_identical(design, views)
        assert got.output.tobytes() == reference.output.tobytes()

    def test_float32_inputs(self):
        design, arrays = self._design()
        narrow = {name: tensor.astype(np.float32) for name, tensor in arrays.items()}
        got = assert_identical(design, narrow)
        widened = {name: tensor.astype(np.float64) for name, tensor in narrow.items()}
        assert got.output.tobytes() == FastWavefrontSimulator(design).run(widened).output.tobytes()

    def test_undersized_operand_is_refused(self):
        """A flat offset into a too-small tensor would silently alias."""
        design, arrays = self._design()
        short = {**arrays, "IN": arrays["IN"][:, :, :-1]}
        with pytest.raises(IndexError, match="IN.*too small"):
            FastWavefrontSimulator(design).run(short)


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

    def test_accumulator_budget_counts_planes_not_pes(self, monkeypatch):
        """OUT[o][r][c] with row=o, col=c is one plane of the block's
        footprint: a budget the per-PE rule (rows x cols x box) blows
        admits it, and one below the footprint itself still refuses."""
        nest = conv_loop_nest(4, 2, 6, 6, 2, 2, name="budget")
        design = DesignPoint.create(
            nest, Mapping("o", "c", "i", "IN", "W"), ArrayShape(2, 3, 2), {"r": 6, "c": 2}
        )
        box = 2 * 6 * 6  # one block: o-tile x all r x all c
        arrays = synthetic_arrays(nest, seed=3)
        monkeypatch.setattr(FastWavefrontSimulator, "MAX_ACC_ENTRIES", box)
        assert box < 2 * 3 * box  # what the per-PE rule would have asked for
        assert_identical(design, arrays)
        monkeypatch.setattr(FastWavefrontSimulator, "MAX_ACC_ENTRIES", box - 1)
        with pytest.raises(
            ValueError, match=r"footprint \(2, 6, 6\) x 1 accumulator planes exceeds"
        ):
            FastWavefrontSimulator(design).run(arrays)

    def test_accumulator_budget_keeps_reduction_planes(self, monkeypatch):
        nest = matmul_like_nest([{"i": 1}], "budget_planes")
        design = DesignPoint.create(
            nest, Mapping("j", "i", "k", "A", "B"), ArrayShape(3, 2, 4), {"i": 3}
        )
        monkeypatch.setattr(FastWavefrontSimulator, "MAX_ACC_ENTRIES", 3 * 5 - 1)
        with pytest.raises(ValueError, match=r"\(5,\) x 3 accumulator planes"):
            FastWavefrontSimulator(design).run(synthetic_arrays(nest))


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
    @pytest.mark.parametrize(
        "layer_name, ceiling_mb",
        # the per-PE accumulators and 2M-entry chunks this replaced peak at
        # 14 MB on conv2 (the largest layer) and 251 MB on conv1
        [("conv2", 10), ("conv1", 16)],
    )
    def test_alexnet_conv_layer_in_cache_sized_memory(self, layer_name, ceiling_mb):
        """A full AlexNet conv layer on a realistically tuned design (the
        paper's (11, 13, 8) shape) matches the golden convolution, in a
        working set of chunk buffers plus one plane of one block's output
        — an allocation count, so the same on every machine."""
        from repro.dse.tuner import MiddleTuner
        from repro.model.platform import Platform
        from repro.nn.models import alexnet

        layer = next(l for l in alexnet().conv_layers if l.name == layer_name)
        nest = layer.group_view().to_loop_nest()
        mapping = Mapping("o", "c", "i", "IN", "W")
        shape = ArrayShape(11, 13, 8)
        design = MiddleTuner(nest, mapping, shape, Platform()).tune().design
        x, w = random_layer_tensors(layer, seed=0, dtype=np.float64)
        tracemalloc.start()
        try:
            got = simulate_layer(design, layer, x, w, backend="fast")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ceiling_mb * 1e6, f"fast sim peaked at {peak / 1e6:.1f} MB"
        np.testing.assert_allclose(got, conv2d_layer(layer, x, w), rtol=1e-9)
