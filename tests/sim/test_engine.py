"""Cycle-accurate engine tests: functional correctness against the golden
model and the Fig. 3 structural facts, and the tripwire that keeps the
engine a test oracle rather than a product backend."""

import ast
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.loop import conv_loop_nest
from repro.model.design_point import ArrayShape, DesignPoint
from repro.model.mapping import Mapping, feasible_mappings
from repro.nn.golden import conv2d_layer, random_layer_tensors
from repro.nn.layers import ConvLayer
from repro.sim.backends import WAVEFRONT_BACKENDS, SimBackend
from repro.sim.engine import SystolicArrayEngine
from repro.sim.functional import audit_tiling_coverage, simulate_layer
from tests.strategies import array_shapes, seeds

#: The engine as a wavefront backend, for these tests only.
ENGINE = SimBackend("engine", lambda design, arrays: SystolicArrayEngine(design).run(arrays), None)


def engine_layer(design, layer, x, w):
    """:func:`simulate_layer` (padding and groups) on the oracle engine."""
    with mock.patch.dict(WAVEFRONT_BACKENDS, engine=ENGINE):
        return simulate_layer(design, layer, x, w, backend="engine")


def small_layer():
    return ConvLayer("t", 4, 6, 7, 7, kernel=3)


def design_for(layer, mapping=None, shape=ArrayShape(3, 3, 2), middle=None):
    nest = layer.group_view().to_loop_nest()
    mapping = mapping or Mapping("o", "c", "i", "IN", "W")
    return DesignPoint.create(nest, mapping, shape, middle or {})


class TestEngineFunctional:
    def test_matches_golden_conv(self):
        layer = small_layer()
        design = design_for(layer, middle={"i": 1, "r": 2, "p": 3, "q": 3})
        x, w = random_layer_tensors(layer, seed=1, dtype=np.float64)
        got = engine_layer(design, layer, x, w)
        np.testing.assert_allclose(got, conv2d_layer(layer, x, w), rtol=1e-9)

    def test_matches_golden_with_awkward_shape(self):
        """Shape that divides nothing: padding positions must contribute 0."""
        layer = small_layer()
        design = design_for(layer, shape=ArrayShape(4, 3, 4), middle={"r": 3})
        x, w = random_layer_tensors(layer, seed=2, dtype=np.float64)
        got = engine_layer(design, layer, x, w)
        np.testing.assert_allclose(got, conv2d_layer(layer, x, w), rtol=1e-9)

    def test_grouped_layer(self):
        layer = ConvLayer("g", 4, 6, 7, 7, kernel=3, pad=1, groups=2)
        design = design_for(layer, shape=ArrayShape(3, 3, 2), middle={"r": 2})
        x, w = random_layer_tensors(layer, seed=3, dtype=np.float64)
        got = engine_layer(design, layer, x, w)
        np.testing.assert_allclose(got, conv2d_layer(layer, x, w), rtol=1e-9)

    def test_padded_layer(self):
        layer = ConvLayer("p", 3, 4, 6, 6, kernel=3, pad=1)
        design = design_for(layer, shape=ArrayShape(2, 3, 3), middle={"r": 2, "p": 3})
        x, w = random_layer_tensors(layer, seed=4, dtype=np.float64)
        got = engine_layer(design, layer, x, w)
        np.testing.assert_allclose(got, conv2d_layer(layer, x, w), rtol=1e-9)

    def test_every_feasible_mapping_computes_the_same_conv(self):
        """All 12 mappings are *functionally* equivalent — only the
        dataflow differs."""
        layer = ConvLayer("t", 4, 4, 5, 5, kernel=2)
        x, w = random_layer_tensors(layer, seed=5, dtype=np.float64)
        want = conv2d_layer(layer, x, w)
        nest = layer.to_loop_nest()
        for mapping in feasible_mappings(nest):
            design = DesignPoint.create(nest, mapping, ArrayShape(2, 2, 2), {})
            got = engine_layer(design, layer, x, w)
            np.testing.assert_allclose(got, want, rtol=1e-9, err_msg=str(mapping))

    def test_design_layer_mismatch_rejected(self):
        layer = small_layer()
        other = ConvLayer("other", 8, 6, 7, 7, kernel=3)
        design = design_for(other)
        x, w = random_layer_tensors(layer, seed=0, dtype=np.float64)
        with pytest.raises(ValueError):
            engine_layer(design, layer, x, w)

    @settings(max_examples=10, deadline=None)
    @given(shape=array_shapes(vectors=(1, 2)), seed=seeds)
    def test_property_random_designs_match_golden(self, shape, seed):
        layer = ConvLayer("t", 2, 3, 5, 5, kernel=2)
        design = design_for(layer, shape=shape, middle={"r": 2})
        x, w = random_layer_tensors(layer, seed=seed, dtype=np.float64)
        got = engine_layer(design, layer, x, w)
        np.testing.assert_allclose(got, conv2d_layer(layer, x, w), rtol=1e-9)


class TestEngineStructure:
    def test_schedule_violation_detection_is_armed(self):
        """Wave tags exist and agree everywhere on a clean run (the
        assertion inside the engine would raise otherwise)."""
        layer = small_layer()
        design = design_for(layer)
        x, w = random_layer_tensors(layer, seed=6, dtype=np.float64)
        result = SystolicArrayEngine(design).run({"IN": np.pad(x, ((0, 0), (0, 0), (0, 0))), "W": w})
        assert result.compute_cycles > 0

    def test_fig3_first_all_active(self):
        layer = small_layer()
        design = design_for(layer, shape=ArrayShape(3, 3, 2))
        x, w = random_layer_tensors(layer, seed=7, dtype=np.float64)
        result = SystolicArrayEngine(design).run({"IN": x, "W": w})
        assert result.first_all_active_cycle == 4  # fifth cycle, 0-indexed

    def test_cycle_count_matches_schedule_formula(self):
        """Each block takes exactly M + R + C - 2 cycles."""
        layer = ConvLayer("t", 2, 4, 4, 4, kernel=2)
        design = design_for(layer, shape=ArrayShape(2, 2, 2), middle={"r": 2})
        x, w = random_layer_tensors(layer, seed=8, dtype=np.float64)
        result = SystolicArrayEngine(design).run({"IN": x, "W": w})
        # blocks along o: 4/2=2, i: 1, c: 2 (t_c=2? col is c with bound 2)...
        # rather than re-deriving, check divisibility structure:
        assert result.blocks == design.tiled.total_blocks
        # per-block waves vary with clipping; total cycles == sum over
        # blocks of waves + (R + C - 2) per block
        overhead = result.blocks * (2 + 2 - 2)
        assert result.compute_cycles == result.waves + overhead

    def test_pe_activity_counts_effective_and_padding(self):
        layer = small_layer()
        design = design_for(layer)
        x, w = random_layer_tensors(layer, seed=9, dtype=np.float64)
        result = SystolicArrayEngine(design).run({"IN": x, "W": w})
        # every wave activates every PE exactly once
        assert result.pe_active_cycles == result.waves * 9


class TestTilingCoverageAudit:
    def test_clean_design_passes(self):
        layer = small_layer()
        design = design_for(layer, middle={"i": 2, "r": 2})
        audit_tiling_coverage(design)

    def test_awkward_bounds_pass(self):
        nest = conv_loop_nest(7, 5, 3, 3, 2, 2)
        design = DesignPoint.create(
            nest, Mapping("o", "c", "i", "IN", "W"), ArrayShape(3, 2, 2), {"r": 2, "p": 2}
        )
        audit_tiling_coverage(design)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 3))
    def test_property_coverage_random_shapes(self, rows, cols, vec):
        nest = conv_loop_nest(5, 4, 4, 3, 2, 2)
        design = DesignPoint.create(
            nest, Mapping("o", "c", "i", "IN", "W"), ArrayShape(rows, cols, vec), {"p": 2}
        )
        audit_tiling_coverage(design)


class TestEngineIsATestOracle:
    def test_no_product_module_imports_the_engine(self):
        """``repro.sim.engine`` is the tests' oracle: no ``src/repro``
        module but the engine itself may import it."""
        root = Path(__file__).resolve().parents[2] / "src" / "repro"
        offenders = []
        for path in sorted(root.rglob("*.py")):
            if path == root / "sim" / "engine.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module] + [
                        f"{node.module}.{alias.name}" for alias in node.names
                    ]
                else:
                    continue
                if "repro.sim.engine" in names:
                    offenders.append(f"{path.relative_to(root)}:{node.lineno}")
        assert not offenders, offenders
