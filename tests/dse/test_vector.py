"""Bit-identity of the columnar (vector) DSE engine vs the object path.

The vector engine's contract is not "close": winners, tie-breaks, visit
counts and prune counts must be *equal* to the scalar object walk.  These
tests pin that on random configurations, on both ragged-middle semantics,
and end-to-end on the golden AlexNet/VGG nests through phase 1, phase 2
and the unified multi-layer selection.
"""

import random
import tracemalloc
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.datatype import FIXED_8_16, FLOAT32
from repro.ir.loop import conv_loop_nest
from repro.model.design_point import ArrayShape
from repro.model.mapping import Mapping, feasible_mappings
from repro.model.platform import Platform
from repro.nn.folding import fold_layer
from repro.nn.models import alexnet, mobilenet_v1, resnet18, vgg16
from repro.dse.explore import (
    DseConfig,
    phase1,
    phase2,
    throughput_upper_bound_gops,
)
from repro.dse.multi_layer import (
    _aggregate_upper_bound,
    prepare_network_nests,
    select_unified_design,
)
from repro.dse.space import enumerate_configs
from repro.dse.tuner import MiddleTuner
from repro.dse.vector import (
    CandidateTable,
    VectorTuner,
    aggregate_upper_bounds,
    legality_mask,
    tuner_for,
    upper_bounds,
)
from tests.strategies import array_shapes, rich_conv_layers


def conv5():
    return conv_loop_nest(128, 192, 13, 13, 3, 3, name="conv5")


def strided():
    return conv_loop_nest(16, 3, 14, 14, 5, 5, stride=2, name="strided")


def vgg_conv11():
    return next(
        w.nest for w in prepare_network_nests(vgg16()) if w.name == "conv11"
    )


SMALL = DseConfig(min_dsp_utilization=0.6, vector_choices=(4, 8), top_n=8)


def counting_slabs(monkeypatch):
    """Count the slabs ``VectorTuner.tune`` scores from here on."""
    scored = []
    score = VectorTuner._score

    def counting(self, blocks, freq_hz):
        scored.append(len(blocks))
        return score(self, blocks, freq_hz)

    monkeypatch.setattr(VectorTuner, "_score", counting)
    return scored


def tune_or_error(tuner, frequency_mhz=None):
    try:
        return tuner.tune(frequency_mhz=frequency_mhz)
    except RuntimeError as exc:
        return str(exc)


def random_configs(nest, platform, count, seed):
    pool = list(enumerate_configs(nest, platform, min_dsp_utilization=0.5))
    return random.Random(seed).sample(pool, min(count, len(pool)))


class TestVectorTunerBitIdentity:
    @pytest.mark.parametrize("ragged", ["padded", "clipped"])
    def test_random_configs_match_scalar_exactly(self, ragged):
        nest = conv5()
        platform = Platform(ragged_middle=ragged)
        for config in random_configs(nest, platform, 12, seed=len(ragged)):
            scalar = MiddleTuner(
                nest, config.mapping, config.shape, platform
            ).tune()
            vector = VectorTuner(
                nest, config.mapping, config.shape, platform
            ).tune()
            assert vector == scalar  # dataclass equality: design + floats

    def test_strided_folded_nest_matches(self):
        nest = strided()
        platform = Platform()
        for config in random_configs(nest, platform, 8, seed=3):
            assert (
                VectorTuner(nest, config.mapping, config.shape, platform).tune()
                == MiddleTuner(nest, config.mapping, config.shape, platform).tune()
            )

    def test_frequency_override_matches(self):
        nest = conv5()
        platform = Platform()
        config = random_configs(nest, platform, 1, seed=7)[0]
        args = (nest, config.mapping, config.shape, platform)
        assert VectorTuner(*args).tune(frequency_mhz=193.7) == MiddleTuner(
            *args
        ).tune(frequency_mhz=193.7)

    def test_chunked_walk_matches_single_chunk(self, monkeypatch):
        # Force many tiny chunks so the cross-chunk tie-break replays.
        nest = conv5()
        platform = Platform()
        config = random_configs(nest, platform, 1, seed=11)[0]
        args = (nest, config.mapping, config.shape, platform)
        baseline = VectorTuner(*args).tune()
        monkeypatch.setattr(VectorTuner, "CHUNK", 17)
        scored = counting_slabs(monkeypatch)
        assert VectorTuner(*args).tune() == baseline
        assert len(scored) >= baseline.candidates_evaluated // 17 > 1

    def test_out_of_range_config_falls_back_to_scalar(self, monkeypatch):
        # When intermediates could exceed float64's exact range the guard
        # must refuse the vector math and delegate wholesale.  Tightening
        # the limit makes an ordinary config trip it without needing a
        # nest whose scalar walk would take minutes.
        import repro.dse.vector as vector_mod

        nest = conv5()
        platform = Platform()
        config = random_configs(nest, platform, 1, seed=5)[0]
        args = (nest, config.mapping, config.shape, platform)
        monkeypatch.setattr(vector_mod, "INT_EXACT_LIMIT", 1_000)
        scored = counting_slabs(monkeypatch)
        tuner = VectorTuner(*args)
        assert not tuner._within_exact_range()
        assert tuner.tune() == MiddleTuner(*args).tune()
        assert not scored  # the scalar walk ran, not the kernel
        # And a genuinely oversized nest trips the real limit.
        huge = conv_loop_nest(32768, 32768, 1024, 1024, 3, 3, name="huge")
        monkeypatch.undo()
        assert not VectorTuner(
            huge, Mapping("o", "c", "i", "IN", "W"), ArrayShape(2, 2, 4), platform
        )._within_exact_range()

    def test_infeasible_raises_same_error(self):
        nest = conv5()
        base = Platform()
        platform = replace(
            base, device=replace(base.device, bram_blocks=1, name="tiny")
        )
        mapping = Mapping("o", "c", "i", "IN", "W")
        shape = ArrayShape(11, 13, 8)
        with pytest.raises(RuntimeError, match="no feasible tiling"):
            VectorTuner(nest, mapping, shape, platform).tune()

    def test_above_chunk_grid_tunes_in_slabs_under_a_memory_ceiling(self, monkeypatch):
        """Regression: a broadcast kernel must not materialise a grid the
        C front end may make arbitrarily large — above ``CHUNK`` rows it
        walks slabs, so the peak is set by ``CHUNK``, not by the grid."""
        nest = conv_loop_nest(4096, 4096, 64, 64, 7, 7, name="wide")
        args = (nest, Mapping("o", "c", "i", "IN", "W"), ArrayShape(2, 2, 4), Platform())
        tuner = VectorTuner(*args)
        assert tuner._within_exact_range()
        assert tuner.pruned_space_size() > 2 * VectorTuner.CHUNK

        def peak_of(tune):
            tracemalloc.start()
            try:
                result = tune()
                return result, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        scored = counting_slabs(monkeypatch)
        slabbed, peak = peak_of(tuner.tune)
        assert len(scored) > 2
        assert peak < 16 * 2**20  # ~12 live CHUNK-row float64/int64 arrays

        monkeypatch.setattr(VectorTuner, "CHUNK", 2 * tuner.pruned_space_size())
        del scored[:]
        whole, whole_peak = peak_of(VectorTuner(*args).tune)
        assert len(scored) == 1
        assert slabbed == whole
        assert whole_peak > 1.5 * peak  # it is the slab walk that bounds it

    def test_tuner_for_selects_engines(self):
        assert tuner_for("vector") is VectorTuner
        assert tuner_for("object") is MiddleTuner


class TestKernelProperty:
    """The broadcast kernel against the scalar walk over the structural
    vocabulary the importer admits — not just conv5 and one strided nest."""

    @settings(max_examples=30, deadline=None)
    @given(
        layer=rich_conv_layers(),
        fold=st.booleans(),
        ragged=st.sampled_from(["padded", "clipped"]),
        datatype=st.sampled_from([FLOAT32, FIXED_8_16]),
        include_cover=st.booleans(),
        clock=st.one_of(st.none(), st.floats(120.0, 400.0)),
        bram_blocks=st.sampled_from([None, 40, 24]),
        shape=array_shapes(max_rows=4, max_cols=4, vectors=(1, 2, 4)),
        prime=st.sampled_from([2, 3, 7, 13, 31]),
    )
    def test_vector_tune_equals_scalar_tune(
        self, layer, fold, ragged, datatype, include_cover, clock, bram_blocks, shape, prime
    ):
        if fold and layer.stride > 1 and layer.groups == 1 and layer.dilation == 1:
            layer = fold_layer(layer)
        nest = layer.group_view().to_loop_nest()
        platform = Platform(datatype=datatype, ragged_middle=ragged)
        if bram_blocks is not None:  # tight budgets: infeasible rows, or none feasible
            platform = replace(
                platform, device=replace(platform.device, bram_blocks=bram_blocks)
            )
        for mapping in feasible_mappings(nest):
            args = (nest, mapping, shape, platform)
            scalar = tune_or_error(MiddleTuner(*args, include_cover=include_cover), clock)
            vector = VectorTuner(*args, include_cover=include_cover)
            assert vector._within_exact_range()
            assert tune_or_error(vector, clock) == scalar
            # Again with CHUNK far below the grid, so the walk takes many
            # slabs and the cross-slab tie-break decides.
            with mock.patch.object(VectorTuner, "CHUNK", prime):
                assert tune_or_error(vector, clock) == scalar


class TestBatchedBounds:
    def test_upper_bounds_bit_identical(self):
        nest = conv5()
        platform = Platform()
        candidates = list(enumerate_configs(nest, platform, min_dsp_utilization=0.6))
        table = CandidateTable.from_configs(nest, candidates)
        batched = upper_bounds(table, platform)
        for value, config in zip(batched.tolist(), candidates):
            assert value == throughput_upper_bound_gops(nest, config, platform)

    def test_aggregate_upper_bounds_bit_identical(self):
        workloads = prepare_network_nests(alexnet())
        platform = Platform()
        from repro.dse.multi_layer import _common_mappings, _envelope_nest
        from repro.dse.space import SystolicConfig, enumerate_shapes

        envelope = _envelope_nest(workloads)
        candidates = [
            SystolicConfig(mapping, shape)
            for mapping in _common_mappings(workloads)
            for shape in enumerate_shapes(
                envelope, mapping, platform, min_dsp_utilization=0.8
            )
        ]
        table = CandidateTable.from_configs(envelope, candidates)
        batched = aggregate_upper_bounds(workloads, table, platform)
        for value, config in zip(batched.tolist(), candidates):
            assert value == _aggregate_upper_bound(workloads, config, platform)

    def test_legality_mask_accepts_enumeration_rejects_overbudget(self):
        nest = conv5()
        platform = Platform()
        candidates = list(enumerate_configs(nest, platform, min_dsp_utilization=0.6))
        table = CandidateTable.from_configs(nest, candidates)
        assert bool(
            legality_mask(table, platform, min_dsp_utilization=0.6).all()
        )
        # A shape blowing the DSP budget must be masked out.
        from repro.dse.space import SystolicConfig

        over = SystolicConfig(
            candidates[0].mapping, ArrayShape(4096, 4096, 16)
        )
        bad_table = CandidateTable.from_configs(nest, [candidates[0], over])
        mask = legality_mask(bad_table, platform, min_dsp_utilization=0.6)
        assert mask.tolist() == [True, False]

    def test_candidate_table_columns_align(self):
        nest = conv5()
        platform = Platform()
        candidates = list(enumerate_configs(nest, platform, min_dsp_utilization=0.8))
        table = CandidateTable.from_configs(nest, candidates)
        assert len(table) == len(candidates)
        i = len(candidates) // 2
        assert (
            int(table.rows[i]),
            int(table.cols[i]),
            int(table.vector[i]),
        ) == (
            candidates[i].shape.rows,
            candidates[i].shape.cols,
            candidates[i].shape.vector,
        )
        assert table.mappings[int(table.mapping_index[i])] == candidates[i].mapping


class TestPhaseBitIdentity:
    """Same finalists, same prune/visit counts, engine-for-engine."""

    @pytest.mark.parametrize("nest_fn", [conv5, vgg_conv11])
    def test_phase1_and_phase2(self, nest_fn):
        nest = nest_fn()
        platform = Platform()
        object_result = phase1(
            nest, platform, DseConfig(**{**SMALL.__dict__, "engine": "object"})
        )
        vector_result = phase1(
            nest, platform, DseConfig(**{**SMALL.__dict__, "engine": "vector"})
        )
        assert vector_result == object_result  # finalists + all counters
        assert vector_result.configs_tuned == object_result.configs_tuned
        assert vector_result.tilings_evaluated == object_result.tilings_evaluated
        assert phase2(vector_result, platform) == phase2(object_result, platform)

    def test_unified_selection(self):
        workloads = prepare_network_nests(alexnet())[:3]
        platform = Platform()
        kwargs = dict(min_dsp_utilization=0.85, vector_choices=(8,), top_n=6)
        object_result = select_unified_design(
            workloads, platform, DseConfig(engine="object", **kwargs)
        )
        vector_result = select_unified_design(
            workloads, platform, DseConfig(engine="vector", **kwargs)
        )
        assert vector_result == object_result
        assert vector_result.configs_tuned == object_result.configs_tuned

    @pytest.mark.parametrize("network", [mobilenet_v1, resnet18])
    def test_unified_selection_imported_networks(self, network):
        """Vector-vs-object equality on the importer's network classes:
        depthwise + strided (MobileNet) and residual (ResNet) layers."""
        workloads = prepare_network_nests(network())[:3]
        platform = Platform()
        kwargs = dict(min_dsp_utilization=0.85, vector_choices=(8,), top_n=6)
        object_result = select_unified_design(
            workloads, platform, DseConfig(engine="object", **kwargs)
        )
        vector_result = select_unified_design(
            workloads, platform, DseConfig(engine="vector", **kwargs)
        )
        assert vector_result == object_result
        assert vector_result.configs_tuned == object_result.configs_tuned

    def test_pruning_disabled_still_identical(self):
        nest = conv5()
        platform = Platform()
        kwargs = dict(
            min_dsp_utilization=0.8, vector_choices=(8,), upper_bound_pruning=False
        )
        assert phase1(
            nest, platform, DseConfig(engine="vector", **kwargs)
        ) == phase1(nest, platform, DseConfig(engine="object", **kwargs))


class TestEngineKnob:
    def test_bad_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown DSE engine"):
            DseConfig(engine="quantum")

    def test_engines_exported(self):
        from repro.dse.explore import ENGINES

        assert ENGINES == ("vector", "object")
