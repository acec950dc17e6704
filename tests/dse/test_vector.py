"""Bit-identity of the DSE's one columnar tiling kernel.

The kernel's contract is not "close": winners, tie-breaks, BRAM counts
and visit counts must be *equal* to the scalar oracle of
``tests/dse/oracle.py`` (the model inlined one tiling at a time and
walked with ``itertools.product``).  These tests pin that on random
configurations, on both ragged-middle semantics, on the Python-int
columns past 2^53, and over the importer's structural vocabulary; and
they hold phase 1, phase 2 and the unified selection to results recorded
before the kernel became the only one.
"""

import json
import random
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.dse.tuner as tuner_mod
from repro.hw.datatype import FIXED_8_16, FLOAT32
from repro.ir.loop import conv_loop_nest
from repro.model.design_point import ArrayShape
from repro.model.mapping import Mapping, feasible_mappings
from repro.model.platform import Platform
from repro.nn.folding import fold_layer
from repro.nn.models import alexnet, mobilenet_v1, resnet18, vgg16
from repro.dse.explore import DseConfig, phase1, phase2
from repro.dse.multi_layer import prepare_network_nests, select_unified_design
from repro.dse.space import enumerate_configs
from repro.dse.tuner import MiddleTuner
from repro.dse.vector import CandidateTable, VectorTuner, aggregate_upper_bounds, upper_bounds
from repro.pipeline.codecs import encode_unified
from tests.dse.oracle import ScalarTuner, aggregate_upper_bound, throughput_upper_bound_gops
from tests.strategies import array_shapes, rich_conv_layers

GOLDEN = Path(__file__).parent / "golden" / "dse_search.json"


def conv5():
    return conv_loop_nest(128, 192, 13, 13, 3, 3, name="conv5")


def strided():
    return conv_loop_nest(16, 3, 14, 14, 5, 5, stride=2, name="strided")


def vgg_conv11():
    return next(
        w.nest for w in prepare_network_nests(vgg16()) if w.name == "conv11"
    )


def huge():
    return conv_loop_nest(32768, 32768, 1024, 1024, 3, 3, name="huge")


SMALL = DseConfig(min_dsp_utilization=0.6, vector_choices=(4, 8), top_n=8)


def counting_slabs(monkeypatch):
    """Record ``exact`` for every slab the kernel scores from here on."""
    scored = []
    score = MiddleTuner._score

    def counting(self, blocks, freq_hz, exact):
        scored.append(exact)
        return score(self, blocks, freq_hz, exact)

    monkeypatch.setattr(MiddleTuner, "_score", counting)
    return scored


def tune_or_error(tuner, frequency_mhz=None):
    try:
        return tuner.tune(frequency_mhz=frequency_mhz)
    except RuntimeError as exc:
        return str(exc)


def random_configs(nest, platform, count, seed):
    pool = list(enumerate_configs(nest, platform, min_dsp_utilization=0.5))
    return random.Random(seed).sample(pool, min(count, len(pool)))


def test_the_harness_name_is_the_one_tuner():
    assert VectorTuner is MiddleTuner


class TestVectorTunerBitIdentity:
    @pytest.mark.parametrize("ragged", ["padded", "clipped"])
    def test_random_configs_match_scalar_exactly(self, ragged):
        nest = conv5()
        platform = Platform(ragged_middle=ragged)
        for config in random_configs(nest, platform, 12, seed=len(ragged)):
            args = (nest, config.mapping, config.shape, platform)
            # dataclass equality: design + floats + counts
            assert MiddleTuner(*args).tune() == ScalarTuner(*args).tune()

    def test_strided_folded_nest_matches(self):
        nest = strided()
        platform = Platform()
        for config in random_configs(nest, platform, 8, seed=3):
            args = (nest, config.mapping, config.shape, platform)
            assert MiddleTuner(*args).tune() == ScalarTuner(*args).tune()

    def test_frequency_override_matches(self):
        nest = conv5()
        platform = Platform()
        config = random_configs(nest, platform, 1, seed=7)[0]
        args = (nest, config.mapping, config.shape, platform)
        assert MiddleTuner(*args).tune(frequency_mhz=193.7) == ScalarTuner(
            *args
        ).tune(frequency_mhz=193.7)

    def test_chunked_walk_matches_single_chunk(self, monkeypatch):
        # Force many tiny chunks so the cross-chunk tie-break replays.
        nest = conv5()
        platform = Platform()
        config = random_configs(nest, platform, 1, seed=11)[0]
        args = (nest, config.mapping, config.shape, platform)
        baseline = MiddleTuner(*args).tune()
        monkeypatch.setattr(MiddleTuner, "CHUNK", 17)
        scored = counting_slabs(monkeypatch)
        assert MiddleTuner(*args).tune() == baseline
        assert len(scored) >= baseline.candidates_evaluated // 17 > 1

    def test_out_of_range_config_uses_python_int_columns(self, monkeypatch):
        # Past the guard the kernel keeps running, on Python-int columns.
        # Tightening the limit makes an ordinary config trip it.
        nest = conv5()
        platform = Platform()
        config = random_configs(nest, platform, 1, seed=5)[0]
        args = (nest, config.mapping, config.shape, platform)
        monkeypatch.setattr(tuner_mod, "INT_EXACT_LIMIT", 1_000)
        scored = counting_slabs(monkeypatch)
        tuner = MiddleTuner(*args)
        assert not tuner._within_exact_range(tuner._candidates)
        assert tuner.tune() == ScalarTuner(*args).tune()
        assert scored and not any(scored)  # every slab on Python ints

    def test_huge_nest_past_2_53_equals_the_oracle(self, monkeypatch):
        """A nest whose intermediates really exceed float64's exact range
        (369,600 tilings): the kernel's Python-int columns price it as the
        oracle does."""
        args = (huge(), Mapping("o", "c", "i", "IN", "W"), ArrayShape(2, 2, 4), Platform())
        tuner = MiddleTuner(*args)
        assert not tuner._within_exact_range(tuner._candidates)
        scored = counting_slabs(monkeypatch)
        assert tuner.tune() == ScalarTuner(*args).tune()
        assert scored and not any(scored)

    def test_infeasible_raises_same_error(self):
        nest = conv5()
        base = Platform()
        platform = replace(
            base, device=replace(base.device, bram_blocks=1, name="tiny")
        )
        args = (nest, Mapping("o", "c", "i", "IN", "W"), ArrayShape(11, 13, 8), platform)
        with pytest.raises(RuntimeError, match="no feasible tiling"):
            MiddleTuner(*args).tune()
        assert tune_or_error(MiddleTuner(*args)) == tune_or_error(ScalarTuner(*args))

    def test_above_chunk_grid_tunes_in_slabs_under_a_memory_ceiling(self, monkeypatch):
        """Regression: a broadcast kernel must not materialise a grid the
        C front end may make arbitrarily large — above ``CHUNK`` rows it
        walks slabs, so the peak is set by ``CHUNK``, not by the grid."""
        nest = conv_loop_nest(4096, 4096, 64, 64, 7, 7, name="wide")
        args = (nest, Mapping("o", "c", "i", "IN", "W"), ArrayShape(2, 2, 4), Platform())
        tuner = MiddleTuner(*args)
        assert tuner._within_exact_range(tuner._candidates)
        assert tuner.pruned_space_size() > 2 * MiddleTuner.CHUNK

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

        monkeypatch.setattr(MiddleTuner, "CHUNK", 2 * tuner.pruned_space_size())
        del scored[:]
        whole, whole_peak = peak_of(MiddleTuner(*args).tune)
        assert len(scored) == 1
        assert slabbed == whole
        assert whole_peak > 1.5 * peak  # it is the slab walk that bounds it


def layer_platform(layer, fold, ragged, datatype, bram_blocks):
    if fold and layer.stride > 1 and layer.groups == 1 and layer.dilation == 1:
        layer = fold_layer(layer)
    platform = Platform(datatype=datatype, ragged_middle=ragged)
    if bram_blocks is not None:  # tight budgets: infeasible rows, or none feasible
        platform = replace(platform, device=replace(platform.device, bram_blocks=bram_blocks))
    return layer.group_view().to_loop_nest(), platform


KERNEL_CASES = dict(
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


class TestKernelProperty:
    """The kernel against the scalar oracle over the structural
    vocabulary the importer admits — not just conv5 and one strided nest."""

    @staticmethod
    def check(nest, platform, shape, include_cover, clock, prime, exact):
        for mapping in feasible_mappings(nest):
            args = (nest, mapping, shape, platform)
            scalar = tune_or_error(ScalarTuner(*args, include_cover=include_cover), clock)
            kernel = MiddleTuner(*args, include_cover=include_cover)
            assert kernel._within_exact_range(kernel._candidates) == exact
            assert tune_or_error(kernel, clock) == scalar
            # Again with CHUNK far below the grid, so the walk takes many
            # slabs and the cross-slab tie-break decides.
            with mock.patch.object(MiddleTuner, "CHUNK", prime):
                assert tune_or_error(kernel, clock) == scalar

    @settings(max_examples=30, deadline=None)
    @given(**KERNEL_CASES)
    def test_vector_tune_equals_scalar_tune(
        self, layer, fold, ragged, datatype, include_cover, clock, bram_blocks, shape, prime
    ):
        nest, platform = layer_platform(layer, fold, ragged, datatype, bram_blocks)
        self.check(nest, platform, shape, include_cover, clock, prime, exact=True)

    @settings(max_examples=20, deadline=None)
    @given(**KERNEL_CASES)
    def test_python_int_columns_equal_scalar_tune(
        self, layer, fold, ragged, datatype, include_cover, clock, bram_blocks, shape, prime
    ):
        nest, platform = layer_platform(layer, fold, ragged, datatype, bram_blocks)
        with mock.patch.object(tuner_mod, "INT_EXACT_LIMIT", 0):
            self.check(nest, platform, shape, include_cover, clock, prime, exact=False)


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
            assert value == aggregate_upper_bound(workloads, config, platform)

    def test_empty_table_has_no_bounds(self):
        nest = conv5()
        assert upper_bounds(CandidateTable.from_configs(nest, []), Platform()).size == 0

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


# ------------------------------------------------- searches vs the recording


def _row(evaluation):
    design = evaluation.design
    shape = design.shape
    return [
        str(design.mapping),
        [shape.rows, shape.cols, shape.vector],
        design.middle_bounds,
        evaluation.throughput_gops,
    ]


def _phase1_record(result):
    return {
        "configs_enumerated": result.configs_enumerated,
        "configs_tuned": result.configs_tuned,
        "tilings_evaluated": result.tilings_evaluated,
        "finalists": [_row(ev) for ev in result.finalists],
    }


def _phase2_record(result):
    return {
        "best": _row(result.best),
        "finalists": [_row(ev) for ev in result.finalists],
        "estimated_gops": list(result.estimated_gops),
    }


UNIFIED_NETWORKS = {f.__name__: f for f in (alexnet, vgg16, mobilenet_v1, resnet18)}
UNIFIED = DseConfig(min_dsp_utilization=0.85, vector_choices=(8,), top_n=6)
UNPRUNED = DseConfig(min_dsp_utilization=0.8, vector_choices=(8,), upper_bound_pruning=False)


def _unified_record(name):
    workloads = prepare_network_nests(UNIFIED_NETWORKS[name]())[:3]
    payload = encode_unified(select_unified_design(workloads, Platform(), UNIFIED))
    del payload["elapsed_seconds"]
    return payload


def _search_records():
    platform = Platform()
    out = {}
    for name, nest_fn in (("conv5", conv5), ("vgg_conv11", vgg_conv11)):
        result = phase1(nest_fn(), platform, SMALL)
        out[f"phase1/{name}"] = _phase1_record(result)
        out[f"phase2/{name}"] = _phase2_record(phase2(result, platform))
    out["phase1/conv5/unpruned"] = _phase1_record(phase1(conv5(), platform, UNPRUNED))
    for name in UNIFIED_NETWORKS:
        out[f"unified/{name}"] = _unified_record(name)
    return out


@pytest.fixture(scope="module")
def golden(request):
    """Searches recorded while the scalar walk was still in ``src``
    (``--refresh-golden`` rewrites them)."""
    if request.config.getoption("--refresh-golden"):
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(_search_records(), sort_keys=True) + "\n")
    return json.loads(GOLDEN.read_text())


def _as_json(record):
    return json.loads(json.dumps(record))


class TestPhaseBitIdentity:
    """Same finalists, same prune/visit counts, same unified winners as
    the searches recorded before the kernel became the only tuner."""

    @pytest.mark.parametrize("nest_fn", [conv5, vgg_conv11])
    def test_phase1_and_phase2(self, nest_fn, golden):
        platform = Platform()
        result = phase1(nest_fn(), platform, SMALL)
        name = nest_fn.__name__
        assert _as_json(_phase1_record(result)) == golden[f"phase1/{name}"]
        assert _as_json(_phase2_record(phase2(result, platform))) == golden[f"phase2/{name}"]

    def test_unified_selection(self, golden):
        for name in ("alexnet", "vgg16"):
            assert _as_json(_unified_record(name)) == golden[f"unified/{name}"]

    @pytest.mark.parametrize("network", [mobilenet_v1, resnet18])
    def test_unified_selection_imported_networks(self, network, golden):
        """Depthwise + strided (MobileNet) and residual (ResNet) layers."""
        name = network.__name__
        assert _as_json(_unified_record(name)) == golden[f"unified/{name}"]

    def test_pruning_disabled_still_identical(self, golden):
        result = phase1(conv5(), Platform(), UNPRUNED)
        assert _as_json(_phase1_record(result)) == golden["phase1/conv5/unpruned"]
