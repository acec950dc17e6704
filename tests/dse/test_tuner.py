"""Tests for the Problem-2 middle-bound tuner."""

import importlib
import itertools
import random
from collections import defaultdict
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.datatype import DATATYPES, FIXED_8_16, FLOAT32
from repro.hw.device import DEVICES
from repro.ir.domain import (
    IterationDomain,
    count_footprint_enumerated,
    count_footprint_rectangular,
    rectangular_is_exact,
)
from repro.ir.loop import conv_loop_nest
from repro.model.design_point import ArrayShape, DesignPoint
from repro.model.mapping import Mapping, feasible_mappings
from repro.model.platform import Platform
from repro.nn.folding import fold_layer
from repro.nn.layers import ConvLayer
from repro.nn.models import Network
from repro.dse.explore import DseConfig, phase1
from repro.dse.multi_layer import select_unified_design
from repro.dse.tuner import MiddleTuner, middle_candidates, tune_config, tuning_space_size
from tests.dse.oracle import ScalarTuner
from tests.strategies import array_shapes, rich_conv_layers


def conv5():
    return conv_loop_nest(128, 192, 13, 13, 3, 3, name="conv5")


SYS1 = (Mapping("o", "c", "i", "IN", "W"), ArrayShape(11, 13, 8))


class TestMiddleCandidates:
    def test_powers_of_two_with_cover(self):
        # pow2 ladder reaches the next power of two >= cover (16), plus the
        # cover itself (13)
        assert middle_candidates(13, 1) == (1, 2, 4, 8, 13, 16)

    def test_cover_already_power_of_two(self):
        assert middle_candidates(16, 1) == (1, 2, 4, 8, 16)

    def test_paper_faithful_mode(self):
        assert middle_candidates(13, 1, include_cover=False) == (1, 2, 4, 8, 16)

    def test_inner_bound_shrinks_cover(self):
        # N=192, t=8 -> cover 24, next pow2 32
        assert middle_candidates(192, 8) == (1, 2, 4, 8, 16, 24, 32)

    def test_mapped_loop_fully_covered_by_inner(self):
        assert middle_candidates(13, 13) == (1,)

    def test_candidates_bounded_by_next_pow2_of_cover(self):
        import math

        for n in (3, 5, 13, 55, 224):
            for t in (1, 2, 8, 13):
                cover = math.ceil(n / t)
                limit = 1 << (cover - 1).bit_length() if cover > 1 else 1
                assert all(c <= limit for c in middle_candidates(n, t))
                assert cover in middle_candidates(n, t)


class TestTuningSpaceSize:
    def test_full_space_is_product_of_covers(self):
        nest = conv5()
        size = tuning_space_size(nest, {"o": 11, "c": 13, "i": 8})
        # covers: o 12, i 24, c 1, r 13, p 3, q 3
        assert size == 12 * 24 * 1 * 13 * 3 * 3

    def test_pruned_much_smaller(self):
        tuner = MiddleTuner(conv5(), *SYS1, Platform())
        full = tuning_space_size(conv5(), {"o": 11, "c": 13, "i": 8})
        assert tuner.pruned_space_size() < full / 7  # ~17.5x in the paper


class TestEvaluationEquivalence:
    """``DesignPoint.evaluate`` is one row of the kernel, so it must equal
    the scalar oracle (``tests/dse/oracle.py``) bit for bit at any tiling,
    not just at the winners the walk returns."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_points_match_reference(self, seed):
        nest = conv5()
        platform = Platform()
        tuner = ScalarTuner(nest, *SYS1, platform)
        rng = random.Random(seed)
        for _ in range(50):
            mids = tuple(rng.choice(c) for c in tuner.candidates)
            fast_t, fast_bram, fast_eff = tuner.evaluate(mids, 280e6)
            dp = DesignPoint.create(nest, *SYS1, dict(zip(tuner.iterators, mids)))
            ev = dp.evaluate(platform)
            assert fast_t / 1e9 == ev.performance.throughput_gops
            assert fast_bram == ev.bram.total
            assert fast_eff == ev.performance.efficiency

    @pytest.mark.parametrize("seed", range(3))
    def test_clipped_semantics_matches_reference(self, seed):
        """Under clipped-middle semantics block extents clip at the padded
        loop extent, in the walk and in ``evaluate`` alike."""
        nest = conv5()
        platform = Platform(ragged_middle="clipped")
        tuner = ScalarTuner(nest, *SYS1, platform)
        rng = random.Random(seed)
        for _ in range(40):
            mids = tuple(rng.choice(c) for c in tuner.candidates)
            fast_t, fast_bram, fast_eff = tuner.evaluate(mids, 280e6)
            dp = DesignPoint.create(nest, *SYS1, dict(zip(tuner.iterators, mids)))
            ev = dp.evaluate(platform)
            assert fast_t / 1e9 == ev.performance.throughput_gops
            assert fast_bram == ev.bram.total
            assert fast_eff == ev.performance.efficiency

    def test_strided_nest_is_conservative(self):
        """With stride coefficients (unfolded conv1) and small kernel
        blocks, the input footprint is a sparse lattice, and the model's
        closed form counts its bounding box.  The model must therefore be
        *conservative* against the lattice enumerated point by point
        (never fewer words), and exact whenever the lattice is dense.
        The DSE's actual strided path folds the layer first, where the
        two agree exactly."""
        nest = conv_loop_nest(96, 3, 55, 55, 11, 11, stride=4, name="conv1")
        platform = Platform()
        mapping = Mapping("o", "c", "i", "IN", "W")
        shape = ArrayShape(8, 11, 4)
        tuner = ScalarTuner(nest, mapping, shape, platform)
        rng = random.Random(7)
        # Small blocks, so the enumeration stays cheap.
        small = [[s for s in c if s <= 4] for c in tuner.candidates]
        seen = {True: 0, False: 0}
        for _ in range(25):
            mids = tuple(rng.choice(c) for c in small)
            fast_t, fast_bram, _ = tuner.evaluate(mids, 280e6)
            dp = DesignPoint.create(nest, mapping, shape, dict(zip(tuner.iterators, mids)))
            ev = dp.evaluate(platform)
            assert fast_t / 1e9 == ev.performance.throughput_gops
            assert fast_bram == ev.bram.total
            domain = dp.tiled.block_domain
            for access in nest.accesses:
                words = ev.bram.footprints[access.array]
                lattice = count_footprint_enumerated(access, domain)
                exact = rectangular_is_exact(access, domain)
                seen[exact] += 1
                assert words >= lattice
                if exact:
                    assert words == lattice
        assert seen[True] and seen[False]


def model_domain(design, platform):
    """The block domain the model prices a design over: full blocks when
    padded; under clipped semantics each extent stops at the loop's
    padded extent ``ceil(N_l / t_l) * t_l``."""
    tiling = design.tiling
    extents = []
    for it, n in design.nest.bounds.items():
        block, t = tiling.block_extent(it), tiling.t(it)
        if platform.ragged_middle == "clipped":
            block = min(block, -(-n // t) * t)
        extents.append((it, block))
    return IterationDomain.of(extents)


class TestPhase1RanksByTheTunedNumber:
    """Phase 1 ranks a configuration by ``evaluate`` of its tuned design;
    that must be exactly the throughput (and BRAM, and efficiency) the
    tuner maximised, on every device and datatype, both ragged-middle
    semantics and the whole structural vocabulary — gapped footprints
    (unfolded strided or dilated layers) included."""

    @settings(max_examples=40, deadline=None)
    @given(
        layer=rich_conv_layers(),
        fold=st.booleans(),
        device=st.sampled_from(sorted(DEVICES)),
        datatype=st.sampled_from(sorted(DATATYPES)),
        ragged=st.sampled_from(["padded", "clipped"]),
        include_cover=st.booleans(),
        clock=st.one_of(st.none(), st.floats(120.0, 400.0)),
        shape=array_shapes(max_rows=6, max_cols=6, vectors=(1, 2, 4, 8)),
    )
    def test_evaluate_is_the_tuned_row(
        self, layer, fold, device, datatype, ragged, include_cover, clock, shape
    ):
        if fold and layer.stride > 1 and layer.groups == 1 and layer.dilation == 1:
            layer = fold_layer(layer)
        nest = layer.group_view().to_loop_nest()
        platform = Platform(
            device=DEVICES[device], datatype=DATATYPES[datatype], ragged_middle=ragged
        )
        freq_hz = (clock or platform.assumed_clock_mhz) * 1e6
        memo = {}
        for mapping in feasible_mappings(nest):
            tuned = tune_config(
                memo, nest, mapping, shape, platform,
                include_cover=include_cover, frequency_mhz=clock,
            )
            if tuned is None:
                continue
            ev = tuned.design.evaluate(platform, frequency_mhz=clock)
            assert ev.throughput_gops == tuned.throughput_gops
            assert ev.bram.total == tuned.bram_blocks
            assert ev.performance.efficiency == tuned.efficiency
            oracle = ScalarTuner(nest, mapping, shape, platform)
            middles = tuple(tuned.design.middle_bounds.get(it, 1) for it in oracle.iterators)
            throughput, bram, eff = oracle.evaluate(middles, freq_hz)
            assert (throughput / 1e9, bram, eff) == (
                tuned.throughput_gops, tuned.bram_blocks, tuned.efficiency
            )
            domain = model_domain(tuned.design, platform)
            assert ev.bram.footprints == {
                access.array: count_footprint_rectangular(access, domain)
                for access in nest.accesses
            }


class TestTune:
    def test_reproduces_papers_good_tiling(self):
        """Section 2.3: sys1 with Tile(I,O,R,C,P,Q) = (4,4,13,1,3,3) hits
        the 621 GFlops peak — the tuner finds exactly that tiling."""
        result = MiddleTuner(conv5(), *SYS1, Platform()).tune()
        assert result.throughput_gops == pytest.approx(621, rel=0.01)
        mids = result.design.middle_bounds
        assert mids["i"] == 4 and mids["o"] == 4
        assert mids["r"] == 13 and mids["c"] == 1
        assert mids["p"] == 3 and mids["q"] == 3

    def test_winner_is_best_in_pruned_space(self):
        """Exhaustively verify the tuner's winner against a full walk of
        its own candidate space."""
        result = MiddleTuner(conv5(), *SYS1, Platform()).tune()
        oracle = ScalarTuner(conv5(), *SYS1, Platform())
        best = 0.0
        for mids in itertools.product(*oracle.candidates):
            t, bram, _ = oracle.evaluate(mids, 280e6)
            if bram <= Platform().bram_total:
                best = max(best, t)
        assert result.throughput_gops * 1e9 == pytest.approx(best, rel=1e-12)

    def test_winner_fits_bram(self):
        result = MiddleTuner(conv5(), *SYS1, Platform()).tune()
        assert result.bram_blocks <= Platform().bram_total

    def test_raises_when_nothing_fits(self):
        """A platform with a 1-block RAM budget admits nothing."""
        from repro.hw.device import ARRIA10_GT1150

        tiny_dev = replace(ARRIA10_GT1150, bram_blocks=1, name="tiny")
        platform = Platform(device=tiny_dev)
        with pytest.raises(RuntimeError):
            MiddleTuner(conv5(), *SYS1, platform).tune()

    def test_frequency_scales_compute_bound_result(self):
        tuner = MiddleTuner(conv5(), *SYS1, Platform())
        fast = tuner.tune(frequency_mhz=280.0)
        slow = tuner.tune(frequency_mhz=140.0)
        assert fast.throughput_gops == pytest.approx(2 * slow.throughput_gops, rel=0.05)

    def test_deterministic(self):
        a = MiddleTuner(conv5(), *SYS1, Platform()).tune()
        b = MiddleTuner(conv5(), *SYS1, Platform()).tune()
        assert a.design == b.design

    @settings(max_examples=15, deadline=None)
    @given(
        shape=array_shapes(
            min_rows=2, max_rows=16, min_cols=2, max_cols=16, vectors=(2, 4, 8)
        )
    )
    def test_property_tuned_throughput_below_peak(self, shape):
        platform = Platform()
        result = MiddleTuner(conv5(), SYS1[0], shape, platform).tune()
        peak = 2 * shape.lanes * platform.assumed_clock_mhz * 1e6 / 1e9
        assert 0 < result.throughput_gops <= peak * 1.0001


def orientation_twin(mapping, shape):
    """Same loops and shape, the two read operands swapped between the
    vertical and horizontal shift chains."""
    swapped = Mapping(
        mapping.row, mapping.col, mapping.vector, mapping.horizontal_array, mapping.vertical_array
    )
    return swapped, shape


def transpose(mapping, shape):
    """Rows and columns exchanged: every loop keeps its inner bound."""
    swapped = Mapping(
        mapping.col, mapping.row, mapping.vector, mapping.horizontal_array, mapping.vertical_array
    )
    return swapped, ArrayShape(shape.cols, shape.rows, shape.vector)


def tuned_fields(nest, mapping, shape, platform, include_cover):
    """What a tune yields apart from the configuration it names."""
    try:
        tuned = MiddleTuner(nest, mapping, shape, platform, include_cover=include_cover).tune()
    except RuntimeError:
        return None
    return (
        tuned.design.middle, tuned.throughput_gops, tuned.bram_blocks, tuned.efficiency,
        tuned.candidates_evaluated,
    )


class TestMemoKey:
    """:func:`tune_config` keys a tune on the layer tables, each loop's
    inner bound, ``include_cover``, the platform and the clock.  That is
    sound only if configurations agreeing on those tune identically."""

    @settings(max_examples=25, deadline=None)
    @given(
        layer=rich_conv_layers(),
        ragged=st.sampled_from(["padded", "clipped"]),
        datatype=st.sampled_from([FLOAT32, FIXED_8_16]),
        include_cover=st.booleans(),
        shape=array_shapes(max_rows=4, max_cols=4, vectors=(1, 2, 4)),
    )
    def test_equal_inner_bounds_tune_identically(
        self, layer, ragged, datatype, include_cover, shape
    ):
        nest = layer.group_view().to_loop_nest()
        platform = Platform(datatype=datatype, ragged_middle=ragged)
        by_inner = defaultdict(set)
        for mapping in feasible_mappings(nest):
            for twin_mapping, twin_shape in (
                (mapping, shape), orientation_twin(mapping, shape), transpose(mapping, shape)
            ):
                inner = twin_mapping.inner_bounds(twin_shape)
                by_inner[tuple(inner.get(it, 1) for it in nest.iterators)].add(
                    tuned_fields(nest, twin_mapping, twin_shape, platform, include_cover)
                )
        assert by_inner
        assert all(len(outcomes) == 1 for outcomes in by_inner.values())

    def test_a_hit_equals_a_fresh_tune(self):
        nest, platform = conv5(), Platform()
        memo = {}
        first = tune_config(memo, nest, *SYS1, platform, include_cover=True)
        assert first == MiddleTuner(nest, *SYS1, platform).tune()
        renamed = nest.with_bounds(nest.bounds, name="conv5_copy")
        for twin in (orientation_twin, transpose):
            mapping, shape = twin(*SYS1)
            for layer in (nest, renamed):
                hit = tune_config(memo, layer, mapping, shape, platform, include_cover=True)
                assert hit == MiddleTuner(layer, mapping, shape, platform).tune()
        assert len(memo) == 1

    def test_infeasible_problems_are_memoised(self, monkeypatch):
        from repro.hw.device import ARRIA10_GT1150

        platform = Platform(device=replace(ARRIA10_GT1150, bram_blocks=1, name="tiny"))
        calls = count_tunes(monkeypatch)
        memo = {}
        for _ in range(2):
            assert tune_config(memo, conv5(), *SYS1, platform, include_cover=True) is None
        assert calls == [1] and list(memo.values()) == [None]


def count_tunes(monkeypatch):
    """Count :meth:`MiddleTuner.tune` calls into a one-element list."""
    calls = [0]
    tune = MiddleTuner.tune

    def counting(self, **kwargs):
        calls[0] += 1
        return tune(self, **kwargs)

    monkeypatch.setattr(MiddleTuner, "tune", counting)
    return calls


def twin_cnn():
    """tiny_cnn with its last conv repeated under another name."""
    convs = (
        ConvLayer("conv1", 3, 16, 19, 19, kernel=3, stride=2),
        ConvLayer("conv2", 16, 16, 9, 9, kernel=3, pad=1),
        ConvLayer("conv3", 16, 16, 9, 9, kernel=3, pad=1),
    )
    return Network("twin_cnn", convs, ())


class TestOneTunePerProblem:
    """Each search tunes every distinct problem exactly once, and its memo
    dies with it: a second identical search tunes just as much again."""

    @staticmethod
    def problems(monkeypatch, module):
        """Record an independent key of every problem ``module`` asks
        :func:`tune_config` for: the nest without its name, each loop's
        inner bound, ``include_cover`` and the clock."""
        seen = []
        tune = module.tune_config

        def recording(memo, nest, mapping, shape, platform, *, include_cover, frequency_mhz=None):
            inner = mapping.inner_bounds(shape)
            seen.append((
                replace(nest, name=""), tuple(inner.get(it, 1) for it in nest.iterators),
                include_cover, frequency_mhz or platform.assumed_clock_mhz,
            ))
            return tune(
                memo, nest, mapping, shape, platform,
                include_cover=include_cover, frequency_mhz=frequency_mhz,
            )

        monkeypatch.setattr(module, "tune_config", recording)
        return seen

    def test_unified_search(self, monkeypatch):
        from repro.dse import multi_layer

        calls = count_tunes(monkeypatch)
        seen = self.problems(monkeypatch, multi_layer)
        config = DseConfig(min_dsp_utilization=0.0, vector_choices=(2, 4), top_n=3)
        results, tunes = [], []
        for _ in range(2):
            calls[0], seen[:] = 0, []
            results.append(select_unified_design(twin_cnn(), Platform(), config))
            tunes.append(calls[0])
            assert calls[0] == len(set(seen)) < len(seen)
        assert tunes[0] == tunes[1]
        assert results[0] == results[1]

    def test_phase1(self, monkeypatch):
        # ``repro.dse.explore`` the attribute is the function of that name.
        explore = importlib.import_module("repro.dse.explore")
        calls = count_tunes(monkeypatch)
        seen = self.problems(monkeypatch, explore)
        nest = conv_loop_nest(16, 8, 7, 7, 3, 3, name="layer")
        config = DseConfig(min_dsp_utilization=0.0, vector_choices=(2, 4), top_n=5)
        results, tunes = [], []
        for _ in range(2):
            calls[0], seen[:] = 0, []
            results.append(phase1(nest, Platform(), config))
            tunes.append(calls[0])
            assert calls[0] == len(set(seen)) < len(seen)
        assert tunes[0] == tunes[1]
        assert results[0] == results[1]
