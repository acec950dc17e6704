"""Tests for the exhaustive baselines, validating the pruning claims."""

from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.loop import conv_loop_nest
from repro.model.design_point import ArrayShape
from repro.model.mapping import Mapping, feasible_mappings
from repro.model.platform import Platform
from repro.dse.brute import brute_force_best_middle, brute_force_space_size
from repro.dse.tuner import MiddleTuner
from tests.dse import oracle
from tests.strategies import array_shapes, small_conv_nests


def small_nest():
    # covers kept small so the full walk is quick
    return conv_loop_nest(12, 8, 7, 7, 3, 3, name="small")


MAPPING = Mapping("o", "c", "i", "IN", "W")


class TestBruteForceOptimality:
    @pytest.mark.parametrize("shape", [ArrayShape(4, 7, 4), ArrayShape(3, 3, 2), ArrayShape(6, 7, 8)])
    def test_pruned_tuner_matches_brute_force(self, shape):
        """The paper claims its pruned tiling space 'can still cover the
        optimal solution'.  With the cover-extended candidate set this
        holds exactly on these spaces."""
        platform = Platform()
        nest = small_nest()
        brute = brute_force_best_middle(nest, MAPPING, shape, platform)
        tuned = MiddleTuner(nest, MAPPING, shape, platform).tune()
        assert tuned.throughput_gops == pytest.approx(brute.throughput_gops, rel=1e-9)

    def test_pow2_pruning_optimal_under_clipped_semantics(self):
        """The paper claims power-of-two pruning 'can still cover the
        optimal solution'.  That is exactly true under clipped-middle
        quantization semantics (Eff independent of s): verify pow2-only
        matches the full brute force."""
        platform = Platform(ragged_middle="clipped")
        nest = small_nest()
        for shape in (ArrayShape(4, 7, 4), ArrayShape(3, 3, 2)):
            brute = brute_force_best_middle(nest, MAPPING, shape, platform)
            pow2 = MiddleTuner(nest, MAPPING, shape, platform, include_cover=False).tune()
            assert pow2.throughput_gops == pytest.approx(
                brute.throughput_gops, rel=1e-9
            ), shape

    def test_pow2_pruning_suboptimal_under_padded_semantics(self):
        """Under the literal (padded) Eq. 8 semantics — the one that
        reproduces the paper's Section 2.3 numbers exactly — pure pow2
        pruning loses large factors (middle bounds of 2/4 on a K=3 kernel
        loop waste 25% each); the cover-extended candidate set recovers
        the optimum.  A reproduction finding, documented in
        EXPERIMENTS.md."""
        platform = Platform()  # padded default
        nest = small_nest()
        shape = ArrayShape(4, 7, 4)
        brute = brute_force_best_middle(nest, MAPPING, shape, platform)
        pow2 = MiddleTuner(nest, MAPPING, shape, platform, include_cover=False).tune()
        cover = MiddleTuner(nest, MAPPING, shape, platform, include_cover=True).tune()
        assert pow2.throughput_gops < 0.7 * brute.throughput_gops
        assert cover.throughput_gops == pytest.approx(brute.throughput_gops, rel=1e-9)

    def test_speedup_from_pruning(self):
        """Pruned candidates are a small fraction of the full walk (the
        17.5x-saving claim, here measured in evaluated points)."""
        platform = Platform()
        nest = conv_loop_nest(128, 192, 13, 13, 3, 3, name="conv5")
        shape = ArrayShape(11, 13, 8)
        brute = brute_force_best_middle(nest, MAPPING, shape, platform)
        tuned = MiddleTuner(nest, MAPPING, shape, platform).tune()
        assert brute.candidates_evaluated / tuned.candidates_evaluated > 5
        assert tuned.throughput_gops == pytest.approx(brute.throughput_gops, rel=1e-9)


def outcome(search, *args):
    try:
        return search(*args)
    except RuntimeError as exc:
        return str(exc)


class TestAgainstOracle:
    """The full-ladder walk equals the oracle's ``itertools.product``
    walk: winner, tie-break (throughput, then BRAM, then first tiling),
    BRAM and count."""

    @settings(max_examples=25, deadline=None)
    @given(
        nest=small_conv_nests(),
        shape=array_shapes(max_rows=3, max_cols=3, vectors=(1, 2)),
        ragged=st.sampled_from(["padded", "clipped"]),
        bram_blocks=st.sampled_from([None, 24, 30]),
        chunk=st.sampled_from([None, 2, 5]),
    )
    def test_brute_force_equals_oracle_walk(self, nest, shape, ragged, bram_blocks, chunk):
        platform = Platform(ragged_middle=ragged)
        if bram_blocks is not None:
            platform = replace(platform, device=replace(platform.device, bram_blocks=bram_blocks))
        with mock.patch.object(MiddleTuner, "CHUNK", chunk or MiddleTuner.CHUNK):
            for mapping in feasible_mappings(nest):
                args = (nest, mapping, shape, platform)
                assert outcome(brute_force_best_middle, *args) == outcome(oracle.brute_force, *args)

    def test_conv5_space_equals_oracle(self):
        nest = conv_loop_nest(128, 192, 13, 13, 3, 3, name="conv5")
        args = (nest, MAPPING, ArrayShape(11, 13, 8), Platform())
        assert brute_force_best_middle(*args) == oracle.brute_force(*args)


class TestBruteSpaceSize:
    def test_counts_are_positive_and_ordered(self):
        platform = Platform()
        nest = small_nest()
        full = brute_force_space_size(nest, platform, vector_choices=(2, 4))
        assert full > 0
        # the full space dwarfs the configuration count alone
        from repro.dse.space import count_design_space

        configs = count_design_space(nest, platform, vector_choices=(2, 4))
        assert full > configs
