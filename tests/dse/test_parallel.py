"""The parallel DSE fan-out must be bit-identical to the serial search."""

from dataclasses import replace

import pytest

from repro.ir.loop import conv_loop_nest
from repro.model.platform import Platform
from repro.dse.explore import DseConfig, explore, phase1
from repro.dse.multi_layer import prepare_network_nests, select_unified_design
from repro.dse.parallel import batched, resolve_jobs
from repro.nn.models import tiny_cnn

FAST = DseConfig(min_dsp_utilization=0.0, vector_choices=(2, 4), top_n=3)


class TestHelpers:
    def test_resolve_jobs(self):
        import os

        cores = os.cpu_count() or 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) == cores
        assert resolve_jobs(-2) == cores
        assert resolve_jobs(None) == cores

    def test_batched_covers_everything_in_order(self):
        items = list(range(10))
        batches = list(batched(items, 4))
        assert [list(b) for b in batches] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]


class TestPhase1Determinism:
    @pytest.fixture(scope="class")
    def nest(self):
        return conv_loop_nest(16, 8, 7, 7, 3, 3, name="layer")

    def test_jobs4_matches_serial_bit_for_bit(self, nest):
        serial = phase1(nest, Platform(), FAST)
        fanned = phase1(nest, Platform(), FAST, jobs=4)
        assert fanned.finalists == serial.finalists
        assert fanned.configs_enumerated == serial.configs_enumerated
        assert fanned.configs_tuned == serial.configs_tuned
        assert fanned.tilings_evaluated == serial.tilings_evaluated

    def test_jobs4_matches_with_pruning_active(self, nest):
        # top_n=1 makes the branch-and-bound stop early, so the replay's
        # prune-before-consume path is exercised, not just the merge.
        config = DseConfig(min_dsp_utilization=0.0, vector_choices=(2, 4), top_n=1)
        serial = phase1(nest, Platform(), config)
        fanned = phase1(nest, Platform(), config, jobs=4)
        assert fanned == serial
        assert serial.configs_tuned < serial.configs_enumerated  # pruning fired

    def test_full_explore_winner_identical(self, nest):
        serial = explore(nest, Platform(), FAST)
        fanned = explore(nest, Platform(), FAST, jobs=2)
        assert fanned.best == serial.best
        assert fanned.finalists == serial.finalists
        assert fanned.estimated_gops == serial.estimated_gops

    @pytest.mark.slow
    def test_progress_hook_reaches_total(self, nest):
        ticks = []
        config = DseConfig(
            min_dsp_utilization=0.0, vector_choices=(2, 4), top_n=3,
            upper_bound_pruning=False,
        )
        phase1(nest, Platform(), config, jobs=2, progress=lambda d, t: ticks.append((d, t)))
        assert ticks, "parallel path must report progress per batch"
        done, total = ticks[-1]
        assert done == total  # no pruning: every config is consumed


class TestUnifiedDeterminism:
    @pytest.fixture(scope="class")
    def workloads(self):
        return prepare_network_nests(tiny_cnn())

    def test_unified_winner_identical(self, workloads):
        serial = select_unified_design(workloads, Platform(), FAST)
        fanned = select_unified_design(workloads, Platform(), FAST, jobs=4)
        assert fanned == serial
        assert fanned.config == serial.config
        assert fanned.frequency_mhz == serial.frequency_mhz
        assert fanned.layers == serial.layers

    def test_repeated_shapes_identical(self, workloads):
        """Two layers of one shape share a tuning-memo entry in whichever
        process tunes them; the pooled search still matches the serial."""
        last = workloads[-1]
        nest = last.nest.with_bounds(last.nest.bounds, name="twin")
        repeated = (*workloads, replace(last, name="twin", nest=nest))
        serial = select_unified_design(repeated, Platform(), FAST)
        fanned = select_unified_design(repeated, Platform(), FAST, jobs=2)
        assert fanned == serial
        assert fanned.layers == serial.layers
        assert serial.layers[-1].middle == serial.layers[-2].middle

    def test_all_cores_also_identical(self, workloads):
        serial = select_unified_design(workloads, Platform(), FAST)
        fanned = select_unified_design(workloads, Platform(), FAST, jobs=0)
        assert fanned == serial
