"""The network flow is a one-stage pipeline on the layer flow's engine,
so it inherits the engine's robustness: a bad ``unified-dse`` cache
entry is quarantined and reported (SA501), and crashed DSE pool workers
surface as StageRetried / StageDegraded (SA502 / SA503).  Its one entry
is keyed on the conv layers and carries the emitted kernel and host, so
a warm run is one key and one cache read: nothing is lowered or
emitted."""

import json
from dataclasses import replace

import pytest

from repro.dse.explore import DseConfig
from repro.flow.compile import synthesize_network
from repro.model.platform import Platform
from repro.nn.layers import PoolLayer
from repro.nn.models import tiny_cnn
from repro.pipeline.cache import StageCache
from repro.pipeline.events import (
    CacheProbe,
    StageDegraded,
    StageFinished,
    StageRetried,
)
from repro.pipeline.stages import UnifiedDseStage
from repro.resilience.faults import FaultPlan, activate, deactivate

STAGE_NAME = UnifiedDseStage.name
FAST = DseConfig(min_dsp_utilization=0.0, vector_choices=(2, 4), top_n=3)


def of_type(events, kind):
    return [e for e in events if isinstance(e, kind)]


class TestStaleUnifiedCacheEntry:
    def test_stale_entry_is_quarantined_reported_and_recomputed(self, tmp_path):
        cache = StageCache(tmp_path)
        seen = []
        cold = synthesize_network(tiny_cnn(), Platform(), FAST, cache=cache, observers=(seen.append,))
        (probe,) = of_type(seen, CacheProbe)
        assert probe.stage == STAGE_NAME and not probe.hit
        cache.put(STAGE_NAME, probe.key, {"format": "repro-unified/0"})

        seen.clear()
        again = synthesize_network(tiny_cnn(), Platform(), FAST, cache=cache, observers=(seen.append,))
        assert again == cold
        assert [p.hit for p in of_type(seen, CacheProbe)] == [True]
        (degraded,) = of_type(seen, StageDegraded)
        assert degraded.code == "SA501" and degraded.stage == STAGE_NAME
        assert cache.quarantined == 1
        assert list(tmp_path.rglob("*.json.corrupt"))
        (finished,) = of_type(seen, StageFinished)
        assert not finished.cached

        # The recompute re-stored a good entry: the next run is a clean hit.
        seen.clear()
        warm = synthesize_network(tiny_cnn(), Platform(), FAST, cache=cache, observers=(seen.append,))
        assert warm == cold
        assert not of_type(seen, StageDegraded)
        (finished,) = of_type(seen, StageFinished)
        assert finished.cached

    def test_cached_finish_carries_the_computed_info_keys(self, tmp_path):
        infos = []
        for _ in range(2):
            seen = []
            synthesize_network(
                tiny_cnn(), Platform(), FAST, cache=str(tmp_path), observers=(seen.append,)
            )
            (finished,) = of_type(seen, StageFinished)
            infos.append(finished.info)
        assert infos[0] == infos[1]
        assert set(infos[0]) == {"winner", "frequency_mhz", "gops", "configs", "tuned"}


def probes_and_output(network, cache):
    seen = []
    out = synthesize_network(network, Platform(), FAST, cache=cache, observers=(seen.append,))
    return of_type(seen, CacheProbe), out


@pytest.fixture
def spies(monkeypatch):
    """Call counts of the lowering and the two emitters, spied on where
    the stage looks them up."""
    import repro.codegen
    import repro.dse.multi_layer

    calls = {}
    for module, name in (
        (repro.dse.multi_layer, "prepare_network_nests"),
        (repro.codegen, "generate_kernel"),
        (repro.codegen, "generate_host"),
    ):
        calls[name] = 0

        def spy(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return calls


class TestWarmRunIsOneRead:
    def test_warm_run_lowers_and_emits_nothing(self, tmp_path, spies):
        cache = StageCache(tmp_path)
        probes, cold = probes_and_output(tiny_cnn(), cache)
        assert [p.hit for p in probes] == [False]
        assert spies == {"prepare_network_nests": 1, "generate_kernel": 1, "generate_host": 1}

        spies.update(dict.fromkeys(spies, 0))
        probes, warm = probes_and_output(tiny_cnn(), cache)
        assert [(p.stage, p.hit) for p in probes] == [(STAGE_NAME, True)]
        assert spies == {"prepare_network_nests": 0, "generate_kernel": 0, "generate_host": 0}
        assert warm.kernel_source == cold.kernel_source
        assert warm.host_source == cold.host_source
        assert warm.result == cold.result

    def test_key_is_the_conv_layers_not_the_rest_of_the_network(self, tmp_path):
        cache = StageCache(tmp_path)
        net = tiny_cnn()
        _, cold = probes_and_output(net, cache)
        same_convs = (
            replace(net, name="renamed"),
            replace(net, fc_layers=()),
            replace(net, pool_layers=(PoolLayer("pool", 16, 9, 9, kernel=3, stride=2),)),
        )
        for variant in same_convs:
            probes, out = probes_and_output(variant, cache)
            assert [p.hit for p in probes] == [True], variant
            assert out == cold
        first, *rest = net.conv_layers
        for change in ({"pad": 1}, {"name": "first"}, {"out_channels": 4}):
            variant = replace(net, conv_layers=(replace(first, **change), *rest))
            probes, _ = probes_and_output(variant, cache)
            assert [p.hit for p in probes] == [False], change


def _kernel_not_text(entry):
    entry["kernel_source"] = 5


def _no_host(entry):
    del entry["host_source"]


def _layers_truncated(entry):
    del entry["unified"]["layers"][1:]


class TestBadEntriesAreRecomputed:
    @pytest.mark.parametrize("mutate", [_kernel_not_text, _no_host, _layers_truncated])
    def test_mutated_entry_is_quarantined_and_recomputed(self, tmp_path, mutate):
        cache = StageCache(tmp_path)
        _, cold = probes_and_output(tiny_cnn(), cache)
        (path,) = (tmp_path / STAGE_NAME).glob("*.json")
        entry = json.loads(path.read_text())
        mutate(entry)
        path.write_text(json.dumps(entry))

        seen = []
        again = synthesize_network(
            tiny_cnn(), Platform(), FAST, cache=cache, observers=(seen.append,)
        )
        (degraded,) = of_type(seen, StageDegraded)
        assert (degraded.stage, degraded.code) == (STAGE_NAME, "SA501")
        assert cache.quarantined == 1
        assert (again.kernel_source, again.host_source) == (cold.kernel_source, cold.host_source)
        assert again.result == cold.result
        # The recompute re-stored a good entry: the next run is a clean hit.
        probes, warm = probes_and_output(tiny_cnn(), cache)
        assert [p.hit for p in probes] == [True]
        assert warm == cold

    def test_text_cut_mid_entry_is_quarantined_and_recomputed(self, tmp_path):
        """An entry that no longer parses probes as a miss and takes the
        path of one that does not decode: one quarantine, one SA501."""
        cache = StageCache(tmp_path)
        _, cold = probes_and_output(tiny_cnn(), cache)
        (path,) = (tmp_path / STAGE_NAME).glob("*.json")
        path.write_text(path.read_text()[:40])
        seen = []
        again = synthesize_network(
            tiny_cnn(), Platform(), FAST, cache=cache, observers=(seen.append,)
        )
        assert [p.hit for p in of_type(seen, CacheProbe)] == [False]
        (degraded,) = of_type(seen, StageDegraded)
        assert (degraded.stage, degraded.code, degraded.fallback) == (
            STAGE_NAME, "SA501", "recompute"
        )
        assert cache.quarantined == 1
        assert again == cold
        probes, warm = probes_and_output(tiny_cnn(), cache)
        assert [p.hit for p in probes] == [True]
        assert warm == cold


@pytest.mark.slow
class TestNetworkRunUnderWorkerChaos:
    def test_crashed_workers_are_retried_degraded_and_bit_identical(self):
        baseline = synthesize_network(tiny_cnn(), Platform(), FAST)
        seen = []
        activate(FaultPlan.parse("dse.worker:crash:p=0.5", seed=3), export_env=True)
        try:
            chaotic = synthesize_network(
                tiny_cnn(), Platform(), FAST, jobs=2, observers=(seen.append,)
            )
        finally:
            deactivate(clear_env=True)
        assert chaotic == baseline
        assert chaotic.result == baseline.result
        retried = of_type(seen, StageRetried)
        degraded = of_type(seen, StageDegraded)
        assert retried and all(e.stage == STAGE_NAME for e in retried)
        assert degraded and {e.code for e in degraded} == {"SA503"}
