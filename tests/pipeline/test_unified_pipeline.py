"""The network flow is a one-stage pipeline on the layer flow's engine,
so it inherits the engine's robustness: a bad ``unified-dse`` cache
entry is quarantined and reported (SA501), and crashed DSE pool workers
surface as StageRetried / StageDegraded (SA502 / SA503)."""

import pytest

from repro.dse.explore import DseConfig
from repro.flow.compile import synthesize_network
from repro.model.platform import Platform
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
