"""Content-addressed stage cache: keys, storage, and warm full compiles."""

import json

import pytest

from repro.ir.loop import conv_loop_nest
from repro.model.platform import Platform
from repro.dse.explore import DseConfig
from repro.flow.compile import compile_c_source, synthesize_nest
from repro.pipeline.cache import (
    CACHE_ENV_VAR,
    StageCache,
    code_version,
    default_cache_dir,
    resolve_cache,
    stable_fingerprint,
)

SMALL_SRC = """
#pragma systolic
for (o = 0; o < 16; o++)
  for (i = 0; i < 8; i++)
    for (c = 0; c < 7; c++)
      for (r = 0; r < 7; r++)
        for (p = 0; p < 3; p++)
          for (q = 0; q < 3; q++)
            OUT[o][r][c] += W[o][i][p][q] * IN[i][r+p][c+q];
"""

FAST = DseConfig(min_dsp_utilization=0.0, vector_choices=(2, 4), top_n=3)


class TestFingerprint:
    def test_dataclasses_reduce_to_fields(self):
        fp = stable_fingerprint(FAST)
        assert fp["__type__"] == "DseConfig"
        assert fp["top_n"] == 3
        assert fp["vector_choices"] == [2, 4]

    def test_equal_values_hash_equal(self):
        cache = StageCache.__new__(StageCache)  # key_for needs no root
        a = cache.key_for("s", conv_loop_nest(4, 4, 4, 4, 3, 3), Platform(), FAST)
        b = cache.key_for("s", conv_loop_nest(4, 4, 4, 4, 3, 3), Platform(), FAST)
        assert a == b

    def test_different_inputs_hash_different(self):
        cache = StageCache.__new__(StageCache)
        base = cache.key_for("s", conv_loop_nest(4, 4, 4, 4, 3, 3), FAST)
        other_nest = cache.key_for("s", conv_loop_nest(8, 4, 4, 4, 3, 3), FAST)
        other_cfg = cache.key_for(
            "s", conv_loop_nest(4, 4, 4, 4, 3, 3), DseConfig(top_n=5)
        )
        other_stage = cache.key_for("t", conv_loop_nest(4, 4, 4, 4, 3, 3), FAST)
        assert len({base, other_nest, other_cfg, other_stage}) == 4

    def test_code_version_is_stable_hex(self):
        assert code_version() == code_version()
        assert len(code_version()) == 64


class TestStageCacheStore:
    def test_round_trip(self, tmp_path):
        cache = StageCache(tmp_path)
        key = cache.key_for("stage", 1, "x")
        assert cache.get("stage", key) is None
        cache.put("stage", key, {"value": [1, 2]})
        assert cache.get("stage", key) == {"value": [1, 2]}
        assert (cache.hits, cache.misses) == (1, 1)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = StageCache(tmp_path)
        key = cache.key_for("stage", "v")
        cache.put("stage", key, {"ok": True})
        (tmp_path / "stage" / f"{key}.json").write_text("{not json")
        assert cache.get("stage", key) is None

    def test_clear_removes_entries(self, tmp_path):
        cache = StageCache(tmp_path)
        for n in range(3):
            cache.put("stage", cache.key_for("stage", n), {"n": n})
        assert cache.clear() == 3
        assert cache.clear() == 0

    def test_payloads_are_plain_json_files(self, tmp_path):
        cache = StageCache(tmp_path)
        key = cache.key_for("stage", "v")
        cache.put("stage", key, {"a": 1})
        data = json.loads((tmp_path / "stage" / f"{key}.json").read_text())
        assert data == {"a": 1}


class TestResolution:
    def test_resolve_semantics(self, tmp_path):
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None
        rooted = resolve_cache(str(tmp_path))
        assert isinstance(rooted, StageCache) and rooted.root == tmp_path
        existing = StageCache(tmp_path)
        assert resolve_cache(existing) is existing
        assert resolve_cache(True).root == default_cache_dir()

    def test_env_var_overrides_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"

    def test_xdg_fallback(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert default_cache_dir() == tmp_path / "repro-systolic"


class TestWarmCompile:
    def test_second_compile_is_equal_and_skips_the_tuner(self, tmp_path, monkeypatch):
        cold = compile_c_source(SMALL_SRC, Platform(), FAST, cache=str(tmp_path))
        assert cold.cache_hits == ()

        # A warm run must not touch the tiling tuner at all.
        from repro.dse.tuner import MiddleTuner

        def forbidden(self, *args, **kwargs):
            raise AssertionError("tuner invoked on a warm-cache compile")

        monkeypatch.setattr(MiddleTuner, "tune", forbidden)
        # The patch has teeth: it covers the only tuner, so a cold compile
        # under it fails.
        with pytest.raises(AssertionError, match="tuner invoked"):
            compile_c_source(SMALL_SRC, Platform(), FAST, cache=str(tmp_path / "cold"))
        warm = compile_c_source(SMALL_SRC, Platform(), FAST, cache=str(tmp_path))
        assert warm == cold
        assert set(warm.cache_hits) == {
            "dse-phase1", "dse-phase2", "codegen", "simulate",
        }

    def test_cache_key_depends_on_dse_config(self, tmp_path):
        nest = conv_loop_nest(16, 8, 7, 7, 3, 3, name="layer")
        synthesize_nest(nest, Platform(), FAST, cache=str(tmp_path))
        other = synthesize_nest(
            nest,
            Platform(),
            DseConfig(min_dsp_utilization=0.0, vector_choices=(2, 4), top_n=2),
            cache=str(tmp_path),
        )
        # Different knobs → different DSE keys (those stages re-run);
        # codegen/simulate key on the winning design alone, so they may
        # still hit when both searches crown the same winner.
        assert "dse-phase1" not in other.cache_hits
        assert "dse-phase2" not in other.cache_hits

    def test_no_cache_by_default(self):
        nest = conv_loop_nest(16, 8, 7, 7, 3, 3, name="layer")
        result = synthesize_nest(nest, Platform(), FAST)
        assert result.cache_hits == ()

    def test_unified_dse_cache_round_trip(self, tmp_path):
        from repro.nn.models import tiny_cnn
        from repro.flow.request import SynthesisRequest, run

        request = SynthesisRequest(Platform(), FAST, network=tiny_cnn())
        cache = StageCache(tmp_path)
        cold = run(request, cache=cache)
        warm = run(request, cache=cache)
        assert warm == cold
        assert cache.hits == 1

    def test_bookkeeping_excluded_from_equality(self, tmp_path):
        nest = conv_loop_nest(16, 8, 7, 7, 3, 3, name="layer")
        plain = synthesize_nest(nest, Platform(), FAST)
        cached = synthesize_nest(nest, Platform(), FAST, cache=str(tmp_path))
        assert plain == cached  # identical search, different bookkeeping


class TestStrictModeThroughPipeline:
    def test_strict_compile_still_audits(self):
        result = compile_c_source(SMALL_SRC, Platform(), FAST, strict=True)
        assert result.evaluation.feasible

    def test_strict_rejects_illegal_source(self):
        from repro.analysis.diagnostics import DiagnosticError

        bad = SMALL_SRC.replace("IN[i][r+p][c+q]", "IN[i][r+p+q][c+q]")
        with pytest.raises(DiagnosticError):
            compile_c_source(bad, Platform(), FAST, strict=True)

    def test_pragma_error_message_preserved(self):
        bare = SMALL_SRC.replace("#pragma systolic\n", "")
        with pytest.raises(ValueError, match="pragma"):
            compile_c_source(bare, Platform(), FAST)


class TestConcurrentAccess:
    """The service's worker pool shares one StageCache across threads;
    entry I/O and the quarantine path must hold up under concurrency."""

    def test_concurrent_readers_and_writers_never_raise(self, tmp_path):
        import threading

        cache = StageCache(tmp_path)
        errors = []

        def hammer(worker):
            try:
                for n in range(40):
                    key = f"{'0' * 62}{(n % 4):02d}"
                    cache.put("stage", key, {"worker": worker, "n": n})
                    payload = cache.get("stage", key)
                    assert payload is None or isinstance(payload, dict)
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        for n in range(4):
            key = f"{'0' * 62}{n:02d}"
            payload = cache.get("stage", key)
            assert payload is not None and payload["n"] % 4 == n

    def test_concurrent_quarantine_moves_the_entry_exactly_once(self, tmp_path):
        import threading

        cache = StageCache(tmp_path)
        key = "ab" * 32
        path = cache._path("stage", key)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")

        results = []
        barrier = threading.Barrier(6)

        def probe():
            barrier.wait()
            results.append(cache.get("stage", key))

        threads = [threading.Thread(target=probe) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == [None] * 6
        assert cache.quarantined == 1  # one mover; the rest saw a miss
        assert path.with_suffix(".json.corrupt").exists()
        assert not path.exists()


class TestLockNarrowing:
    """Regression for the SA603 finding: entry I/O must happen outside
    ``StageCache._lock``.  The retried read/write path sleeps between
    attempts, so holding the lock across it serialized every worker
    thread behind one sick filesystem operation."""

    def test_get_is_not_blocked_by_an_inflight_put(self, tmp_path, monkeypatch):
        import threading

        import repro.pipeline.cache as cache_module

        cache = StageCache(tmp_path)
        warm_key = "aa" * 32
        cache.put("stage", warm_key, {"v": 1})

        entered = threading.Event()
        release = threading.Event()
        real = cache_module.call_with_retry

        def parked(fn, **kwargs):
            if fn.__name__ == "write":
                entered.set()
                release.wait(10.0)  # park the writer mid-I/O
            return real(fn, **kwargs)

        monkeypatch.setattr(cache_module, "call_with_retry", parked)
        writer = threading.Thread(
            target=cache.put, args=("stage", "bb" * 32, {"v": 2}), daemon=True
        )
        writer.start()
        assert entered.wait(10.0)

        result = {}
        reader = threading.Thread(
            target=lambda: result.update(got=cache.get("stage", warm_key)),
            daemon=True,
        )
        reader.start()
        reader.join(5.0)
        stuck = reader.is_alive()
        release.set()  # free the writer before asserting, win or lose
        writer.join(10.0)
        assert not stuck, "get() queued behind an in-flight put() (lock held over I/O)"
        assert result["got"] == {"v": 1}
