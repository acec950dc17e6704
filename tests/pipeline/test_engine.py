"""Engine mechanics: stage sequencing, events, caching, JSONL traces."""

import io
import json
import re
import shutil

import pytest

from repro.model.platform import Platform
from repro.dse.explore import DseConfig
from repro.pipeline.cache import StageCache
from repro.pipeline.context import SynthesisContext
from repro.pipeline.engine import PipelineEngine, Stage, StageBase
from repro.pipeline.events import (
    CacheProbe,
    EventBus,
    JsonlTraceWriter,
    ProgressPrinter,
    StageFinished,
    StageProgress,
    StageStarted,
)


def make_ctx(**kwargs):
    return SynthesisContext(platform=Platform(), config=DseConfig(), **kwargs)


class NamedStage(StageBase):
    """A do-nothing stage with a recordable name."""

    def __init__(self, name):
        self.name = name
        self.runs = 0

    def run(self, ctx, events):
        self.runs += 1
        return ctx


class CachingStage(NamedStage):
    """Counts runs; caches a constant payload under a constant key."""

    def __init__(self, name="cacheable"):
        super().__init__(name)
        self.loads = 0

    def cache_parts(self, ctx):
        return ("fixed",)

    def dump(self, ctx):
        return {"payload": True}

    def load(self, payload, ctx):
        self.loads += 1
        return ctx


class TestSequencing:
    def test_stages_run_in_order_and_are_timed(self):
        stages = [NamedStage("a"), NamedStage("b"), NamedStage("c")]
        ctx = PipelineEngine(stages).run(make_ctx())
        assert [s.runs for s in stages] == [1, 1, 1]
        assert [name for name, _ in ctx.stage_seconds] == ["a", "b", "c"]
        assert all(seconds >= 0 for _, seconds in ctx.stage_seconds)
        assert ctx.cache_hits == ()

    def test_concrete_stages_satisfy_protocol(self):
        from repro.pipeline.stages import synthesis_stages

        names = [stage.name for stage in synthesis_stages()]
        assert names == [
            "parse", "legality-check", "dse-phase1",
            "dse-phase2", "codegen", "simulate",
        ]
        assert all(isinstance(stage, Stage) for stage in synthesis_stages())


class TestEvents:
    def test_start_and_finish_emitted_per_stage(self):
        seen = []
        PipelineEngine([NamedStage("a"), NamedStage("b")], observers=[seen.append]).run(
            make_ctx()
        )
        kinds = [(type(e).__name__, e.stage) for e in seen]
        assert kinds == [
            ("StageStarted", "a"), ("StageFinished", "a"),
            ("StageStarted", "b"), ("StageFinished", "b"),
        ]
        started = seen[0]
        assert (started.index, started.total) == (0, 2)

    def test_observer_errors_do_not_kill_the_run(self):
        def bomb(event):
            raise RuntimeError("observer crash")

        stage = NamedStage("a")
        PipelineEngine([stage], observers=[bomb]).run(make_ctx())
        assert stage.runs == 1

    def test_event_bus_fans_out(self):
        a, b = [], []
        bus = EventBus([a.append])
        bus.subscribe(b.append)
        bus.emit(StageStarted("s"))
        assert len(a) == len(b) == 1

    def test_to_dict_carries_discriminator(self):
        event = StageFinished("dse-phase1", seconds=1.5, cached=True, info={"n": 3})
        data = event.to_dict()
        assert data["event"] == "StageFinished"
        assert data["stage"] == "dse-phase1"
        assert data["cached"] is True
        assert json.dumps(data)  # JSON-able


class TestEngineCaching:
    def test_second_run_loads_instead_of_running(self, tmp_path):
        cache = StageCache(tmp_path)
        stage = CachingStage()
        engine = PipelineEngine([stage], cache=cache)
        first = engine.run(make_ctx())
        second = engine.run(make_ctx())
        assert stage.runs == 1
        assert stage.loads == 1
        assert first.cache_hits == ()
        assert second.cache_hits == ("cacheable",)

    def test_cache_probe_events(self, tmp_path):
        seen = []
        engine = PipelineEngine(
            [CachingStage()], cache=StageCache(tmp_path), observers=[seen.append]
        )
        engine.run(make_ctx())
        engine.run(make_ctx())
        probes = [e for e in seen if isinstance(e, CacheProbe)]
        assert [p.hit for p in probes] == [False, True]
        assert all(len(p.key) == 64 for p in probes)

    def test_corrupt_payload_falls_back_to_run(self, tmp_path):
        class Strict(CachingStage):
            def load(self, payload, ctx):
                raise ValueError("bad payload")

        cache = StageCache(tmp_path)
        stage = Strict()
        engine = PipelineEngine([stage], cache=cache)
        engine.run(make_ctx())
        ctx = engine.run(make_ctx())
        assert stage.runs == 2  # load refused, stage re-ran
        assert ctx.cache_hits == ()

    def test_uncacheable_stage_never_touches_cache(self, tmp_path):
        cache = StageCache(tmp_path)
        engine = PipelineEngine([NamedStage("plain")], cache=cache)
        engine.run(make_ctx())
        assert cache.hits == cache.misses == 0


class TestObserverOutputs:
    def test_jsonl_trace_writes_one_line_per_event(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceWriter(path) as trace:
            PipelineEngine([NamedStage("a")], observers=[trace]).run(make_ctx())
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [entry["event"] for entry in lines] == ["StageStarted", "StageFinished"]
        assert all(entry["stage"] == "a" for entry in lines)

    def test_progress_printer_formats(self):
        out = io.StringIO()
        printer = ProgressPrinter(out)
        printer(StageStarted("parse"))  # silent
        printer(StageProgress("dse-phase1", done=32, total=100, message="configs"))
        printer(CacheProbe("dse-phase1", key="ab" * 32, hit=True))
        printer(StageFinished("dse-phase1", seconds=2.5, cached=False, info={"n": 1}))
        text = out.getvalue()
        assert "[dse-phase1] 32/100 configs" in text
        assert "cache hit" in text
        assert "done in 2.50s" in text
        assert "n=1" in text
        assert "parse" not in text

    def test_progress_printer_marks_cached(self):
        out = io.StringIO()
        ProgressPrinter(out)(StageFinished("codegen", seconds=0.01, cached=True))
        assert "(cached)" in out.getvalue()


class TestContext:
    def test_best_requires_phase2(self):
        assert make_ctx().best is None  # the dse-phase2 stage fills it

    def test_to_result_requires_all_outputs(self):
        with pytest.raises(ValueError, match="populate"):
            make_ctx().to_result()

    def test_evolve_is_pure(self):
        ctx = make_ctx()
        evolved = ctx.evolve(jobs=8)
        assert ctx.jobs == 1
        assert evolved.jobs == 8


class TestEventBusFanOut:
    """Multi-subscriber fan-out: the service's streaming endpoint attaches
    one observer per live connection, so the bus must deliver every event
    to every subscriber and tolerate churn while a pipeline runs."""

    def test_every_subscriber_sees_every_event_in_order(self):
        buffers = [[], [], []]
        bus = EventBus([buffers[0].append])
        bus.subscribe(buffers[1].append)
        bus.subscribe(buffers[2].append)
        events = [StageStarted("a"), StageProgress("a", done=1, total=2),
                  StageFinished("a", seconds=0.1)]
        for event in events:
            bus.emit(event)
        assert buffers[0] == buffers[1] == buffers[2] == events

    def test_unsubscribe_stops_delivery_without_disturbing_others(self):
        stays, leaves = [], []
        bus = EventBus()
        bus.subscribe(stays.append)
        bus.subscribe(leaves.append)
        bus.emit(StageStarted("a"))
        bus.unsubscribe(leaves.append)
        bus.emit(StageStarted("b"))
        assert [e.stage for e in stays] == ["a", "b"]
        assert [e.stage for e in leaves] == ["a"]
        bus.unsubscribe(leaves.append)  # double-detach is a no-op
        bus.emit(StageStarted("c"))
        assert [e.stage for e in stays] == ["a", "b", "c"]

    def test_one_failing_subscriber_does_not_starve_the_rest(self):
        seen = []

        def bomb(event):
            raise RuntimeError("subscriber crash")

        bus = EventBus([bomb])
        bus.subscribe(seen.append)
        bus.emit(StageStarted("a"))
        assert [e.stage for e in seen] == ["a"]

    def test_engine_run_fans_out_identically_to_parallel_subscribers(self):
        first, second = [], []
        engine = PipelineEngine([NamedStage("a"), NamedStage("b")])
        engine.events.subscribe(first.append)
        engine.events.subscribe(second.append)
        engine.run(make_ctx())
        assert first == second
        assert [type(e).__name__ for e in first] == [
            "StageStarted", "StageFinished", "StageStarted", "StageFinished",
        ]

    def test_concurrent_subscribe_and_emit_is_safe(self):
        import threading

        bus = EventBus()
        stop = threading.Event()
        errors = []

        def churn():
            try:
                while not stop.is_set():
                    sink = [].append
                    bus.subscribe(sink)
                    bus.unsubscribe(sink)
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        thread = threading.Thread(target=churn)
        thread.start()
        try:
            for n in range(2000):
                bus.emit(StageStarted("s", index=n))
        finally:
            stop.set()
            thread.join()
        assert errors == []


class TestCodegenDegradationSurvivesTheCache:
    def test_sa150_trail_is_the_same_cold_and_warm(self, tmp_path):
        """A design the RTL backend cannot lower (vector loop in the
        output access) reports SA150 — and a cache-served run of the same
        design must report it too, or cold and warm payloads differ."""
        from repro.dse.explore import Phase1Result
        from repro.ir.loop import conv_loop_nest
        from repro.model.design_point import ArrayShape, DesignPoint
        from repro.model.mapping import Mapping
        from repro.model.serialize import result_to_dict
        from repro.pipeline.events import StageDegraded
        from repro.pipeline.stages import CodegenStage, SimulateStage

        nest = conv_loop_nest(2, 2, 3, 3, 2, 2, name="sa150")
        design = DesignPoint.create(
            nest, Mapping("o", "c", "r", "IN", "W"), ArrayShape(2, 2, 2), {}
        )
        best = design.evaluate(Platform())
        ctx = make_ctx(
            nest=nest,
            phase1=Phase1Result((best,), 1, 1, 1, elapsed_seconds=0.0),
            best=best,
        )
        events = []
        engine = PipelineEngine(
            [CodegenStage(), SimulateStage()],
            cache=StageCache(tmp_path),
            observers=[events.append],
        )
        cold = engine.run(ctx)
        warm = engine.run(ctx)
        assert warm.cache_hits == ("codegen", "simulate")
        assert cold.rtl_source is None and warm.rtl_source is None
        assert [code for code, _ in cold.degradations] == ["SA150"]
        assert warm.degradations == cold.degradations
        assert any(isinstance(e, StageDegraded) and e.code == "SA150" for e in events)
        assert result_to_dict(warm.to_result()) == result_to_dict(cold.to_result())


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler available")
class TestTestbenchBackendChecksTheShippedKernel:
    """``--sim-backend testbench`` runs gcc on ``testbench.c`` *and* on
    ``driver.c`` + ``kernel.cl``: a kernel that computes the wrong
    convolution fails the stage even though the testbench passes."""

    def codegen_ctx(self):
        from repro.dse.explore import Phase1Result
        from repro.ir.loop import conv_loop_nest
        from repro.model.design_point import ArrayShape, DesignPoint
        from repro.model.mapping import Mapping
        from repro.pipeline.stages import CodegenStage

        nest = conv_loop_nest(6, 4, 5, 5, 2, 2, name="wdown")
        design = DesignPoint.create(
            nest, Mapping("c", "o", "i", "W", "IN"), ArrayShape(2, 3, 2), {"p": 2, "q": 2}
        )
        best = design.evaluate(Platform())
        ctx = make_ctx(
            nest=nest,
            sim_backend="testbench",
            phase1=Phase1Result((best,), 1, 1, 1, elapsed_seconds=0.0),
            best=best,
        )
        return CodegenStage().run(ctx, EventBus())

    def test_a_correct_kernel_passes(self):
        from repro.pipeline.stages import SimulateStage

        ctx = SimulateStage().run(self.codegen_ctx(), EventBus())
        assert ctx.degradations == () and ctx.measurement is not None

    def test_swapped_shift_chains_fail_the_stage(self):
        from repro.pipeline.stages import SimulateStage

        ctx = self.codegen_ctx()
        swap = {"(x == 0)": "(y == 0)", "(y == 0)": "(x == 0)",
                "[x-1][y]": "[x][y-1]", "[x][y-1]": "[x-1][y]"}
        broken = re.sub(
            r"\(x == 0\)|\(y == 0\)|\[x-1\]\[y\]|\[x\]\[y-1\]",
            lambda m: swap[m.group(0)],
            ctx.kernel_source,
        )
        assert broken != ctx.kernel_source
        with pytest.raises(ValueError, match="generated kernel failed:\nKERNEL FAIL"):
            SimulateStage().run(ctx.evolve(kernel_source=broken), EventBus())
