"""The benchmark's catalogue: workloads, metrics, bounds.

Single source for ``BENCHMARK.json`` (``run.py --write-manifest``),
``run.py --list`` and the README tables; ``test_selfcheck.py`` holds the
committed manifest equal to :func:`manifest`.
"""

from __future__ import annotations

from dataclasses import dataclass

#: How long one run measures (the driver passes it back as ``--seconds``).
RUN_SECONDS = 28

#: Set-ups performed per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


@dataclass(frozen=True)
class Metric:
    """One metric: ``bound`` is set for end-to-end metrics only; ``moves``
    names the end-to-end metric (and workload) a per-layer metric should
    move, written down before measuring."""

    name: str
    unit: str
    better: str
    bound: float | None = None
    moves: str = ""


WORKLOADS = (
    Workload(
        "net_unified",
        "designer running `systolic-synth --network X`, first run and re-runs: "
        "repro.dse does >95% of cold time (columnar-scoring and tuner-bound regimes)",
    ),
    Workload(
        "layer_flow",
        "designer running `systolic-synth layer.c --strict` cold then warm on fs and "
        "sqlite stores: codegen+lint dominate cold, pipeline.cache+codecs all of warm",
    ),
    Workload(
        "sim_ladder",
        "verification engineer: fast/engine/RTL simulators and cross_check on built "
        "designs; repro.sim+repro.verify do the work, DSE none",
    ),
    Workload(
        "service_mix",
        "team sharing one `serve` daemon: closed loop, 1 client, duplicate-heavy mix; "
        "coalesced jobs are pure HTTP/jobs/serialisation, cold ones add queue+synthesis",
    ),
)

END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("suite_s", "s", "lower", 0.25),
    Metric("cold_s_p50", "s", "lower", 0.25),
    Metric("warm_s_p50", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.08),
    Metric("design_gops", "GOPS", "higher", 0.005),
    Metric("model_err_max_pct", "%", "lower", 0.05),
)

_COLD_LAYER = "cold_s_p50 on layer_flow"
_NET = "suite_s on net_unified"
_SIM = "suite_s on sim_ladder"
_WARM_LAYER = "warm_s_p50 on layer_flow"
_SVC = "service_mix only"

PER_LAYER = (
    Metric("frontend.parse.calls", "count", "lower", moves=f"{_COLD_LAYER}; service.submit_s_p50 on service_mix"),
    Metric("frontend.parse.busy_s", "s", "lower", moves=f"{_COLD_LAYER}; service.submit_s_p50 on service_mix"),
    Metric("analysis.nest_check.busy_s", "s", "lower", moves=_COLD_LAYER),
    Metric("analysis.design_check.busy_s", "s", "lower", moves=_COLD_LAYER),
    Metric("analysis.codegen_lint.calls", "count", "lower", moves=_COLD_LAYER),
    Metric("analysis.codegen_lint.busy_s", "s", "lower", moves=f"{_COLD_LAYER} (largest single share)"),
    Metric("dse.unified.busy_s", "s", "lower", moves=_NET),
    Metric("dse.tuner.tunes", "count", "lower", moves=_NET),
    Metric("dse.tuner.busy_s", "s", "lower", moves=_NET),
    Metric("dse.tuner.tunes_per_s", "1/s", "higher", moves=_NET),
    Metric("dse.configs_enumerated", "count", "lower", moves=_NET),
    Metric("dse.configs_per_s", "1/s", "higher", moves=_NET),
    Metric("dse.tuned_ratio", "ratio", "lower", moves=_NET),
    Metric("dse.phase1.calls", "count", "lower", moves=f"cold_s_p50 on service_mix; {_COLD_LAYER}"),
    Metric("dse.phase1.busy_s", "s", "lower", moves=f"cold_s_p50 on service_mix; {_COLD_LAYER}"),
    Metric("dse.phase2.busy_s", "s", "lower", moves=f"cold_s_p50 on service_mix; {_COLD_LAYER}"),
    Metric("codegen.opencl.busy_s", "s", "lower", moves=_COLD_LAYER),
    Metric("codegen.host.busy_s", "s", "lower", moves=_COLD_LAYER),
    Metric("codegen.testbench.busy_s", "s", "lower", moves=_COLD_LAYER),
    Metric("codegen.rtl.busy_s", "s", "lower", moves=_COLD_LAYER),
    Metric("codegen.artifact_kb", "KB", "lower", moves=f"{_COLD_LAYER}; service.payload_kb"),
    Metric("sim.perf.calls", "count", "lower", moves="nothing visible (about 1 ms/op): recorded to prove it"),
    Metric("sim.perf.busy_s", "s", "lower", moves="nothing visible (about 1 ms/op): recorded to prove it"),
    Metric("sim.fast.busy_s", "s", "lower", moves=_SIM),
    Metric("sim.fast.miters_per_s", "Miter/s", "higher", moves=_SIM),
    Metric("sim.fast.pe_util_pct", "%", "higher", moves="none: simulated statistic, must repeat exactly"),
    Metric("sim.engine.busy_s", "s", "lower", moves=_SIM),
    Metric("sim.engine.miters_per_s", "Miter/s", "higher", moves=_SIM),
    Metric("sim.rtl.busy_s", "s", "lower", moves=_SIM),
    Metric("sim.rtl.miters_per_s", "Miter/s", "higher", moves=_SIM),
    Metric("verify.cross_check.busy_s", "s", "lower", moves=_SIM),
    Metric("verify.cross_check.self_s", "s", "lower", moves=_SIM),
    Metric("verify.cross_check.legs_ok", "count", "higher", moves="none: must repeat exactly"),
    Metric("verify.cross_check.legs_skipped", "count", "lower", moves="none: must repeat exactly"),
    Metric("pipeline.parse.busy_s", "s", "lower", moves=f"{_COLD_LAYER}; {_WARM_LAYER}"),
    Metric("pipeline.legality-check.busy_s", "s", "lower", moves=_COLD_LAYER),
    Metric("pipeline.dse-phase1.busy_s", "s", "lower", moves=_COLD_LAYER),
    Metric("pipeline.dse-phase2.busy_s", "s", "lower", moves=_COLD_LAYER),
    Metric("pipeline.codegen.busy_s", "s", "lower", moves=_COLD_LAYER),
    Metric("pipeline.simulate.busy_s", "s", "lower", moves=f"{_COLD_LAYER}; warm_s_p50 on sim_ladder"),
    Metric("pipeline.unified-dse.busy_s", "s", "lower", moves=_NET),
    Metric("pipeline.engine.self_s", "s", "lower", moves=f"{_COLD_LAYER}; {_WARM_LAYER}"),
    Metric("pipeline.cache.fs.get_s_p50", "s", "lower", moves=_WARM_LAYER),
    Metric("pipeline.cache.fs.put_s_p50", "s", "lower", moves=f"small share of {_COLD_LAYER}"),
    Metric("pipeline.cache.sqlite.get_s_p50", "s", "lower", moves=_WARM_LAYER),
    Metric("pipeline.cache.sqlite.put_s_p50", "s", "lower", moves=f"small share of {_COLD_LAYER}"),
    Metric("pipeline.cache.hits", "count", "higher", moves=_WARM_LAYER),
    Metric("pipeline.cache.misses", "count", "lower", moves=_COLD_LAYER),
    Metric("pipeline.cache.hit_ratio", "ratio", "higher", moves=_WARM_LAYER),
    Metric("pipeline.cache.entry_kb", "KB", "lower", moves=_WARM_LAYER),
    Metric("model.serialize.encode_s_p50", "s", "lower", moves=f"small share of {_COLD_LAYER}; warm_s_p50 on service_mix"),
    Metric("model.serialize.decode_s_p50", "s", "lower", moves=_WARM_LAYER),
    Metric("model.serialize.payload_kb", "KB", "lower", moves=f"{_WARM_LAYER}; warm_s_p50 on service_mix"),
    Metric("service.submit_s_p50", "s", "lower", moves=f"warm_s_p50, {_SVC}"),
    Metric("service.queue_wait_s_p50", "s", "lower", moves=f"cold_s_p50, {_SVC}"),
    Metric("service.run_s_p50", "s", "lower", moves=f"cold_s_p50, {_SVC}"),
    Metric("service.stage_sum_s_p50", "s", "lower", moves=f"cold_s_p50, {_SVC}"),
    Metric("service.overhead_s_p50", "s", "lower", moves=f"cold_s_p50, {_SVC}"),
    Metric("service.events_s_p50", "s", "lower", moves=f"warm_s_p50, {_SVC}"),
    Metric("service.result_fetch_s_p50", "s", "lower", moves=f"warm_s_p50, {_SVC}"),
    Metric("service.payload_kb", "KB", "lower", moves=f"warm_s_p50, {_SVC}"),
    Metric("service.executions", "count", "lower", moves=f"suite_s, {_SVC}; must repeat exactly"),
    Metric("service.coalesce_ratio", "ratio", "higher", moves=f"suite_s, {_SVC}"),
    Metric("service.http_requests", "count", "lower", moves=f"suite_s, {_SVC}"),
    Metric("service.retries_429", "count", "lower", moves=f"suite_s, {_SVC}"),
    Metric("service.jobs_per_s", "1/s", "higher", moves=f"suite_s, {_SVC}"),
    Metric("service.cold_s_p90", "s", "lower", moves=f"cold_s_p50, {_SVC}"),
    Metric("bench.warm_s_p95", "s", "lower", moves="demoted end-to-end metric (tail of warm_s_p50's samples)"),
    Metric("bench.failed_ratio", "ratio", "lower", moves="demoted end-to-end metric (0 unless a check bites)"),
    Metric("bench.span_coverage_p50", "ratio", "higher", moves="none: share of an op's time inside named child spans, median over ops"),
    Metric("bench.span_coverage_min", "ratio", "higher", moves="none: the same for the least-covered op (a GC pause or a steal burst between two spans lands here)"),
    Metric("bench.trace_overhead_ratio", "ratio", "lower", moves="none: traced suite_s / untraced suite_s of the same run"),
    Metric("bench.spans", "count", "lower", moves="none"),
)


_BENCH = ("bench.warm_s_p95", "bench.span_coverage_p50", "bench.span_coverage_min", "bench.trace_overhead_ratio", "bench.spans")
_CACHE = ("pipeline.cache.hits", "pipeline.cache.misses", "pipeline.cache.hit_ratio",
          "pipeline.cache.entry_kb", "model.serialize.decode_s_p50")

#: Per-layer metrics each workload claims to exercise: a traced run of the
#: workload must observe every one of them (read non-zero) at least once.
OBSERVED_ON = {
    "net_unified": _BENCH + _CACHE + (
        "dse.unified.busy_s", "dse.tuner.tunes", "dse.tuner.busy_s", "dse.tuner.tunes_per_s",
        "dse.configs_enumerated", "dse.configs_per_s", "dse.tuned_ratio",
        "codegen.opencl.busy_s", "codegen.host.busy_s", "codegen.artifact_kb",
        "pipeline.unified-dse.busy_s", "pipeline.engine.self_s",
        "pipeline.cache.fs.get_s_p50", "pipeline.cache.fs.put_s_p50",
        "model.serialize.encode_s_p50",
    ),
    "layer_flow": _BENCH + _CACHE + (
        "frontend.parse.calls", "frontend.parse.busy_s", "analysis.nest_check.busy_s",
        "analysis.design_check.busy_s", "analysis.codegen_lint.calls",
        "analysis.codegen_lint.busy_s", "dse.tuner.tunes", "dse.tuner.busy_s",
        "dse.configs_enumerated", "dse.tuned_ratio", "dse.phase1.calls", "dse.phase1.busy_s",
        "dse.phase2.busy_s", "codegen.opencl.busy_s", "codegen.host.busy_s",
        "codegen.testbench.busy_s", "codegen.rtl.busy_s", "codegen.artifact_kb",
        "sim.perf.calls", "sim.perf.busy_s", "pipeline.parse.busy_s",
        "pipeline.legality-check.busy_s", "pipeline.dse-phase1.busy_s",
        "pipeline.dse-phase2.busy_s", "pipeline.codegen.busy_s", "pipeline.simulate.busy_s",
        "pipeline.engine.self_s", "pipeline.cache.fs.get_s_p50", "pipeline.cache.fs.put_s_p50",
        "pipeline.cache.sqlite.get_s_p50", "pipeline.cache.sqlite.put_s_p50",
        "model.serialize.encode_s_p50", "model.serialize.payload_kb",
    ),
    "sim_ladder": _BENCH + _CACHE[:1] + _CACHE[2:] + (
        "sim.perf.calls", "sim.fast.busy_s", "sim.fast.miters_per_s", "sim.fast.pe_util_pct",
        "sim.engine.busy_s", "sim.engine.miters_per_s", "sim.rtl.busy_s", "sim.rtl.miters_per_s",
        "verify.cross_check.busy_s", "verify.cross_check.self_s", "verify.cross_check.legs_ok",
        "verify.cross_check.legs_skipped", "pipeline.simulate.busy_s",
        "pipeline.cache.fs.get_s_p50",
    ),
    "service_mix": _BENCH + (
        "service.submit_s_p50", "service.queue_wait_s_p50", "service.run_s_p50",
        "service.stage_sum_s_p50", "service.overhead_s_p50", "service.events_s_p50",
        "service.result_fetch_s_p50", "service.payload_kb", "service.executions",
        "service.coalesce_ratio", "service.http_requests", "service.jobs_per_s",
        "service.cold_s_p90", "pipeline.dse-phase1.busy_s", "pipeline.codegen.busy_s",
    ),
}


def manifest() -> dict:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
