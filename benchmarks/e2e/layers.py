"""Per-layer metrics of a traced pass, computed from its spans.

``busy_s`` is self time (span minus the part its child spans cover)
summed over the spans charged to that layer; a metric no span of the
workload feeds reads 0.
"""

from __future__ import annotations

from typing import Any

from e2e import spec
from e2e.spans import busy_by_name, op_coverage, self_times
from e2e.workloads import Recorder, median0, percentile

_STAGES = ("parse", "legality-check", "dse-phase1", "dse-phase2", "codegen", "simulate",
           "unified-dse")


def _ratio(top: float, bottom: float) -> float:
    return top / bottom if bottom else 0.0


def layer_metrics(
    spans: list[dict[str, Any]],
    rec: Recorder,
    report: dict[str, Any],
    untraced_suite_s: float,
    traced_suite_s: float,
    extra: dict[str, float],
) -> dict[str, float]:
    busy = busy_by_name(spans)
    selfs = self_times(spans)
    by_name: dict[str, list[dict[str, Any]]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def named(name: str, fn: str | None = None) -> list[dict[str, Any]]:
        return [s for s in by_name.get(name, ()) if fn is None or s["fn"] == fn]

    def duration(span: dict[str, Any]) -> float:
        return span["end"] - span["start"]

    out = {metric.name: 0.0 for metric in spec.PER_LAYER}
    for layer in (
        "frontend.parse", "analysis.nest_check", "analysis.design_check",
        "analysis.codegen_lint", "dse.unified", "dse.tuner", "dse.phase1", "dse.phase2",
        "codegen.opencl", "codegen.host", "codegen.testbench", "codegen.rtl",
        "sim.perf", "sim.fast", "sim.engine", "sim.rtl",
    ):
        out[f"{layer}.busy_s"] = busy.get(layer, 0.0)
    out["frontend.parse.calls"] = float(len(named("frontend.parse", "parse_program")))
    out["analysis.codegen_lint.calls"] = float(len(named("analysis.codegen_lint")))
    out["dse.phase1.calls"] = float(len(named("dse.phase1")))
    out["sim.perf.calls"] = float(len(named("sim.perf")))

    # VectorTuner.tune may fall back to MiddleTuner.tune: count the outer call
    tunes = sum(
        1 for s in named("dse.tuner")
        if s["parent"] is None or spans[s["parent"]]["name"] != "dse.tuner"
    )
    out["dse.tuner.tunes"] = float(tunes)
    out["dse.tuner.tunes_per_s"] = _ratio(tunes, busy.get("dse.tuner", 0.0))
    enumerated = rec.counts.get("configs_enumerated", 0.0)
    dse_s = sum(busy.get(n, 0.0) for n in ("dse.unified", "dse.phase1", "dse.phase2", "dse.tuner"))
    out["dse.configs_enumerated"] = enumerated
    out["dse.configs_per_s"] = _ratio(enumerated, dse_s)
    out["dse.tuned_ratio"] = _ratio(rec.counts.get("configs_tuned", 0.0), enumerated)

    kernels = named("codegen.opencl", "generate_kernel")
    artifact_bytes = sum(s.get("bytes", 0) for n in by_name if n.startswith("codegen.")
                         for s in by_name[n])
    out["codegen.artifact_kb"] = _ratio(artifact_bytes / 1024.0, len(kernels))

    for layer in ("sim.fast", "sim.engine", "sim.rtl"):
        runs = named(layer, "run")
        out[f"{layer}.miters_per_s"] = _ratio(
            sum(s["iterations"] for s in runs) / 1e6, busy.get(layer, 0.0)
        )
    fast_runs = named("sim.fast", "run")
    out["sim.fast.pe_util_pct"] = 100.0 * _ratio(
        sum(s["pe_active"] for s in fast_runs), sum(s["cycles"] * s["pes"] for s in fast_runs)
    )
    crosses = named("verify.cross_check")
    out["verify.cross_check.busy_s"] = sum(duration(s) for s in crosses)
    out["verify.cross_check.self_s"] = busy.get("verify.cross_check", 0.0)
    out["verify.cross_check.legs_ok"] = float(sum(s["legs_ok"] for s in crosses))
    out["verify.cross_check.legs_skipped"] = float(sum(s["legs_skipped"] for s in crosses))

    for stage in _STAGES:
        # the program's own StageFinished.seconds, as the issue asks
        out[f"pipeline.{stage}.busy_s"] = sum(
            s.get("seconds", duration(s)) for s in named(f"pipeline.{stage}")
        )
    # op time outside every named span: compile minus the sum of its stages
    out["pipeline.engine.self_s"] = sum(
        own for span, own in zip(spans, selfs)
        if span["name"] == "op" and span["workload"] != "service_mix"
    )

    gets = [s for kind in ("fs", "sqlite") for s in named(f"pipeline.cache.{kind}", "get")]
    for kind in ("fs", "sqlite"):
        out[f"pipeline.cache.{kind}.get_s_p50"] = median0(
            [duration(s) for s in named(f"pipeline.cache.{kind}", "get")])
        out[f"pipeline.cache.{kind}.put_s_p50"] = median0(
            [duration(s) for s in named(f"pipeline.cache.{kind}", "put")])
    hits = sum(1 for s in gets if s.get("hit"))
    out["pipeline.cache.hits"] = float(hits)
    out["pipeline.cache.misses"] = float(len(gets) - hits)
    out["pipeline.cache.hit_ratio"] = _ratio(hits, len(gets))
    entries = [
        s["bytes"] for kind in ("fs", "sqlite") for fn in ("read", "write")
        for s in named(f"pipeline.cache.{kind}", fn) if s.get("bytes")
    ]
    out["pipeline.cache.entry_kb"] = median0(entries) / 1024.0

    # per op: total time inside the codecs, over the ops that used them
    for fn in ("encode", "decode"):
        per_op: dict[str, float] = {}
        for span, own in zip(spans, selfs):
            if span["name"] == "model.serialize" and span["fn"] == fn:
                key = f"{span['op']}#{_root(spans, span)}"
                per_op[key] = per_op.get(key, 0.0) + own
        out[f"model.serialize.{fn}_s_p50"] = median0(list(per_op.values()))
    out["model.serialize.payload_kb"] = report.get("payload_kb", 0.0)
    out["service.payload_kb"] = report.get("payload_kb", 0.0) if extra else 0.0
    out.update(extra)

    warm = rec.class_samples("warm")
    out["bench.warm_s_p95"] = percentile(warm, 0.95)
    out["bench.failed_ratio"] = _ratio(len(rec.failures), rec.attempted)
    coverage = op_coverage(spans)
    out["bench.span_coverage_p50"] = median0(list(coverage.values()))
    out["bench.span_coverage_min"] = min(coverage.values()) if coverage else 0.0
    out["bench.trace_overhead_ratio"] = _ratio(traced_suite_s, untraced_suite_s)
    out["bench.spans"] = float(len(spans))
    return {name: float(value) for name, value in out.items()}


def _root(spans: list[dict[str, Any]], span: dict[str, Any]) -> int:
    while span["parent"] is not None:
        span = spans[span["parent"]]
    return span["id"]
