"""Spans recorded from outside the program.

A span is ``{id, workload, op, name, fn, start, end, parent}`` (plus a
few measured attributes), kept in memory and written out when the
workload ends.  In-process workloads get their spans by rebinding public
callables of ``repro`` — in every ``repro.*`` namespace that holds them —
for the traced pass only; no file under ``src/`` is edited.  ``name`` is
the layer the time is charged to (a ``src/repro`` package path), ``fn``
the callable that was wrapped.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Iterable


class Tracer:
    """In-memory span recorder with a single-thread span stack."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict[str, Any]] = []
        self.op = ""
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []
        self._backends: dict[str, Any] | None = None

    # ------------------------------------------------------------ spans

    def begin(self, name: str, fn: str = "", **attrs: Any) -> int:
        span = {
            "id": len(self.spans),
            "workload": self.workload,
            "op": self.op,
            "name": name,
            "fn": fn,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            **attrs,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span["id"]

    def end(self, span_id: int) -> dict[str, Any]:
        """Close ``span_id`` and anything still open above it (a stage
        that raised never reports StageFinished)."""
        now = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            self.spans[top]["end"] = now
            if top == span_id:
                break
        return self.spans[span_id]

    def add(self, name: str, fn: str, start: float, end: float, parent: int | None,
            op: str, **attrs: Any) -> int:
        """Record a span whose times were measured elsewhere (the service
        workload builds spans from client timings and server ``ts``)."""
        span = {
            "id": len(self.spans), "workload": self.workload, "op": op, "name": name,
            "fn": fn, "start": start, "end": end, "parent": parent, **attrs,
        }
        self.spans.append(span)
        return span["id"]

    def observer(self, event: Any) -> None:
        """Pipeline ``observers=`` callback: stage spans from the public
        StageStarted/StageFinished events."""
        kind = type(event).__name__
        if kind == "StageStarted":
            self.begin(f"pipeline.{event.stage}", "stage")
        elif kind == "StageFinished":
            for span_id in reversed(self._stack):
                span = self.spans[span_id]
                if span["name"] == f"pipeline.{event.stage}":
                    self.end(span_id)
                    span["seconds"] = event.seconds
                    span["cached"] = event.cached
                    break

    def rescale(self, factor: float) -> None:
        """Wall seconds to calibrated seconds (see ``calibrate.py``)."""
        for span in self.spans:
            for key in ("start", "end", "seconds"):
                if key in span:
                    span[key] *= factor

    def dump(self, path: Path) -> None:
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # -------------------------------------------------------- rebinding

    def _wrap(
        self,
        original: Callable[..., Any],
        name: str | Callable[[tuple], str],
        fn: str,
        post: Callable[[dict, tuple, Any], None] | None,
    ) -> Callable[..., Any]:
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span_id = tracer.begin(name if isinstance(name, str) else name(args), fn)
            try:
                result = original(*args, **kwargs)
            finally:
                span = tracer.end(span_id)
            if post is not None:
                post(span, args, result)
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(original, "__name__", fn)
        wrapper.__doc__ = original.__doc__
        return wrapper

    def install(self) -> None:
        """Rebind every trace point; :meth:`uninstall` restores them."""
        for module_name, _, _, _, _ in TRACE_POINTS:
            importlib.import_module(module_name)
        namespaces = [
            module for mod_name, module in list(sys.modules.items())
            if module is not None and (mod_name == "repro" or mod_name.startswith("repro."))
        ]
        wrapped: dict[int, Callable[..., Any]] = {}
        for module_name, attr, name, fn, post in TRACE_POINTS:
            module = sys.modules[module_name]
            if "." in attr:  # Class.method: rebind on the class
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrap(original, name, fn, post))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, fn, post)
            wrapped[id(original)] = wrapper
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        self._restore.append((namespace, key, original))
                        setattr(namespace, key, wrapper)
        # The codegen registry captured its emitters at import time.
        backend = sys.modules["repro.codegen.backend"]
        self._backends = dict(backend.BACKENDS)
        for key, entry in self._backends.items():
            backend.BACKENDS[key] = dataclasses.replace(
                entry,
                emitters=tuple(
                    (artifact, wrapped.get(id(emit), emit))
                    for artifact, emit in entry.emitters
                ),
            )

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._restore):
            setattr(namespace, key, original)
        self._restore.clear()
        if self._backends is not None:
            sys.modules["repro.codegen.backend"].BACKENDS.update(self._backends)
            self._backends = None


# ------------------------------------------------------- trace points


def _cache_name(args: tuple) -> str:
    """``pipeline.cache.<backend>`` of a StageCache or a store method call."""
    kind = getattr(args[0], "store", args[0]).kind
    return "pipeline.cache." + {"filesystem": "fs"}.get(kind, kind)


def _post_get(span: dict, args: tuple, result: Any) -> None:
    span["hit"] = result is not None


def _post_read(span: dict, args: tuple, result: Any) -> None:
    span["bytes"] = len(result) if result is not None else 0


def _post_write(span: dict, args: tuple, result: Any) -> None:
    span["bytes"] = len(args[3])


def _post_artifact(span: dict, args: tuple, result: Any) -> None:
    span["bytes"] = len(result)


def _post_sim(span: dict, args: tuple, result: Any) -> None:
    result = getattr(result, "result", result)  # RtlSimulator returns an RtlRun
    design = args[0].design
    span["iterations"] = design.nest.total_iterations
    span["cycles"] = result.compute_cycles
    span["pe_active"] = result.pe_active_cycles
    span["pes"] = design.shape.rows * design.shape.cols


def _post_cross(span: dict, args: tuple, result: Any) -> None:
    span["legs_ok"] = sum(1 for leg in result.legs if leg.status == "ok")
    span["legs_skipped"] = sum(1 for leg in result.legs if leg.status == "skipped")


#: (module, attribute, span name, fn label, post hook).  The span name is
#: the layer whose per-layer metrics the time lands in.
TRACE_POINTS: tuple[tuple[str, str, Any, str, Any], ...] = (
    ("repro.frontend.cparser", "parse_program", "frontend.parse", "parse_program", None),
    ("repro.frontend.extract", "extract_loop_nest", "frontend.parse", "extract_loop_nest", None),
    ("repro.analysis.nest_check", "check_source", "analysis.nest_check", "check_source", None),
    ("repro.analysis.nest_check", "check_nest", "analysis.nest_check", "check_nest", None),
    ("repro.analysis.design_check", "verify_design_points", "analysis.design_check", "verify_design_points", None),
    ("repro.analysis.codegen_lint", "lint_generated_code", "analysis.codegen_lint", "lint_generated_code", None),
    ("repro.analysis.codegen_lint", "lint_against_design", "analysis.codegen_lint", "lint_against_design", None),
    ("repro.analysis.codegen_lint", "lint_verilog", "analysis.codegen_lint", "lint_verilog", None),
    ("repro.dse.explore", "phase1", "dse.phase1", "phase1", None),
    ("repro.dse.explore", "phase2", "dse.phase2", "phase2", None),
    ("repro.dse.multi_layer", "select_unified_design", "dse.unified", "select_unified_design", None),
    ("repro.dse.multi_layer", "prepare_network_nests", "dse.unified", "prepare_network_nests", None),
    ("repro.dse.tuner", "MiddleTuner.tune", "dse.tuner", "tune", None),
    ("repro.dse.vector", "VectorTuner.tune", "dse.tuner", "tune", None),
    ("repro.codegen.opencl", "generate_kernel", "codegen.opencl", "generate_kernel", _post_artifact),
    ("repro.codegen.opencl", "generate_kernel_driver", "codegen.opencl", "generate_kernel_driver", _post_artifact),
    ("repro.codegen.host", "generate_host", "codegen.host", "generate_host", _post_artifact),
    ("repro.codegen.testbench", "generate_testbench", "codegen.testbench", "generate_testbench", _post_artifact),
    ("repro.codegen.rtl", "generate_rtl", "codegen.rtl", "generate_rtl", _post_artifact),
    ("repro.sim.perf", "simulate_performance", "sim.perf", "simulate_performance", None),
    ("repro.sim.fast", "FastWavefrontSimulator.run", "sim.fast", "run", _post_sim),
    ("repro.sim.engine", "SystolicArrayEngine.run", "sim.engine", "run", _post_sim),
    ("repro.sim.rtl", "RtlSimulator.__init__", "sim.rtl", "build", None),
    ("repro.sim.rtl", "RtlSimulator.run", "sim.rtl", "run", _post_sim),
    ("repro.verify.conformance", "cross_check", "verify.cross_check", "cross_check", _post_cross),
    ("repro.pipeline.cache", "StageCache.get", _cache_name, "get", _post_get),
    ("repro.pipeline.cache", "StageCache.put", _cache_name, "put", None),
    ("repro.pipeline.cache", "FilesystemStore.read", _cache_name, "read", _post_read),
    ("repro.pipeline.cache", "FilesystemStore.write", _cache_name, "write", _post_write),
    ("repro.pipeline.cache", "SqliteStore.read", _cache_name, "read", _post_read),
    ("repro.pipeline.cache", "SqliteStore.write", _cache_name, "write", _post_write),
    ("repro.pipeline.codecs", "encode_phase1", "model.serialize", "encode", None),
    ("repro.pipeline.codecs", "encode_phase2", "model.serialize", "encode", None),
    ("repro.pipeline.codecs", "encode_unified", "model.serialize", "encode", None),
    ("repro.pipeline.codecs", "decode_phase1", "model.serialize", "decode", None),
    ("repro.pipeline.codecs", "decode_phase2", "model.serialize", "decode", None),
    ("repro.pipeline.codecs", "decode_unified", "model.serialize", "decode", None),
    ("repro.model.serialize", "measurement_to_dict", "model.serialize", "encode", None),
    ("repro.model.serialize", "measurement_from_dict", "model.serialize", "decode", None),
    ("repro.model.serialize", "result_to_dict", "model.serialize", "encode", None),
    ("repro.model.serialize", "result_from_dict", "model.serialize", "decode", None),
)


# ---------------------------------------------------------- accounting


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    edge = float("-inf")
    for start, end in sorted(intervals):
        if end > edge:
            total += end - max(start, edge)
            edge = end
    return total


def self_times(spans: list[dict[str, Any]]) -> list[float]:
    """Per span: duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    return [
        (span["end"] - span["start"]) - covered(children.get(span["id"], ()))
        for span in spans
    ]


def op_coverage(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Per op root span: share of its time inside named child spans."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for span, own in zip(spans, selfs):
        if span["parent"] is None:
            duration = span["end"] - span["start"]
            out[f"{span['op']}#{span['id']}"] = 1.0 - own / duration if duration > 0 else 1.0
    return out


def busy_by_name(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Self time summed per span name."""
    busy: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        busy[span["name"]] = busy.get(span["name"], 0.0) + own
    return busy
