"""The three in-process workloads and the recorder they share.

Every workload object has ``setup()``, ``one_pass(rec, index)``,
``verify(rec)`` and ``close()``; ops run pass-major and each op's time
is its minimum across the passes — interference on the shared box only
ever adds time, so the least disturbed pass is the measurement — in
calibrated seconds (see ``calibrate.py``).  The program is called through
its public entry points with its shipped defaults (``jobs=1``, vector
engine, ``arria10_gt1150``/``float32``).
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import time
import traceback
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from e2e.calibrate import Calibrator
from e2e.spans import Tracer

#: Stages the pipeline caches when no wavefront backend is asked for.
CACHED_STAGES = {"dse-phase1", "dse-phase2", "codegen", "simulate"}


class Recorder:
    """Samples, failures and counts of one measured set of passes."""

    def __init__(self, calibrator: Calibrator, tracer: Tracer | None = None) -> None:
        self.calibrator = calibrator
        self.tracer = tracer
        self.samples: dict[str, list[float]] = {}
        self.classes: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.counts: dict[str, float] = {}

    @property
    def observers(self) -> tuple:
        return (self.tracer.observer,) if self.tracer is not None else ()

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def timed(
        self,
        op_id: str,
        cls: str,
        fn: Callable[[], Any],
        check: Callable[[Any], str | None] | None = None,
    ) -> Any:
        """Run one op under the clock; ``check`` (untimed) returns a
        reason when the op's output is wrong.  A raised, or wrong, op
        is a failed op and contributes no sample."""
        self.attempted += 1
        self.classes[op_id] = cls
        self.calibrator.sample_if_due()
        tracer = self.tracer
        root = None
        if tracer is not None:
            tracer.op = op_id
            root = tracer.begin("op", cls)
        start = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # noqa: BLE001 - op isolation boundary
            elapsed = None
            out = None
            reason = f"{type(exc).__name__}: {exc}\n{traceback.format_exc(limit=4)}"
        else:
            elapsed = time.perf_counter() - start
            reason = None
        finally:
            if root is not None:
                tracer.end(root)
        if reason is None and check is not None:
            reason = check(out)
        if reason is not None:
            self.failures.append((op_id, reason))
            return None
        self.samples.setdefault(op_id, []).append(elapsed)
        return out

    # --------------------------------------------------------- metrics

    def rescale(self) -> None:
        """Wall seconds to calibrated seconds, once, after measuring: each
        op by the factor for as many timings as it has."""
        for values in self.samples.values():
            factor = self.calibrator.scale(len(values))
            values[:] = [value * factor for value in values]

    def class_samples(self, cls: str) -> list[float]:
        return [s for op, ss in self.samples.items() if self.classes[op] == cls for s in ss]

    def class_p50(self, cls: str) -> float:
        """Median over the class's ops of each op's best time (an op run
        once, like a service job, is its own best)."""
        return statistics.median(
            min(ss) for op, ss in self.samples.items() if self.classes[op] == cls
        )

    def suite_s(self) -> float:
        """Time to do the op list once: sum of per-op minima."""
        return sum(min(ss) for ss in self.samples.values())


def percentile(values: list[float], q: float) -> float:
    """The q-quantile of ``values`` (0 when there are none)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] if ordered else 0.0


def median0(values: list[float]) -> float:
    """Median, 0 when there are no values (a layer the workload never reached)."""
    return statistics.median(values) if values else 0.0


class Workload:
    """What ``child.py`` asks of a workload beyond ``setup``, ``one_pass``
    and ``verify``; the in-process ones take these defaults."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def rescale(self, factor: float) -> None:
        """Workload-held timings to calibrated seconds (none by default)."""

    def layer_metrics(self, rec: Recorder) -> dict[str, float]:
        return {}

    def close(self) -> None:
        """Stop whatever ``setup`` started (nothing by default)."""


def run_passes(workload: Any, rec: Recorder, seconds: float, low: int, high: int) -> int:
    """Passes until ``high``, or until the next would overrun ``seconds``
    (never fewer than ``low``)."""
    start = time.perf_counter()
    last = 0.0
    done = 0
    while done < high and (done < low or time.perf_counter() - start + last <= seconds):
        began = time.perf_counter()
        workload.one_pass(rec, done)
        last = time.perf_counter() - began
        done += 1
    return done


def _sha(*parts: Any) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else str(part).encode())
        digest.update(b"\0")
    return digest.hexdigest()


def _quality(design_id: str, model_gops: float, sim_gops: float, signature: str) -> dict[str, Any]:
    """One winner: simulated throughput and the model's error against it."""
    return {
        "id": design_id,
        "sim_gops": sim_gops,
        "err_pct": abs(model_gops - sim_gops) / sim_gops * 100.0,
        "signature": signature,
    }


# ------------------------------------------------------------ net_unified


class NetUnified(Workload):
    """``synthesize_network`` cold against a fresh stage cache (what the
    CLI does on a first run), then re-runs against the cache it filled."""

    name = "net_unified"
    trace_passes = 1

    def __init__(self, inputs: dict[str, Any], workdir: Path) -> None:
        self.inputs = inputs
        self.workdir = workdir
        self.networks: dict[str, Any] = {}
        self.reference: dict[str, Any] = {}
        self.low, self.high = inputs["min_passes"], inputs["max_passes"]

    def setup(self) -> None:
        from repro.flow.compile import synthesize_network
        from repro.nn import models

        for spec in self.inputs["networks"]:
            network = getattr(models, spec["builtin"])()
            if spec["layers"] is not None:
                network = replace(
                    network,
                    name=spec["id"],
                    conv_layers=tuple(
                        l for l in network.conv_layers if l.name in spec["layers"]
                    ),
                    fc_layers=(), pool_layers=(), add_layers=(),
                )
            self.networks[spec["id"]] = network
        synthesize_network(models.tiny_cnn())  # warm-up op

    def one_pass(self, rec: Recorder, index: int) -> None:
        from repro.flow.compile import synthesize_network
        from repro.pipeline.cache import StageCache

        traced = "t" if rec.tracer is not None else "u"
        for net_id in self.inputs["orders"][index]:
            network = self.networks[net_id]
            cache = StageCache(self.workdir / f"net-{traced}{index}-{net_id}")

            def synth() -> Any:
                return synthesize_network(network, cache=cache, observers=rec.observers)

            def check(out: Any, want_hits: int = 0) -> str | None:
                ref = self.reference.setdefault(net_id, out)
                if cache.hits != want_hits:
                    return f"stage cache hits {cache.hits}, expected {want_hits}"
                if (out.result != ref.result or out.kernel_source != ref.kernel_source
                        or out.host_source != ref.host_source):
                    return "result differs from the first pass"
                return None

            out = rec.timed(f"cold.{net_id}", "cold", synth, check)
            if out is not None:
                rec.count("configs_enumerated", out.result.configs_enumerated)
                rec.count("configs_tuned", out.result.configs_tuned)
            for rerun in range(self.inputs["warm_reruns"]):
                rec.timed(f"warm.{net_id}", "warm", synth,
                          lambda o, n=rerun + 1: check(o, n))

    def verify(self, rec: Recorder) -> dict[str, Any]:
        """Simulated ("on-board") aggregate throughput of each winner and
        the model's per-layer error against the simulator."""
        from repro.dse.multi_layer import prepare_network_nests
        from repro.model.design_point import DesignPoint
        from repro.model.platform import Platform
        from repro.sim.perf import simulate_performance

        platform = Platform()
        designs = []
        digests = []
        for net_id, out in sorted(self.reference.items()):
            result = out.result
            by_name = {layer.name: layer for layer in result.layers}
            total_ops = total_seconds = 0.0
            worst = 0.0
            for w in prepare_network_nests(self.networks[net_id]):
                layer = by_name[w.name]
                design = DesignPoint.create(
                    w.nest, result.config.mapping, result.config.shape, layer.middle
                )
                measured = simulate_performance(
                    design, platform, frequency_mhz=result.frequency_mhz, streaming=True
                )
                seconds = w.multiplicity * measured.seconds
                worst = max(worst, abs(layer.seconds - seconds) / seconds * 100.0)
                total_seconds += seconds
                total_ops += w.effective_ops
            designs.append({
                "id": net_id,
                "sim_gops": total_ops / total_seconds / 1e9,
                "err_pct": worst,
                "signature": f"{result.config}@{result.frequency_mhz!r}",
            })
            digests.append(_sha(
                net_id, result.config, repr(result.frequency_mhz),
                [(l.name, sorted(l.middle.items()), repr(l.seconds)) for l in result.layers],
                _sha(out.kernel_source), _sha(out.host_source),
            ))
        return {"designs": designs, "digest": _sha(*digests), "checks": {
            "pass_identity": rec.attempted - len(rec.failures)}}


# ------------------------------------------------------------- layer_flow


def corrupt_one_entry(root: Path) -> None:
    """Sabotage for the self-check: truncate one cached codegen entry so
    the next warm compile must quarantine it and recompute."""
    victim = sorted((root / "codegen").glob("*.json"))[0]
    victim.write_text(victim.read_text()[:40])


class LayerFlow(Workload):
    """``compile_c_source(strict=True)`` on single layers: a cold pass
    into a fresh store, then warm passes out of it; the store alternates
    between the filesystem and SQLite backends round by round."""

    name = "layer_flow"
    trace_passes = 2  # one round per store

    def __init__(self, inputs: dict[str, Any], workdir: Path, sabotage: str | None = None) -> None:
        self.inputs = inputs
        self.workdir = workdir
        self.sabotage = sabotage
        self.layers = {layer["id"]: layer for layer in inputs["layers"]}
        self.reference: dict[str, Any] = {}
        self.low, self.high = inputs["min_rounds"], inputs["max_rounds"]

    def _compile(self, layer: dict[str, Any], cache: Any, rec: Recorder) -> Any:
        from repro.flow.compile import compile_c_source

        return compile_c_source(
            layer["source"], name=layer["name"], strict=True, cache=cache,
            observers=rec.observers,
        )

    def setup(self) -> None:
        from repro.flow.compile import compile_c_source
        from repro.frontend.emit import nest_to_c
        from repro.ir.loop import conv_loop_nest

        source = nest_to_c(conv_loop_nest(16, 8, 10, 10, 3, 3))
        for spec in (str(self.workdir / "warmup-fs"), f"sqlite:{self.workdir / 'warmup.db'}"):
            for _ in range(2):  # cold then warm: touches both store code paths
                compile_c_source(source, strict=True, cache=spec)

    def one_pass(self, rec: Recorder, index: int) -> None:
        from repro.pipeline.cache import resolve_cache

        kind = self.inputs["stores"][index % len(self.inputs["stores"])]
        traced = "t" if rec.tracer is not None else "u"
        root = self.workdir / f"layer-{traced}{index}-{kind}"
        cache = resolve_cache(str(root) if kind == "fs" else f"sqlite:{root}.db")
        orders = self.inputs["orders"][index]

        def check(out: Any, layer_id: str, warm: bool) -> str | None:
            ref = self.reference.setdefault(layer_id, out)
            if out != ref:
                return "result differs from the first compile of this layer"
            hits = set(out.cache_hits)
            if warm and (hits != CACHED_STAGES or out.degradations):
                return ("warm compile was not served from the cache: "
                        f"hits={sorted(hits)} degradations={out.degradations}")
            if not warm and hits:
                return f"cold compile hit a fresh store: {sorted(hits)}"
            return None

        for layer_id in orders[0]:
            out = rec.timed(
                f"cold.{layer_id}", "cold",
                lambda: self._compile(self.layers[layer_id], cache, rec),
                lambda o: check(o, layer_id, False),
            )
            if out is not None:
                rec.count("configs_enumerated", out.configs_enumerated)
                rec.count("configs_tuned", out.configs_tuned)
        if self.sabotage == "corrupt" and kind == "fs":
            corrupt_one_entry(root)
        for order in orders[1:]:
            for layer_id in order:
                rec.timed(
                    f"warm.{layer_id}", "warm",
                    lambda: self._compile(self.layers[layer_id], cache, rec),
                    lambda o: check(o, layer_id, True),
                )
        close = getattr(cache.store, "close", None)
        if close is not None:
            close()

    def verify(self, rec: Recorder) -> dict[str, Any]:
        from repro.model.serialize import result_to_dict

        designs = []
        digests = []
        payload_bytes = []
        for layer_id, out in sorted(self.reference.items()):
            designs.append(_quality(
                layer_id, out.evaluation.throughput_gops, out.measurement.throughput_gops,
                out.evaluation.design.signature,
            ))
            payload = result_to_dict(out)
            payload.pop("dse_seconds")
            text = json.dumps(payload, sort_keys=True)
            payload_bytes.append(len(text))
            digests.append(_sha(layer_id, out.measurement.cycles, text))
        return {"designs": designs, "digest": _sha(*digests),
                "payload_kb": statistics.median(payload_bytes) / 1024.0,
                "checks": {"warm_equals_cold": len(rec.class_samples("warm"))}}


# ------------------------------------------------------------- sim_ladder


def sampled_golden(nest: Any, arrays: dict[str, np.ndarray], output: np.ndarray,
                   points: int, seed: int) -> float:
    """Largest relative error of ``output`` at ``points`` seeded output
    positions against an independent evaluation of the nest: every
    reduction iteration of each sampled position is gathered through the
    affine access functions and summed.  (The full
    ``golden_nest_output`` takes 11 s on alexnet.conv1; this shares its
    idea — nothing but the nest — at a sampled cost.)"""
    out_access = nest.output
    out_iters = []
    for expr in out_access.indices:
        terms = list(expr.terms)
        if len(terms) != 1 or terms[0][1] != 1 or expr.const != 0:
            raise ValueError(f"output access {out_access} is not one iterator per dimension")
        out_iters.append(terms[0][0])
    bounds = nest.bounds
    red_iters = [it for it in nest.iterators if it not in out_iters]
    rng = np.random.default_rng(seed)
    fixed = {it: rng.integers(0, bounds[it], size=points)[:, None] for it in out_iters}
    grids = np.meshgrid(*[np.arange(bounds[it]) for it in red_iters], indexing="ij")
    values = {it: grid.reshape(1, -1) for it, grid in zip(red_iters, grids)}
    values.update(fixed)

    def gather(access: Any) -> np.ndarray:
        index = []
        for expr in access.indices:
            dim = np.full((points, 1), expr.const, dtype=np.int64)
            for name, coeff in expr.terms:
                dim = dim + coeff * values[name]
            index.append(np.broadcast_to(dim, (points, grids[0].size)))
        return np.asarray(arrays[access.array][tuple(index)], dtype=np.float64)

    read_a, read_b = nest.reads
    expected = (gather(read_a) * gather(read_b)).sum(axis=1)
    got = output[tuple(fixed[it][:, 0] for it in out_iters)]
    scale = np.maximum(np.abs(expected), 1.0)
    return float(np.max(np.abs(got - expected) / scale))


class SimLadder(Workload):
    """The verification engineer's ladder: fast simulator on tuned
    Table-2-scale designs, cycle-accurate engine, interpreted RTL and the
    full ``cross_check`` on small nests (no gcc/iverilog legs), then
    repeated ``compile_c_source(sim_backend="fast")`` of already-compiled
    nests — the warm verify re-run, served by the stage cache up to the
    simulate stage."""

    name = "sim_ladder"
    trace_passes = 1
    REL_TOL = 1e-9

    def __init__(self, inputs: dict[str, Any], workdir: Path) -> None:
        self.inputs = inputs
        self.workdir = workdir
        self.ops: dict[str, dict[str, Any]] = {}
        self.verify_ops = inputs["verify"]
        self.reference: dict[str, Any] = {}
        self.cache: Any = None
        self.low, self.high = inputs["min_passes"], inputs["max_passes"]

    def setup(self) -> None:
        from repro.dse.multi_layer import prepare_network_nests
        from repro.dse.tuner import MiddleTuner
        from repro.flow.compile import compile_c_source
        from repro.ir.loop import conv_loop_nest
        from repro.model.design_point import ArrayShape
        from repro.model.mapping import Mapping
        from repro.model.platform import Platform
        from repro.nn import models
        from repro.pipeline.cache import StageCache
        from repro.sim.fast import FastWavefrontSimulator
        from repro.verify.conformance import synthetic_arrays

        mapping = Mapping("o", "c", "i", "IN", "W")
        platform = Platform()
        seed = self.inputs["tensor_seed"]
        specs = [("fast", s) for s in self.inputs["fast"]] + [
            (kind, self.inputs[kind]) for kind in ("engine", "rtl", "cross")
        ]
        for kind, spec in specs:
            if "nest" in spec:
                nest = conv_loop_nest(*spec["nest"], name=spec["id"])
            else:
                nest = next(
                    w.nest for w in prepare_network_nests(getattr(models, spec["network"])())
                    if w.name == spec["layer"]
                )
            design = MiddleTuner(nest, mapping, ArrayShape(*spec["shape"]), platform).tune().design
            self.ops[spec["id"]] = {
                "kind": kind, "design": design,
                "arrays": synthetic_arrays(nest, seed=seed),
            }
        self.cache = StageCache(self.workdir / "verify-cache")
        for op in self.verify_ops:  # designs are built in set-up: the DSE runs here
            compile_c_source(op["source"], name=op["name"], cache=self.cache)
        smallest = min(self.ops.values(), key=lambda o: o["design"].nest.total_iterations)
        FastWavefrontSimulator(smallest["design"]).run(smallest["arrays"])  # warm-up op

    def _run(self, op: dict[str, Any]) -> Any:
        from repro.sim.engine import SystolicArrayEngine
        from repro.sim.fast import FastWavefrontSimulator
        from repro.sim.rtl import RtlSimulator
        from repro.verify.conformance import cross_check

        design, arrays = op["design"], op["arrays"]
        if op["kind"] == "fast":
            return FastWavefrontSimulator(design).run(arrays)
        if op["kind"] == "engine":
            return SystolicArrayEngine(design).run(arrays)
        if op["kind"] == "rtl":
            return RtlSimulator(design).run(arrays).result
        return cross_check(design, arrays=arrays, rtl=True, iverilog="off")

    @staticmethod
    def _fingerprint(result: Any) -> str:
        """Output bits and every simulated statistic."""
        return _sha(result.output.tobytes(), result.compute_cycles, result.blocks,
                    result.waves, result.pe_active_cycles, result.first_all_active_cycle)

    def one_pass(self, rec: Recorder, index: int) -> None:
        from repro.flow.compile import compile_c_source

        for op_id in self.inputs["orders"][index]:
            op = self.ops[op_id]

            def check(out: Any) -> str | None:
                if op["kind"] == "cross":
                    if not out.ok or any(leg.status == "mismatch" for leg in out.legs):
                        return f"cross_check disagreed: {out.render()}"
                    out = out.result
                print_ = self._fingerprint(out)
                if self.reference.setdefault(op_id, (print_, out))[0] != print_:
                    return "simulated output or statistics differ between passes"
                return None

            rec.timed(op_id, "cold", lambda: self._run(op), check)
        for _ in range(self.inputs["verify_reruns"]):
            for op in self.verify_ops:

                def recompile() -> Any:
                    return compile_c_source(
                        op["source"], name=op["name"], cache=self.cache,
                        sim_backend="fast", observers=rec.observers,
                    )

                def check_verify(out: Any) -> str | None:
                    if set(out.cache_hits) != CACHED_STAGES - {"simulate"} or out.degradations:
                        return f"verify re-run was not served from the cache: {out.cache_hits}"
                    print_ = self._fingerprint(out.engine_result)
                    if self.reference.setdefault(op["id"], (print_, out))[0] != print_:
                        return "simulated output or statistics differ between re-runs"
                    return None

                rec.timed(op["id"], "warm", recompile, check_verify)

    def verify(self, rec: Recorder) -> dict[str, Any]:
        """Golden checks of every simulated output, then model-vs-simulator
        quality of the ladder's designs."""
        from repro.model.platform import Platform
        from repro.sim.perf import simulate_performance
        from repro.verify.conformance import golden_nest_output, synthetic_arrays

        platform = Platform()
        golden_checked = 0
        designs = []
        digests = []
        for op_id, (print_, out) in sorted(self.reference.items()):
            digests.append(_sha(op_id, print_))
            if op_id in self.ops:
                op = self.ops[op_id]
                design, arrays, result = op["design"], op["arrays"], out
            else:  # a verify re-run: the pipeline fed its own seed-0 tensors
                design = out.evaluation.design
                arrays, result = synthetic_arrays(design.nest), out.engine_result
            nest = design.nest
            if nest.total_iterations > 2_000_000:
                error = sampled_golden(nest, arrays, result.output,
                                       self.inputs["sample_points"], self.inputs["tensor_seed"])
            else:
                expected = golden_nest_output(nest, arrays)
                error = float(np.max(np.abs(result.output - expected)
                                     / np.maximum(np.abs(expected), 1.0)))
            golden_checked += 1
            if not error <= self.REL_TOL:
                rec.failures.append(
                    (op_id, f"output differs from the golden nest: rel {error:.3e}"))
            if op_id not in self.ops or self.ops[op_id]["kind"] != "fast":
                continue  # toy nests are all fill and drain: no Fig. 7b claim about them
            measured = simulate_performance(design, platform)
            designs.append(_quality(
                op_id, design.evaluate(platform).throughput_gops, measured.throughput_gops,
                design.signature,
            ))
        return {"designs": designs, "digest": _sha(*digests),
                "checks": {"golden_checked": golden_checked}}


def build(name: str, inputs: dict[str, Any], workdir: Path, sabotage: str | None) -> Any:
    if name == "net_unified":
        return NetUnified(inputs, workdir)
    if name == "layer_flow":
        return LayerFlow(inputs, workdir, sabotage)
    if name == "sim_ladder":
        return SimLadder(inputs, workdir)
    from e2e.service import ServiceMix

    return ServiceMix(inputs, workdir, sabotage)
