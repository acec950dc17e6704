"""service_mix: the real ``serve`` daemon driven closed-loop over HTTP.

The daemon is a child process started the way an operator starts it
(``python -m repro.flow.cli serve --workers 2 --cache-dir TMP --journal
TMP/j.jsonl`` on an ephemeral port).  The client submits, follows the
event stream until ``JobFinished`` and fetches the result — the
``submit --follow --output`` path, not ``wait()``, whose 0.1 s poll would
quantise every latency.  Closed loop because callers wait for their
artefact; one client, so that client and daemon together keep one of the
box's two cores busy and a job's latency does not depend on what the
shuffle put beside it (two clients made ``cold_s_p50`` spread 19-27% of
its median between runs of the same code).
"""

from __future__ import annotations

import json
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from e2e.spans import Tracer
from e2e.workloads import Recorder, Workload, _sha, median0, percentile

_LISTENING = re.compile(r"listening on (http://[\d.]+:\d+)")


class Server:
    """One ``serve`` child; stderr goes to ``log`` (tracebacks there are
    counted as failed ops)."""

    def __init__(self, workdir: Path, log: Path, workers: int, tag: str) -> None:
        self.log = log
        self._offset = log.stat().st_size if log.exists() else 0
        self._fh = log.open("ab")
        root = workdir / f"server-{tag}"
        root.mkdir(parents=True)
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.flow.cli", "serve", "--port", "0",
                "--workers", str(workers), "--cache-dir", str(root / "cache"),
                "--journal", str(root / "j.jsonl"),
            ],
            stdout=subprocess.DEVNULL,
            stderr=self._fh,
        )
        self.url = self._await_url()

    def _await_url(self) -> str:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            match = _LISTENING.search(self.stderr_text())
            if match:
                return match.group(1)
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"serve did not come up; see {self.log}")

    def stderr_text(self) -> str:
        with self.log.open("rb") as fh:
            fh.seek(self._offset)
            return fh.read().decode(errors="replace")

    def peak_rss_mb(self) -> float:
        """The daemon's own high-water mark.  ``ru_maxrss`` of a reaped
        child will not do: it starts from the size of the process that
        spawned it, and this one holds every payload it was ever sent."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def stop(self) -> None:
        """SIGTERM (graceful drain), wait, and reap."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._fh.close()


class ServiceMix(Workload):
    name = "service_mix"
    low, high = 3, 12  # a pass is the whole job list against a fresh daemon
    trace_passes = 1

    def __init__(self, inputs: dict[str, Any], workdir: Path, sabotage: str | None = None) -> None:
        self.inputs = inputs
        self.workdir = workdir
        self.sabotage = sabotage
        self.log = workdir.parent / "server-service_mix.stderr"
        self.server: Server | None = None
        self.records: list[dict[str, Any]] = []
        self.payloads: dict[tuple[int, int], Any] = {}
        self.health: dict[str, Any] = {}
        self.extras: dict[str, float] = {}
        self.peak_rss = 0.0
        self._booted = 0

    def _boot(self) -> None:
        self.server = Server(self.workdir, self.log, self.inputs["workers"], str(self._booted))
        self._booted += 1

    def _body(self, layer: int, combo: int) -> dict[str, Any]:
        datatype, device = self.inputs["combos"][combo]
        spec = self.inputs["layers"][layer]
        return {"source": spec["source"], "name": spec["name"],
                "options": {"datatype": datatype, "device": device}}

    def setup(self) -> None:
        from repro.service.client import ServiceClient

        self._boot()
        # warm-up op: one small job end to end (a nest outside the job list)
        from repro.frontend.emit import nest_to_c
        from repro.ir.loop import conv_loop_nest

        client = ServiceClient(self.server.url)
        status = client.submit(source=nest_to_c(conv_loop_nest(16, 8, 12, 12, 3, 3)), name="warmup")
        for _ in client.events(status["id"]):
            pass
        if client.status(status["id"], result=True)["state"] != "done":
            raise RuntimeError("warm-up job did not finish")

    # ------------------------------------------------------------ one pass

    def _follow(self, client: Any, body: dict[str, Any]) -> dict[str, Any]:
        """One job the way ``submit --follow --output`` does it."""
        from repro.service.client import ServiceError

        t0 = time.perf_counter()
        for attempt in range(6):
            try:
                status = client.submit_payload(body)
                break
            except ServiceError as exc:
                if exc.status != 429 or attempt == 5:
                    raise
                time.sleep(exc.retry_after or 0.05)
        t1 = time.perf_counter()
        events = list(client.events(status["id"]))
        t2 = time.perf_counter()
        final = client.status(status["id"], result=True)
        t3 = time.perf_counter()
        return {"status": status, "final": final, "events": events,
                "t": (t0, t1, t2, t3), "retries": attempt}

    def one_pass(self, rec: Recorder, index: int) -> None:
        from repro.service.client import ServiceClient

        if self.server is None:
            self._boot()
        server = self.server
        bodies: list[tuple[Any, dict[str, Any]]] = [
            (tuple(job), self._body(*job)) for job in self.inputs["jobs"]
        ]
        if self.sabotage == "malformed":
            bad = dict(bodies[0][1], source=bodies[0][1]["source"].replace("#pragma systolic", ""))
            bodies.insert(len(bodies) // 2, ((-1, -1), bad))
        client = ServiceClient(server.url, client_id="client0")
        records: list[dict[str, Any]] = []
        retries = 0
        # server events carry time.time(); client timings are perf_counter
        skew = time.time() - time.perf_counter()
        for position, (key, body) in enumerate(bodies):
            rec.attempted += 1
            # one closed-loop client: the daemon idles between its jobs, so
            # the kernel can be timed there without fighting it for a core
            rec.calibrator.sample_if_due()
            try:
                outcome = self._follow(client, body)
            except Exception as exc:  # noqa: BLE001 - op isolation boundary
                rec.failures.append((f"job{key}", f"{type(exc).__name__}: {exc}"))
                continue
            reason = self._judge(key, outcome)
            if reason is not None:
                rec.failures.append((f"job{key}", reason))
                continue
            retries += outcome["retries"]
            coalesced = outcome["status"]["coalesced"]
            t0, _, _, t3 = outcome["t"]
            # the job list is the same every pass, so the job at a position
            # is one op: its best time across the passes is its measurement
            cls = "warm" if coalesced else "cold"
            op = f"{cls}.{position}"
            rec.samples.setdefault(op, []).append(t3 - t0)
            rec.classes[op] = cls
            records.append({
                "op": op, "coalesced": coalesced, "t": outcome["t"],
                # a follower's stream replays its primary's events
                "events": [] if coalesced else outcome["events"],
            })
        self.health = client.health()
        metrics_page = client.metrics()
        self.peak_rss = max(self.peak_rss, server.peak_rss_mb())
        server.stop()
        self.server = None
        tracebacks = server.stderr_text().count("Traceback (most recent call last)")
        for _ in range(tracebacks):
            rec.failures.append(("server", "traceback on the server's stderr"))
        self.records = records
        self.extras = {
            "pass_s": sum(r["t"][3] - r["t"][0] for r in records),
            "http_requests": float(3 * len(records) + retries),
            "retries_429": float(retries),
            "rejected_total": _counter_sum(metrics_page, "rejected_total"),
        }
        if rec.tracer is not None:
            self._spans(rec.tracer, skew)

    def _judge(self, key: Any, outcome: dict[str, Any]) -> str | None:
        final = outcome["final"]
        if final["state"] != "done":
            return f"job ended {final['state']}: {final.get('error')}"
        payload = final.get("result")
        if not isinstance(payload, dict):
            return "done job carried no result payload"
        first = self.payloads.setdefault(key, payload)
        if first is not payload and _strip(first) != _strip(payload):
            return "payload differs from an earlier answer to the same request"
        return None

    # --------------------------------------------------------------- spans

    def _spans(self, tracer: Tracer, skew: float) -> None:
        """Spans from the client's own call timings plus the ``ts`` fields
        and ``StageFinished.seconds`` the server already publishes."""
        for record in self.records:
            t0, t1, t2, t3 = record["t"]
            op = record["op"]
            root = tracer.add("op", "job", t0, t3, None, op)
            tracer.add("service.submit", "submit", t0, t1, root, op)
            waited = tracer.add("service.events", "events", t1, t2, root, op)
            tracer.add("service.result_fetch", "status", t2, t3, root, op)
            marks = {e["event"]: e["ts"] - skew for e in record["events"]
                     if e.get("event") in ("JobQueued", "JobStarted", "JobFinished")}
            if len(marks) != 3:
                continue

            # What the client's wait on the stream was spent on.  The job is
            # queued (and may start) while submit is still returning, and the
            # clocks differ: keep the children inside the wait.
            def clamp(value: float) -> float:
                return min(max(value, t1), t2)

            tracer.add("service.queue_wait", "queue", clamp(marks["JobQueued"]),
                       clamp(marks["JobStarted"]), waited, op)
            run = tracer.add("service.run", "run", clamp(marks["JobStarted"]),
                             clamp(marks["JobFinished"]), waited, op)
            run_span = tracer.spans[run]
            for event in record["events"]:
                if event.get("event") == "StageFinished":
                    end = min(max(event["ts"] - skew, run_span["start"]), run_span["end"])
                    start = max(end - event["seconds"], run_span["start"])
                    tracer.add(f"pipeline.{event['stage']}", "stage", start, end, run, op,
                               seconds=event["seconds"], cached=event.get("cached", False))

    # -------------------------------------------------------------- verify

    def rescale(self, factor: float) -> None:
        """Wall seconds to calibrated seconds in the last pass's records."""
        for record in self.records:
            record["t"] = tuple(t * factor for t in record["t"])
            for event in record["events"]:
                event["ts"] *= factor
                if "seconds" in event:
                    event["seconds"] *= factor
        self.extras["pass_s"] *= factor

    def peak_rss_mb(self) -> float:
        """Largest resident set among the daemons of the passes."""
        return self.peak_rss

    def verify(self, rec: Recorder) -> dict[str, Any]:
        """Quality of every distinct answer, and a seeded sample of
        requests recompiled in-process: the service payload must equal
        ``result_to_dict`` of the same request."""
        from repro.flow.compile import compile_c_source
        from repro.hw.datatype import datatype_by_name
        from repro.hw.device import device_by_name
        from repro.model.platform import Platform
        from repro.model.serialize import result_to_dict

        designs = []
        digests = []
        sizes = []
        for key, payload in sorted(self.payloads.items()):
            perf = payload["evaluation"]["performance"]
            measured = payload["measurement"]
            designs.append({
                "id": f"job{key}",
                "sim_gops": measured["throughput_gops"],
                "err_pct": abs(perf["throughput_gops"] - measured["throughput_gops"])
                / measured["throughput_gops"] * 100.0,
                "signature": json.dumps(payload["evaluation"]["design"]["shape"]),
            })
            text = json.dumps(_strip(payload), sort_keys=True)
            sizes.append(len(text))
            digests.append(_sha(key, text))
        rng = random.Random(self.inputs["verify_seed"])
        keys = sorted(self.payloads)
        sample = rng.sample(keys, min(self.inputs["verify_sample"], len(keys)))
        for layer, combo in sample:
            body = self._body(layer, combo)
            served = self.payloads[(layer, combo)]
            platform = Platform(
                device=device_by_name(body["options"]["device"]),
                datatype=datatype_by_name(body["options"]["datatype"]),
            )
            # identical nests coalesce across names: the answer carries the
            # label of whichever submission ran, so recompile under that one
            label = served["evaluation"]["design"]["nest"]["name"]
            local = result_to_dict(compile_c_source(body["source"], platform, name=label))
            local = json.loads(json.dumps(local))  # tuples become lists on the wire
            differing = sorted(k for k in _strip(local) if local[k] != served.get(k))
            if differing or set(_strip(local)) != set(_strip(served)):
                rec.failures.append(
                    (f"job{(layer, combo)}",
                     f"service payload differs from the in-process result in {differing}")
                )
        return {"designs": designs, "digest": _sha(*digests),
                "payload_kb": median0(sizes) / 1024.0,
                "checks": {"payload_vs_inprocess": len(sample),
                           "payload_identity": len(self.records)}}

    def layer_metrics(self, rec: Recorder) -> dict[str, float]:
        """The ``service.*`` per-layer metrics of the last pass."""
        records = self.records
        cold = [r for r in records if not r["coalesced"]]
        warm = [r for r in records if r["coalesced"]]

        waits, runs, stage_sums, overheads = [], [], [], []
        for record in cold:
            marks = {e["event"]: e["ts"] for e in record["events"]}
            if {"JobQueued", "JobStarted", "JobFinished"} <= set(marks):
                waits.append(marks["JobStarted"] - marks["JobQueued"])
                runs.append(marks["JobFinished"] - marks["JobStarted"])
            stages = sum(
                e["seconds"] for e in record["events"] if e.get("event") == "StageFinished"
            )
            stage_sums.append(stages)
            overheads.append(record["t"][3] - record["t"][0] - stages)
        cold_lat = rec.class_samples("cold")
        submitted = self.health.get("submitted", 0)
        return {
            "service.submit_s_p50": median0([r["t"][1] - r["t"][0] for r in records]),
            "service.queue_wait_s_p50": median0(waits),
            "service.run_s_p50": median0(runs),
            "service.stage_sum_s_p50": median0(stage_sums),
            "service.overhead_s_p50": median0(overheads),
            "service.events_s_p50": median0([r["t"][2] - r["t"][1] for r in warm]),
            "service.result_fetch_s_p50": median0([r["t"][3] - r["t"][2] for r in records]),
            "service.executions": float(self.health.get("executions", 0)),
            "service.coalesce_ratio":
                self.health.get("coalesce_hits", 0) / submitted if submitted else 0.0,
            "service.http_requests": self.extras["http_requests"],
            "service.retries_429": self.extras["retries_429"] + self.extras["rejected_total"],
            "service.jobs_per_s": len(records) / self.extras["pass_s"],
            "service.cold_s_p90": percentile(cold_lat, 0.90),
        }

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


def _strip(payload: dict[str, Any]) -> dict[str, Any]:
    """A result payload without its one wall-clock field."""
    return {k: v for k, v in payload.items() if k != "dse_seconds"}


def _counter_sum(page: str, name: str) -> float:
    """Sum of a Prometheus counter over its label sets."""
    total = 0.0
    for line in page.splitlines():
        if line.startswith("#"):
            continue
        metric, _, value = line.rpartition(" ")
        if metric.split("{")[0].endswith("_" + name):
            total += float(value)
    return total
