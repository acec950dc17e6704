"""One workload in a fresh interpreter.

Started by ``run.py`` as ``python -m e2e.child``; prints ``READY`` when
set-up is done (the parent times spawn -> READY as ``setup_s``) and
``RESULT <json>`` when the workload is.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path
from typing import Any


def _end_to_end(rec: Any, report: dict[str, Any], workload: Any) -> dict[str, float]:
    designs = report["designs"]
    return {
        "suite_s": rec.suite_s(),
        "cold_s_p50": rec.class_p50("cold"),
        "warm_s_p50": rec.class_p50("warm"),
        "peak_rss_mb": workload.peak_rss_mb(),
        # geometric mean: a faster search that finds worse designs shows
        "design_gops": math.exp(statistics.fmean(math.log(d["sim_gops"]) for d in designs)),
        # the paper's Fig. 7b claim, listed not averaged
        "model_err_max_pct": max(d["err_pct"] for d in designs),
    }


def _speed_now() -> float:
    from e2e.calibrate import Calibrator

    calibrator = Calibrator()  # holds 8 MB: gone again on return
    calibrator.burst()
    return calibrator.scale()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="e2e.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--sabotage", choices=("malformed", "corrupt"))
    args = parser.parse_args(argv)

    from e2e.calibrate import Calibrator
    from e2e.inputs import make_inputs
    from e2e.layers import layer_metrics
    from e2e.spans import Tracer
    from e2e.workloads import Recorder, build, run_passes

    inputs = make_inputs(args.workload, args.seed, smoke=args.smoke, traced=bool(args.trace))
    (args.out / f"inputs-{args.workload}.json").write_text(json.dumps(inputs, indent=1) + "\n")
    workload = build(args.workload, inputs, args.workdir, args.sabotage)
    try:
        workload.setup()
        print("READY", flush=True)
        # the machine's speed right after this set-up, for the parent to
        # express spawn-to-ready (a single timing) in calibrated seconds
        print("CAL", _speed_now(), flush=True)
        if args.setup_only:
            return 0
        result: dict[str, Any] = {"workload": args.workload, "seed": args.seed}
        def calibrated(rec: Any, tracer: Any = None) -> float:
            """Suite time after turning the set's wall seconds into
            calibrated seconds, everywhere they were recorded."""
            rec.rescale()
            once = rec.calibrator.scale()  # spans and records are timed once
            if tracer is not None:
                tracer.rescale(once)
            workload.rescale(once)
            return rec.suite_s()

        if args.trace == 0:
            rec = Recorder(Calibrator())
            result["passes"] = run_passes(workload, rec, args.seconds, workload.low, workload.high)
            # wall seconds as measured, for anyone studying the box's noise
            (args.out / f"samples-{args.workload}.json").write_text(json.dumps(
                {"seed": args.seed, "ops": rec.samples, "kernel": rec.calibrator.samples}))
            calibrated(rec)
            report = workload.verify(rec)
            result["metrics"] = _end_to_end(rec, report, workload)
        else:
            # the untraced twin first, then the same passes with spans on
            passes = workload.trace_passes
            twin = Recorder(Calibrator())
            for index in range(passes):
                workload.one_pass(twin, index)
            untraced_suite_s = calibrated(twin)
            tracer = Tracer(args.workload)
            rec = Recorder(Calibrator(), tracer)
            tracer.install()
            try:
                for index in range(passes):
                    workload.one_pass(rec, index)
            finally:
                tracer.uninstall()
            traced_suite_s = calibrated(rec, tracer)
            rec.failures.extend(twin.failures)
            rec.attempted += twin.attempted
            report = workload.verify(rec)
            result["passes"] = passes
            result["metrics"] = layer_metrics(
                tracer.spans, rec, report, untraced_suite_s, traced_suite_s,
                workload.layer_metrics(rec),
            )
            tracer.dump(args.out / f"trace-{args.workload}.jsonl")
        result.update(
            attempted=rec.attempted,
            failed=len(rec.failures),
            failures=[f"{op}: {reason}" for op, reason in rec.failures[:20]],
            samples={cls: len(rec.class_samples(cls)) for cls in ("cold", "warm")},
            calibration={"samples": len(rec.calibrator.samples),
                         "factor": rec.calibrator.scale()},
            winners_digest=report["digest"],
            checks=report["checks"],
            designs=len(report["designs"]),
        )
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
