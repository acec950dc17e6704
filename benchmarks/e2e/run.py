#!/usr/bin/env python3
"""End-to-end benchmark runner: four user journeys, every layer timed
from outside.  See README.md beside this file.

One run of one workload (what ``BENCHMARK.json``'s command does)::

    python3 benchmarks/e2e/run.py --workload layer_flow --seed 1 --seconds 20 --trace 0

prints human-readable lines and then, as the last line of stdout, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Without
``--workload`` every workload is run (untraced sets, then a traced run)
and a report is printed; ``--list`` prints the metric catalogue.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE.parent))

from e2e import spec  # noqa: E402

#: A run must end within 180 s; give up (and fail) a little earlier.
CHILD_LIMIT_S = 170.0


class RunFailed(RuntimeError):
    pass


def _child(args: list[str], workdir: Path, deadline: float) -> tuple[float, dict[str, Any] | None]:
    """Spawn one ``e2e.child``; returns (calibrated seconds from spawn to
    READY, the RESULT payload or None for a set-up-only child)."""
    env = dict(os.environ)
    inherited = [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []
    env["PYTHONPATH"] = os.pathsep.join([str(HERE.parent), str(ROOT / "src")] + inherited)
    # every cache, journal and temp file stays inside the checkout
    env["REPRO_SYSTOLIC_CACHE_DIR"] = str(workdir / "default-cache")
    env["TMPDIR"] = str(workdir / "tmp")
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    spawned = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "e2e.child", *args, "--workdir", str(workdir)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )

    def kill_group() -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # the child and any server it started
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), kill_group)
    watchdog.start()
    ready: float | None = None
    factor: float | None = None
    result: dict[str, Any] | None = None
    try:
        assert proc.stdout is not None
        for line in proc.stdout:
            if line.startswith("READY") and ready is None:
                ready = time.perf_counter() - spawned
            elif line.startswith("CAL "):
                factor = float(line.split()[1])
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            kill_group()
            proc.wait()
    if code != 0 or ready is None or factor is None:
        raise RunFailed(f"workload child exited with code {code}")
    return ready * factor, result


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: int,
    out: Path,
    *,
    smoke: bool = False,
    sabotage: str | None = None,
    setups: int = spec.SETUP_REPEATS,
) -> dict[str, Any]:
    """Set up ``setups`` times (fresh interpreter each), measure in the
    last one; ``setup_s`` is the median spawn-to-ready time."""
    out.mkdir(parents=True, exist_ok=True)
    workdir = out / f"work-{name}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    deadline = time.monotonic() + CHILD_LIMIT_S
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out", str(out)]
    if smoke:
        args.append("--smoke")
    if sabotage:
        args += ["--sabotage", sabotage]
    try:
        ready = []
        for repeat in range(setups - 1):
            ready.append(_child(args + ["--setup-only"], workdir / f"setup{repeat}", deadline)[0])
        took, result = _child(args, workdir / "run", deadline)
        ready.append(took)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result is None:
        raise RunFailed("workload child printed no result")
    if trace == 0:
        result["metrics"]["setup_s"] = statistics.median(ready)
    result["setup_samples"] = ready
    return result


def contract_line(result: dict[str, Any], trace: int) -> str:
    """The last line of stdout the driver parses."""
    catalogue = spec.PER_LAYER if trace else spec.END_TO_END
    metrics = {
        m.name: {"value": result["metrics"][m.name], "unit": m.unit} for m in catalogue
    }
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


# ------------------------------------------------------------- reports


def environment() -> dict[str, Any]:
    """Fingerprint of what produced the numbers (printed and written to
    ``OUT/report.json``; ``BENCHMARK.json`` has a fixed key set)."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from _record import environment_fingerprint  # benchmarks/_record.py

        env = dict(environment_fingerprint())
    except ImportError:  # that helper lives outside this benchmark's directory
        env = {"python": platform.python_version(), "platform": platform.platform()}
    import numpy

    env["numpy"] = numpy.__version__
    env["nproc"] = os.cpu_count()
    env["loadavg_1min_at_start"] = os.getloadavg()[0]
    return env


def warn_if_loaded() -> None:
    load, cores = os.getloadavg()[0], os.cpu_count() or 1
    if load > 0.5 * cores:
        print(f"warning: 1-min load average {load:.2f} exceeds half of {cores} cores; "
              "timings will be noisy", file=sys.stderr)


def print_list() -> None:
    print("workloads:")
    for w in spec.WORKLOADS:
        print(f"  {w.name:12s} {w.why}")
    print("\nend-to-end metrics (tracing off):")
    for m in spec.END_TO_END:
        print(f"  {m.name:34s} {m.unit:8s} {m.better:7s} bound {m.bound:.1%}")
    print("\nper-layer metrics (traced run) -> the end-to-end metric each should move:")
    for m in spec.PER_LAYER:
        print(f"  {m.name:34s} {m.unit:8s} {m.better:7s} -> {m.moves}")


def print_result(result: dict[str, Any], trace: int) -> None:
    catalogue = spec.PER_LAYER if trace else spec.END_TO_END
    kind = "traced" if trace else "untraced"
    print(f"== {result['workload']} seed {result['seed']} ({kind}, {result['passes']} passes, "
          f"samples {result['samples']}, attempted {result['attempted']}, "
          f"failed {result['failed']}) ==")
    for m in catalogue:
        bound = f"bound {m.bound:.1%}" if m.bound is not None else ""
        value = result["metrics"][m.name]
        print(f"  {m.name:34s} {value:>16.6g} {m.unit:8s} {m.better:7s} {bound}")
    print(f"  checks executed: {result['checks']}  designs: {result['designs']}")
    print(f"  calibration: a single timing's wall seconds x {result['calibration']['factor']:.4f} "
          f"(median of {result['calibration']['samples']} kernel samples)")
    print(f"  winners_digest {result['winners_digest']}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def print_dominance(out: Path, names: list[str]) -> None:
    """Which layer dominates which workload: self time per span name as
    a share of the traced pass, straight from ``OUT/trace-*.jsonl``."""
    from e2e.spans import busy_by_name

    print("\nwhere the traced pass's time went (self time; op = outside every named span):")
    for name in names:
        path = out / f"trace-{name}.jsonl"
        if not path.is_file():
            continue
        spans = [json.loads(line) for line in path.open()]
        busy = busy_by_name(spans)
        total = sum(busy.values())
        top = sorted(busy.items(), key=lambda kv: kv[1], reverse=True)[:6]
        shares = ", ".join(f"{layer} {seconds / total:.0%}" for layer, seconds in top)
        print(f"  {name:12s} {total:7.2f} s: {shares}")


def relative_spread(values: list[float]) -> float:
    return (max(values) - min(values)) / abs(statistics.median(values))


def run_suite(args: argparse.Namespace) -> int:
    """Every workload: ``--sets`` untraced sets, then one traced run."""
    names = [args.workload] if args.workload else [w.name for w in spec.WORKLOADS]
    report: dict[str, Any] = {"environment": environment(), "untraced": [], "traced": []}
    print(f"environment: {report['environment']}")
    failed = 0
    for index in range(args.sets):
        for name in names:
            warn_if_loaded()
            result = run_workload(name, args.seed, args.seconds, 0, args.out, smoke=args.smoke)
            result["set"] = index
            report["untraced"].append(result)
            print_result(result, 0)
            failed += result["failed"]
    if not args.no_traced:
        for name in names:
            warn_if_loaded()
            result = run_workload(name, args.seed, args.seconds, 1, args.out, smoke=args.smoke)
            report["traced"].append(result)
            print_result(result, 1)
            failed += result["failed"]
        print_dominance(args.out, names)
    outside = 0
    if args.sets > 1:
        print("\nrepeatability: (max - min) / median over the sets, beside the bound")
        for name in names:
            runs = [r for r in report["untraced"] if r["workload"] == name]
            for m in spec.END_TO_END:
                spread = relative_spread([r["metrics"][m.name] for r in runs])
                verdict = "ok" if spread <= m.bound else "OUTSIDE"
                outside += verdict != "ok"
                print(f"  {name:12s} {m.name:20s} {spread:8.2%}  bound {m.bound:.1%}  {verdict}")
            digests = {r["winners_digest"] for r in runs}
            print(f"  {name:12s} winners_digest {'identical' if len(digests) == 1 else 'DIFFERS'}")
    (args.out / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nreport written to {args.out / 'report.json'}")
    return 1 if failed or outside else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w.name for w in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS),
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="with --workload: one run, result as the last line of stdout")
    parser.add_argument("--sets", type=int, default=1,
                        help="untraced sets to run and compare (suite mode)")
    parser.add_argument("--no-traced", action="store_true", help="skip the traced run (suite mode)")
    parser.add_argument("--smoke", action="store_true", help="seconds-sized inputs (self-check)")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="inputs, traces, server stderr, report (inside the checkout)")
    parser.add_argument("--list", action="store_true", help="print every metric and exit")
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate BENCHMARK.json from spec.py and exit")
    args = parser.parse_args(argv)
    if args.list:
        print_list()
        return 0
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.manifest(), indent=2) + "\n")
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found: nothing to benchmark", file=sys.stderr)
        return 2
    args.out = args.out.resolve()
    try:
        if args.workload and args.trace is not None:
            warn_if_loaded()
            result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.out,
                                  smoke=args.smoke)
            print_result(result, args.trace)
            print(contract_line(result, args.trace))
            return 0
        return run_suite(args)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
