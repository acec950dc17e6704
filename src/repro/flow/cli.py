"""``systolic-synth`` — the push-button command of Fig. 6.

Usage::

    systolic-synth conv_layer.c -o build/
    systolic-synth compile conv_layer.c --jobs 4 --trace-json trace.jsonl
    systolic-synth conv_layer.c --datatype fixed8_16 --cs 0.85 --top-n 10
    systolic-synth --network alexnet -o build/ -j 0
    systolic-synth conv_layer.c --sim-backend both
    systolic-synth compile conv_layer.c --jobs 4 \\
        --inject-fault dse.worker:crash:p=0.3 --seed 7
    systolic-synth import mobilenet.json -o build/
    systolic-synth import model.onnx --check-only
    systolic-synth check conv_layer.c
    systolic-synth check conv_layer.c --json --level design
    systolic-synth verify conv_layer.c
    systolic-synth verify design.json --json
    systolic-synth serve --port 8451 --workers 4 --journal jobs.jsonl
    systolic-synth submit conv_layer.c --url http://127.0.0.1:8451 --follow

Reads a restricted-C program (or a built-in network), runs the two-phase
DSE through the staged pipeline engine, and writes the generated OpenCL
kernel, C++ host, C testbench and a text report to the output directory.
``compile`` is an optional explicit subcommand name for the same default
action.  DSE stages fan out over ``--jobs`` worker processes (results
are bit-identical to serial), expensive stage results are cached under
``~/.cache/repro-systolic`` (``--no-cache`` / ``--cache-dir`` override),
per-stage progress goes to stderr, and ``--trace-json`` records every
pipeline event as one JSON line.

The flow is chaos-testable: ``--inject-fault point:kind[:p=..]`` activates
the deterministic fault-injection registry (:mod:`repro.resilience`) with
``--seed`` seeding its decision streams, and ``--max-retries`` bounds the
retry budget of every external-tool and cache-I/O call.  Faults and the
recoveries they trigger are visible as ``FaultInjected`` /
``StageRetried`` / ``StageDegraded`` events in ``--trace-json`` and as a
"degradations" section of the report; the synthesized result itself is
bit-identical to an uninjected run whenever recovery succeeds.

The ``check`` subcommand runs the static-analysis passes only (no
artifacts written): nest legality, design-point validation,
generated-code lint.  It exits 0 when the program is clean, 1 when
diagnostics carry errors, 2 on usage errors — and never with a traceback
for a malformed input.

The ``serve`` subcommand runs the flow as a long-lived daemon
(:mod:`repro.service`): a bounded, fair-share admission queue in front
of a synthesis worker pool, request coalescing by content fingerprint,
live progress streaming over HTTP, Prometheus ``/metrics``, and a
journal that makes SIGTERM lossless — running jobs finish, queued jobs
are re-admitted by the next ``serve`` on the same ``--journal``.
``submit`` is the matching client: it posts a C file (or saved design)
to a running server and, with ``--follow``, renders the streamed
pipeline events like a local compile would.  ``--inject-fault`` on the
server side also accepts the service's own fault points
(``service.queue``, ``service.worker``) for chaos-testing the daemon.

The ``verify`` subcommand runs the differential-conformance matrix
(:mod:`repro.verify`) over a design — either a saved design-point JSON
or the DSE winner of a C program — comparing the vectorized wavefront
simulator against the cycle-accurate engine, the NumPy golden model and
the analytical cycle counts.  Any disagreement is reported as an
``SA4xx`` diagnostic and exits 1.  The compile flow can do the same
in-line on its winner with ``--sim-backend fast|rtl|both`` (``both`` =
differential mode).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from repro.hw.datatype import datatype_by_name
from repro.hw.device import device_by_name
from repro.model.platform import Platform
from repro.codegen.opencl import OPENCL_SHIM
from repro.dse.explore import DseConfig
from repro.flow.compile import compile_c_source, synthesize_network
from repro.flow.report import format_table, render_synthesis_report
from repro.pipeline.stages import SIM_BACKENDS
from repro.resilience.faults import FAULT_KINDS, FAULT_POINTS


def _target_options(dse: bool = False) -> argparse.ArgumentParser:
    """Parent parser: the platform flags and, with ``dse``, the DSE knobs."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--device", default="arria10_gt1150", help="target FPGA")
    parent.add_argument(
        "--datatype", default="float32", help="float32 | fixed8_16 | fixed16"
    )
    if dse:
        parent.add_argument(
            "--cs", type=float, default=0.8, help="minimum DSP utilization (Eq. 12 c_s)"
        )
        parent.add_argument("--top-n", type=int, default=14, help="phase-2 finalist count")
        parent.add_argument(
            "--clock", type=float, default=280.0, help="phase-1 assumed clock (MHz)"
        )
    return parent


def _run_options(
    jobs_help: str,
    cache_dir_help: str,
    cache_dir_metavar: str = "DIR",
    quiet: bool = True,
) -> argparse.ArgumentParser:
    """Parent parser: DSE fan-out, the stage cache and (for the one-shot
    subcommands) ``--quiet``; the wording of what ``--jobs`` and
    ``--cache-dir`` mean is the subcommand's own."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("-j", "--jobs", type=int, default=1, help=jobs_help)
    parent.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the content-addressed stage cache",
    )
    parent.add_argument("--cache-dir", metavar=cache_dir_metavar, help=cache_dir_help)
    if quiet:
        parent.add_argument(
            "-q",
            "--quiet",
            action="store_true",
            help="suppress the per-stage progress lines on stderr",
        )
    return parent


def _chaos_options(inject_help: str, retries_help: str) -> argparse.ArgumentParser:
    """Parent parser: fault injection and the retry budget."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--inject-fault", action="append", default=[], metavar="SPEC", help=inject_help
    )
    parent.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed of the deterministic fault-injection decision streams",
    )
    parent.add_argument(
        "--max-retries", type=int, default=None, metavar="N", help=retries_help
    )
    return parent


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="systolic-synth",
        description="Automated systolic array synthesis for CNN loop nests (DAC'17).",
        parents=[
            _target_options(dse=True),
            _run_options(
                "DSE worker processes (0 = all cores); results are "
                "bit-identical to --jobs 1",
                "stage cache directory (default ~/.cache/repro-systolic, "
                "or $REPRO_SYSTOLIC_CACHE_DIR)",
            ),
            _chaos_options(
                "chaos testing: activate a fault-injection spec "
                "'point:kind[:p=PROB][:times=N][:delay=SECS]', e.g. "
                "'dse.worker:crash:p=0.3' (repeatable; points: "
                f"{' '.join(FAULT_POINTS)}; kinds: {' '.join(FAULT_KINDS)})",
                "retry budget (attempts) for external tools and cache I/O "
                "(default 3)",
            ),
        ],
    )
    parser.add_argument("source", nargs="?", help="C file with a '#pragma systolic' nest")
    parser.add_argument(
        "--network",
        choices=["alexnet", "vgg16", "googlenet", "mobilenet_v1", "resnet18", "tiny_cnn"],
        help="synthesize a unified design for a built-in CNN model instead",
    )
    parser.add_argument("-o", "--output", default="systolic_out", help="output directory")
    parser.add_argument(
        "--save-design",
        metavar="JSON",
        help="also persist the winning design point (single-layer mode)",
    )
    parser.add_argument(
        "--save-result",
        metavar="JSON",
        help="also persist the full synthesis result (single-layer mode)",
    )
    parser.add_argument(
        "--trace-json",
        metavar="JSONL",
        help="write every pipeline event as one JSON line to this file",
    )
    parser.add_argument(
        "--sim-backend",
        choices=SIM_BACKENDS,
        help="also execute the winner on a wavefront simulator: fast = "
        "vectorized, rtl = generated Verilog through the netlist "
        "interpreter (small nests), both = differential conformance "
        "including the RTL legs (fails on any disagreement), testbench "
        "= compile and run the generated C testbench, then the shipped "
        "kernel under its driver (degrades to fast when no toolchain is "
        "available)",
    )
    return parser


def build_check_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="systolic-synth check",
        description="Statically check a restricted-C nest without synthesizing it.",
        parents=[_target_options()],
    )
    parser.add_argument("source", help="C file to analyze")
    parser.add_argument(
        "--level",
        choices=["nest", "design", "full"],
        default="full",
        help="nest = legality only; design = +DSE result validation; "
        "full = +generated-code lint (default)",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--no-pragma",
        action="store_true",
        help="downgrade a missing '#pragma systolic' to a warning",
    )
    return parser


def build_verify_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="systolic-synth verify",
        description="Differentially verify a design: fast wavefront simulator "
        "vs. cycle-accurate engine vs. golden model vs. analytical cycles.",
        parents=[_target_options()],
    )
    parser.add_argument(
        "source",
        help="a saved design-point JSON (from --save-design) or a C file "
        "whose DSE winner is checked",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--seed", type=int, default=0, help="synthetic-tensor RNG seed"
    )
    parser.add_argument(
        "--rel-tol",
        type=float,
        default=None,
        help="relative tolerance of the golden-output legs (default 1e-9)",
    )
    parser.add_argument(
        "--engine-limit",
        type=int,
        default=None,
        help="skip the cycle-accurate engine leg above this iteration "
        "count (default 200000)",
    )
    parser.add_argument(
        "--sim-backend",
        choices=[b for b in SIM_BACKENDS if b != "testbench"],
        default="both",
        help="legs to run: fast = simulator matrix only, rtl / both = "
        "also hold the generated Verilog (interpreter, plus iverilog "
        "when available) bit-identical to the simulators (default both)",
    )
    parser.add_argument(
        "--rtl-limit",
        type=int,
        default=None,
        help="skip the RTL legs above this iteration count (default 200000)",
    )
    parser.add_argument(
        "--require-iverilog",
        action="store_true",
        help="fail (instead of skipping with an SA153 note) when iverilog "
        "is not on PATH",
    )
    parser.add_argument(
        "--no-pragma",
        action="store_true",
        help="accept a C file without '#pragma systolic'",
    )
    return parser


def build_serve_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="systolic-synth serve",
        description="Run the synthesis flow as a long-lived HTTP daemon "
        "with request coalescing, backpressure and progress streaming.",
        parents=[
            _run_options(
                "DSE worker processes inside each synthesis (0 = all cores)",
                "stage cache directory (default ~/.cache/repro-systolic); "
                "also accepts a backend spec such as sqlite:PATH (coordinator/"
                "standalone) — fleet workers always keep a local directory store "
                "replicated through the coordinator",
                cache_dir_metavar="DIR_OR_SPEC",
                quiet=False,
            ),
            _chaos_options(
                "chaos testing: same specs as compile, plus the service "
                "points 'service.queue' (admission) and 'service.worker' "
                "(synthesis attempts)",
                "retry budget for faulted synthesis attempts (default 3)",
            ),
        ],
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8451, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="synthesis worker threads"
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        help="admission bound; a full queue answers 429",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=None,
        metavar="PER_SEC",
        help="fair-share rate limit: submissions per second per client "
        "(default: unlimited)",
    )
    parser.add_argument(
        "--burst",
        type=float,
        default=None,
        metavar="N",
        help="fair-share burst size (default: max(1, --rate))",
    )
    parser.add_argument(
        "--journal",
        metavar="JSONL",
        help="accepted-work ledger; a restarted serve on the same journal "
        "resumes every job SIGTERM interrupted",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="log every HTTP request"
    )
    fleet = parser.add_argument_group(
        "fleet", "distributed synthesis (see docs/cluster.md)"
    )
    fleet.add_argument(
        "--role",
        choices=("standalone", "coordinator", "worker"),
        default="standalone",
        help="standalone (default): single-node daemon; coordinator: "
        "route jobs across registered workers by coalescing fingerprint "
        "and serve the shared stage cache; worker: single-node daemon "
        "that registers with a coordinator and heartbeats",
    )
    fleet.add_argument(
        "--coordinator",
        metavar="URL",
        help="worker only: coordinator base URL, e.g. http://127.0.0.1:9300",
    )
    fleet.add_argument(
        "--node-id",
        metavar="NAME",
        help="worker only: stable fleet identity (default: advertised "
        "host:port)",
    )
    fleet.add_argument(
        "--advertise",
        metavar="URL",
        help="worker only: URL the coordinator should proxy to (default: "
        "http://HOST:PORT of this server)",
    )
    fleet.add_argument(
        "--heartbeat-interval",
        type=float,
        default=None,
        metavar="SEC",
        help="coordinator: beat period handed to workers at registration; "
        "worker: fallback period until the contract arrives",
    )
    fleet.add_argument(
        "--heartbeat-misses",
        type=int,
        default=None,
        metavar="N",
        help="coordinator only: consecutive missed beats before a node is "
        "declared lost and its journaled jobs are reassigned",
    )
    return parser


def build_submit_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="systolic-synth submit",
        description="Submit a nest to a running synthesis server.",
        parents=[_target_options(dse=True)],
    )
    parser.add_argument(
        "source", nargs="?", help="C file with a '#pragma systolic' nest, or "
        "a saved design-point JSON"
    )
    parser.add_argument(
        "--network",
        metavar="NAME_OR_JSON",
        help="submit a whole network for unified DSE instead of a nest: a "
        "built-in model name (e.g. mobilenet_v1, resnet18) or a .json "
        "importer spec file",
    )
    parser.add_argument(
        "--url", default="http://127.0.0.1:8451", help="server base URL"
    )
    parser.add_argument(
        "--follow",
        action="store_true",
        help="stream the job's pipeline events until it finishes "
        "(reconnects automatically)",
    )
    parser.add_argument(
        "-o",
        "--output",
        metavar="DIR",
        help="wait for the result and write the generated artifacts here",
    )
    parser.add_argument("--priority", type=int, default=0, help="queue priority")
    parser.add_argument(
        "--client-id",
        default=None,
        help="fair-share identity (default: this connection's address)",
    )
    parser.add_argument(
        "--sim-backend",
        choices=SIM_BACKENDS,
        help="also execute the winner on a wavefront simulator",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="how long to wait for the result with --output (seconds)",
    )
    return parser


def build_import_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="systolic-synth import",
        description="Import a network (declarative JSON spec or serialized "
        "ONNX model), lower it to layer descriptors and loop nests, and "
        "synthesize one unified systolic design for the whole model.",
        parents=[
            _target_options(dse=True),
            _run_options(
                "DSE worker processes (0 = all cores)",
                "stage cache directory (default ~/.cache/repro-systolic)",
            ),
        ],
    )
    parser.add_argument(
        "source", help="network file: a .json spec or a serialized .onnx model"
    )
    parser.add_argument(
        "--check-only",
        action="store_true",
        help="stop after import + lowering: print the layer summary and "
        "diagnostics, skip the DSE (no artifacts written)",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("-o", "--output", default="systolic_out", help="output directory")
    return parser


def _read_text(path: Path) -> str | None:
    """The file's text — or None, after the usage-error line, when it is
    missing or binary (the caller exits 2)."""
    if not path.is_file():
        print(f"error: no such file: {path}", file=sys.stderr)
        return None
    try:
        return path.read_text()
    except UnicodeDecodeError:
        print(f"error: {path} is not a text file", file=sys.stderr)
        return None


def _read_json(path: Path) -> tuple[bool, object]:
    """(True, the file's JSON value) — or (False, None), after the
    usage-error line, when it is missing, binary or does not parse (the
    caller exits 2)."""
    text = _read_text(path)
    if text is None:
        return False, None
    try:
        return True, json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"error: {path} is not valid JSON: {exc}", file=sys.stderr)
        return False, None


def _platform(args: argparse.Namespace) -> Platform:
    """The target platform a parsed command line names (parsers without
    ``--clock`` price phase 1 at the platform default)."""
    clock = {"assumed_clock_mhz": args.clock} if hasattr(args, "clock") else {}
    return Platform(
        device=device_by_name(args.device),
        datatype=datatype_by_name(args.datatype),
        **clock,
    )


def _dse_config(args: argparse.Namespace) -> DseConfig:
    return DseConfig(min_dsp_utilization=args.cs, top_n=args.top_n)


def _cache_spec(args: argparse.Namespace) -> bool | str:
    """``--cache-dir`` roots the stage cache; otherwise the default
    directory unless ``--no-cache``."""
    return args.cache_dir or not args.no_cache


def import_main(argv: list[str]) -> int:
    """The ``import`` subcommand: network file -> unified systolic design."""
    args = build_import_arg_parser().parse_args(argv)
    from repro.frontend.network import load_network

    path = Path(args.source)
    if not path.is_file():
        print(f"error: no such file: {path}", file=sys.stderr)
        return 2
    imported = load_network(path, strict=False)
    if not imported.ok:
        if args.json:
            print(json.dumps(imported.report.to_dict(), indent=2))
        else:
            print(imported.report.render(), file=sys.stderr)
        return 1
    network = imported.network
    for diagnostic in imported.report.diagnostics:
        print(diagnostic.render(), file=sys.stderr)
    if args.check_only:
        if args.json:
            print(
                json.dumps(
                    {
                        "name": network.name,
                        "conv_layers": [str(l) for l in network.conv_layers],
                        "fc_layers": [l.name for l in network.fc_layers],
                        "pool_layers": [l.name for l in network.pool_layers],
                        "add_layers": [l.name for l in network.add_layers],
                        "conv_flops": network.conv_flops,
                        "diagnostics": imported.report.to_dict()["diagnostics"],
                    },
                    indent=2,
                )
            )
        else:
            print(f"imported {network.name}: {len(network.conv_layers)} conv, "
                  f"{len(network.fc_layers)} fc, {len(network.pool_layers)} pool, "
                  f"{len(network.add_layers)} add layers "
                  f"({network.conv_flops / 1e9:.2f} conv Gops/image)")
            for layer in network.conv_layers:
                print(f"  {layer}")
        return 0

    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    from repro.pipeline.events import ProgressPrinter

    observers = () if args.quiet else (ProgressPrinter(),)
    report = _synthesize_network(args, network, out_dir, observers)
    (out_dir / "report.txt").write_text(report + "\n")
    print(report)
    print(f"\nartifacts written to {out_dir}/")
    return 0


def serve_main(argv: list[str]) -> int:
    """The ``serve`` subcommand: the flow as a daemon."""
    args = build_serve_arg_parser().parse_args(argv)
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    if args.role == "worker" and not args.coordinator:
        print("error: --role worker requires --coordinator URL", file=sys.stderr)
        return 2
    with _resilience_scope():
        if not _configure_resilience(args):
            return 2
        if args.role == "coordinator":
            return _serve_coordinator(args)
        return _serve_node(args)


def _bind(args: argparse.Namespace, run, backend):
    """Start serving ``backend``; None (after the error line) when the
    address cannot be bound."""
    try:
        return run(backend, host=args.host, port=args.port, verbose=args.verbose)
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return None


def _announce(message: str) -> None:
    print(f"systolic-synth serve: {message}", file=sys.stderr, flush=True)


def _run_until_signal(banner: str) -> None:
    """Announce the daemon and block until SIGTERM/SIGINT."""
    stopping = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stopping.set())
    _announce(banner)
    while not stopping.wait(0.2):
        pass


def _serve_node(args: argparse.Namespace) -> int:
    """``serve`` as a standalone daemon or a fleet worker."""
    from repro.service.http import run_server, shutdown_server
    from repro.service.jobs import JobManager

    worker = args.role == "worker"
    manager = JobManager(
        workers=args.workers,
        queue_depth=args.queue_depth,
        # The replicated fleet cache needs the manager first (SA704
        # degradations land on it); a worker attaches it below.
        cache=False if worker else _cache_spec(args),
        rate=args.rate,
        burst=args.burst,
        journal=args.journal,
        pipeline_jobs=args.jobs,
    )
    server = _bind(args, run_server, manager)
    if server is None:
        return 2
    agent = None
    if worker:
        from repro.cluster.coordinator import HEARTBEAT_INTERVAL
        from repro.cluster.worker import WorkerAgent, make_worker_cache
        from repro.pipeline.cache import default_cache_dir

        if not args.no_cache:
            root = args.cache_dir or str(default_cache_dir())
            manager.cache = make_worker_cache(root, args.coordinator, manager)
        advertise = args.advertise or f"http://{args.host}:{server.port}"
        agent = WorkerAgent(
            manager,
            coordinator_url=args.coordinator,
            advertise_url=advertise,
            node_id=args.node_id,
            interval=args.heartbeat_interval or HEARTBEAT_INTERVAL,
        )
        agent.start()
    _run_until_signal(
        f"listening on http://{args.host}:{server.port} "
        f"({args.workers} workers, queue depth {args.queue_depth}"
        + (f", journal {args.journal}" if args.journal else "")
        + (f", worker of {args.coordinator}" if worker else "")
        + ")"
    )
    _announce("draining (running jobs finish, queued jobs stay journaled)...")
    if agent is not None:
        # Leave the fleet first so the coordinator reassigns our
        # journaled jobs immediately instead of after K misses.
        agent.stop(deregister=True)
    shutdown_server(server)
    stats = manager.stats()
    _announce(
        f"drained; {stats['done']} done, {stats['failed']} failed, "
        f"{stats['cancelled']} cancelled"
    )
    return 0


def _serve_coordinator(args: argparse.Namespace) -> int:
    """``serve --role coordinator``: route jobs across the fleet and serve
    the shared stage-cache store."""
    from repro.cluster.coordinator import (
        HEARTBEAT_INTERVAL,
        HEARTBEAT_MISSES,
        ClusterCoordinator,
    )
    from repro.cluster.http import run_coordinator, shutdown_coordinator
    from repro.pipeline.cache import resolve_cache

    store = None
    if not args.no_cache:
        shared = resolve_cache(args.cache_dir if args.cache_dir else True)
        store = None if shared is None else shared.store
    coordinator = ClusterCoordinator(
        store=store,
        journal=args.journal,
        heartbeat_interval=args.heartbeat_interval or HEARTBEAT_INTERVAL,
        heartbeat_misses=args.heartbeat_misses or HEARTBEAT_MISSES,
    )
    server = _bind(args, run_coordinator, coordinator)
    if server is None:
        return 2
    _run_until_signal(
        f"coordinating on http://{args.host}:{server.port}"
        + (f" (journal {args.journal})" if args.journal else "")
    )
    stats = coordinator.stats()
    _announce(
        f"coordinator stopping; {stats['settled']} settled, {stats['pending']} "
        "pending (journaled jobs resume on restart)"
    )
    shutdown_coordinator(server)
    return 0


def submit_main(argv: list[str]) -> int:
    """The ``submit`` subcommand: client of a running server."""
    args = build_submit_arg_parser().parse_args(argv)
    from repro.service.client import ServiceClient, ServiceError

    if bool(args.source) == bool(args.network):
        print("error: provide exactly one of SOURCE or --network", file=sys.stderr)
        return 2
    options = {
        "device": args.device,
        "datatype": args.datatype,
        "cs": args.cs,
        "top_n": args.top_n,
        "clock": args.clock,
    }
    if args.sim_backend:
        options["sim_backend"] = args.sim_backend
    path = Path(args.network or args.source)
    body: dict = {"name": path.stem, "options": options}
    if args.network and path.suffix != ".json":
        body.update(name=args.network, network=args.network)  # a built-in model
    elif args.network or path.suffix == ".json":
        ok, value = _read_json(path)
        if not ok:
            return 2
        body["network" if args.network else "design"] = value
    else:
        text = _read_text(path)
        if text is None:
            return 2
        body["source"] = text
    client = ServiceClient(args.url, client_id=args.client_id)
    try:
        job = client.submit(priority=args.priority, **body)
    except ServiceError as exc:
        hint = ""
        if exc.status == 429 and exc.retry_after:
            hint = f" (retry in {exc.retry_after:.0f}s)"
        print(f"error: {exc.message}{hint}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot reach {args.url}: {exc}", file=sys.stderr)
        return 1
    print(f"job {job['id']} {job['state']}"
          + (f" (coalesced onto {job['primary']})" if job["coalesced"] else ""))
    if args.follow:
        from repro.pipeline import events as ev

        printer = ev.ProgressPrinter(sys.stderr)
        try:
            for event in client.events(job["id"]):
                kind = event.get("event")
                if kind == "JobFinished":
                    print(f"job {job['id']} {event.get('state')}"
                          + (f": {event['error']}" if event.get("error") else ""))
                elif kind in ("JobQueued", "JobStarted", "JobCoalesced", "JobRequeued"):
                    print(f"[{kind}] {event.get('id', '')}", file=sys.stderr)
                else:
                    typed = ev.event_from_dict(event)
                    if typed is not None:
                        printer(typed)
        except ServiceError as exc:
            print(f"error: {exc.message}", file=sys.stderr)
            return 1
    if args.output:
        try:
            status = client.wait(job["id"], timeout=args.timeout)
        except (ServiceError, TimeoutError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if status["state"] != "done":
            print(
                f"error: job {job['id']} {status['state']}"
                + (f": {status['error']}" if status.get("error") else ""),
                file=sys.stderr,
            )
            return 1
        from repro.model.serialize import RECORDS, RESULT

        out_dir = Path(args.output)
        out_dir.mkdir(parents=True, exist_ok=True)
        payload = status["result"]
        record = RECORDS.get(payload.get("format"), RESULT)
        if record is not RESULT:  # a network job: no artifacts, the payload itself
            target = out_dir / f"{record.label}_result.json"
            target.write_text(json.dumps(payload, indent=2) + "\n")
            print(f"{record.label} result written to {target}")
            return 0
        result = RESULT.decode(payload)
        _write_artifacts(out_dir, result)
        (out_dir / "report.txt").write_text(render_synthesis_report(result) + "\n")
        print(f"artifacts written to {out_dir}/")
    elif not args.follow:
        print(f"poll with: GET {args.url}/v1/jobs/{job['id']}")
    return 0


def verify_main(argv: list[str]) -> int:
    """The ``verify`` subcommand: differential conformance, no artifacts."""
    args = build_verify_arg_parser().parse_args(argv)
    from repro.verify.conformance import DEFAULT_REL_TOL, cross_check

    path = Path(args.source)
    if path.suffix == ".json" and path.is_file():
        from repro.model.serialize import load_design

        try:
            design = load_design(path)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        from repro.analysis.check import run_checks

        source = _read_text(path)
        if source is None:
            return 2
        checked = run_checks(
            source,
            platform=_platform(args),
            level="design",
            name=path.stem,
            filename=str(path),
            require_pragma=not args.no_pragma,
        )
        if checked.design is None:
            print(checked.report.render(source), file=sys.stderr)
            return checked.exit_code or 1
        design = checked.design
    require_iverilog = args.require_iverilog or os.environ.get(
        "RTL_REQUIRE_IVERILOG"
    ) not in (None, "", "0")
    conformance = cross_check(
        design,
        seed=args.seed,
        rel_tol=args.rel_tol if args.rel_tol is not None else DEFAULT_REL_TOL,
        engine_iteration_limit=args.engine_limit,
        rtl=args.sim_backend in ("rtl", "both"),
        rtl_iteration_limit=args.rtl_limit,
        iverilog="require" if require_iverilog else "auto",
    )
    if args.json:
        print(json.dumps(conformance.to_dict(), indent=2))
    else:
        print(conformance.render())
    return conformance.exit_code


def check_main(argv: list[str]) -> int:
    """The ``check`` subcommand: analysis only, no artifacts."""
    args = build_check_arg_parser().parse_args(argv)
    from repro.analysis.check import run_checks

    path = Path(args.source)
    source = _read_text(path)
    if source is None:
        return 2
    result = run_checks(
        source,
        platform=_platform(args),
        level=args.level,
        name=path.stem,
        filename=str(path),
        require_pragma=not args.no_pragma,
    )
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result.report.render(source))
        if result.ok and result.design is not None:
            print(f"validated design: {result.design.signature}")
    return result.exit_code


def build_lint_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="systolic-synth lint",
        description="Whole-program concurrency & determinism analysis "
        "(the SA6xx passes) over the flow's own Python sources.",
    )
    parser.add_argument(
        "root",
        nargs="?",
        default="src/repro",
        help="package directory to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="PREFIX",
        help="keep findings whose code starts with PREFIX (repeatable; "
        "default SA6)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format (default text)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="suppression baseline: known findings listed in FILE are "
        "reported but not fatal; only NEW findings fail the run",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite --baseline FILE to suppress exactly the current "
        "findings, then exit 0 (the ratchet update path)",
    )
    parser.add_argument(
        "--package",
        default=None,
        help="dotted package name of ROOT (auto-detected by default)",
    )
    return parser


def lint_main(argv: list[str]) -> int:
    """The ``lint`` subcommand: SA6xx static analysis + baseline ratchet."""
    args = build_lint_arg_parser().parse_args(argv)
    from repro.analysis.program import (
        AnalyzeOptions,
        analyze_program,
        apply_baseline,
        load_baseline,
        write_baseline,
    )
    from repro.analysis.program.baseline import Baseline

    if args.write_baseline and not args.baseline:
        print("error: --write-baseline requires --baseline FILE", file=sys.stderr)
        return 2
    root = Path(args.root)
    if not root.exists():
        print(f"error: no such analysis root: {root}", file=sys.stderr)
        return 2
    select = tuple(args.select) if args.select else ("SA6",)
    analysis = analyze_program(
        root, AnalyzeOptions(select=select, package=args.package)
    )
    if args.write_baseline:
        baseline = write_baseline(args.baseline, analysis.findings)
        print(
            f"wrote {args.baseline}: {len(baseline)} suppression(s) "
            f"from {len(analysis.findings)} finding(s)"
        )
        return 0
    try:
        baseline = load_baseline(args.baseline) if args.baseline else Baseline()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    delta = apply_baseline(analysis.findings, baseline)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "root": str(root),
                    "select": list(select),
                    "ok": delta.ok,
                    "findings": [
                        {"key": f.key, **f.diagnostic.to_dict()}
                        for f in analysis.findings
                    ],
                    "new": [f.key for f in delta.new],
                    "suppressed": [f.key for f in delta.suppressed],
                    "stale": delta.stale,
                },
                indent=2,
            )
        )
        return delta.exit_code
    sources = {
        str(module.path): module.source
        for module in analysis.model.modules.values()
    }

    def render(findings) -> None:
        for finding in findings:
            span = finding.diagnostic.span
            source = None
            if span is not None and span.filename is not None:
                source = sources.get(str(analysis.model.root / span.filename))
            print(finding.diagnostic.render(source))

    render(delta.new)
    if delta.suppressed:
        print(f"{len(delta.suppressed)} known finding(s) suppressed by baseline")
    for key in delta.stale:
        print(f"stale baseline entry (no longer found): {key}")
    if delta.new:
        print(f"{len(delta.new)} new finding(s)")
    else:
        print("no new findings")
    return delta.exit_code


@contextmanager
def _resilience_scope() -> Iterator[None]:
    """Undo CLI-scoped chaos/retry configuration on the way out and restore
    the fault env vars to their prior values (keeps repeated in-process
    ``main()`` calls — tests, notebooks — independent of each other)."""
    from repro.resilience.faults import (
        FAULT_PLAN_ENV_VAR,
        FAULT_SEED_ENV_VAR,
        deactivate,
    )
    from repro.resilience.retry import reset_retries

    prior_env = {
        var: os.environ.get(var) for var in (FAULT_PLAN_ENV_VAR, FAULT_SEED_ENV_VAR)
    }
    try:
        yield
    finally:
        deactivate()
        for var, value in prior_env.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value
        reset_retries()


def _configure_resilience(args: argparse.Namespace) -> bool:
    """Activate ``--inject-fault`` / ``--max-retries`` for this process;
    False (after the error line) on a usage error."""
    if args.inject_fault:
        from repro.resilience.faults import FaultPlan, activate

        try:
            plan = FaultPlan.parse(";".join(args.inject_fault), seed=args.seed)
        except ValueError as exc:
            print(f"error: --inject-fault: {exc}", file=sys.stderr)
            return False
        # Workers spawned by the DSE pools read the plan back from the
        # environment, so chaos follows the work across processes.
        activate(plan, export_env=True)
    if args.max_retries is not None:
        if args.max_retries < 1:
            print("error: --max-retries must be >= 1", file=sys.stderr)
            return False
        from repro.resilience.retry import configure_retries

        configure_retries(max_attempts=args.max_retries)
    return True


def main(argv: list[str] | None = None) -> int:
    raw = sys.argv[1:] if argv is None else argv
    subcommands = {
        "check": check_main,
        "verify": verify_main,
        "serve": serve_main,
        "submit": submit_main,
        "lint": lint_main,
        "import": import_main,
    }
    if raw and raw[0] in subcommands:
        return subcommands[raw[0]](raw[1:])
    if raw and raw[0] == "compile":
        raw = raw[1:]  # explicit subcommand name for the default action
    args = build_arg_parser().parse_args(raw)
    if bool(args.source) == bool(args.network):
        print("error: provide exactly one of SOURCE or --network", file=sys.stderr)
        return 2
    layer_only = [
        flag
        for flag in ("--sim-backend", "--save-design", "--save-result")
        if getattr(args, flag[2:].replace("-", "_"))
    ]
    if args.network and layer_only:
        print(
            f"error: {', '.join(layer_only)} apply to single-nest runs only, "
            "not --network",
            file=sys.stderr,
        )
        return 2
    with _resilience_scope():
        if not _configure_resilience(args):
            return 2
        return _configured_main(args)


def _configured_main(args) -> int:
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)

    from repro.pipeline.events import JsonlTraceWriter, Observer, ProgressPrinter

    observers: list[Observer] = [] if args.quiet else [ProgressPrinter()]
    trace = JsonlTraceWriter(args.trace_json) if args.trace_json else None
    if trace is not None:
        observers.append(trace)
    try:
        return _synthesize(args, out_dir, tuple(observers))
    finally:
        if trace is not None:
            trace.close()


def _synthesize_network(args, network, out_dir, observers) -> str:
    """Run the unified whole-network flow and write its artifacts.

    Shared by ``--network <builtin>`` and ``import <file>``; returns the
    text report.
    """
    synthesis = synthesize_network(
        network,
        _platform(args),
        _dse_config(args),
        jobs=args.jobs,
        cache=_cache_spec(args),
        observers=observers,
    )
    result = synthesis.result
    (out_dir / "kernel.cl").write_text(synthesis.kernel_source)
    (out_dir / "host.cpp").write_text(synthesis.host_source)
    (out_dir / "opencl_shim.h").write_text(OPENCL_SHIM)
    rows = [
        (l.name, f"{l.throughput_gops:.1f}", f"{l.dsp_efficiency:.1%}",
         f"{l.seconds * 1e3:.3f}", l.bound)
        for l in result.layers
    ]
    return "\n".join(
        [
            f"unified design for {network.name}: shape {result.config.shape} "
            f"mapping ({result.config.mapping.row},{result.config.mapping.col},"
            f"{result.config.mapping.vector}) @ {result.frequency_mhz:.1f} MHz",
            f"DSP {result.dsp_utilization:.0%}  BRAM {result.bram_utilization:.0%}  "
            f"logic {result.logic_utilization:.0%}",
            "",
            format_table(
                ["layer", "Gops", "DSP eff", "ms", "bound"], rows,
                title="per-layer performance",
            ),
            "",
            f"total conv latency {synthesis.latency_ms:.2f} ms/image, "
            f"aggregate {synthesis.throughput_gops:.1f} Gops",
        ]
    )


def _write_artifacts(out_dir: Path, result) -> None:
    """The generated sources of one single-layer synthesis result."""
    (out_dir / "kernel.cl").write_text(result.kernel_source)
    (out_dir / "host.cpp").write_text(result.host_source)
    (out_dir / "testbench.c").write_text(result.testbench_source)
    (out_dir / "driver.c").write_text(result.driver_source)
    (out_dir / "opencl_shim.h").write_text(OPENCL_SHIM)
    if result.rtl_source is not None:
        (out_dir / "systolic.v").write_text(result.rtl_source)


def _synthesize(args, out_dir, observers) -> int:
    if args.network:
        from repro.nn import models

        network = getattr(models, args.network)()
        report = _synthesize_network(args, network, out_dir, observers)
    else:
        source = Path(args.source).read_text()
        synthesis = compile_c_source(
            source,
            _platform(args),
            _dse_config(args),
            name=Path(args.source).stem,
            jobs=args.jobs,
            sim_backend=args.sim_backend,
            cache=_cache_spec(args),
            observers=observers,
        )
        _write_artifacts(out_dir, synthesis)
        if args.save_design:
            from repro.model.serialize import save_design

            save_design(synthesis.evaluation.design, args.save_design)
        if args.save_result:
            from repro.model.serialize import save_result

            save_result(synthesis, args.save_result)
        report = render_synthesis_report(synthesis)

    (out_dir / "report.txt").write_text(report + "\n")
    print(report)
    print(f"\nartifacts written to {out_dir}/")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())


__all__ = [
    "build_arg_parser",
    "build_check_arg_parser",
    "build_import_arg_parser",
    "build_serve_arg_parser",
    "build_submit_arg_parser",
    "build_verify_arg_parser",
    "check_main",
    "import_main",
    "main",
    "serve_main",
    "submit_main",
    "verify_main",
]
