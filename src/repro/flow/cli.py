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

Every subcommand enters the flow through its one front door
(:mod:`repro.flow.request`): the ``--device`` … ``--clock`` flags are
derived from its option table, :func:`_payload` is the one ``args →
payload`` function behind both the local compile and ``submit``, a local
run is ``run_context(SynthesisRequest.from_payload(payload))``, and a missing
file or a value the table rejects is one ``error:`` line and exit 2 —
never a traceback.

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
simulator against the NumPy golden model and the analytical cycle
counts, and the emitted Verilog (interpreted cycle by cycle) against
both.  Any disagreement is reported as an ``SA4xx``/``SA15x``
diagnostic and exits 1.  The compile flow can do the same
in-line on its winner with ``--sim-backend fast|rtl|both`` (``both`` =
differential mode).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import sys
import threading
from pathlib import Path
from typing import Any, Iterator

from repro.codegen.opencl import OPENCL_SHIM
from repro.dse.explore import NoFeasibleDesign
from repro.flow.report import render_network_report, render_synthesis_report
from repro.flow.request import OPTIONS, SynthesisRequest, lower_options, run_context
from repro.nn.models import BUILTIN_NETWORKS
from repro.pipeline.stages import SIM_BACKENDS
from repro.resilience.faults import FAULT_KINDS, FAULT_POINTS


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _target_options(dse: bool = False) -> argparse.ArgumentParser:
    """Parent parser: the option table's platform flags and, with ``dse``,
    its DSE knobs (:data:`repro.flow.request.OPTIONS`)."""
    parent = argparse.ArgumentParser(add_help=False)
    for name, option in OPTIONS.items():
        if option.help is not None and (dse or not option.dse):
            parent.add_argument(
                _flag(name),
                type=None if option.kind is str else option.kind,
                default=option.default,
                help=option.help,
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
        choices=list(BUILTIN_NETWORKS),
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
        "vs. emitted RTL vs. golden model vs. analytical cycles.",
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
        "--sim-backend",
        choices=[b for b in SIM_BACKENDS if b != "testbench"],
        default="both",
        help="legs to run: fast = simulator matrix only, rtl / both = "
        "also hold the generated Verilog (interpreter, plus iverilog "
        "when available) bit-identical to the fast simulator (default both)",
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


def _fail(message: object, code: int = 2) -> int:
    """The one ``error:`` line on stderr; returns the exit code (2 = a
    usage error)."""
    print(f"error: {message}", file=sys.stderr)
    return code


def _read_text(path: Path) -> str:
    """The file's text; a missing or binary file is a ``ValueError`` (a
    usage error at every door)."""
    if not path.is_file():
        raise ValueError(f"no such file: {path}")
    try:
        return path.read_text()
    except UnicodeDecodeError:
        raise ValueError(f"{path} is not a text file") from None


def _read_json(path: Path) -> Any:
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None


def _options(args: argparse.Namespace) -> dict[str, Any]:
    """The request options a parsed command line sets — one entry per
    row of the option table its parser carries."""
    return {n: getattr(args, n) for n in OPTIONS if getattr(args, n, None) is not None}


def _payload(args: argparse.Namespace) -> dict[str, Any]:
    """The submission body a parsed command line describes: what
    ``submit`` posts and what a local compile hands to
    :meth:`SynthesisRequest.from_payload` itself.  SOURCE is C text, or a
    saved design-point when it ends in ``.json``; ``--network`` a built-in
    model name or a ``.json`` importer spec."""
    if bool(args.source) == bool(args.network):
        raise ValueError("provide exactly one of SOURCE or --network")
    path = Path(args.network or args.source)
    body: dict[str, Any] = {"name": path.stem, "options": _options(args)}
    if args.network and path.suffix != ".json":
        body.update(name=args.network, network=args.network)  # a built-in model
    elif args.network or path.suffix == ".json":
        body["network" if args.network else "design"] = _read_json(path)
    else:
        body["source"] = _read_text(path)
    return body


def _cache_spec(args: argparse.Namespace) -> bool | str:
    """``--cache-dir`` roots the stage cache; otherwise the default
    directory unless ``--no-cache``."""
    return args.cache_dir or not args.no_cache


def import_main(argv: list[str]) -> int:
    """The ``import`` subcommand: network file -> unified systolic design."""
    args = build_import_arg_parser().parse_args(argv)
    from repro.frontend.network import load_network

    path = Path(args.source)
    try:
        if not path.is_file():
            raise ValueError(f"no such file: {path}")
        fields = lower_options(_options(args))
    except ValueError as exc:
        return _fail(exc)
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

    return _synthesize(args, SynthesisRequest(network=network, name=network.name, **fields))


def serve_main(argv: list[str]) -> int:
    """The ``serve`` subcommand: the flow as a daemon."""
    parser = build_serve_arg_parser()
    args = parser.parse_args(argv)
    with contextlib.ExitStack() as stack:
        try:
            if args.role == "coordinator":
                _no_node_flags(parser, args)
            if args.workers < 1:
                raise ValueError("--workers must be >= 1")
            if args.role == "worker" and not args.coordinator:
                raise ValueError("--role worker requires --coordinator URL")
            stack.enter_context(_resilience(args))
        except ValueError as exc:
            return _fail(exc)
        if args.role == "coordinator":
            return _serve_coordinator(args)
        return _serve_node(args)


def _no_node_flags(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Refuse, as a ``ValueError``, the ``serve`` flags that size a node's
    own synthesis when given to a coordinator, which runs none."""
    flags = ("--workers", "--queue-depth", "--rate", "--burst", "--jobs")
    dest = {flag: flag[2:].replace("-", "_") for flag in flags}
    given = [f for f in flags if getattr(args, dest[f]) != parser.get_default(dest[f])]
    if given:
        raise ValueError(
            f"{', '.join(given)}: not used by --role coordinator, which runs no queue, "
            "rate limiter, worker pool or DSE fan-out (set them on the workers)"
        )


def _bind(args: argparse.Namespace, run, backend):
    """Start serving ``backend``; None (after the error line) when the
    address cannot be bound."""
    try:
        return run(backend, host=args.host, port=args.port, verbose=args.verbose)
    except OSError as exc:
        _fail(f"cannot bind {args.host}:{args.port}: {exc}")
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
    try:  # --queue-depth, --rate and --burst are checked here
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
    except ValueError as exc:
        return _fail(exc)
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

    try:
        body = _payload(args)
        lower_options(body["options"])  # bad flags exit 2 here, as a local compile's do
    except ValueError as exc:
        return _fail(exc)
    client = ServiceClient(args.url, client_id=args.client_id)
    try:
        job = client.submit(priority=args.priority, **body)
    except ServiceError as exc:
        hint = ""
        if exc.status == 429 and exc.retry_after:
            hint = f" (retry in {exc.retry_after:.0f}s)"
        return _fail(f"{exc.message}{hint}", 1)
    except OSError as exc:
        return _fail(f"cannot reach {args.url}: {exc}", 1)
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
            return _fail(exc.message, 1)
    if args.output:
        try:
            status = client.wait(job["id"], timeout=args.timeout)
        except (ServiceError, TimeoutError) as exc:
            return _fail(exc, 1)
        if status["state"] != "done":
            return _fail(
                f"job {job['id']} {status['state']}"
                + (f": {status['error']}" if status.get("error") else ""),
                1,
            )
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
    saved_design = path.suffix == ".json" and path.is_file()
    try:
        if saved_design:
            from repro.model.serialize import load_design

            lower_options(_options(args))  # the flags are validated for either subject
            design = load_design(path)
        else:
            inputs = _checker_inputs(args)
    except ValueError as exc:
        return _fail(exc)
    if not saved_design:
        from repro.analysis.check import run_checks

        checked = run_checks(level="design", **inputs)
        if checked.design is None:
            print(checked.report.render(inputs["source"]), file=sys.stderr)
            return checked.exit_code or 1
        design = checked.design
    require_iverilog = args.require_iverilog or os.environ.get(
        "RTL_REQUIRE_IVERILOG"
    ) not in (None, "", "0")
    conformance = cross_check(
        design,
        seed=args.seed,
        rel_tol=args.rel_tol if args.rel_tol is not None else DEFAULT_REL_TOL,
        rtl=args.sim_backend in ("rtl", "both"),
        rtl_iteration_limit=args.rtl_limit,
        iverilog="require" if require_iverilog else "auto",
    )
    if args.json:
        print(json.dumps(conformance.to_dict(), indent=2))
    else:
        print(conformance.render())
    return conformance.exit_code


def _checker_inputs(args: argparse.Namespace) -> dict[str, Any]:
    """:func:`repro.analysis.check.run_checks`' arguments for the C file
    and target platform a ``check`` / ``verify`` command line names; an
    unreadable file or a bad flag value is a ``ValueError``."""
    path = Path(args.source)
    return {
        "source": _read_text(path),
        "platform": lower_options(_options(args))["platform"],
        "name": path.stem,
        "filename": str(path),
        "require_pragma": not args.no_pragma,
    }


def check_main(argv: list[str]) -> int:
    """The ``check`` subcommand: analysis only, no artifacts."""
    args = build_check_arg_parser().parse_args(argv)
    from repro.analysis.check import run_checks

    try:
        inputs = _checker_inputs(args)
    except ValueError as exc:
        return _fail(exc)
    result = run_checks(level=args.level, **inputs)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result.report.render(inputs["source"]))
        if result.ok and result.design is not None:
            print(f"validated design: {result.design.signature}")
    return result.exit_code


@contextlib.contextmanager
def _resilience(args: argparse.Namespace) -> Iterator[None]:
    """Activate ``--inject-fault`` / ``--max-retries`` for the block (a
    bad value is a ``ValueError``), then undo them and restore the fault
    env vars to their prior values — repeated in-process ``main()`` calls
    (tests, notebooks) stay independent of each other."""
    from repro.resilience.faults import (
        FAULT_PLAN_ENV_VAR,
        FAULT_SEED_ENV_VAR,
        FaultPlan,
        activate,
        deactivate,
    )
    from repro.resilience.retry import configure_retries, reset_retries

    prior_env = {
        var: os.environ.get(var) for var in (FAULT_PLAN_ENV_VAR, FAULT_SEED_ENV_VAR)
    }
    try:
        if args.inject_fault:
            try:
                plan = FaultPlan.parse(";".join(args.inject_fault), seed=args.seed)
            except ValueError as exc:
                raise ValueError(f"--inject-fault: {exc}") from None
            # Workers spawned by the DSE pools read the plan back from the
            # environment, so chaos follows the work across processes.
            activate(plan, export_env=True)
        if args.max_retries is not None:
            if args.max_retries < 1:
                raise ValueError("--max-retries must be >= 1")
            configure_retries(max_attempts=args.max_retries)
        yield
    finally:
        deactivate()
        for var, value in prior_env.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value
        reset_retries()


def main(argv: list[str] | None = None) -> int:
    raw = sys.argv[1:] if argv is None else argv
    subcommands = {
        "check": check_main,
        "verify": verify_main,
        "serve": serve_main,
        "submit": submit_main,
        "import": import_main,
    }
    if raw and raw[0] in subcommands:
        return subcommands[raw[0]](raw[1:])
    if raw and raw[0] == "compile":
        raw = raw[1:]  # explicit subcommand name for the default action
    args = build_arg_parser().parse_args(raw)
    nest_only = [n for n, o in OPTIONS.items() if o.nest_only] + ["save_design", "save_result"]
    layer_only = [_flag(name) for name in nest_only if getattr(args, name)]
    with contextlib.ExitStack() as stack:
        try:
            if args.network and layer_only:
                raise ValueError(
                    f"{', '.join(layer_only)} apply to single-nest runs only, not --network"
                )
            request = SynthesisRequest.from_payload(_payload(args))
            stack.enter_context(_resilience(args))
        except ValueError as exc:
            return _fail(exc)
        return _synthesize(args, request)


ARTIFACT_FILES = {
    "kernel.cl": "kernel_source",
    "host.cpp": "host_source",
    "testbench.c": "testbench_source",
    "driver.c": "driver_source",
    "systolic.v": "rtl_source",
}


def _write_artifacts(out_dir: Path, result) -> None:
    """The generated sources a synthesis result carries (a network's
    unified design: kernel and host only; no ``systolic.v`` for a design
    the RTL backend cannot lower)."""
    (out_dir / "opencl_shim.h").write_text(OPENCL_SHIM)
    for filename, field in ARTIFACT_FILES.items():
        if getattr(result, field, None) is not None:
            (out_dir / filename).write_text(getattr(result, field))


def _synthesize(args: argparse.Namespace, request: SynthesisRequest) -> int:
    """Run ``request`` and write its artifacts and report under
    ``--output`` — the local tail of the default action and ``import``."""
    from repro.pipeline.events import JsonlTraceWriter, ProgressPrinter

    observers: list = [] if args.quiet else [ProgressPrinter()]
    with contextlib.ExitStack() as stack:
        if getattr(args, "trace_json", None):
            observers.append(stack.enter_context(JsonlTraceWriter(args.trace_json)))
        try:
            ctx = run_context(request, jobs=args.jobs, cache=_cache_spec(args), observers=observers)
        except NoFeasibleDesign as exc:
            return _fail(exc)
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    if request.network is not None:
        result = ctx.to_network()
        report = render_network_report(request.network.name, result)
    else:
        from repro.model.serialize import save_design, save_result

        result = ctx.to_result()
        if args.save_design:
            save_design(result.evaluation.design, args.save_design)
        if args.save_result:
            save_result(result, args.save_result)
        report = render_synthesis_report(result)
    _write_artifacts(out_dir, result)
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
