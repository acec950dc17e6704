"""The ``serve`` / ``submit`` subcommands: parsers, in-process submit
against a live server, and the real SIGTERM path through a subprocess."""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

from repro.flow.cli import (
    build_serve_arg_parser,
    build_submit_arg_parser,
    main,
    submit_main,
)
from repro.service.http import run_server, shutdown_server
from repro.service.jobs import JobManager

TINY = """
#pragma systolic
for (o = 0; o < 8; o++) for (i = 0; i < 4; i++) for (c = 0; c < 6; c++)
  for (r = 0; r < 6; r++) for (p = 0; p < 3; p++) for (q = 0; q < 3; q++)
    OUT[o][r][c] += W[o][i][p][q] * IN[i][r+p][c+q];
"""


@pytest.fixture
def tiny_c(tmp_path):
    path = tmp_path / "tiny.c"
    path.write_text(TINY)
    return path


class TestParsers:
    def test_serve_defaults(self):
        args = build_serve_arg_parser().parse_args([])
        assert args.port == 8451
        assert args.workers == 2
        assert args.queue_depth == 64
        assert args.rate is None and args.journal is None

    def test_submit_defaults(self):
        args = build_submit_arg_parser().parse_args(["x.c"])
        assert args.url == "http://127.0.0.1:8451"
        assert not args.follow
        assert args.priority == 0

    def test_serve_rejects_zero_workers(self, capsys):
        assert main(["serve", "--workers", "0"]) == 2
        assert "workers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--queue-depth", "0"], ["--rate", "0"], ["--rate", "2", "--burst", "0.5"]],
        ids=["queue-depth", "rate", "burst"],
    )
    def test_serve_rejects_bad_admission_flags_before_binding(
        self, flags, capsys, monkeypatch
    ):
        """These used to raise out of the JobManager constructor."""
        bound = []
        monkeypatch.setattr(
            "repro.service.http.run_server", lambda *args, **kwargs: bound.append(args)
        )
        assert main(["serve", "--port", "0", "--no-cache", *flags]) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()  # one stderr line, no traceback
        assert line.startswith("error: ")
        assert not bound


    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--queue-depth", "0", "--rate", "0"], "--queue-depth, --rate"),
            (["--workers", "4"], "--workers"),
            (["--burst", "3", "-j", "2"], "--burst, --jobs"),
        ],
        ids=["queue-depth+rate", "workers", "burst+jobs"],
    )
    def test_coordinator_rejects_node_flags_before_binding(
        self, flags, named, capsys, monkeypatch
    ):
        """A coordinator runs no queue, rate limiter, worker pool or DSE
        fan-out: sizing one is a usage error, not a silently ignored flag."""
        bound = []
        monkeypatch.setattr(
            "repro.cluster.http.run_coordinator", lambda *args, **kwargs: bound.append(args)
        )
        argv = ["serve", "--role", "coordinator", "--port", "0", "--no-cache", *flags]
        assert main(argv) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {named}: ") and "coordinator" in line
        assert not bound

    def test_coordinator_accepts_node_flags_at_their_defaults(self, monkeypatch):
        class Stop(Exception):
            pass

        def bind(*args, **kwargs):
            raise Stop

        monkeypatch.setattr("repro.cluster.http.run_coordinator", bind)
        argv = ["serve", "--role", "coordinator", "--port", "0", "--no-cache"]
        with pytest.raises(Stop):
            main([*argv, "--workers", "2", "--queue-depth", "64", "--jobs", "1"])


class TestSubmitCommand:
    @pytest.fixture
    def live(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("cli-server")
        manager = JobManager(workers=2, queue_depth=16, cache=str(tmp / "cache"))
        server = run_server(manager)
        yield server
        shutdown_server(server)

    def url(self, live):
        return f"http://127.0.0.1:{live.port}"

    def test_submit_and_fetch_artifacts(self, live, tiny_c, tmp_path, capsys):
        out = tmp_path / "artifacts"
        rc = main(
            ["submit", str(tiny_c), "--url", self.url(live),
             "--cs", "0.0", "--top-n", "2", "-o", str(out)]
        )
        assert rc == 0
        assert (out / "kernel.cl").exists()
        assert (out / "report.txt").exists()
        assert "artifacts written" in capsys.readouterr().out

    def test_submit_network_spec_fetches_unified_result(self, live, tmp_path, capsys):
        import json

        spec = tmp_path / "net.json"
        spec.write_text(json.dumps({
            "name": "clinet",
            "input": {"channels": 3, "height": 11, "width": 11},
            "layers": [
                {"op": "conv", "name": "c1", "out_channels": 4, "kernel": 3,
                 "stride": 2},
                {"op": "conv", "name": "c2", "out_channels": 4, "kernel": 3,
                 "pad": 1, "groups": "depthwise"},
            ],
        }))
        out = tmp_path / "unified"
        rc = main(
            ["submit", "--network", str(spec), "--url", self.url(live),
             "--cs", "0.0", "--top-n", "2", "-o", str(out)]
        )
        assert rc == 0
        payload = json.loads((out / "unified_result.json").read_text())
        assert payload["format"] == "repro-unified/1"
        assert "unified result written" in capsys.readouterr().out

    def test_submit_requires_exactly_one_subject(self, live, tiny_c, capsys):
        rc = main(
            ["submit", str(tiny_c), "--network", "alexnet", "--url", self.url(live)]
        )
        assert rc == 2
        assert "exactly one" in capsys.readouterr().err
        rc = main(["submit", "--url", self.url(live)])
        assert rc == 2

    def test_submit_follow_renders_stage_progress(self, live, tiny_c, capsys):
        rc = main(
            ["submit", str(tiny_c), "--url", self.url(live),
             "--cs", "0.0", "--top-n", "2", "--follow"]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "done" in captured.out
        assert "[dse-phase1]" in captured.err  # ProgressPrinter output
        assert "[JobStarted]" in captured.err

    def test_submit_bad_program_is_a_clean_error(self, live, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("int main() { return 0; }")
        rc = main(["submit", str(bad), "--url", self.url(live)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_submit_missing_file_is_usage_error(self, live, capsys):
        assert submit_main(["/nope/missing.c", "--url", self.url(live)]) == 2

    @pytest.mark.parametrize("flag", [[], ["--network"]])
    def test_submit_unparsable_json_is_usage_error(self, tmp_path, capsys, flag):
        """Regression: a ``.json`` design or network spec that does not
        parse died with a JSONDecodeError traceback.  Refused before any
        request: the URL is the discard port."""
        broken = tmp_path / "broken.json"
        broken.write_text('{"format": "repro-design/1", ')
        rc = main(["submit", *flag, str(broken), "--url", "http://127.0.0.1:9"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {broken} is not valid JSON")

    def test_submit_design_that_is_not_an_object_is_a_clean_error(
        self, live, tmp_path, capsys
    ):
        listing = tmp_path / "list.json"
        listing.write_text("[1, 2]")
        rc = main(["submit", str(listing), "--url", self.url(live)])
        assert rc == 1  # the server's 400, relayed
        assert "malformed design payload" in capsys.readouterr().err

    def test_submit_unreachable_server_is_a_clean_error(self, tiny_c, capsys):
        rc = main(
            ["submit", str(tiny_c), "--url", "http://127.0.0.1:9"]  # discard port
        )
        assert rc == 1
        assert "cannot reach" in capsys.readouterr().err


@pytest.mark.slow
class TestServeSigterm:
    def test_sigterm_drains_and_restart_resumes(self, tiny_c, tmp_path):
        """The full acceptance path: a real daemon process, a 20-job
        workload, SIGTERM mid-flight, restart, zero lost jobs."""
        env = dict(os.environ)
        repo_src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(repo_src)
        journal = tmp_path / "journal.jsonl"
        cache = tmp_path / "cache"

        def start_server(port):
            return subprocess.Popen(
                [sys.executable, "-m", "repro.flow.cli", "serve",
                 "--port", str(port), "--workers", "1",
                 "--journal", str(journal), "--cache-dir", str(cache)],
                env=env,
                stderr=subprocess.PIPE,
                text=True,
            )

        def wait_healthy(port, timeout=15.0):
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                try:
                    with urllib.request.urlopen(
                        f"http://127.0.0.1:{port}/healthz", timeout=1
                    ) as response:
                        return json.loads(response.read())
                except OSError:
                    time.sleep(0.1)
            raise TimeoutError("server never became healthy")

        def post_job(port, top_n):
            body = json.dumps(
                {"source": TINY, "options": {"cs": 0.0, "top_n": top_n}}
            ).encode()
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/v1/jobs",
                data=body,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                return json.loads(response.read())["id"]

        port = 18473
        first = start_server(port)
        try:
            wait_healthy(port)
            ids = [post_job(port, 2 + n) for n in range(20)]
            first.send_signal(signal.SIGTERM)  # mid-workload
            _, stderr = first.communicate(timeout=60)
            assert first.returncode == 0
            assert "draining" in stderr
        finally:
            if first.poll() is None:
                first.kill()

        second = start_server(port + 1)
        try:
            health = wait_healthy(port + 1)
            assert health["status"] == "ok"
            deadline = time.monotonic() + 120
            done = set()
            while len(done) < 20 and time.monotonic() < deadline:
                for jid in ids:
                    if jid in done:
                        continue
                    try:
                        with urllib.request.urlopen(
                            f"http://127.0.0.1:{port + 1}/v1/jobs/{jid}",
                            timeout=5,
                        ) as response:
                            state = json.loads(response.read())["state"]
                    except urllib.error.HTTPError:
                        # finished before the restart and pruned from the
                        # journal: the first server completed it
                        state = "done"
                    assert state in ("queued", "running", "done"), (jid, state)
                    if state == "done":
                        done.add(jid)
                time.sleep(0.2)
            assert len(done) == 20  # zero accepted jobs lost
        finally:
            second.send_signal(signal.SIGTERM)
            try:
                second.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                second.kill()


class TestVerifyCommand:
    @pytest.mark.parametrize("text", ["[1, 2]", '"x"', "{not json", '{"format": 7}'])
    def test_a_json_file_that_is_not_a_design_is_usage_error(
        self, tmp_path, capsys, text
    ):
        """Regression: ``verify list.json`` reached ``[1, 2].get`` in the
        decoder — a traceback, where the CLI promises none."""
        path = tmp_path / "list.json"
        path.write_text(text)
        rc = main(["verify", str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
