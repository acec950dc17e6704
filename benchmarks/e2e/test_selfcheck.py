"""Self-check of the end-to-end benchmark (not collected by tier-1).

Run as ``python -m pytest benchmarks/e2e -q``: a smoke-sized run of
every workload, the manifest's shape, span nesting, and two deliberate
faults that must raise the failed count (the checks bite).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from e2e import run, spec  # noqa: E402
from e2e.inputs import make_inputs  # noqa: E402
from e2e.spans import self_times  # noqa: E402

WORKLOADS = [w.name for w in spec.WORKLOADS]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


@pytest.fixture(scope="module")
def out():
    # inside the checkout, as the benchmark's contract demands of every write
    path = HERE / "out" / "selfcheck"
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def smoke(name, out, trace, **kwargs):
    return run.run_workload(name, 1, 5.0, trace, out, smoke=True, setups=1, **kwargs)


def test_manifest_is_the_spec_and_within_limits():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest == spec.manifest()
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in manifest[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for entry in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    assert all(0 < e["bound"] <= 0.25 for e in manifest["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in manifest["workloads"])
    setup = next(e for e in manifest["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in manifest["end_to_end"])
    assert 1 <= manifest["run_seconds"] <= 60
    for names in spec.OBSERVED_ON.values():
        assert set(names) <= {m.name for m in spec.PER_LAYER}


@pytest.mark.parametrize("name", WORKLOADS)
def test_inputs_are_a_pure_function_of_the_seed(name):
    assert make_inputs(name, 3) == make_inputs(name, 3)
    assert make_inputs(name, 3) != make_inputs(name, 4)


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_untraced(name, out):
    result = smoke(name, out, 0)
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] >= 1
    for metric in spec.END_TO_END:
        assert result["metrics"][metric.name] > 0, metric.name
    line = json.loads(run.contract_line(result, 0))
    assert set(line) == {"correct", "attempted", "failed", "metrics"} and line["correct"] is True
    assert (out / f"inputs-{name}.json").is_file()


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_traced(name, out):
    result = smoke(name, out, 1)
    assert result["failed"] == 0, result["failures"]
    assert set(result["metrics"]) == {m.name for m in spec.PER_LAYER}
    for claimed in spec.OBSERVED_ON[name]:
        assert result["metrics"][claimed] > 0, f"{name} claims {claimed} but never observed it"
    spans = [json.loads(line) for line in (out / f"trace-{name}.jsonl").open()]
    assert len(spans) == result["metrics"]["bench.spans"]
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["op"] == span["op"]  # spans of one op share its id
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"], span
    assert min(self_times(spans)) >= -1e-9


def test_malformed_submission_raises_failed(out):
    result = smoke("service_mix", out, 0, sabotage="malformed")
    assert result["failed"] >= 1
    assert json.loads(run.contract_line(result, 0))["correct"] is False


def test_corrupted_warm_entry_raises_failed(out):
    result = smoke("layer_flow", out, 0, sabotage="corrupt")
    assert result["failed"] >= 1
    assert any("not served from the cache" in f for f in result["failures"])


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    manifest = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        manifest["command"] + ["--workload", "net_unified", "--seed", "1", "--seconds", "1",
                               "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
