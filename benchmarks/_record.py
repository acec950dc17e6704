"""Machine-readable bench records (``BENCH_*.json`` at the repo root).

The engine-characterization benches (DSE wall time, pipeline parallel,
service throughput, fast simulator, cluster scaling) dump their metrics
to a stable JSON file next to ``pyproject.toml`` so ``benchmarks/compare.py``
can diff runs with noise-aware thresholds.  The paper's exhibits are not
recorded here: their numbers are pinned by
``tests/experiments/golden/exhibits.json``.  Each record
carries an environment fingerprint — comparing numbers from different
machines or interpreter versions is noise, and the fingerprint is what
lets the comparer refuse to.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

from repro.experiments.common import ExperimentResult

REPO_ROOT = Path(__file__).resolve().parent.parent

SCHEMA_VERSION = 1


def environment_fingerprint() -> dict[str, object]:
    """What produced the numbers: interpreter, OS, and core count."""
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def record_bench(result: ExperimentResult, bench: str) -> Path:
    """Write ``BENCH_<bench>.json`` at the repo root and return its path.

    The payload is everything a regression comparer needs — the scalar
    ``metrics`` dict, the bench's ``raw`` series (e.g. per-arm wall
    seconds), and the environment fingerprint —
    and nothing presentation-shaped (the formatted table already lands
    in ``benchmarks/results/``).
    """
    payload = {
        "schema_version": SCHEMA_VERSION,
        "bench": bench,
        "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "environment": environment_fingerprint(),
        "name": result.name,
        "description": result.description,
        "metrics": dict(sorted(result.metrics.items())),
        "raw": result.raw,
        "notes": list(result.notes),
    }
    path = REPO_ROOT / f"BENCH_{bench}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    return path
