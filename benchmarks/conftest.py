"""Shared benchmark plumbing.

Every bench here measures an engine (DSE, pipeline, simulator,
service); the paper's exhibits and the ablations are ``python -m
repro.experiments`` and ``tests/experiments``.  Each times its driver once
(seconds-to-minutes computations, not microbenchmarks), prints the table
and archives the text under ``benchmarks/results/``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture
def exhibit(benchmark, request):
    """Run an experiment driver once under the benchmark timer, then print
    and archive its formatted output.

    Usage::

        def test_table1(exhibit):
            result = exhibit(run_table1_shape_impact)
    """

    def runner(fn, *args, **kwargs):
        result = benchmark.pedantic(
            fn, args=args, kwargs=kwargs, iterations=1, rounds=1
        )
        text = result.format()
        print()
        print(text)
        RESULTS_DIR.mkdir(exist_ok=True)
        slug = request.node.name.replace("/", "_")
        (RESULTS_DIR / f"{slug}.txt").write_text(text + "\n")
        return result

    return runner
