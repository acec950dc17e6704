"""Every number the paper's exhibits print, pinned by one golden.

Each driver of ``python -m repro.experiments`` runs once per session at
full scale (the ``exhibits`` fixture); its ``metrics`` and ``rows`` must
equal ``golden/exhibits.json`` exactly.  A model change that moves a
paper number is therefore one reviewable diff of that file::

    pytest tests/experiments/test_exhibits_golden.py --refresh-golden

The paper's own claims (``test_experiments.py``) must still hold after a
refresh; they are what the golden may not drift across.
"""

import json
import re
from pathlib import Path

import pytest

REPO = Path(__file__).parents[2]
GOLDEN = Path(__file__).parent / "golden" / "exhibits.json"

# Wall-clock readings differ between any two runs: (metrics, row labels).
WALL_CLOCK = {
    "Section 4": (
        {"phase1_seconds", "brute_force_hours", "speedup"},
        {"phase-1 time", "brute-force estimate", "speedup"},
    ),
}

# Fig. 3's error against the NumPy golden conv depends on that conv's
# summation order (~6e-15 today); the claim it backs is < 1e-9.
TOLERANCE = {("Figure 3", "max_error"): 1e-12}


def golden_entry(label, result):
    """The pinned part of one exhibit, as JSON reads it back."""
    metrics, rows = WALL_CLOCK.get(label, ((), ()))
    return json.loads(json.dumps({
        "metrics": {k: v for k, v in sorted(result.metrics.items()) if k not in metrics},
        "rows": [list(row) for row in result.rows if row[0] not in rows],
    }))


def dump(entries):
    """One metric or row per line, so a model change diffs number by number."""
    blocks = []
    for label, entry in entries.items():
        metrics = ",\n".join(f"   {json.dumps(k)}: {json.dumps(v)}" for k, v in entry["metrics"].items())
        rows = ",\n".join(f"   {json.dumps(row)}" for row in entry["rows"])
        blocks.append(
            f' {json.dumps(label)}: {{\n  "metrics": {{\n{metrics}\n  }},\n'
            f'  "rows": [\n{rows}\n  ]\n }}'
        )
    return "{\n" + ",\n".join(blocks) + "\n}\n"


@pytest.fixture(scope="module")
def golden(request, exhibits):
    if request.config.getoption("--refresh-golden"):
        GOLDEN.write_text(dump({label: golden_entry(label, r) for label, r in exhibits.items()}))
    return json.loads(GOLDEN.read_text())


def test_every_exhibit_matches_the_golden(exhibits, golden):
    assert list(exhibits) == list(golden)
    for label, result in exhibits.items():
        current, pinned = golden_entry(label, result), golden[label]
        assert current["rows"] == pinned["rows"], label
        assert current["metrics"].keys() == pinned["metrics"].keys(), label
        for key, value in pinned["metrics"].items():
            tolerance = TOLERANCE.get((label, key), 0)
            assert current["metrics"][key] == pytest.approx(value, rel=0, abs=tolerance), (
                f"{label}: {key}"
            )


# (exhibit, golden key, format): each value as EXPERIMENTS.md prints it
# must appear in that exhibit's section, so the prose cannot drift from
# the golden unnoticed.  A key is a metric name or a (row, column) cell.
PRINTED = [
    ("Table 1", "sys1_peak_gflops", "**{:.1f}**"),
    ("Table 1", "sys2_eff", "**{:.2%}**"),
    ("Section 2.3", "good_bw_demand_gbs", "**{:.1f} GB/s**"),
    ("Section 2.3", "bad_bw_demand_gbs", "**{:.1f} GB/s**"),
    ("Section 2.3", "bad_pt_gflops", "**{:.1f} GFlops**"),
    ("Section 2.3", "bad_throughput_gflops", "T = {:.1f}"),
    ("Figure 3", "max_error", "to {:.1e}"),
    ("Section 4", (0, 2), "| {} |"),
    ("Section 4", (1, 2), "| {} ("),
    ("Section 4", "config_reduction", "**{:.1f}×**"),
    ("Section 4", "tiling_reduction", "**{:.1f}×**"),
    ("Figure 7(a)", "points", "{:.0f} sampled"),
    ("Figure 7(a)", "best_gflops", "({:.0f} GFlops)"),
    ("Figure 7(a)", "best_dsp_utilization", "at {:.0%} DSP"),
    ("Figure 7(a)", "knee_bram_utilization", "~{:.0%} BRAM"),
    ("Figure 7(b)", "top_estimate_ties", "**{:.0f}** designs"),
    ("Figure 7(b)", (0, 2), "({} GFlops)"),
    ("Figure 7(b)", "mean_model_error", "**{:.2%}**"),
    ("Figure 7(b)", "max_model_error", "max {:.2%}"),
    ("Table 3", (1, 1), "| {} |"),
    ("Table 3", (1, 2), "| {} |"),
    ("Table 3", (3, 1), "| {} |"),
    ("Table 3", (3, 2), "| {} |"),
    ("Table 4", (0, 3), "| {} /"),
    ("Table 4", (5, 3), "| {} /"),
    ("Table 5", (0, 3), "| {} /"),
    ("Table 5", (13, 3), "| {} |"),
    ("Table 2", "ours_alexnet_float_latency_ms", "**{:.2f} / "),
    ("Table 2", "ours_alexnet_float_gops", " / {:.1f}**"),
    ("Table 2", "ours_vgg_float_latency_ms", "**{:.2f} / "),
    ("Table 2", "ours_vgg_float_gops", " / {:.1f}**"),
    ("Table 2", "ours_vgg_fixed_latency_ms", "**{:.2f} / "),
    ("Table 2", "ours_vgg_fixed_gops", " / {:.1f}**"),
    ("Table 2", "ours_vgg_fixed_freq", "({:.1f} MHz)"),
]


def test_experiments_md_prints_the_golden_numbers(golden):
    text = (REPO / "EXPERIMENTS.md").read_text()
    sections = dict(re.findall(r"^## ([^\n]+?) — [^\n]*\n(.*?)(?=^## |\Z)", text, re.M | re.S))
    for label, key, spec in PRINTED:
        entry = golden[label]
        value = entry["metrics"][key] if isinstance(key, str) else entry["rows"][key[0]][key[1]]
        assert spec.format(value) in sections[label], f"{label}: {key} should read {spec.format(value)!r}"
