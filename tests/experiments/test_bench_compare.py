"""Unit tests for the noise-aware bench comparer (``benchmarks/compare.py``).

The comparer is deliberately stdlib-only and lives outside the package,
so it is loaded here by file path.  These tests pin the judgement calls
CI depends on: direction inference, the noise floor, environment
fingerprint gating, and the exit-code contract.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_COMPARE_PATH = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "compare.py"
)
_spec = importlib.util.spec_from_file_location("bench_compare", _COMPARE_PATH)
compare = importlib.util.module_from_spec(_spec)
# dataclasses resolves field types through sys.modules[cls.__module__],
# so the module must be registered before exec.
sys.modules["bench_compare"] = compare
_spec.loader.exec_module(compare)


def make_record(bench="dse", metrics=None, env=None):
    return {
        "schema_version": 1,
        "bench": bench,
        "environment": {
            "python": "3.11.7",
            "implementation": "CPython",
            "platform": "Linux-test",
            "machine": "x86_64",
            "cpu_count": 1,
            **(env or {}),
        },
        "metrics": metrics or {},
    }


def write(tmp_path, name, record):
    path = tmp_path / name
    path.write_text(json.dumps(record))
    return path


class TestDirectionInference:
    @pytest.mark.parametrize(
        "name", ["vector_seconds", "latency_ms", "p50_seconds", "p99_seconds"]
    )
    def test_lower_is_better(self, name):
        assert compare.metric_direction(name) == "lower"

    @pytest.mark.parametrize(
        "name",
        ["vector_speedup", "configs_per_s", "aggregate_gops", "coalesce_ratio"],
    )
    def test_higher_is_better(self, name):
        # configs_per_s also ends with "_s" — rates must win the tie.
        assert compare.metric_direction(name) == "higher"

    @pytest.mark.parametrize("name", ["workers", "executions", "configs"])
    def test_counters_are_informational(self, name):
        assert compare.metric_direction(name) == "info"


class TestCompareRecords:
    def test_within_tolerance_is_ok(self):
        base = make_record(metrics={"run_seconds": 1.0})
        fresh = make_record(metrics={"run_seconds": 1.2})
        (verdict,) = compare.compare_records(base, fresh)
        assert verdict.status == "ok"

    def test_slowdown_beyond_tolerance_regresses(self):
        base = make_record(metrics={"run_seconds": 1.0})
        fresh = make_record(metrics={"run_seconds": 1.3})
        (verdict,) = compare.compare_records(base, fresh)
        assert verdict.status == "regressed"

    def test_throughput_drop_regresses_speedup_gain_does_not(self):
        base = make_record(metrics={"vector_speedup": 12.0})
        down = make_record(metrics={"vector_speedup": 6.0})
        up = make_record(metrics={"vector_speedup": 24.0})
        assert compare.compare_records(base, down)[0].status == "regressed"
        assert compare.compare_records(base, up)[0].status == "ok"

    def test_noise_floor_skips_tiny_timings(self):
        base = make_record(metrics={"warm_seconds": 0.004})
        fresh = make_record(metrics={"warm_seconds": 0.019})  # ~5x "slower"
        (verdict,) = compare.compare_records(base, fresh)
        assert verdict.status == "skipped"

    def test_missing_fresh_metric_is_skipped_not_fatal(self):
        base = make_record(metrics={"parallel_speedup": 2.0})
        fresh = make_record(metrics={})
        (verdict,) = compare.compare_records(base, fresh)
        assert verdict.status == "skipped"

    def test_custom_tolerance(self):
        base = make_record(metrics={"run_seconds": 1.0})
        fresh = make_record(metrics={"run_seconds": 1.4})
        (verdict,) = compare.compare_records(base, fresh, tolerance=0.5)
        assert verdict.status == "ok"


class TestPerMetricThresholds:
    """Noise-aware per-class thresholds (ROADMAP item 6): a deterministic
    ratio is judged far tighter than a raw wall-clock timing."""

    @pytest.mark.parametrize(
        ("name", "klass"),
        [
            ("coalesce_ratio", "ratio"),
            ("vector_speedup", "speedup"),
            ("configs_per_s", "rate"),
            ("aggregate_gops", "rate"),
            ("run_seconds", "timing"),
            ("p99_seconds", "timing"),
            ("workers", None),
        ],
    )
    def test_metric_class(self, name, klass):
        assert compare.metric_class(name) == klass

    def test_ratio_threshold_is_tight(self):
        base = make_record(metrics={"coalesce_ratio": 0.80})
        fresh = make_record(metrics={"coalesce_ratio": 0.70})  # -12.5%
        (verdict,) = compare.compare_records(base, fresh)
        assert verdict.status == "regressed"
        within = make_record(metrics={"coalesce_ratio": 0.78})  # -2.5%
        (verdict,) = compare.compare_records(base, within)
        assert verdict.status == "ok"

    def test_rate_threshold_is_looser_than_speedup(self):
        rate, speedup = compare.metric_tolerance("jobs_per_s", 100.0), compare.metric_tolerance("dse_speedup", 4.0)
        assert rate[0] > speedup[0]
        # -25% throughput is inside the rate band but outside the speedup band
        base = make_record(metrics={"jobs_per_s": 100.0, "dse_speedup": 4.0})
        fresh = make_record(metrics={"jobs_per_s": 75.0, "dse_speedup": 3.0})
        by_name = {v.metric: v.status for v in compare.compare_records(base, fresh)}
        assert by_name == {"jobs_per_s": "ok", "dse_speedup": "regressed"}

    def test_small_timings_get_extra_slack(self):
        tight, _ = compare.metric_tolerance("run_seconds", 10.0)
        loose, why = compare.metric_tolerance("run_seconds", 0.1)
        assert loose > tight
        assert "slack" in why
        base = make_record(metrics={"warm_seconds": 0.10})
        fresh = make_record(metrics={"warm_seconds": 0.14})  # +40%: jitter range
        (verdict,) = compare.compare_records(base, fresh)
        assert verdict.status == "ok"

    def test_flat_override_beats_the_class_table(self):
        base = make_record(metrics={"coalesce_ratio": 0.80})
        fresh = make_record(metrics={"coalesce_ratio": 0.70})
        (verdict,) = compare.compare_records(base, fresh, tolerance=0.25)
        assert verdict.status == "ok"
        assert "flat override" in verdict.detail

    def test_verdict_detail_names_the_class(self):
        base = make_record(metrics={"run_seconds": 1.0})
        fresh = make_record(metrics={"run_seconds": 1.1})
        (verdict,) = compare.compare_records(base, fresh)
        assert "timing" in verdict.detail


class TestFingerprintGate:
    def test_identical_environments_compare(self):
        assert compare.fingerprints_match(make_record(), make_record()) == []

    def test_cpu_count_mismatch_blocks(self):
        fresh = make_record(env={"cpu_count": 64})
        assert compare.fingerprints_match(make_record(), fresh) == ["cpu_count"]

    def test_platform_string_alone_does_not_block(self):
        # Kernel build strings churn on every runner image; only the keys
        # that change the numbers gate the comparison.
        fresh = make_record()
        fresh["environment"]["platform"] = "Linux-other"
        assert compare.fingerprints_match(make_record(), fresh) == []


class TestCliExitCodes:
    def test_clean_compare_exits_zero(self, tmp_path, capsys):
        base = write(tmp_path, "BENCH_dse.json", make_record(metrics={"t_seconds": 1.0}))
        fresh = write(tmp_path, "fresh.json", make_record(metrics={"t_seconds": 1.1}))
        assert compare.main(["--baseline", str(base), str(fresh)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_regression_exits_one(self, tmp_path, capsys):
        baseline_dir = tmp_path / "base"
        baseline_dir.mkdir()
        write(baseline_dir, "BENCH_dse.json", make_record(metrics={"t_seconds": 1.0}))
        fresh = write(tmp_path, "fresh.json", make_record(metrics={"t_seconds": 9.0}))
        assert compare.main(["--baseline", str(baseline_dir), str(fresh)]) == 1
        assert "regressed" in capsys.readouterr().out

    def test_environment_mismatch_warns_and_exits_zero(self, tmp_path, capsys):
        base = write(tmp_path, "BENCH_dse.json", make_record(metrics={"t_seconds": 1.0}))
        fresh = write(
            tmp_path,
            "fresh.json",
            make_record(metrics={"t_seconds": 9.0}, env={"cpu_count": 64}),
        )
        assert compare.main(["--baseline", str(base), str(fresh)]) == 0
        assert "not comparable" in capsys.readouterr().out

    def test_unknown_bench_skipped(self, tmp_path, capsys):
        base = write(tmp_path, "BENCH_dse.json", make_record())
        fresh = write(tmp_path, "fresh.json", make_record(bench="other"))
        assert compare.main(["--baseline", str(base), str(fresh)]) == 0
        assert "no baseline" in capsys.readouterr().out

    def test_unreadable_baseline_exits_two(self, tmp_path, capsys):
        fresh = write(tmp_path, "fresh.json", make_record())
        missing = tmp_path / "nope.json"
        assert compare.main(["--baseline", str(missing), str(fresh)]) == 2

    def test_malformed_record_exits_two(self, tmp_path):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text(json.dumps({"bench": "x"}))  # no metrics/environment
        fresh = write(tmp_path, "fresh.json", make_record())
        assert compare.main(["--baseline", str(bad), str(fresh)]) == 2
