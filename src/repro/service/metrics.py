"""Service observability: counters and latency histograms, rendered in
Prometheus text exposition format.

The synthesis daemon is meant to sit behind a scraper, so everything the
job manager counts — submissions, coalesce hits, rejections, per-stage
wall time — lands here and comes back out of ``GET /metrics`` as plain
``text/plain; version=0.0.4`` samples.  Counters carry optional labels;
histograms use a fixed bucket ladder wide enough to cover both a warm
cache hit (~10 ms) and a cold VGG-scale DSE (tens of seconds).  All
methods are thread-safe: worker threads observe while HTTP threads
render.
"""

from __future__ import annotations

import bisect
import math
import threading

PREFIX = "repro_service"

#: Upper bounds (seconds) of the stage-latency histogram buckets.
LATENCY_BUCKETS: tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

Labels = tuple[tuple[str, str], ...]


def _labels(kwargs: dict[str, str]) -> Labels:
    return tuple(sorted((str(k), str(v)) for k, v in kwargs.items()))


def _render_labels(labels: Labels) -> str:
    if not labels:
        return ""
    body = ",".join(f'{name}="{value}"' for name, value in labels)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class LatencyHistogram:
    """One Prometheus histogram: bucket counts, sum and count."""

    def __init__(self, buckets: tuple[float, ...] = LATENCY_BUCKETS) -> None:
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # +1 for +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1  # the first bound >= value
        self.sum += value
        self.count += 1


class ServiceMetrics:
    """Thread-safe counter/histogram registry with a Prometheus renderer.

    Counters are created on first increment; histograms are keyed by
    pipeline stage name.  Gauges are not stored — they are instantaneous
    reads of the job manager (queue depth, in-flight count) handed to
    :meth:`render` at scrape time.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, Labels], float] = {}
        self._histograms: dict[str, LatencyHistogram] = {}

    def inc(self, name: str, amount: float = 1.0, **labels: str) -> None:
        key = (name, _labels(labels))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + amount

    def counter(self, name: str, **labels: str) -> float:
        with self._lock:
            return self._counters.get((name, _labels(labels)), 0.0)

    def counter_sum(self, name: str) -> float:
        """Total of a counter across every label set (fleet rollups)."""
        with self._lock:
            return sum(
                value for (key, _), value in self._counters.items() if key == name
            )

    def observe_stage(self, stage: str, seconds: float) -> None:
        with self._lock:
            histogram = self._histograms.get(stage)
            if histogram is None:
                histogram = self._histograms[stage] = LatencyHistogram()
            histogram.observe(seconds)

    def render(self, gauges: dict[str, float] | None = None) -> str:
        """The full ``/metrics`` page: gauges, counters, histograms."""
        lines: list[str] = []
        for name, value in sorted((gauges or {}).items()):
            metric = f"{PREFIX}_{name}"
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_format_value(value)}")
        with self._lock:
            by_name: dict[str, list[tuple[Labels, float]]] = {}
            for (name, labels), value in self._counters.items():
                by_name.setdefault(name, []).append((labels, value))
            for name in sorted(by_name):
                metric = f"{PREFIX}_{name}"
                lines.append(f"# TYPE {metric} counter")
                for labels, value in sorted(by_name[name]):
                    lines.append(
                        f"{metric}{_render_labels(labels)} {_format_value(value)}"
                    )
            if self._histograms:
                metric = f"{PREFIX}_stage_seconds"
                lines.append(f"# TYPE {metric} histogram")
                for stage in sorted(self._histograms):
                    histogram = self._histograms[stage]
                    cumulative = 0
                    for bound, bucket in zip(
                        histogram.buckets + (math.inf,), histogram.counts
                    ):
                        cumulative += bucket
                        labels = _render_labels(
                            (("le", _format_value(bound)), ("stage", stage))
                        )
                        lines.append(f"{metric}_bucket{labels} {cumulative}")
                    labels = _render_labels((("stage", stage),))
                    lines.append(f"{metric}_sum{labels} {repr(histogram.sum)}")
                    lines.append(f"{metric}_count{labels} {histogram.count}")
        return "\n".join(lines) + "\n"


__all__ = [
    "LATENCY_BUCKETS",
    "LatencyHistogram",
    "PREFIX",
    "ServiceMetrics",
]
