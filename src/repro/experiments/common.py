"""Shared experiment plumbing: results container and formatting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.flow.report import format_table


@dataclass
class ExperimentResult:
    """One regenerated exhibit.

    Attributes:
        name: exhibit id, e.g. ``"Table 1"``.
        description: what the exhibit shows.
        headers: column names of the rows.
        rows: data rows (mix of paper-reported and measured values; the
            convention is a leading column naming the row and a trailing
            ``source`` column of ``paper`` / ``ours``).
        notes: free-form commentary (deviations, calibration remarks).
        metrics: scalar summary values (e.g. mean model error) that the
            tests assert and the exhibit golden pins.
        raw: raw series a bench records next to its metrics
            (``benchmarks/_record.py`` writes it to ``BENCH_*.json``).
    """

    name: str
    description: str
    headers: Sequence[str]
    rows: list[Sequence[Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    raw: dict[str, Any] = field(default_factory=dict)

    def add_row(self, *cells: Any) -> None:
        """Append one data row."""
        self.rows.append(cells)

    def note(self, text: str) -> None:
        """Append a commentary note."""
        self.notes.append(text)

    def format(self) -> str:
        """Render the exhibit as text (table + notes + metrics)."""
        parts = [f"=== {self.name}: {self.description} ==="]
        parts.append(format_table(self.headers, self.rows))
        if self.metrics:
            parts.append("")
            for key, value in sorted(self.metrics.items()):
                parts.append(f"  {key}: {value:.4g}")
        for note in self.notes:
            parts.append(f"  note: {note}")
        return "\n".join(parts)


def relative_error(measured: float, reference: float) -> float:
    """|measured - reference| / |reference|."""
    if reference == 0:
        raise ValueError("reference value is zero")
    return abs(measured - reference) / abs(reference)


__all__ = ["ExperimentResult", "relative_error"]
