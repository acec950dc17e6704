"""Plain-text reporting helpers shared by the CLI, examples and benches."""

from __future__ import annotations

from typing import Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str | None = None,
) -> str:
    """Render an aligned ASCII table.

    Args:
        headers: column headers.
        rows: cell values (stringified).
        title: optional heading printed above the table.
    """
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for idx, cell in enumerate(row):
            widths[idx] = max(widths[idx], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def render_synthesis_report(result) -> str:
    """Human-readable summary of a :class:`~repro.flow.compile.SynthesisResult`."""
    ev = result.evaluation
    design = ev.design
    perf = result.measurement
    lines = [
        "Systolic Array Synthesis Report",
        "=" * 40,
        f"nest:        {design.nest.name}",
        f"mapping:     row={design.mapping.row}  col={design.mapping.col}  "
        f"vec={design.mapping.vector}",
        f"PE array:    {design.shape} = {design.shape.lanes} MAC lanes",
        f"tiling (s):  {design.middle_bounds}",
        f"clock:       {result.frequency_mhz:.1f} MHz (realized)",
        "",
        f"DSP:         {ev.dsp_blocks:.0f} blocks ({ev.dsp_utilization:.0%})",
        f"BRAM:        {ev.bram.total} blocks ({ev.bram_utilization:.0%})",
        f"logic:       ~{ev.logic_cells:.0f} cells",
        "",
        f"estimated:   {ev.throughput_gops:.1f} Gops (analytical model)",
        f"simulated:   {perf.throughput_gops:.1f} Gops ({perf.bound}-bound, "
        f"{perf.blocks} blocks)",
        f"latency:     {perf.seconds * 1e3:.3f} ms / invocation",
        "",
        f"DSE: {result.configs_tuned}/{result.configs_enumerated} configs tuned "
        f"in {result.dse_seconds:.2f} s",
    ]
    engine_result = getattr(result, "engine_result", None)
    if engine_result is not None:
        lines += [
            "",
            f"wavefront sim: {engine_result.compute_cycles} compute cycles "
            f"({engine_result.waves} waves over {engine_result.blocks} blocks, "
            f"{engine_result.pe_active_cycles} PE-active cycles)",
        ]
    conformance = getattr(result, "conformance", None)
    if conformance is not None:
        lines += ["", conformance.render()]
    degradations = getattr(result, "degradations", ())
    if degradations:
        lines.append("")
        lines.append("degradations survived (see docs/resilience.md):")
        for code, reason in degradations:
            lines.append(f"  [{code}] {reason}")
    stage_seconds = getattr(result, "stage_seconds", ())
    if stage_seconds:
        cached = set(getattr(result, "cache_hits", ()))
        lines.append("")
        lines.append("pipeline stages:")
        for stage, seconds in stage_seconds:
            origin = "  (cached)" if stage in cached else ""
            lines.append(f"  {stage:<15} {seconds:8.3f} s{origin}")
    return "\n".join(lines)


def render_network_report(name: str, synthesis) -> str:
    """Human-readable summary of a :class:`~repro.flow.compile.NetworkSynthesis`
    for the network called ``name``."""
    result = synthesis.result
    rows = [
        (l.name, f"{l.throughput_gops:.1f}", f"{l.dsp_efficiency:.1%}",
         f"{l.seconds * 1e3:.3f}", l.bound)
        for l in result.layers
    ]
    return "\n".join(
        [
            f"unified design for {name}: shape {result.config.shape} "
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


__all__ = ["format_table", "render_network_report", "render_synthesis_report"]
