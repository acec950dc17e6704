"""Section 4 — design-space pruning claims.

Eq. 12's c_s bound cuts the configuration space by >2x (paper: 160K ->
64K); power-of-two tiling pruning saves >10x on the tiling space (paper:
17.5x average); phase 1 finishes in well under a second, three orders
of magnitude faster than the unpruned walk priced by the same kernel
(paper: <30 s vs ~311 h).
"""

from repro.experiments.pruning import run_section4_pruning


def test_sec4_pruning(exhibit):
    result = exhibit(run_section4_pruning)
    assert result.metrics["config_reduction"] > 2.0
    assert result.metrics["tiling_reduction"] > 10.0
    assert result.metrics["phase1_seconds"] < 30.0
    assert result.metrics["speedup"] > 1000
