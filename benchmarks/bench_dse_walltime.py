"""DSE wall clock — the columnar tiling kernel on the unified search.

Not a paper exhibit: this bench characterizes the DSE's one analytical
kernel (:func:`repro.dse.tuner.walk`) on the headline workload — the
unified multi-layer DSE over AlexNet's conv layers (Problem 2 of the
paper).  A serial leg runs the branch-and-bound in-process; a second leg
runs it through the process-pool fan-out.  The two are asserted equal
(bit-identity, not tolerance) before any timing is reported.
"""

import time

from _record import record_bench
from repro.model.platform import Platform
from repro.nn.models import alexnet
from repro.dse.explore import DseConfig
from repro.dse.multi_layer import prepare_network_nests, select_unified_design
from repro.dse.parallel import resolve_jobs
from repro.experiments.common import ExperimentResult


def run_dse_walltime() -> ExperimentResult:
    platform = Platform()
    workloads = prepare_network_nests(alexnet())
    config = DseConfig(min_dsp_utilization=0.8, top_n=14)
    workers = resolve_jobs(0)

    start = time.perf_counter()
    serial_result = select_unified_design(workloads, platform, config)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    pooled_result = select_unified_design(workloads, platform, config, jobs=workers)
    pooled_s = time.perf_counter() - start

    # Same winner, same aggregate GFlops, same visit/prune counters.
    assert pooled_result == serial_result

    # Rate is per enumerated candidate: pruning means only a fraction get
    # a full tune, but every candidate is scored for its upper bound.
    scored = serial_result.configs_enumerated
    result = ExperimentResult(
        name="DSE",
        description=f"unified AlexNet DSE ({len(workloads)} conv layers, "
        f"{scored} configs enumerated, {serial_result.configs_tuned} tuned)",
        headers=["leg", "wall s", "configs/s"],
    )
    result.add_row("serial", f"{serial_s:.2f}", f"{scored / serial_s:.0f}")
    result.add_row(f"pool ({workers} workers)", f"{pooled_s:.2f}", f"{scored / pooled_s:.0f}")
    result.metrics["serial_seconds"] = serial_s
    result.metrics["pool_seconds"] = pooled_s
    result.metrics["configs_per_s"] = scored / serial_s
    result.metrics["workers"] = float(workers)
    result.raw["wall_seconds"] = {"serial": serial_s, f"jobs{workers}": pooled_s}
    if workers == 1:
        result.note(
            "Single-CPU host: the pool leg exercises the fan-out code "
            "path but cannot show a pool speedup."
        )
    return result


def test_dse_walltime(exhibit):
    result = exhibit(run_dse_walltime)
    record_bench(result, "dse")
    assert result.metrics["configs_per_s"] > 0
