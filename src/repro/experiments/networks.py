"""Shared (memoized) unified-design runs for the network-level exhibits.

Tables 2–5 and Fig. 7 all consume the same two expensive computations —
the unified AlexNet and VGG designs — so they are computed once per
(network, datatype) pair and cached for the process lifetime.
On top of the in-process memo, runs go through the pipeline's persistent
content-addressed stage cache (:mod:`repro.pipeline.cache`), so repeated
experiment and benchmark invocations across processes skip the DSE
entirely (set ``$REPRO_SYSTOLIC_CACHE_DIR`` to relocate it).
"""

from __future__ import annotations

from repro.hw.datatype import FIXED_8_16, FLOAT32
from repro.model.platform import Platform
from repro.nn.models import network_by_name
from repro.dse.explore import DseConfig
from repro.dse.multi_layer import LayerWorkload, MultiLayerResult
from repro.flow.request import SynthesisRequest, run

_CACHE: dict[tuple[str, bool], tuple[MultiLayerResult, tuple[LayerWorkload, ...]]] = {}


def paper_dse_config() -> DseConfig:
    """The exploration settings of the paper's evaluation: c_s = 80%,
    SIMD vector 8 (both published designs use 8), top-14 finalists."""
    return DseConfig(min_dsp_utilization=0.8, vector_choices=(8,), top_n=14)


def unified_design(
    name: str, *, fixed_point: bool = False
) -> tuple[MultiLayerResult, tuple[LayerWorkload, ...]]:
    """Memoized unified-design DSE for one evaluation network.

    Args:
        name: a built-in model name ("alexnet", "vgg16", ...).
        fixed_point: use the 8/16-bit datatype instead of float32.

    Returns:
        (DSE result, prepared workloads).
    """
    key = (name, fixed_point)
    if key not in _CACHE:
        datatype = FIXED_8_16 if fixed_point else FLOAT32
        request = SynthesisRequest(
            Platform(datatype=datatype), paper_dse_config(), network=network_by_name(name)
        )
        _CACHE[key] = (run(request, cache=True), request.workloads)
    return _CACHE[key]


__all__ = ["network_by_name", "paper_dse_config", "unified_design"]
