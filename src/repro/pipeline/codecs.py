"""JSON codecs for DSE stage results (cache payloads).

:mod:`repro.model.serialize` owns the record codec and the value-level
records (designs, evaluations, measurements); this module declares the
stage-level payloads the cache stores over them: phase-1/phase-2
exploration results and the unified multi-layer result.  Decoders raise
:class:`ValueError` on any malformed or version-mismatched payload so the
engine degrades a bad entry to a cache miss.
"""

from repro.model.serialize import EVALUATION, MAPPING, SHAPE, Leaf, Record, sequence
from repro.dse.explore import Phase1Result, Phase2Result
from repro.dse.multi_layer import LayerPerformance, MultiLayerResult
from repro.dse.space import SystolicConfig

PHASE1_FORMAT = "repro-phase1/1"
PHASE2_FORMAT = "repro-phase2/1"
UNIFIED_FORMAT = "repro-unified/1"

_FINALISTS = sequence(EVALUATION)

PHASE1 = Record(
    Phase1Result,
    "phase-1",
    PHASE1_FORMAT,
    where="stage cache, `dse-phase1` entries",
    codecs={"finalists": _FINALISTS},
)
PHASE2 = Record(
    Phase2Result,
    "phase-2",
    PHASE2_FORMAT,
    where="stage cache, `dse-phase2` entries",
    codecs={"best": EVALUATION, "finalists": _FINALISTS, "estimated_gops": Leaf(list, tuple)},
)
UNIFIED = Record(
    MultiLayerResult,
    "unified",
    UNIFIED_FORMAT,
    where="stage cache, inside `unified-dse` entries; `GET /v1/jobs/{id}?result=1` of a network job",
    codecs={
        "config": Record(SystolicConfig, "config", codecs={"mapping": MAPPING, "shape": SHAPE}),
        "layers": sequence(Record(LayerPerformance, "layer")),
    },
)

encode_phase1, decode_phase1 = PHASE1.encode, PHASE1.decode
encode_phase2, decode_phase2 = PHASE2.encode, PHASE2.decode
encode_unified, decode_unified = UNIFIED.encode, UNIFIED.decode

__all__ = [
    "PHASE1_FORMAT",
    "PHASE2_FORMAT",
    "UNIFIED_FORMAT",
    "decode_phase1",
    "decode_phase2",
    "decode_unified",
    "encode_phase1",
    "encode_phase2",
    "encode_unified",
]
