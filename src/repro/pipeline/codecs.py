"""JSON codecs for DSE stage results (cache payloads).

:mod:`repro.model.serialize` owns the record codec and the value-level
records (designs, evaluations, measurements); this module declares the
stage-level payloads the cache stores over them: the phase-1 result, the
phase-2 winner and the unified multi-layer result.  Decoders raise
:class:`ValueError` on any malformed or version-mismatched payload so the
engine degrades a bad entry to a cache miss.

A phase entry writes its designs' one nest once, as ``"nest"``, and each
design without it.  Given the compile's own nest, the phase decoders put
every design on that very object, after one check that the stored nest
equals it.
"""

from dataclasses import dataclass
from typing import Any

from repro.ir.loop import LoopNest
from repro.model.design_point import DesignEvaluation
from repro.model.serialize import MAPPING, SHAPE, Leaf, Record, evaluation_on, sequence
from repro.model.serialize import nest_from_dict, nest_to_dict
from repro.dse.explore import Phase1Result
from repro.dse.multi_layer import LayerPerformance, MultiLayerResult
from repro.dse.space import SystolicConfig

PHASE1_FORMAT = "repro-phase1/2"
PHASE2_FORMAT = "repro-phase2/2"
UNIFIED_FORMAT = "repro-unified/1"


@dataclass(frozen=True)
class Phase2Entry:
    """What a ``dse-phase2`` entry holds: the winner alone.  The
    re-clocked finalists of :class:`~repro.dse.explore.Phase2Result` are
    for :func:`~repro.dse.explore.explore` and Fig. 7(b), not the flow."""

    best: DesignEvaluation


_WITHOUT_NEST = evaluation_on(None)  # encodes every field of a design but its nest


def _on_one_nest(key: str, nest: LoopNest | None = None) -> Leaf:
    """Spread codec of the evaluations under ``key`` (a tuple; one for
    ``best``): their nest once as ``"nest"`` (null when there are none,
    and then not read), then each without it.  They decode onto
    ``nest``, which the stored nest must equal, or without one onto the
    stored nest."""
    many = key != "best"

    def encode(value: Any) -> dict[str, Any]:
        values = value if many else (value,)
        stored = nest_to_dict(values[0].design.nest) if values else None
        written = [_WITHOUT_NEST.encode(v) for v in values]
        return {"nest": stored, key: written if many else written[0]}

    def decode(data: dict[str, Any]) -> Any:
        written = data[key] if many else [data[key]]
        if written == []:
            return ()
        stored = nest_from_dict(data["nest"])
        if nest is not None and stored != nest:
            raise ValueError("cached designs are not on this nest")
        values = tuple(map(evaluation_on(stored if nest is None else nest).decode, written))
        return values if many else values[0]

    return Leaf(encode, decode)


PHASE1 = Record(
    Phase1Result,
    "phase-1",
    PHASE1_FORMAT,
    where="stage cache, `dse-phase1` entries",
    keys={"finalists": None},
    codecs={"finalists": _on_one_nest("finalists")},
)
PHASE2 = Record(
    Phase2Entry,
    "phase-2",
    PHASE2_FORMAT,
    where="stage cache, `dse-phase2` entries",
    keys={"best": None},
    codecs={"best": _on_one_nest("best")},
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

encode_phase1, encode_phase2 = PHASE1.encode, PHASE2.encode
encode_unified, decode_unified = UNIFIED.encode, UNIFIED.decode


def decode_phase1(payload: Any, nest: LoopNest | None = None) -> Phase1Result:
    """A ``dse-phase1`` entry, its finalists on ``nest`` when given."""
    return PHASE1.decode(payload, {"finalists": _on_one_nest("finalists", nest)})


def decode_phase2(payload: Any, nest: LoopNest | None = None) -> Phase2Entry:
    """A ``dse-phase2`` entry, its winner on ``nest`` when given."""
    return PHASE2.decode(payload, {"best": _on_one_nest("best", nest)})


__all__ = [
    "PHASE1_FORMAT",
    "PHASE2_FORMAT",
    "UNIFIED_FORMAT",
    "Phase2Entry",
    "decode_phase1",
    "decode_phase2",
    "decode_unified",
    "encode_phase1",
    "encode_phase2",
    "encode_unified",
]
