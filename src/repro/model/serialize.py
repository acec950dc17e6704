"""Design persistence: JSON round-trips for design points, evaluations
and full synthesis results.

DSE runs are deterministic but not free; users want to pin a winning
design in version control and regenerate artifacts from it without
re-searching, and the pipeline's content-addressed stage cache
(:mod:`repro.pipeline.cache`) needs every stage output to survive a
round trip bit-for-bit (JSON floats round-trip exactly through
``repr``).  The design format is plain JSON with a schema version:

.. code-block:: json

    {
      "format": "repro-design/1",
      "nest": {"name": "...", "loops": [["o", 128], ...],
               "accesses": [{"array": "OUT", "write": true,
                              "indices": [[["o", 1]], ...], "consts": [0, ...]}]},
      "mapping": {"row": "o", "col": "c", "vector": "i",
                   "vertical": "IN", "horizontal": "W"},
      "shape": [11, 13, 8],
      "middle": {"i": 4, "o": 4}
    }

Everything needed to rebuild the :class:`~repro.model.design_point.DesignPoint`
is embedded (including the nest), so a saved design is self-contained.

Every two-way payload is a :class:`Record`: one codec that walks
``dataclasses.fields`` of the record's class, plus a declaration that
says only what the dataclass cannot — the format tag, renamed keys,
nested codecs, fields left out.  The ``*_to_dict`` / ``*_from_dict``
names below (and ``encode_*`` / ``decode_*`` in
:mod:`repro.pipeline.codecs`) are bindings of those records; every
decoder raises :class:`ValueError`, and nothing else, on a payload that
is not a JSON object, carries another format tag or is malformed.
"""

from __future__ import annotations

import json
import marshal
import pkgutil
from dataclasses import KW_ONLY, dataclass, field, fields
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Any, Callable, Mapping as MappingT, NamedTuple

import numpy as np

from repro.ir.access import AffineExpr, ArrayAccess
from repro.ir.loop import Loop, LoopNest
from repro.model.design_point import ArrayShape, DesignEvaluation, DesignPoint
from repro.model.mapping import Mapping
from repro.model.performance import PerformanceEstimate
from repro.model.resources import BramBreakdown


# ------------------------------------------------------ the record codec


class Leaf(NamedTuple):
    """A value that is not a record: how it is written and read back."""

    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any]


_KINDS = {"int": (int,), "float": (int, float), "str": (str,), "bool": (bool,)}


def _fits(annotation: str) -> Callable[[Any], bool]:
    """The test that a value is JSON data of the annotated type.

    ``int``, ``float`` (ints too), ``str`` and ``bool`` match by exact
    type, so ``true`` is no int; ``X | None`` also admits None, and
    ``dict[str, X]`` tests every value.  Any other annotation admits all.
    """
    kinds = _KINDS.get(annotation.removeprefix("dict[str, ").removesuffix("]").split(" |")[0])
    if kinds is None:
        return lambda value: True
    if annotation.startswith("dict[str, "):
        return lambda value: type(value) is dict and all(type(v) in kinds for v in value.values())
    if annotation.endswith(" | None"):
        return lambda value: value is None or type(value) in kinds
    return lambda value: type(value) in kinds


def plain(annotation: Any) -> Leaf:
    """The default codec: the field's value *is* its JSON form, held on
    decode to the field's annotation (a string under postponed
    annotations; a TypeError where the value does not fit)."""
    fits = _fits(str(annotation))

    def decode(data: Any) -> Any:
        if not fits(data):
            raise TypeError(f"{data!r} is not {annotation}")
        return data

    return Leaf(lambda value: value, decode)


_INT = plain("int").decode


def sequence(codec: "Leaf | Record") -> Leaf:
    """A tuple of ``codec`` values, written as a JSON list."""
    return Leaf(lambda vs: list(map(codec.encode, vs)), lambda data: tuple(map(codec.decode, data)))


RECORDS: dict[str, "Record"] = {}
"""Every format-tagged payload of the flow, by tag (the records of
:mod:`repro.pipeline.codecs` join when that module is imported)."""


@dataclass(eq=False)
class Record:
    """The two-way JSON codec of one dataclass.

    A field is written under its own name with its value as is, in
    dataclass order after the ``"format"`` tag, and read back only when
    it fits the field's annotation (see :func:`plain`); the declaration
    lists the exceptions.

    Attributes:
        of: the dataclass — or ``"module:Class"``, imported on first
            use, for a class of a layer above this one.
        label: what error messages call the payload.
        tag: the ``"format"`` value written first and required on
            decode; a tagged record joins :data:`RECORDS`.
        where: where the payload is stored or sent (documentation).
        keys: field -> JSON key where it is not the field's name.  A
            field keyed ``None`` is *spread*: its codec writes a dict of
            several keys into the payload and reads the whole payload.
        codecs: field -> :class:`Leaf` or nested :class:`Record`.
        omit: fields that are neither written nor read.
        optional: fields written — after all the others — only when not
            None.
        absent: field -> the value a payload without the key decodes
            to.  (A field with a dataclass default needs no entry: its
            default applies.  Any other missing key is malformed.)
    """

    of: type | str
    label: str
    tag: str | None = None
    _: KW_ONLY
    where: str = ""
    keys: MappingT[str, str | None] = field(default_factory=dict)
    codecs: MappingT[str, "Leaf | Record"] = field(default_factory=dict)
    omit: tuple[str, ...] = ()
    optional: tuple[str, ...] = ()
    absent: MappingT[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.tag is not None:
            RECORDS[self.tag] = self

    @cached_property
    def cls(self) -> type:
        """The record's dataclass."""
        return pkgutil.resolve_name(self.of) if isinstance(self.of, str) else self.of

    @cached_property
    def _plan(self) -> list[tuple[str, str | None, "Leaf | Record"]]:
        """(field, key, codec) per written field, optional ones last."""
        kept = [f for f in fields(self.cls) if f.name not in self.omit]
        kept.sort(key=lambda f: f.name in self.optional)
        return [(f.name, self.keys.get(f.name, f.name), self.codecs.get(f.name) or plain(f.type))
                for f in kept]

    def encode(self, value: Any) -> dict[str, Any]:
        """The record as plain JSON-able data."""
        data: dict[str, Any] = {} if self.tag is None else {"format": self.tag}
        for name, key, codec in self._plan:
            item = getattr(value, name)
            if item is None and name in self.optional:
                continue
            if key is None:
                data.update(codec.encode(item))
            else:
                data[key] = codec.encode(item)
        return data

    def decode(self, data: Any, codecs: MappingT[str, "Leaf | Record"] | None = None) -> Any:
        """Rebuild the record from :meth:`encode` data; ``codecs`` (field
        -> codec) read some fields on this call only, in place of the
        declared ones.

        Raises:
            ValueError: ``data`` is not a JSON object, carries another
                format tag, or is malformed.
        """
        if not isinstance(data, dict):
            kind = type(data).__name__
            raise ValueError(f"malformed {self.label} payload: {kind}, not a JSON object")
        if self.tag is not None and data.get("format") != self.tag:
            raise ValueError(
                f"unsupported {self.label} format {data.get('format')!r} (expected {self.tag!r})"
            )
        plan = self._plan
        if codecs is not None:
            plan = [(name, key, codecs.get(name, codec)) for name, key, codec in plan]
        try:
            values = {}
            for name, key, codec in plan:
                if key is None:
                    values[name] = codec.decode(data)
                elif key in data:
                    values[name] = codec.decode(data[key])
                elif name in self.absent:
                    values[name] = self.absent[name]
            return self.cls(**values)
        # AttributeError: a value of the wrong type that got as far as a
        # dataclass's own validation (``Loop`` asks ``name.isidentifier()``).
        # OverflowError: JSON's ``Infinity`` where an int belongs.
        except (KeyError, TypeError, AttributeError, OverflowError) as exc:
            raise ValueError(f"malformed {self.label} payload: {exc}") from exc


def record_of(value: Any) -> Record:
    """The tagged record declared for ``value``'s type (KeyError: none)."""
    return {record.cls: record for record in RECORDS.values()}[type(value)]


# ------------------------------------------------------- special leaves


def nest_to_dict(nest: LoopNest) -> dict[str, Any]:
    """Serialize a loop nest to plain JSON-able data."""
    return {
        "name": nest.name,
        "loops": [[loop.iterator, loop.trip_count] for loop in nest.loops],
        "accesses": [
            {
                "array": access.array,
                "write": access.is_write,
                "indices": [sorted(expr.terms) for expr in access.indices],
                "consts": [expr.const for expr in access.indices],
            }
            for access in nest.accesses
        ],
    }


def nest_from_dict(data: dict[str, Any]) -> LoopNest:
    """Rebuild a loop nest from :func:`nest_to_dict` data.

    Interned: one frozen :class:`LoopNest` per distinct payload (a
    bounded, thread-safe memo keyed by the payload's version-2
    ``marshal`` bytes, which tell ``1`` from ``1.0`` and ``true``), so the
    phase-1 finalists and the later stages' entries of one compile share
    one nest.  Malformed data (trip counts must be ints) raises and is
    never interned.
    """
    return _nest_from_bytes(marshal.dumps(data, 2))


@lru_cache(maxsize=256)
def _nest_from_bytes(key: bytes) -> LoopNest:
    data = marshal.loads(key)
    loops = tuple(Loop(name, _INT(trip)) for name, trip in data["loops"])
    accesses = []
    for entry in data["accesses"]:
        indices = tuple(
            AffineExpr.of({n: c for n, c in terms}, const)
            for terms, const in zip(entry["indices"], entry["consts"])
        )
        accesses.append(ArrayAccess(entry["array"], indices, entry["write"]))
    return LoopNest(loops, tuple(accesses), name=data["name"])


NEST = Leaf(nest_to_dict, nest_from_dict)

SHAPE = Leaf(
    lambda shape: [shape.rows, shape.cols, shape.vector],
    lambda t: ArrayShape(*map(_INT, t)),
)

_MIDDLE = Leaf(
    dict, lambda bounds: tuple(sorted((it, _INT(n)) for it, n in dict(bounds or {}).items()))
)

# The output tensor is stored flat plus its shape; float64 values
# round-trip bit-for-bit through JSON's ``repr``-based float encoding, so
# a reloaded result compares bit-identical to the simulated one.
_TENSOR = Leaf(
    lambda output: {"output_shape": list(output.shape), "output": output.ravel().tolist()},
    lambda data: np.asarray(data["output"], dtype=np.float64).reshape(data["output_shape"]),
)

_DEGRADATIONS = Leaf(
    lambda trail: [list(entry) for entry in trail],
    lambda data: tuple((str(code), str(reason)) for code, reason in data),
)


# ----------------------------------------------------------- the records

MAPPING = Record(
    Mapping, "mapping", keys={"vertical_array": "vertical", "horizontal_array": "horizontal"}
)
DESIGN = Record(
    DesignPoint,
    "design",
    "repro-design/1",
    where="`--save-design` file; `verify design.json`; the `design` of `POST /v1/jobs`",
    codecs={"nest": NEST, "mapping": MAPPING, "shape": SHAPE, "middle": _MIDDLE},
)
EVALUATION = Record(
    DesignEvaluation,
    "evaluation",
    "repro-evaluation/1",
    where="inside the result payload; without its nest, inside the phase-1 and phase-2 payloads",
    codecs={
        "design": DESIGN,
        "performance": Record(PerformanceEstimate, "performance"),
        "bram": Record(BramBreakdown, "bram"),
    },
)


def evaluation_on(nest: LoopNest | None) -> Record:
    """The evaluation record of a payload that writes its designs' one
    nest apart from them: each design is written without it and decoded
    onto ``nest`` itself."""
    codecs = {**DESIGN.codecs, "nest": Leaf(lambda _: {}, lambda _: nest)}
    design = Record(DesignPoint, "design", keys={"nest": None}, codecs=codecs)
    return Record(DesignEvaluation, "evaluation", codecs={**EVALUATION.codecs, "design": design})


# The sim and pipeline layers sit above the model layer: their classes
# are named, not imported.
MEASUREMENT = Record("repro.sim.perf:LayerMeasurement", "measurement")
ENGINE_RESULT = Record(
    "repro.sim.fast:EngineResult",
    "engine-result",
    "repro-engine-result/1",
    where="inside the result payload of a `--sim-backend` run",
    keys={"output": None},
    codecs={"output": _TENSOR},
)
RESULT = Record(
    "repro.pipeline.context:SynthesisResult",
    "result",
    "repro-result/1",
    where="`--save-result` file; `GET /v1/jobs/{id}?result=1` of a layer job",
    codecs={
        "evaluation": EVALUATION,
        "measurement": MEASUREMENT,
        "engine_result": ENGINE_RESULT,
        # Excluded from equality on the dataclass, but part of the run's
        # observable history — a saved result must keep its degradation
        # trail for post-mortems.
        "degradations": _DEGRADATIONS,
    },
    omit=("stage_seconds", "cache_hits", "conformance"),
    optional=("engine_result",),
    # Absent in pre-RTL saved results; None is the degraded state.
    absent={"rtl_source": None},
)

design_to_dict, design_from_dict = DESIGN.encode, DESIGN.decode
evaluation_to_dict, evaluation_from_dict = EVALUATION.encode, EVALUATION.decode
measurement_to_dict, measurement_from_dict = MEASUREMENT.encode, MEASUREMENT.decode
engine_result_to_dict, engine_result_from_dict = ENGINE_RESULT.encode, ENGINE_RESULT.decode
result_to_dict, result_from_dict = RESULT.encode, RESULT.decode


def save_design(design: DesignPoint, path) -> None:
    """Write a design point to a JSON file."""
    Path(path).write_text(json.dumps(design_to_dict(design), indent=2) + "\n")


def load_design(path) -> DesignPoint:
    """Read a design point from a JSON file."""
    return design_from_dict(json.loads(Path(path).read_text()))


def save_result(result: Any, path) -> None:
    """Write a full synthesis result (design, artifacts, stats) to JSON."""
    Path(path).write_text(json.dumps(result_to_dict(result), indent=2) + "\n")


def load_result(path) -> Any:
    """Read a full synthesis result back from JSON."""
    return result_from_dict(json.loads(Path(path).read_text()))


__all__ = [
    "RECORDS",
    "Leaf",
    "Record",
    "design_from_dict",
    "design_to_dict",
    "engine_result_from_dict",
    "engine_result_to_dict",
    "evaluation_from_dict",
    "evaluation_on",
    "evaluation_to_dict",
    "load_design",
    "load_result",
    "measurement_from_dict",
    "measurement_to_dict",
    "nest_from_dict",
    "nest_to_dict",
    "plain",
    "record_of",
    "result_from_dict",
    "result_to_dict",
    "save_design",
    "save_result",
    "sequence",
]
