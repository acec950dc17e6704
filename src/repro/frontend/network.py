"""Network importer: JSON specs and ONNX graphs -> :class:`repro.nn.Network`.

Two entry formats share one lowering path:

* a **declarative JSON spec** (:func:`import_json`) — a sequential layer
  list with shape chaining, always available, no third-party packages;
* an **ONNX graph** (:func:`import_onnx`) — parsed by a minimal protobuf
  wire-format reader built into this module, so the ``onnx`` package is
  *optional*: pass raw ``bytes``/a path and nothing is imported; pass an
  ``onnx.ModelProto`` and it is serialized through its own
  ``SerializeToString``.

Each format is only a *translator*: it reads its own attribute spellings,
refuses what only it can express (``auto_pad``, ``ceil_mode``, computed
weights, ...) and yields one :class:`_Node` per operation.  :func:`_lower`
walks that node list once, whatever wrote it: the tensor -> shape table,
the unknown/flattened-input checks, every layer construction and the
residual operand labels live there and nowhere else.

Both produce an :class:`ImportResult` holding a :class:`repro.nn.Network`
plus an :class:`AnalysisReport` of ``SA14x`` diagnostics.  Downstream the
network flows through the existing pipeline unchanged:
``prepare_network_nests`` lowers each conv layer (strided, dilated,
grouped, depthwise) to its Code-1 loop nest, and
``select_unified_design`` searches the joint space.

The supported operators are exactly the rows of :data:`_OPS` (conv,
separable_conv, pool, global_pool, fc, residual add, flatten and the
shape-preserving pass-throughs); ``docs/importer.md`` lists them with the
names and attributes of each format, and a test holds that matrix to the
table.  Anything else is rejected with ``SA141`` and an actionable hint; the
importer keeps scanning so one report lists every problem at once.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.analysis.diagnostics import (
    IMPORT_ASYMMETRIC_ATTRIBUTE,
    IMPORT_SHAPE_MISMATCH,
    IMPORT_SPEC_MALFORMED,
    IMPORT_UNSUPPORTED_ATTRIBUTE,
    IMPORT_UNSUPPORTED_OP,
    AnalysisReport,
    Severity,
)
from repro.nn.layers import AddLayer, ConvLayer, FCLayer, LayerShapeError, PoolLayer
from repro.nn.models import Network

# Activation tensors are (channels, height, width); after Flatten/Gemm the
# shape becomes ("flat", features).
_FLAT = "flat"

# A JSON spec is sequential: an entry reads whatever was lowered last, so a
# layer that failed leaves the running tensor where it was.
_PREVIOUS = None


@dataclass(frozen=True)
class ImportResult:
    """What an import produced.

    Attributes:
        network: the lowered network, or ``None`` when errors prevented
            assembly (only reachable with ``strict=False``).
        report: every ``SA14x``/``SA145`` finding, errors and warnings.
    """

    network: Network | None
    report: AnalysisReport

    @property
    def ok(self) -> bool:
        """True when a network was assembled without errors."""
        return self.network is not None and self.report.ok


class _NetworkBuilder:
    """Accumulates layers while recording structured diagnostics."""

    def __init__(self, name: str, report: AnalysisReport) -> None:
        self.name = name
        self.report = report
        self.convs: list[ConvLayer] = []
        self.pools: list[PoolLayer] = []
        self.fcs: list[FCLayer] = []
        self.adds: list[AddLayer] = []

    def error(self, code: str, message: str, hint: str | None = None) -> None:
        self.report.add(code, Severity.ERROR, message, hint=hint)

    def build_conv(self, **kwargs: Any) -> ConvLayer | None:
        layer = self._guarded(ConvLayer, **kwargs)
        if layer is not None:
            self.convs.append(layer)
        return layer

    def build_pool(self, **kwargs: Any) -> PoolLayer | None:
        layer = self._guarded(PoolLayer, **kwargs)
        if layer is not None:
            self.pools.append(layer)
        return layer

    def build_fc(self, **kwargs: Any) -> FCLayer | None:
        layer = self._guarded(FCLayer, **kwargs)
        if layer is not None:
            self.fcs.append(layer)
        return layer

    def build_add(self, **kwargs: Any) -> AddLayer | None:
        layer = self._guarded(AddLayer, **kwargs)
        if layer is not None:
            self.adds.append(layer)
        return layer

    def _guarded(self, ctor: Any, **kwargs: Any) -> Any:
        """Construct a layer, converting raises into report entries."""
        try:
            return ctor(**kwargs)
        except LayerShapeError as err:
            # SA145 carries its own structured report — merge it.
            self.report.diagnostics.extend(err.report.diagnostics)
        except ValueError as err:
            self.error(IMPORT_SPEC_MALFORMED, str(err))
        return None

    def finish(self, *, strict: bool) -> ImportResult:
        network: Network | None = None
        if self.report.ok and self.convs:
            network = Network(
                self.name,
                tuple(self.convs),
                tuple(self.fcs),
                tuple(self.pools),
                tuple(self.adds),
            )
        elif self.report.ok:
            self.error(
                IMPORT_SPEC_MALFORMED,
                f"network {self.name!r} has no convolutional layers to synthesize",
                hint="the systolic flow targets conv layers; add at least one",
            )
        if strict:
            self.report.raise_if_errors()
        return ImportResult(network, self.report)


# --------------------------------------------------------------------------
# The one lowering: a node list, whatever format wrote it -> layers
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _Node:
    """One graph operation, as either translator hands it to :func:`_lower`.

    Attributes:
        op: a key of :data:`_OPS`.
        name: the layer's name in the network and in messages.
        inputs: the activation tensors read (``_PREVIOUS`` = the running one).
        output: the tensor written.
        params: attributes under the layer constructors' names, each
            already resolved to one symmetric value by :func:`_symmetric`.
        label: the op as the source format spells it, for messages.
    """

    op: str
    name: str
    inputs: tuple[str | None, ...]
    output: str
    params: dict[str, Any]
    label: str


def _as_positive_int(value: Any) -> int | None:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        return None
    return value


def _symmetric(builder: _NetworkBuilder, layer: str, attr: str, value: Any, *, minimum: int = 0) -> int | None:
    """Resolve a possibly per-axis attribute to one symmetric int.

    Accepts a plain int or a list of equal ints (``[3, 3]``, ONNX's
    ``pads`` ``[1, 1, 1, 1]``); a list of unequal values is the asymmetric
    case the systolic templates cannot express (square kernels only) ->
    ``SA143``.
    """
    if isinstance(value, list):
        if not value or any(not isinstance(v, int) or isinstance(v, bool) for v in value):
            builder.error(
                IMPORT_SPEC_MALFORMED, f"{layer}: attribute {attr!r} must be an int or list of ints"
            )
            return None
        if len(set(value)) != 1:
            builder.error(
                IMPORT_ASYMMETRIC_ATTRIBUTE,
                f"{layer}: asymmetric {attr} {value} is not supported",
                hint="the systolic templates assume square kernels and uniform "
                "strides/pads/dilations in both spatial dimensions",
            )
            return None
        value = value[0]
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        builder.error(
            IMPORT_SPEC_MALFORMED,
            f"{layer}: attribute {attr!r} must be an integer >= {minimum}, got {value!r}",
        )
        return None
    return value


def _features(shape: tuple[Any, ...]) -> int:
    return shape[1] if shape[0] == _FLAT else shape[0] * shape[1] * shape[2]


# Each lowering takes (builder, node, input shapes, input labels) and
# returns the output tensor's (shape, label), or None after reporting why
# not.  A label names the layer that produced a tensor: it is what a
# residual add records as its operand.


def _lower_conv(builder: _NetworkBuilder, node: _Node, shapes: list, labels: list) -> Any:
    channels, height, width = shapes[0]
    params = dict(node.params)
    groups = params.pop("groups")
    groups = channels if groups == "depthwise" else _as_positive_int(groups)
    if groups is None:
        builder.error(
            IMPORT_SPEC_MALFORMED,
            f"{node.name}: 'groups' must be a positive integer or \"depthwise\"",
        )
        return None
    # ONNX weights declare the channels they expect; a JSON conv takes
    # whatever arrives.
    in_per_group = params.pop("in_per_group", None)
    if in_per_group is not None and channels != in_per_group * groups:
        builder.error(
            IMPORT_SHAPE_MISMATCH,
            f"{node.name}: input has {channels} channels but weights "
            f"expect {in_per_group}*{groups}",
        )
        return None
    params.update(in_channels=channels, in_height=height, in_width=width, groups=groups)
    layer = builder.build_conv(name=node.name, **params)
    return layer and ((layer.out_channels, layer.out_height, layer.out_width), layer.name)


def _lower_separable_conv(builder: _NetworkBuilder, node: _Node, shapes: list, labels: list) -> Any:
    """The MobileNet block: a depthwise conv, then a pointwise 1x1 conv."""
    params = {**node.params, "out_channels": shapes[0][0], "groups": "depthwise"}
    depthwise = replace(node, name=f"{node.name}_dw", params=params)
    lowered = _lower_conv(builder, depthwise, shapes, labels)
    if lowered is None:
        return None
    params = {"out_channels": node.params["out_channels"], "kernel": 1, "groups": 1}
    pointwise = replace(node, name=f"{node.name}_pw", params=params)
    return _lower_conv(builder, pointwise, [lowered[0]], labels)


def _lower_pool(builder: _NetworkBuilder, node: _Node, shapes: list, labels: list) -> Any:
    channels, height, width = shapes[0]
    params = node.params
    if node.op == "global_pool":
        if height != width:
            builder.error(
                IMPORT_ASYMMETRIC_ATTRIBUTE,
                f"{node.name}: global pooling needs a square map, got {height}x{width}",
            )
            return None
        params = {**params, "kernel": height, "stride": 1, "pad": 0}
    layer = builder.build_pool(
        name=node.name, channels=channels, in_height=height, in_width=width, **params
    )
    return layer and ((channels, layer.out_height, layer.out_width), layer.name)


def _lower_fc(builder: _NetworkBuilder, node: _Node, shapes: list, labels: list) -> Any:
    have = _features(shapes[0])
    # ONNX weights declare in_features; a JSON fc infers them.
    declared = node.params.get("in_features", have)
    if declared != have:
        builder.error(
            IMPORT_SHAPE_MISMATCH,
            f"{node.name}: {node.label} expects {declared} input features "
            f"but the incoming tensor has {have}",
        )
        return None
    builder.build_fc(name=node.name, in_features=have, out_features=node.params["out_features"])
    return (_FLAT, node.params["out_features"]), node.name


def _lower_add(builder: _NetworkBuilder, node: _Node, shapes: list, labels: list) -> Any:
    shape, other = shapes
    if shape != other or shape[0] == _FLAT:
        builder.error(
            IMPORT_SHAPE_MISMATCH, f"{node.name}: residual operands disagree — {shape} vs {other}"
        )
        return None
    channels, height, width = shape
    builder.build_add(
        name=node.name, channels=channels, height=height, width=width, operands=tuple(labels)
    )
    return shape, node.name


def _lower_flatten(builder: _NetworkBuilder, node: _Node, shapes: list, labels: list) -> Any:
    return (_FLAT, _features(shapes[0])), labels[0]


def _lower_passthrough(builder: _NetworkBuilder, node: _Node, shapes: list, labels: list) -> Any:
    return shapes[0], labels[0]


@dataclass(frozen=True)
class _Op:
    """One row of the op table: the op in both formats and how it lowers.

    Attributes:
        lower: the lowering function (signature above).
        json: spellings of a JSON entry's ``"op"``.
        onnx: ONNX ``op_type`` spellings.
        spatial: set when the op needs a (C, H, W) input — the noun its
            "... after the tensor was flattened" refusal uses.
        lenient: an input nobody produced is not an error (the op may sit
            on a weight path); its output simply stays unknown too.
    """

    lower: Callable[[_NetworkBuilder, _Node, list, list], Any]
    json: tuple[str, ...]
    onnx: tuple[str, ...]
    spatial: str | None = None
    lenient: bool = False


# Adding an op is one row here plus, per format, the attributes its
# translator reads (_json_params / _onnx_params).  docs/importer.md's
# coverage matrix is held to these rows by a test.
_OPS: dict[str, _Op] = {
    "conv": _Op(_lower_conv, ("conv",), ("Conv",), spatial="convolution"),
    "separable_conv": _Op(_lower_separable_conv, ("separable_conv",), (), spatial="convolution"),
    "pool": _Op(_lower_pool, ("pool",), ("MaxPool", "AveragePool"), spatial="pooling"),
    "global_pool": _Op(_lower_pool, ("global_pool",), ("GlobalAveragePool",), spatial="pooling"),
    "fc": _Op(_lower_fc, ("fc",), ("Gemm", "MatMul")),
    "add": _Op(_lower_add, ("add",), ("Add",)),
    "flatten": _Op(
        _lower_flatten, ("flatten",), ("Flatten", "Reshape", "Squeeze", "Unsqueeze"), lenient=True
    ),
    "passthrough": _Op(
        _lower_passthrough,
        ("relu", "batchnorm", "dropout", "softmax", "identity"),
        (
            "Relu",
            "LeakyRelu",
            "PRelu",
            "Sigmoid",
            "Tanh",
            "Clip",
            "BatchNormalization",
            "Dropout",
            "Identity",
            "Softmax",
            "LRN",
            "Constant",
        ),
        lenient=True,
    ),
}

_JSON_OPS = {spelling: op for op, row in _OPS.items() for spelling in row.json}
_ONNX_OPS = {spelling: op for op, row in _OPS.items() for spelling in row.onnx}


def _lower(
    nodes: Iterable[_Node], input_shapes: dict[str, tuple[Any, ...]], builder: _NetworkBuilder
) -> None:
    """Lower a node list into ``builder``, one node at a time.

    ``nodes`` may be a generator: each node is pulled only after the one
    before it was lowered, so a translator's diagnostics and the
    lowering's interleave in graph order.
    """
    # Batch dimension stripped: tensor -> (C, H, W) or (_FLAT, features).
    shapes = dict(input_shapes)
    labels: dict[str, str] = {}
    previous = next(iter(shapes), "")
    for node in nodes:
        row = _OPS[node.op]
        tensors = [previous if tensor is _PREVIOUS else tensor for tensor in node.inputs]
        unknown = [tensor for tensor in tensors if tensor not in shapes]
        if unknown:
            if not row.lenient:
                builder.error(
                    IMPORT_SHAPE_MISMATCH,
                    f"{node.name}: input activation shape is unknown",
                    hint=f"nothing produced {unknown[0]!r}; "
                    f"known: {', '.join(sorted(shapes)) or '(none)'}",
                )
            continue
        known = [shapes[tensor] for tensor in tensors]
        if row.spatial and known[0][0] == _FLAT:
            builder.error(
                IMPORT_SHAPE_MISMATCH, f"{node.name}: {row.spatial} after the tensor was flattened"
            )
            continue
        lowered = row.lower(builder, node, known, [labels.get(t, t) for t in tensors])
        if lowered is not None:
            shapes[node.output], labels[node.output] = lowered
            previous = node.output


# --------------------------------------------------------------------------
# JSON spec translator
# --------------------------------------------------------------------------

# (attribute, default, minimum) of a conv's per-axis geometry.
_JSON_GEOMETRY = (("kernel", None, 1), ("stride", 1, 1), ("pad", 0, 0), ("dilation", 1, 1))


def _json_count(builder: _NetworkBuilder, name: str, entry: dict[str, Any], key: str) -> int | None:
    value = _as_positive_int(entry.get(key))
    if value is None:
        builder.error(IMPORT_SPEC_MALFORMED, f"{name}: {key!r} must be a positive integer")
    return value


def _json_params(
    builder: _NetworkBuilder, op: str, name: str, entry: dict[str, Any]
) -> dict[str, Any] | None:
    """The validated parameters of one JSON layer entry (None: reported)."""
    if op in ("conv", "separable_conv"):
        params = {
            attr: _symmetric(builder, name, attr, entry.get(attr, default), minimum=minimum)
            for attr, default, minimum in _JSON_GEOMETRY
        }
        params["out_channels"] = _json_count(builder, name, entry, "out_channels")
        if None in params.values():
            return None
        if op == "separable_conv" and entry.get("groups") not in (None, 1):
            builder.error(
                IMPORT_UNSUPPORTED_ATTRIBUTE,
                f"{name}: separable_conv does not take 'groups'",
                hint="the depthwise half always uses groups == channels",
            )
            return None
        return {**params, "groups": entry.get("groups", 1)}
    if op in ("pool", "global_pool"):
        mode = entry.get("mode", "max" if op == "pool" else "avg")
        if mode not in ("max", "avg"):
            builder.error(
                IMPORT_SPEC_MALFORMED, f"{name}: pooling mode must be 'max' or 'avg', got {mode!r}"
            )
            return None
        if op == "global_pool":
            return {"mode": mode}
        kernel = _symmetric(builder, name, "kernel", entry.get("kernel"), minimum=1)
        # the stride defaults from the kernel: a bad kernel is one finding
        stride = entry.get("stride", 1 if kernel is None else kernel)
        params = {
            "mode": mode,
            "kernel": kernel,
            "stride": _symmetric(builder, name, "stride", stride, minimum=1),
            "pad": _symmetric(builder, name, "pad", entry.get("pad", 0), minimum=0),
        }
        return None if None in params.values() else params
    if op == "fc":
        out_features = _json_count(builder, name, entry, "out_features")
        return None if out_features is None else {"out_features": out_features}
    if op == "add" and not isinstance(entry.get("with"), str):
        builder.error(
            IMPORT_SPEC_MALFORMED,
            f"{name}: residual 'add' needs a \"with\": \"<layer name>\" reference",
        )
        return None
    return {}


def _json_nodes(layers: list[Any], builder: _NetworkBuilder) -> Iterator[_Node]:
    """One node per layer entry; every layer writes a tensor of its own name."""
    for index, entry in enumerate(layers):
        if not isinstance(entry, dict) or "op" not in entry:
            builder.error(
                IMPORT_SPEC_MALFORMED,
                f"layers[{index}] must be an object with an 'op' key, got {entry!r}",
            )
            continue
        label = entry["op"]
        op = _JSON_OPS.get(label) if isinstance(label, str) else None
        if op is None:
            builder.error(
                IMPORT_UNSUPPORTED_OP,
                f"layers[{index}]: unsupported op {label!r}",
                hint=f"supported: {', '.join(_JSON_OPS)}",
            )
            continue
        name = str(entry.get("name", f"{label}{index}"))
        params = _json_params(builder, op, name, entry)
        if params is not None:
            inputs = (_PREVIOUS, entry["with"]) if op == "add" else (_PREVIOUS,)
            yield _Node(op, name, inputs, name, params, label)


def import_json(spec: dict[str, Any] | str, *, strict: bool = True) -> ImportResult:
    """Import a declarative JSON network spec.

    The schema (documented fully in ``docs/importer.md``)::

        {"name": "net",
         "input": {"channels": 3, "height": 224, "width": 224},
         "layers": [
           {"op": "conv", "out_channels": 32, "kernel": 3, "stride": 2,
            "pad": 1, "groups": 1, "dilation": 1},
           {"op": "separable_conv", "out_channels": 64, "kernel": 3},
           {"op": "pool", "kernel": 2, "stride": 2, "mode": "max"},
           {"op": "add", "with": "conv1"},
           {"op": "relu"}, {"op": "flatten"},
           {"op": "fc", "out_features": 1000}]}

    ``in_channels`` of every conv is inferred by chaining shapes from
    ``input``; ``"groups": "depthwise"`` resolves to the running channel
    count.  ``add`` joins the running tensor with the named earlier
    layer's output (shapes must match).

    Args:
        spec: parsed dict, or JSON text.
        strict: raise :class:`DiagnosticError` on any error finding
            (default); ``False`` returns the full report instead.

    Returns:
        :class:`ImportResult`.

    Raises:
        DiagnosticError: in strict mode, when the spec has errors.
    """
    builder = _NetworkBuilder("network", AnalysisReport())
    if isinstance(spec, str):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as err:
            builder.error(
                IMPORT_SPEC_MALFORMED,
                f"spec is not valid JSON: {err}",
                hint="pass a JSON object with 'input' and 'layers' keys",
            )
            return builder.finish(strict=strict)
    if not isinstance(spec, dict):
        builder.error(
            IMPORT_SPEC_MALFORMED, f"spec must be a JSON object, got {type(spec).__name__}"
        )
        return builder.finish(strict=strict)

    builder.name = str(spec.get("name", builder.name))
    input_spec = spec.get("input")
    layers = spec.get("layers")
    if not isinstance(input_spec, dict) or not isinstance(layers, list):
        builder.error(
            IMPORT_SPEC_MALFORMED,
            "spec needs an 'input' object and a 'layers' list",
            hint='e.g. {"input": {"channels": 3, "height": 32, "width": 32}, "layers": [...]}',
        )
        return builder.finish(strict=strict)

    dims = tuple(_as_positive_int(input_spec.get(k)) for k in ("channels", "height", "width"))
    if None in dims:
        # per-layer chaining is meaningless without an input shape
        builder.error(
            IMPORT_SPEC_MALFORMED,
            f"input shape must have positive integer channels/height/width, got {input_spec}",
        )
    else:
        _lower(_json_nodes(layers, builder), {"input": dims}, builder)
    return builder.finish(strict=strict)


# --------------------------------------------------------------------------
# Minimal protobuf wire-format reader (enough of ONNX to lower CNNs)
# --------------------------------------------------------------------------


class _WireError(ValueError):
    """Raised on malformed protobuf bytes; surfaced as SA140."""


def _read_varint(buf: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(buf):
            raise _WireError("truncated varint")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise _WireError("varint longer than 64 bits")


def _signed64(value: int) -> int:
    return value - (1 << 64) if value >= 1 << 63 else value


# Wire types: 0 varint, 1 fixed64, 2 length-delimited, 5 fixed32.
_VARINT, _LEN, _I32 = (0,), (2,), (5,)


def _iter_fields(
    buf: bytes, schema: dict[int, tuple[int, ...]]
) -> Iterator[tuple[int, int, Any]]:
    """Yield (field_number, wire_type, value) triples from a message.

    Varints come back as ints, length-delimited fields as bytes, fixed32
    and fixed64 as raw bytes (callers unpack the few they care about).
    ``schema`` maps each field number the caller reads to the wire types
    it accepts; any other wire type on that field is malformed bytes.
    """
    pos = 0
    while pos < len(buf):
        key, pos = _read_varint(buf, pos)
        number, wire = key >> 3, key & 0x7
        if wire == 0:
            value, pos = _read_varint(buf, pos)
        elif wire == 1:
            value, pos = buf[pos : pos + 8], pos + 8
            if len(value) != 8:
                raise _WireError("truncated fixed64 field")
        elif wire == 2:
            length, pos = _read_varint(buf, pos)
            value, pos = buf[pos : pos + length], pos + length
            if len(value) != length:
                raise _WireError("truncated length-delimited field")
        elif wire == 5:
            value, pos = buf[pos : pos + 4], pos + 4
            if len(value) != 4:
                raise _WireError("truncated fixed32 field")
        else:
            raise _WireError(f"unsupported wire type {wire}")
        if wire not in schema.get(number, (wire,)):
            raise _WireError(f"field {number} has wire type {wire}")
        yield number, wire, value


def _packed_varints(value: Any, wire: int) -> list[int]:
    """A repeated int64 field: packed (one bytes blob) or one-per-entry."""
    if wire == 0:
        return [_signed64(value)]
    out = []
    pos = 0
    while pos < len(value):
        item, pos = _read_varint(value, pos)
        out.append(_signed64(item))
    return out


@dataclass
class _OnnxNode:
    op_type: str = ""
    name: str = ""
    inputs: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    attrs: dict[str, Any] = field(default_factory=dict)


def _parse_attribute(buf: bytes) -> tuple[str, Any]:
    # AttributeProto: 1=name 2=f 3=i 4=s 7=floats 8=ints (others unused here)
    name = ""
    value: Any = None
    ints: list[int] = []
    floats: list[float] = []
    schema = {1: _LEN, 2: _I32, 3: _VARINT, 4: _LEN, 7: _I32 + _LEN, 8: _VARINT + _LEN}
    for number, wire, raw in _iter_fields(buf, schema):
        if number == 1:
            name = raw.decode("utf-8", errors="replace")
        elif number == 2:
            value = struct.unpack("<f", raw)[0]
        elif number == 3:
            value = _signed64(raw)
        elif number == 4:
            value = raw.decode("utf-8", errors="replace")
        elif number == 7:
            if wire == 5:
                floats.append(struct.unpack("<f", raw)[0])
            elif len(raw) % 4:
                raise _WireError("packed floats are not a whole number of fixed32s")
            else:
                floats.extend(struct.unpack(f"<{len(raw) // 4}f", raw))
        elif number == 8:
            ints.extend(_packed_varints(raw, wire))
    if ints:
        value = ints
    elif floats:
        value = floats
    return name, value


def _parse_node(buf: bytes) -> _OnnxNode:
    # NodeProto: 1=input 2=output 3=name 4=op_type 5=attribute
    node = _OnnxNode()
    for number, _wire, raw in _iter_fields(buf, dict.fromkeys(range(1, 6), _LEN)):
        if number == 1:
            node.inputs.append(raw.decode("utf-8", errors="replace"))
        elif number == 2:
            node.outputs.append(raw.decode("utf-8", errors="replace"))
        elif number == 3:
            node.name = raw.decode("utf-8", errors="replace")
        elif number == 4:
            node.op_type = raw.decode("utf-8", errors="replace")
        elif number == 5:
            key, value = _parse_attribute(raw)
            node.attrs[key] = value
    return node


def _parse_tensor_dims(buf: bytes) -> tuple[str, tuple[int, ...]]:
    # TensorProto: 1=dims (repeated int64) 8=name
    name = ""
    dims: list[int] = []
    for number, wire, raw in _iter_fields(buf, {1: _VARINT + _LEN, 8: _LEN}):
        if number == 1:
            dims.extend(_packed_varints(raw, wire))
        elif number == 8:
            name = raw.decode("utf-8", errors="replace")
    return name, tuple(dims)


def _parse_value_info(buf: bytes) -> tuple[str, tuple[int | None, ...]]:
    # ValueInfoProto: 1=name 2=type; TypeProto: 1=tensor_type;
    # Tensor: 2=shape; TensorShapeProto: 1=dim; Dimension: 1=dim_value 2=dim_param
    name = ""
    dims: list[int | None] = []
    for number, _wire, raw in _iter_fields(buf, {1: _LEN, 2: _LEN}):
        if number == 1:
            name = raw.decode("utf-8", errors="replace")
        elif number == 2:
            for t_num, _w, t_raw in _iter_fields(raw, {1: _LEN}):
                if t_num != 1:
                    continue
                for tt_num, _w2, tt_raw in _iter_fields(t_raw, {2: _LEN}):
                    if tt_num != 2:
                        continue
                    for s_num, _w3, s_raw in _iter_fields(tt_raw, {1: _LEN}):
                        if s_num != 1:
                            continue
                        dim_value: int | None = None
                        for d_num, _w4, d_raw in _iter_fields(s_raw, {1: _VARINT}):
                            if d_num == 1:
                                dim_value = _signed64(d_raw)
                        dims.append(dim_value)
    return name, tuple(dims)


@dataclass
class _OnnxGraph:
    name: str = "network"
    nodes: list[_OnnxNode] = field(default_factory=list)
    initializers: dict[str, tuple[int, ...]] = field(default_factory=dict)
    inputs: dict[str, tuple[int | None, ...]] = field(default_factory=dict)


def _parse_graph(buf: bytes) -> _OnnxGraph:
    # GraphProto: 1=node 2=name 5=initializer 11=input
    graph = _OnnxGraph()
    for number, _wire, raw in _iter_fields(buf, dict.fromkeys((1, 2, 5, 11), _LEN)):
        if number == 1:
            graph.nodes.append(_parse_node(raw))
        elif number == 2:
            graph.name = raw.decode("utf-8", errors="replace") or graph.name
        elif number == 5:
            name, dims = _parse_tensor_dims(raw)
            graph.initializers[name] = dims
        elif number == 11:
            name, dims = _parse_value_info(raw)
            graph.inputs[name] = dims
    return graph


def _parse_model(data: bytes) -> _OnnxGraph:
    # ModelProto: 7=graph
    graph: _OnnxGraph | None = None
    for number, _wire, raw in _iter_fields(data, {7: _LEN}):
        if number == 7:
            graph = _parse_graph(raw)
    if graph is None:
        raise _WireError("no GraphProto found in the model bytes")
    return graph


# --------------------------------------------------------------------------
# ONNX graph translator
# --------------------------------------------------------------------------


def _onnx_input_shapes(graph: _OnnxGraph, builder: _NetworkBuilder) -> dict[str, tuple[Any, ...]]:
    """Activation shapes of the graph inputs, batch dimension stripped."""
    shapes: dict[str, tuple[Any, ...]] = {}
    for tensor, dims in graph.inputs.items():
        if tensor in graph.initializers:
            continue  # weights listed as graph inputs
        if len(dims) == 4 and all(isinstance(d, int) and d > 0 for d in dims[1:]):
            shapes[tensor] = (dims[1], dims[2], dims[3])
        elif len(dims) == 2 and isinstance(dims[1], int) and dims[1] > 0:
            shapes[tensor] = (_FLAT, dims[1])
        else:
            builder.error(
                IMPORT_SHAPE_MISMATCH,
                f"graph input {tensor!r} has unusable shape {dims} "
                "(need NxCxHxW with concrete C/H/W, or NxF)",
                hint="export the model with static spatial dimensions",
            )
    return shapes


def _onnx_params(
    builder: _NetworkBuilder, op: str, name: str, node: _OnnxNode, weights: tuple[int, ...] | None
) -> dict[str, Any] | None:
    """The validated parameters of one ONNX node (None: reported).

    ``weights`` are the dims of the node's second input when that is an
    initializer: ``out_channels``/``kernel`` and the fc features come
    from there, not from attributes.
    """

    def attr(key: str, default: Any) -> Any:
        value = node.attrs.get(key)
        return default if value is None else value

    label = node.op_type
    if op == "conv":
        if weights is None or len(weights) != 4:
            builder.error(
                IMPORT_SHAPE_MISMATCH,
                f"{name}: Conv weights must be a rank-4 initializer, got {weights}",
                hint="dynamic (computed) conv weights cannot be lowered",
            )
            return None
        auto_pad = attr("auto_pad", "NOTSET")
        if auto_pad != "NOTSET":
            builder.error(
                IMPORT_UNSUPPORTED_ATTRIBUTE,
                f"{name}: auto_pad={auto_pad!r} is not supported",
                hint="re-export with explicit 'pads'",
            )
            return None
        params = {
            "out_channels": weights[0],
            "in_per_group": weights[1],
            "groups": attr("group", 1),
            "kernel": _symmetric(builder, name, "kernel", list(weights[2:]), minimum=1),
            "stride": _symmetric(builder, name, "strides", attr("strides", 1), minimum=1),
            "dilation": _symmetric(builder, name, "dilations", attr("dilations", 1), minimum=1),
            "pad": _symmetric(builder, name, "pads", attr("pads", 0), minimum=0),
        }
        return None if None in params.values() else params
    if op in ("pool", "global_pool"):
        if attr("ceil_mode", 0):
            builder.error(
                IMPORT_UNSUPPORTED_ATTRIBUTE,
                f"{name}: ceil_mode pooling is not supported",
                hint="re-export with floor-mode pooling",
            )
            return None
        mode = "max" if label == "MaxPool" else "avg"
        if op == "global_pool":
            return {"mode": mode}
        params = {
            "mode": mode,
            "kernel": _symmetric(
                builder, name, "kernel_shape", attr("kernel_shape", None), minimum=1
            ),
            "stride": _symmetric(builder, name, "strides", attr("strides", 1), minimum=1),
            "pad": _symmetric(builder, name, "pads", attr("pads", 0), minimum=0),
        }
        return None if None in params.values() else params
    if op == "fc":
        if weights is None or len(weights) != 2:
            builder.error(
                IMPORT_SHAPE_MISMATCH, f"{name}: {label} weights must be a rank-2 initializer"
            )
            return None
        if label == "Gemm" and (
            attr("alpha", 1.0) != 1.0 or attr("beta", 1.0) != 1.0 or attr("transA", 0)
        ):
            builder.error(
                IMPORT_UNSUPPORTED_ATTRIBUTE,
                f"{name}: Gemm with alpha/beta != 1 or transA is not supported",
            )
            return None
        transposed = label == "Gemm" and attr("transB", 0)
        in_features, out_features = weights[::-1] if transposed else weights
        return {"in_features": in_features, "out_features": out_features}
    return {}


def _onnx_nodes(graph: _OnnxGraph, builder: _NetworkBuilder) -> Iterator[_Node]:
    """One node per supported graph node, reading the tensors ONNX names."""
    inits = graph.initializers
    for index, node in enumerate(graph.nodes):
        label = node.op_type
        name = node.name or (node.outputs[0] if node.outputs else f"{label.lower()}_{index}")
        op = _ONNX_OPS.get(label)
        if op is None:
            builder.error(
                IMPORT_UNSUPPORTED_OP,
                f"{name}: unsupported ONNX op {label!r}",
                hint=f"supported: {', '.join(_ONNX_OPS)}; "
                "see docs/importer.md for the unsupported-op policy",
            )
            continue
        inputs = tuple(node.inputs[:1]) or ("",)
        if op == "add":
            inputs = tuple(t for t in node.inputs if t not in inits)[:2]
            if len(inputs) < 2:
                # a bias/constant add preserves its one activation's shape
                op, inputs = "passthrough", inputs or ("",)
        weights = inits.get(node.inputs[1]) if len(node.inputs) > 1 else None
        params = _onnx_params(builder, op, name, node, weights)
        if params is not None:
            output = node.outputs[0] if node.outputs else ""
            yield _Node(op, name, inputs, output, params, label)


def import_onnx(
    source: bytes | str | Path | Any, *, name: str | None = None, strict: bool = True
) -> ImportResult:
    """Import an ONNX model.

    Args:
        source: raw ``.onnx`` bytes, a path to an ``.onnx`` file, or an
            ``onnx.ModelProto``-like object exposing ``SerializeToString``
            (the ``onnx`` package itself is never imported here — it stays
            a purely optional dependency).
        name: override the network name (defaults to the graph name).
        strict: raise :class:`DiagnosticError` on any error finding.

    Returns:
        :class:`ImportResult`.
    """
    builder = _NetworkBuilder(name or "network", AnalysisReport())
    if hasattr(source, "SerializeToString"):
        data = source.SerializeToString()
    elif isinstance(source, (str, Path)):
        data = Path(source).read_bytes()
    else:
        data = bytes(source)

    try:
        graph = _parse_model(data)
    except _WireError as err:
        builder.error(
            IMPORT_SPEC_MALFORMED,
            f"not a parseable ONNX model: {err}",
            hint="pass serialized ModelProto bytes (onnx.save output)",
        )
        return builder.finish(strict=strict)

    builder.name = name or graph.name
    _lower(_onnx_nodes(graph, builder), _onnx_input_shapes(graph, builder), builder)
    return builder.finish(strict=strict)


# --------------------------------------------------------------------------
# Path dispatch
# --------------------------------------------------------------------------


def load_network(path: str | Path, *, strict: bool = True) -> ImportResult:
    """Import a network file, dispatching on its suffix.

    ``.json`` -> :func:`import_json`; ``.onnx`` / ``.pb`` ->
    :func:`import_onnx`.  Anything else — and a file that cannot be read
    or decoded — is an ``SA140`` error.
    """
    path = Path(path)
    suffix = path.suffix.lower()
    importer = {".json": import_json, ".onnx": import_onnx, ".pb": import_onnx}.get(suffix)
    if importer is None:
        problem = f"unrecognized network file suffix {suffix!r} for {path.name}"
    else:
        try:
            source = path.read_text() if importer is import_json else path.read_bytes()
        except (OSError, UnicodeDecodeError) as err:
            problem = f"cannot read {path.name}: {err}"
        else:
            return importer(source, strict=strict)
    builder = _NetworkBuilder(path.stem, AnalysisReport())
    builder.error(
        IMPORT_SPEC_MALFORMED, problem, hint="use a .json spec or a serialized .onnx model"
    )
    return builder.finish(strict=strict)


__all__ = [
    "ImportResult",
    "import_json",
    "import_onnx",
    "load_network",
]
