"""Network importer: JSON specs and ONNX graphs -> :class:`repro.nn.Network`.

Two entry formats share one lowering path:

* a **declarative JSON spec** (:func:`import_json`) — a sequential layer
  list with shape chaining, always available, no third-party packages;
* an **ONNX graph** (:func:`import_onnx`) — parsed by a minimal protobuf
  wire-format reader built into this module, so the ``onnx`` package is
  *optional*: pass raw ``bytes``/a path and nothing is imported; pass an
  ``onnx.ModelProto`` and it is serialized through its own
  ``SerializeToString``.

Both produce an :class:`ImportResult` holding a :class:`repro.nn.Network`
plus an :class:`AnalysisReport` of ``SA14x`` diagnostics.  Downstream the
network flows through the existing pipeline unchanged:
``prepare_network_nests`` lowers each conv layer (strided, dilated,
grouped, depthwise) to its Code-1 loop nest, and
``select_unified_design`` searches the joint space.

Supported operators (the coverage matrix lives in ``docs/importer.md``):

=================  =====================================================
graph op           lowering
=================  =====================================================
Conv               :class:`ConvLayer` (stride/pad/dilation/groups kept;
                   ``groups == in_channels`` is the depthwise form)
separable_conv     depthwise ``ConvLayer`` + pointwise 1x1 ``ConvLayer``
                   (JSON only — the MobileNet building block)
MaxPool/AveragePool/GlobalAveragePool  :class:`PoolLayer`
Gemm / MatMul      :class:`FCLayer`
Add (residual)     :class:`AddLayer` (bias adds pass through)
Relu/BN/Clip/...   shape-preserving pass-through
Flatten/Reshape    collapse to a flat feature vector
=================  =====================================================

Anything else is rejected with ``SA141`` and an actionable hint; the
importer keeps scanning so one report lists every problem at once.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.analysis.diagnostics import (
    IMPORT_ASYMMETRIC_ATTRIBUTE,
    IMPORT_SHAPE_MISMATCH,
    IMPORT_SPEC_MALFORMED,
    IMPORT_UNSUPPORTED_ATTRIBUTE,
    IMPORT_UNSUPPORTED_OP,
    AnalysisReport,
    DiagnosticError,
    Severity,
)
from repro.nn.layers import AddLayer, ConvLayer, FCLayer, LayerShapeError, PoolLayer
from repro.nn.models import Network

# Activation tensors are (channels, height, width); after Flatten/Gemm the
# running shape becomes ("flat", features).
_FLAT = "flat"

_PASSTHROUGH_OPS = frozenset(
    {
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
    }
)

_FLATTEN_OPS = frozenset({"Flatten", "Reshape", "Squeeze", "Unsqueeze"})


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
# JSON spec path
# --------------------------------------------------------------------------


def _as_positive_int(value: Any) -> int | None:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        return None
    return value


def _symmetric(builder: _NetworkBuilder, layer: str, attr: str, value: Any, *, minimum: int = 0) -> int | None:
    """Resolve a possibly per-axis attribute to one symmetric int.

    Accepts a plain int or a list of equal ints (``[3, 3]``); a list of
    unequal values is the asymmetric case the systolic templates cannot
    express (square kernels only) -> ``SA143``.
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
    report = AnalysisReport()
    if isinstance(spec, str):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as err:
            report.add(
                IMPORT_SPEC_MALFORMED,
                Severity.ERROR,
                f"spec is not valid JSON: {err}",
                hint="pass a JSON object with 'input' and 'layers' keys",
            )
            if strict:
                report.raise_if_errors()
            return ImportResult(None, report)
    if not isinstance(spec, dict):
        report.add(
            IMPORT_SPEC_MALFORMED,
            Severity.ERROR,
            f"spec must be a JSON object, got {type(spec).__name__}",
        )
        if strict:
            report.raise_if_errors()
        return ImportResult(None, report)

    name = spec.get("name", "network")
    builder = _NetworkBuilder(str(name), report)

    input_spec = spec.get("input")
    layers = spec.get("layers")
    if not isinstance(input_spec, dict) or not isinstance(layers, list):
        builder.error(
            IMPORT_SPEC_MALFORMED,
            "spec needs an 'input' object and a 'layers' list",
            hint='e.g. {"input": {"channels": 3, "height": 32, "width": 32}, "layers": [...]}',
        )
        return builder.finish(strict=strict)

    shape: tuple[Any, ...] | None = None
    dims = [_as_positive_int(input_spec.get(k)) for k in ("channels", "height", "width")]
    if any(d is None for d in dims):
        builder.error(
            IMPORT_SPEC_MALFORMED,
            f"input shape must have positive integer channels/height/width, got {input_spec}",
        )
    else:
        shape = (dims[0], dims[1], dims[2])

    # Outputs of named layers, for residual joins.
    outputs: dict[str, tuple[int, int, int]] = {}
    last_name = "input"

    for index, entry in enumerate(layers):
        if shape is None:
            break  # input was malformed; per-layer chaining is meaningless
        if not isinstance(entry, dict) or "op" not in entry:
            builder.error(
                IMPORT_SPEC_MALFORMED,
                f"layers[{index}] must be an object with an 'op' key, got {entry!r}",
            )
            continue
        op = entry["op"]
        layer_name = str(entry.get("name", f"{op}{index}"))

        if op in ("conv", "separable_conv"):
            if shape[0] == _FLAT:
                builder.error(
                    IMPORT_SHAPE_MISMATCH,
                    f"{layer_name}: convolution after the tensor was flattened",
                )
                continue
            channels, height, width = shape
            out_channels = _as_positive_int(entry.get("out_channels"))
            kernel = _symmetric(builder, layer_name, "kernel", entry.get("kernel"), minimum=1)
            stride = _symmetric(builder, layer_name, "stride", entry.get("stride", 1), minimum=1)
            pad = _symmetric(builder, layer_name, "pad", entry.get("pad", 0), minimum=0)
            dilation = _symmetric(
                builder, layer_name, "dilation", entry.get("dilation", 1), minimum=1
            )
            if out_channels is None or None in (kernel, stride, pad, dilation):
                if out_channels is None:
                    builder.error(
                        IMPORT_SPEC_MALFORMED,
                        f"{layer_name}: 'out_channels' must be a positive integer",
                    )
                continue
            if op == "separable_conv":
                if entry.get("groups") not in (None, 1):
                    builder.error(
                        IMPORT_UNSUPPORTED_ATTRIBUTE,
                        f"{layer_name}: separable_conv does not take 'groups'",
                        hint="the depthwise half always uses groups == channels",
                    )
                    continue
                dw = builder.build_conv(
                    name=f"{layer_name}_dw",
                    in_channels=channels,
                    out_channels=channels,
                    in_height=height,
                    in_width=width,
                    kernel=kernel,
                    stride=stride,
                    pad=pad,
                    groups=channels,
                    dilation=dilation,
                )
                if dw is None:
                    continue
                pw = builder.build_conv(
                    name=f"{layer_name}_pw",
                    in_channels=channels,
                    out_channels=out_channels,
                    in_height=dw.out_height,
                    in_width=dw.out_width,
                    kernel=1,
                )
                if pw is None:
                    continue
                shape = (out_channels, pw.out_height, pw.out_width)
                outputs[layer_name] = shape
                last_name = f"{layer_name}_pw"
                continue
            groups = entry.get("groups", 1)
            if groups == "depthwise":
                groups = channels
            groups = _as_positive_int(groups)
            if groups is None:
                builder.error(
                    IMPORT_SPEC_MALFORMED,
                    f"{layer_name}: 'groups' must be a positive integer or \"depthwise\"",
                )
                continue
            layer = builder.build_conv(
                name=layer_name,
                in_channels=channels,
                out_channels=out_channels,
                in_height=height,
                in_width=width,
                kernel=kernel,
                stride=stride,
                pad=pad,
                groups=groups,
                dilation=dilation,
            )
            if layer is None:
                continue
            shape = (out_channels, layer.out_height, layer.out_width)
            outputs[layer_name] = shape
            last_name = layer_name

        elif op in ("pool", "global_pool"):
            if shape[0] == _FLAT:
                builder.error(
                    IMPORT_SHAPE_MISMATCH, f"{layer_name}: pooling after the tensor was flattened"
                )
                continue
            channels, height, width = shape
            mode = entry.get("mode", "max" if op == "pool" else "avg")
            if mode not in ("max", "avg"):
                builder.error(
                    IMPORT_SPEC_MALFORMED,
                    f"{layer_name}: pooling mode must be 'max' or 'avg', got {mode!r}",
                )
                continue
            if op == "global_pool":
                kernel, stride, pad = height, 1, 0
                if height != width:
                    builder.error(
                        IMPORT_ASYMMETRIC_ATTRIBUTE,
                        f"{layer_name}: global pooling needs a square map, got {height}x{width}",
                    )
                    continue
            else:
                kernel = _symmetric(builder, layer_name, "kernel", entry.get("kernel"), minimum=1)
                stride = _symmetric(
                    builder, layer_name, "stride", entry.get("stride", kernel), minimum=1
                )
                pad = _symmetric(builder, layer_name, "pad", entry.get("pad", 0), minimum=0)
                if None in (kernel, stride, pad):
                    continue
            layer = builder.build_pool(
                name=layer_name,
                channels=channels,
                in_height=height,
                in_width=width,
                kernel=kernel,
                stride=stride,
                pad=pad,
                mode=mode,
            )
            if layer is None:
                continue
            shape = (channels, layer.out_height, layer.out_width)
            outputs[layer_name] = shape
            last_name = layer_name

        elif op == "fc":
            out_features = _as_positive_int(entry.get("out_features"))
            if out_features is None:
                builder.error(
                    IMPORT_SPEC_MALFORMED,
                    f"{layer_name}: 'out_features' must be a positive integer",
                )
                continue
            in_features = shape[1] if shape[0] == _FLAT else shape[0] * shape[1] * shape[2]
            builder.build_fc(
                name=layer_name, in_features=in_features, out_features=out_features
            )
            shape = (_FLAT, out_features)
            last_name = layer_name

        elif op == "add":
            other = entry.get("with")
            if not isinstance(other, str):
                builder.error(
                    IMPORT_SPEC_MALFORMED,
                    f"{layer_name}: residual 'add' needs a \"with\": \"<layer name>\" reference",
                )
                continue
            if other not in outputs:
                builder.error(
                    IMPORT_SHAPE_MISMATCH,
                    f"{layer_name}: 'add' references unknown layer {other!r}",
                    hint=f"known layers: {', '.join(sorted(outputs)) or '(none)'}",
                )
                continue
            if shape[0] == _FLAT or outputs[other] != shape:
                builder.error(
                    IMPORT_SHAPE_MISMATCH,
                    f"{layer_name}: residual operands disagree — running shape "
                    f"{shape} vs {other!r} output {outputs[other]}",
                )
                continue
            builder.build_add(
                name=layer_name,
                channels=shape[0],
                height=shape[1],
                width=shape[2],
                operands=(last_name, other),
            )
            outputs[layer_name] = shape
            last_name = layer_name

        elif op == "flatten":
            if shape[0] != _FLAT:
                shape = (_FLAT, shape[0] * shape[1] * shape[2])

        elif op in ("relu", "batchnorm", "dropout", "softmax", "identity"):
            if shape[0] != _FLAT:
                outputs.setdefault(layer_name, shape)

        else:
            builder.error(
                IMPORT_UNSUPPORTED_OP,
                f"layers[{index}]: unsupported op {op!r}",
                hint="supported: conv, separable_conv, pool, global_pool, fc, "
                "add, flatten, relu, batchnorm, dropout, softmax, identity",
            )

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


def _iter_fields(buf: bytes) -> Iterator[tuple[int, int, Any]]:
    """Yield (field_number, wire_type, value) triples from a message.

    Varints come back as ints, length-delimited fields as bytes, fixed32
    and fixed64 as raw bytes (callers unpack the few they care about).
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
    for number, wire, raw in _iter_fields(buf):
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
    for number, _wire, raw in _iter_fields(buf):
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
    for number, wire, raw in _iter_fields(buf):
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
    for number, _wire, raw in _iter_fields(buf):
        if number == 1:
            name = raw.decode("utf-8", errors="replace")
        elif number == 2:
            for t_num, _w, t_raw in _iter_fields(raw):
                if t_num != 1:
                    continue
                for tt_num, _w2, tt_raw in _iter_fields(t_raw):
                    if tt_num != 2:
                        continue
                    for s_num, _w3, s_raw in _iter_fields(tt_raw):
                        if s_num != 1:
                            continue
                        dim_value: int | None = None
                        for d_num, _w4, d_raw in _iter_fields(s_raw):
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
    for number, _wire, raw in _iter_fields(buf):
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
    for number, _wire, raw in _iter_fields(data):
        if number == 7:
            graph = _parse_graph(raw)
    if graph is None:
        raise _WireError("no GraphProto found in the model bytes")
    return graph


# --------------------------------------------------------------------------
# ONNX graph lowering
# --------------------------------------------------------------------------


def _onnx_symmetric(
    builder: _NetworkBuilder, layer: str, attr: str, values: Any, default: int
) -> int | None:
    """Resolve an ONNX per-axis int-list attribute to one symmetric value."""
    if values is None:
        return default
    if isinstance(values, int):
        return values
    if not isinstance(values, list) or not values:
        builder.error(
            IMPORT_SPEC_MALFORMED, f"{layer}: malformed ONNX attribute {attr!r}: {values!r}"
        )
        return None
    if len(set(values)) != 1:
        builder.error(
            IMPORT_ASYMMETRIC_ATTRIBUTE,
            f"{layer}: asymmetric {attr} {values} is not supported",
            hint="the systolic templates assume square kernels and uniform "
            "strides/pads/dilations in both spatial dimensions",
        )
        return None
    return values[0]


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
    report = AnalysisReport()
    if hasattr(source, "SerializeToString"):
        data = source.SerializeToString()
    elif isinstance(source, (str, Path)):
        data = Path(source).read_bytes()
    else:
        data = bytes(source)

    try:
        graph = _parse_model(data)
    except _WireError as err:
        report.add(
            IMPORT_SPEC_MALFORMED,
            Severity.ERROR,
            f"not a parseable ONNX model: {err}",
            hint="pass serialized ModelProto bytes (onnx.save output)",
        )
        if strict:
            report.raise_if_errors()
        return ImportResult(None, report)

    builder = _NetworkBuilder(name or graph.name, report)
    _lower_onnx_graph(graph, builder)
    return builder.finish(strict=strict)


def _lower_onnx_graph(graph: _OnnxGraph, builder: _NetworkBuilder) -> None:
    inits = graph.initializers
    # Activation shapes, batch dimension stripped: name -> (C, H, W) or
    # (_FLAT, features).  Graph inputs that are initializers are weights.
    shapes: dict[str, tuple[Any, ...]] = {}
    for tensor, dims in graph.inputs.items():
        if tensor in inits:
            continue
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

    # Conv/pool output names whose producing layer is known, for residuals.
    producers: dict[str, str] = {}

    for index, node in enumerate(graph.nodes):
        op = node.op_type
        layer_name = node.name or (node.outputs[0] if node.outputs else f"{op.lower()}_{index}")
        out_name = node.outputs[0] if node.outputs else ""

        if op == "Conv":
            shape = shapes.get(node.inputs[0]) if node.inputs else None
            weight_dims = inits.get(node.inputs[1]) if len(node.inputs) > 1 else None
            if shape is None or shape[0] == _FLAT:
                builder.error(
                    IMPORT_SHAPE_MISMATCH,
                    f"{layer_name}: input activation shape is unknown",
                )
                continue
            if weight_dims is None or len(weight_dims) != 4:
                builder.error(
                    IMPORT_SHAPE_MISMATCH,
                    f"{layer_name}: Conv weights must be a rank-4 initializer, "
                    f"got {weight_dims}",
                    hint="dynamic (computed) conv weights cannot be lowered",
                )
                continue
            auto_pad = node.attrs.get("auto_pad")
            if auto_pad not in (None, "NOTSET"):
                builder.error(
                    IMPORT_UNSUPPORTED_ATTRIBUTE,
                    f"{layer_name}: auto_pad={auto_pad!r} is not supported",
                    hint="re-export with explicit 'pads'",
                )
                continue
            out_ch, in_per_group, k_h, k_w = weight_dims
            if k_h != k_w:
                builder.error(
                    IMPORT_ASYMMETRIC_ATTRIBUTE,
                    f"{layer_name}: non-square kernel {k_h}x{k_w} is not supported",
                )
                continue
            groups = node.attrs.get("group", 1)
            stride = _onnx_symmetric(builder, layer_name, "strides", node.attrs.get("strides"), 1)
            dilation = _onnx_symmetric(
                builder, layer_name, "dilations", node.attrs.get("dilations"), 1
            )
            pads = node.attrs.get("pads")
            if pads is not None and (
                not isinstance(pads, list) or len(set(pads)) != 1
            ):
                builder.error(
                    IMPORT_ASYMMETRIC_ATTRIBUTE,
                    f"{layer_name}: asymmetric pads {pads} are not supported",
                )
                continue
            pad = pads[0] if isinstance(pads, list) else 0
            if stride is None or dilation is None:
                continue
            if shape[0] != in_per_group * groups:
                builder.error(
                    IMPORT_SHAPE_MISMATCH,
                    f"{layer_name}: input has {shape[0]} channels but weights "
                    f"expect {in_per_group}*{groups}",
                )
                continue
            layer = builder.build_conv(
                name=layer_name,
                in_channels=shape[0],
                out_channels=out_ch,
                in_height=shape[1],
                in_width=shape[2],
                kernel=k_h,
                stride=stride,
                pad=pad,
                groups=groups,
                dilation=dilation,
            )
            if layer is None:
                continue
            shapes[out_name] = (out_ch, layer.out_height, layer.out_width)
            producers[out_name] = layer_name

        elif op in ("MaxPool", "AveragePool", "GlobalAveragePool"):
            shape = shapes.get(node.inputs[0]) if node.inputs else None
            if shape is None or shape[0] == _FLAT:
                builder.error(
                    IMPORT_SHAPE_MISMATCH, f"{layer_name}: input activation shape is unknown"
                )
                continue
            if node.attrs.get("ceil_mode", 0):
                builder.error(
                    IMPORT_UNSUPPORTED_ATTRIBUTE,
                    f"{layer_name}: ceil_mode pooling is not supported",
                    hint="re-export with floor-mode pooling",
                )
                continue
            if op == "GlobalAveragePool":
                if shape[1] != shape[2]:
                    builder.error(
                        IMPORT_ASYMMETRIC_ATTRIBUTE,
                        f"{layer_name}: global pooling needs a square map, "
                        f"got {shape[1]}x{shape[2]}",
                    )
                    continue
                kernel, stride, pad = shape[1], 1, 0
            else:
                kernel = _onnx_symmetric(
                    builder, layer_name, "kernel_shape", node.attrs.get("kernel_shape"), 0
                )
                stride = _onnx_symmetric(
                    builder, layer_name, "strides", node.attrs.get("strides"), 1
                )
                pads = node.attrs.get("pads")
                if pads is not None and (
                    not isinstance(pads, list) or len(set(pads)) != 1
                ):
                    builder.error(
                        IMPORT_ASYMMETRIC_ATTRIBUTE,
                        f"{layer_name}: asymmetric pads {pads} are not supported",
                    )
                    continue
                pad = pads[0] if isinstance(pads, list) else 0
                if kernel == 0:
                    builder.error(
                        IMPORT_SPEC_MALFORMED,
                        f"{layer_name}: {op} needs a kernel_shape attribute >= 1",
                    )
                if not kernel or stride is None:
                    continue
            layer = builder.build_pool(
                name=layer_name,
                channels=shape[0],
                in_height=shape[1],
                in_width=shape[2],
                kernel=kernel,
                stride=stride,
                pad=pad,
                mode="max" if op == "MaxPool" else "avg",
            )
            if layer is None:
                continue
            shapes[out_name] = (shape[0], layer.out_height, layer.out_width)
            producers[out_name] = layer_name

        elif op in ("Gemm", "MatMul"):
            shape = shapes.get(node.inputs[0]) if node.inputs else None
            weight_dims = inits.get(node.inputs[1]) if len(node.inputs) > 1 else None
            if weight_dims is None or len(weight_dims) != 2:
                builder.error(
                    IMPORT_SHAPE_MISMATCH,
                    f"{layer_name}: {op} weights must be a rank-2 initializer",
                )
                continue
            if op == "Gemm" and (
                node.attrs.get("alpha", 1.0) != 1.0
                or node.attrs.get("beta", 1.0) != 1.0
                or node.attrs.get("transA", 0)
            ):
                builder.error(
                    IMPORT_UNSUPPORTED_ATTRIBUTE,
                    f"{layer_name}: Gemm with alpha/beta != 1 or transA is not supported",
                )
                continue
            if op == "Gemm" and node.attrs.get("transB", 0):
                out_features, in_features = weight_dims
            else:
                in_features, out_features = weight_dims
            if shape is not None:
                have = shape[1] if shape[0] == _FLAT else shape[0] * shape[1] * shape[2]
                if have != in_features:
                    builder.error(
                        IMPORT_SHAPE_MISMATCH,
                        f"{layer_name}: {op} expects {in_features} input features "
                        f"but the incoming tensor has {have}",
                    )
                    continue
            builder.build_fc(
                name=layer_name, in_features=in_features, out_features=out_features
            )
            shapes[out_name] = (_FLAT, out_features)

        elif op == "Add":
            operands = [t for t in node.inputs if t not in inits]
            if len(operands) < 2:
                # Bias/constant add: shape-preserving pass-through.
                if operands and operands[0] in shapes:
                    shapes[out_name] = shapes[operands[0]]
                continue
            a, b = operands[0], operands[1]
            if a not in shapes or b not in shapes:
                builder.error(
                    IMPORT_SHAPE_MISMATCH,
                    f"{layer_name}: residual Add has operands with unknown shapes",
                )
                continue
            if shapes[a] != shapes[b] or shapes[a][0] == _FLAT:
                builder.error(
                    IMPORT_SHAPE_MISMATCH,
                    f"{layer_name}: residual operands disagree — "
                    f"{shapes[a]} vs {shapes[b]}",
                )
                continue
            channels, height, width = shapes[a]
            builder.build_add(
                name=layer_name,
                channels=channels,
                height=height,
                width=width,
                operands=(producers.get(a, a), producers.get(b, b)),
            )
            shapes[out_name] = shapes[a]
            producers[out_name] = layer_name

        elif op in _PASSTHROUGH_OPS:
            if node.inputs and node.inputs[0] in shapes:
                shapes[out_name] = shapes[node.inputs[0]]
                if node.inputs[0] in producers:
                    producers[out_name] = producers[node.inputs[0]]

        elif op in _FLATTEN_OPS:
            shape = shapes.get(node.inputs[0]) if node.inputs else None
            if shape is not None:
                features = shape[1] if shape[0] == _FLAT else shape[0] * shape[1] * shape[2]
                shapes[out_name] = (_FLAT, features)

        elif op == "Constant":
            continue

        else:
            builder.error(
                IMPORT_UNSUPPORTED_OP,
                f"{layer_name}: unsupported ONNX op {op!r}",
                hint="supported: Conv, Gemm, MatMul, MaxPool, AveragePool, "
                "GlobalAveragePool, Add, Flatten/Reshape and shape-preserving "
                "activations; see docs/importer.md for the unsupported-op policy",
            )


# --------------------------------------------------------------------------
# Path dispatch
# --------------------------------------------------------------------------


def load_network(path: str | Path, *, strict: bool = True) -> ImportResult:
    """Import a network file, dispatching on its suffix.

    ``.json`` -> :func:`import_json`; ``.onnx`` / ``.pb`` ->
    :func:`import_onnx`.  Anything else is an ``SA140`` error.
    """
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".json":
        return import_json(path.read_text(), strict=strict)
    if suffix in (".onnx", ".pb"):
        return import_onnx(path, strict=strict)
    report = AnalysisReport()
    report.add(
        IMPORT_SPEC_MALFORMED,
        Severity.ERROR,
        f"unrecognized network file suffix {suffix!r} for {path.name}",
        hint="use a .json spec or a serialized .onnx model",
    )
    if strict:
        report.raise_if_errors()
    return ImportResult(None, report)


__all__ = [
    "ImportResult",
    "import_json",
    "import_onnx",
    "load_network",
]
