"""The network importer: JSON specs, ONNX graphs, and SA14x diagnostics.

Three layers of coverage:

* a **property suite** over :func:`tests.strategies.network_specs` —
  every generated spec imports, lowers to legal loop nests, and flows
  through the multi-layer DSE preparation (the import -> lower ->
  legality -> model round-trip);
* a **hand-rolled ONNX wire encoder** (no ``onnx`` dependency) driving
  the minimal protobuf reader over every supported operator and every
  rejection path;
* the **BAD_SPEC_CORPUS** — one minimal spec per SA14x code, used here
  for exactness and by the end-to-end fuzz suite's reachability audit.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings

from repro.analysis.diagnostics import DiagnosticError
from repro.analysis.nest_check import check_nest
from repro.dse.multi_layer import prepare_network_nests
from repro.frontend.network import ImportResult, import_json, import_onnx, load_network
from repro.model.design_point import ArrayShape, DesignPoint
from repro.model.mapping import feasible_mappings
from repro.nn.layers import ConvLayer

from tests.strategies import network_specs, rich_conv_layers

# --------------------------------------------------------------------------
# The SA14x corpus: one minimal JSON spec per diagnostic code.  The fuzz
# suite's reachability audit asserts this covers every registered SA14x
# code, so adding a code without a corpus entry fails CI.
# --------------------------------------------------------------------------

_INPUT = {"channels": 3, "height": 8, "width": 8}

BAD_SPEC_CORPUS: dict[str, dict] = {
    # not well-formed: missing the 'input' object entirely
    "SA140": {"layers": [{"op": "conv", "out_channels": 4, "kernel": 3}]},
    # unsupported operator
    "SA141": {"input": _INPUT, "layers": [{"op": "lstm"}]},
    # unsupported attribute: separable_conv does not take groups
    "SA142": {
        "input": _INPUT,
        "layers": [{"op": "separable_conv", "out_channels": 4, "kernel": 3, "groups": 2}],
    },
    # asymmetric kernel
    "SA143": {
        "input": _INPUT,
        "layers": [{"op": "conv", "out_channels": 4, "kernel": [3, 5]}],
    },
    # shape mismatch: residual add against an unknown layer
    "SA144": {
        "input": _INPUT,
        "layers": [
            {"op": "conv", "name": "c1", "out_channels": 4, "kernel": 3},
            {"op": "add", "with": "nope"},
        ],
    },
    # kernel does not fit in the padded input
    "SA145": {
        "input": _INPUT,
        "layers": [{"op": "conv", "out_channels": 4, "kernel": 11}],
    },
}


@pytest.mark.parametrize("code", sorted(BAD_SPEC_CORPUS))
def test_bad_spec_corpus_emits_exactly_its_code(code):
    result = import_json(BAD_SPEC_CORPUS[code], strict=False)
    assert not result.ok
    assert [d.code for d in result.report.errors] == [code]


def test_strict_mode_raises_diagnostic_error():
    with pytest.raises(DiagnosticError) as err:
        import_json(BAD_SPEC_CORPUS["SA141"])
    assert err.value.report.errors[0].code == "SA141"
    assert isinstance(err.value, ValueError)


def test_multiple_problems_reported_in_one_pass():
    spec = {
        "input": _INPUT,
        "layers": [
            {"op": "conv", "out_channels": 4, "kernel": 3},
            {"op": "lstm"},
            {"op": "gru"},
        ],
    }
    result = import_json(spec, strict=False)
    assert [d.code for d in result.report.errors] == ["SA141", "SA141"]


def test_pool_without_kernel_is_one_finding():
    """The stride defaults from the kernel; a missing kernel is not also
    a bad stride."""
    spec = {
        "input": _INPUT,
        "layers": [{"op": "conv", "out_channels": 4, "kernel": 3}, {"op": "pool", "name": "p"}],
    }
    result = import_json(spec, strict=False)
    assert [(d.code, d.message) for d in result.report.errors] == [
        ("SA140", "p: attribute 'kernel' must be an integer >= 1, got None")
    ]


# --------------------------------------------------------------------------
# Property suite: generated specs round-trip through the whole lowering
# --------------------------------------------------------------------------


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=network_specs())
def test_generated_specs_import_and_lower(spec):
    result = import_json(spec)
    assert result.ok
    network = result.network
    assert network.conv_layers

    # every conv layer lowers to a nest the legality checker accepts
    for layer in network.conv_layers:
        report = check_nest(layer.group_view().to_loop_nest(), allow_strided=True)
        assert report.ok, report.render()

    # and the multi-layer DSE preparation consumes the whole network
    workloads = prepare_network_nests(network)
    assert len(workloads) == len(network.conv_layers)
    for workload in workloads:
        assert workload.effective_ops > 0
        assert workload.multiplicity >= 1
        assert feasible_mappings(workload.nest)


@settings(max_examples=25, deadline=None)
@given(layer=rich_conv_layers())
def test_rich_layers_shapes_agree_with_nests(layer):
    """The descriptor's geometry and its lowered nest agree exactly."""
    nest = layer.group_view().to_loop_nest()
    bounds = dict(nest.bounds)
    assert bounds["o"] == layer.out_channels // layer.groups
    assert bounds["i"] == layer.in_channels // layer.groups
    assert bounds["r"] == layer.out_height
    assert bounds["c"] == layer.out_width
    assert bounds["p"] == bounds["q"] == layer.kernel
    assert check_nest(nest, allow_strided=True).ok


def test_import_json_accepts_text_and_rejects_garbage():
    spec = {
        "name": "txt",
        "input": _INPUT,
        "layers": [{"op": "conv", "out_channels": 4, "kernel": 3}],
    }
    assert import_json(json.dumps(spec)).network.name == "txt"
    bad = import_json("{not json", strict=False)
    assert [d.code for d in bad.report.errors] == ["SA140"]


def test_depthwise_spec_layers_are_depthwise():
    spec = {
        "input": {"channels": 6, "height": 10, "width": 10},
        "layers": [
            {"op": "conv", "name": "dw", "out_channels": 6, "kernel": 3,
             "pad": 1, "groups": "depthwise"},
            {"op": "separable_conv", "name": "sep", "out_channels": 12, "kernel": 3,
             "pad": 1},
        ],
    }
    network = import_json(spec).network
    dw, sep_dw, sep_pw = network.conv_layers
    assert dw.is_depthwise and dw.groups == 6
    assert sep_dw.is_depthwise and sep_dw.in_channels == 6
    assert sep_pw.kernel == 1 and sep_pw.out_channels == 12


# --------------------------------------------------------------------------
# ONNX: a hand-rolled wire encoder exercises the protobuf reader without
# the onnx package.
# --------------------------------------------------------------------------


def _vint(n: int) -> bytes:
    out = b""
    while True:
        b7 = n & 0x7F
        n >>= 7
        out += bytes([b7 | (0x80 if n else 0)])
        if not n:
            return out


def _tag(field: int, wire: int) -> bytes:
    return _vint((field << 3) | wire)


def _ld(field: int, payload: bytes) -> bytes:
    return _tag(field, 2) + _vint(len(payload)) + payload


def _vf(field: int, n: int) -> bytes:
    return _tag(field, 0) + _vint(n)


def _sf(field: int, text: str) -> bytes:
    return _ld(field, text.encode())


def onnx_attr_ints(name: str, values: list[int]) -> bytes:
    return _ld(5, _sf(1, name) + b"".join(_vf(8, v) for v in values))


def onnx_attr_int(name: str, value: int) -> bytes:
    return _ld(5, _sf(1, name) + _vf(3, value))


def onnx_attr_float(name: str, value: float) -> bytes:
    return _ld(5, _sf(1, name) + _tag(2, 5) + struct.pack("<f", value))


def onnx_attr_str(name: str, value: str) -> bytes:
    return _ld(5, _sf(1, name) + _sf(4, value))


def onnx_node(
    op: str, inputs: list[str], outputs: list[str], name: str = "", attrs: bytes = b""
) -> bytes:
    return _ld(
        1,
        b"".join(_sf(1, i) for i in inputs)
        + b"".join(_sf(2, o) for o in outputs)
        + _sf(3, name)
        + _sf(4, op)
        + attrs,
    )


def onnx_initializer(name: str, dims: tuple[int, ...]) -> bytes:
    return _ld(5, b"".join(_vf(1, d) for d in dims) + _sf(8, name))


def onnx_input(name: str, dims: tuple[int, ...]) -> bytes:
    shape = b"".join(_ld(1, _vf(1, d)) for d in dims)
    return _ld(11, _sf(1, name) + _ld(2, _ld(1, _ld(2, shape))))


def onnx_model(graph_fields: bytes, name: str = "testnet") -> bytes:
    return _ld(7, graph_fields + _sf(2, name))


def _mobilenet_style_model() -> bytes:
    """Conv(s2,p1) -> Relu -> depthwise Conv -> Add residual -> GAP -> Gemm."""
    return onnx_model(
        onnx_node("Conv", ["x", "w1"], ["c1"], "c1",
                  onnx_attr_ints("strides", [2, 2]) + onnx_attr_ints("pads", [1, 1, 1, 1])
                  + onnx_attr_ints("kernel_shape", [3, 3]))
        + onnx_node("Relu", ["c1"], ["r1"], "relu1")
        + onnx_node("Conv", ["r1", "w2"], ["c2"], "c2",
                    onnx_attr_int("group", 8) + onnx_attr_ints("pads", [1, 1, 1, 1]))
        + onnx_node("Add", ["c2", "r1"], ["a1"], "res_add")
        + onnx_node("GlobalAveragePool", ["a1"], ["g1"], "gap")
        + onnx_node("Flatten", ["g1"], ["f1"], "flat")
        + onnx_node("Gemm", ["f1", "w3", "b3"], ["y"], "fc", onnx_attr_int("transB", 1))
        + onnx_initializer("w1", (8, 3, 3, 3))
        + onnx_initializer("w2", (8, 1, 3, 3))
        + onnx_initializer("w3", (10, 8))
        + onnx_initializer("b3", (10,))
        + onnx_input("x", (1, 3, 16, 16))
    )


def test_onnx_mobilenet_style_graph_lowers():
    network = import_onnx(_mobilenet_style_model()).network
    assert network.name == "testnet"
    c1, c2 = network.conv_layers
    assert c1.stride == 2 and c1.pad == 1 and c1.out_channels == 8
    assert c2.is_depthwise and c2.groups == 8
    (pool,) = network.pool_layers
    assert pool.mode == "avg" and pool.kernel == 8  # global over the 8x8 map
    (add,) = network.add_layers
    assert add.operands == ("c2", "c1")  # Relu pass-through resolves to c1
    (fc,) = network.fc_layers
    assert (fc.in_features, fc.out_features) == (8, 10)


def test_onnx_dilated_and_strided_attributes():
    model = onnx_model(
        onnx_node("Conv", ["x", "w"], ["y"], "dil",
                  onnx_attr_ints("dilations", [2, 2]) + onnx_attr_ints("pads", [2, 2, 2, 2]))
        + onnx_initializer("w", (4, 3, 3, 3))
        + onnx_input("x", (1, 3, 14, 14))
    )
    (layer,) = import_onnx(model).network.conv_layers
    assert layer.dilation == 2 and layer.pad == 2
    assert layer.out_height == 14  # same-size: span 5, pad 2


_MOBILENET_TWIN = {
    "name": "testnet",
    "input": {"channels": 3, "height": 16, "width": 16},
    "layers": [
        {"op": "conv", "name": "c1", "out_channels": 8, "kernel": 3,
         "stride": 2, "pad": 1},
        {"op": "relu", "name": "relu1"},
        {"op": "conv", "name": "c2", "out_channels": 8, "kernel": 3,
         "pad": 1, "groups": "depthwise"},
        {"op": "add", "name": "res_add", "with": "relu1"},
        {"op": "global_pool", "name": "gap"},
        {"op": "flatten"},
        {"op": "fc", "name": "fc", "out_features": 10},
    ],
}

_ONNX_PASSTHROUGH = {
    "relu": "Relu", "batchnorm": "BatchNormalization", "dropout": "Dropout",
    "softmax": "Softmax", "identity": "Identity",
}


def spec_to_onnx(spec: dict) -> bytes:
    """Render a JSON spec as ONNX bytes, one node per layer entry.

    Node names are the layer names and each node writes a tensor of its
    own name; ``separable_conv`` becomes its ``_dw``/``_pw`` Conv pair and
    pass-throughs stay in the graph.  Shapes are chained only as far as
    the weight initializers need them (input channels, fc features).
    """
    dims = spec["input"]
    shape: tuple = (dims["channels"], dims["height"], dims["width"])
    tensor, fields = "input", b""

    def conv(name, source, out, out_ch, kernel, stride=1, pad=0, dilation=1, groups=1):
        nonlocal fields, shape
        fields += onnx_node(
            "Conv", [source, f"{name}.w"], [out], name,
            onnx_attr_ints("strides", [stride] * 2) + onnx_attr_ints("pads", [pad] * 4)
            + onnx_attr_ints("dilations", [dilation] * 2) + onnx_attr_int("group", groups),
        ) + onnx_initializer(f"{name}.w", (out_ch, shape[0] // groups, kernel, kernel))
        try:
            probe = ConvLayer("probe", shape[0], out_ch, shape[1], shape[2], kernel=kernel,
                              stride=stride, pad=pad, groups=groups, dilation=dilation)
            shape = (out_ch, probe.out_height, probe.out_width)
        except ValueError:
            pass  # an unimportable layer: the importer reports it, the chain moves on

    for index, entry in enumerate(spec["layers"]):
        op = entry["op"]
        name = entry.get("name", f"{op}{index}")
        if op == "conv":
            groups = entry.get("groups", 1)
            conv(name, tensor, name, entry["out_channels"], entry["kernel"],
                 entry.get("stride", 1), entry.get("pad", 0), entry.get("dilation", 1),
                 shape[0] if groups == "depthwise" else groups)
        elif op == "separable_conv":
            conv(f"{name}_dw", tensor, f"{name}_dw", shape[0], entry["kernel"],
                 entry.get("stride", 1), entry.get("pad", 0), entry.get("dilation", 1),
                 shape[0])
            # the pointwise half writes the tensor later entries name
            conv(f"{name}_pw", f"{name}_dw", name, entry["out_channels"], 1)
        elif op == "pool":
            kernel, pad = entry["kernel"], entry.get("pad", 0)
            stride = entry.get("stride", kernel)
            fields += onnx_node(
                "MaxPool" if entry.get("mode", "max") == "max" else "AveragePool",
                [tensor], [name], name,
                onnx_attr_ints("kernel_shape", [kernel] * 2)
                + onnx_attr_ints("strides", [stride] * 2) + onnx_attr_ints("pads", [pad] * 4),
            )
            shape = (shape[0], *((e + 2 * pad - kernel) // stride + 1 for e in shape[1:]))
        elif op == "global_pool":
            fields += onnx_node("GlobalAveragePool", [tensor], [name], name)
            shape = (shape[0], 1, 1)
        elif op == "fc":
            features = shape[1] if shape[0] == "flat" else shape[0] * shape[1] * shape[2]
            fields += onnx_node("Gemm", [tensor, f"{name}.w"], [name], name)
            fields += onnx_initializer(f"{name}.w", (features, entry["out_features"]))
            shape = ("flat", entry["out_features"])
        elif op == "add":
            fields += onnx_node("Add", [tensor, entry["with"]], [name], name)
        elif op == "flatten":
            fields += onnx_node("Flatten", [tensor], [name], name)
            if shape[0] != "flat":
                shape = ("flat", shape[0] * shape[1] * shape[2])
        else:
            fields += onnx_node(_ONNX_PASSTHROUGH[op], [tensor], [name], name)
        tensor = name
    fields += onnx_input("input", (1, dims["channels"], dims["height"], dims["width"]))
    return onnx_model(fields, spec.get("name", "network"))


# The residual names a separable_conv: the tensor is the spec's name, the
# layer that wrote it is the pointwise half.
_SEPARABLE_RESIDUAL = {
    "name": "sepres",
    "input": {"channels": 3, "height": 8, "width": 8},
    "layers": [
        {"op": "separable_conv", "name": "s", "out_channels": 3, "kernel": 3, "pad": 1},
        {"op": "relu", "name": "r"},
        {"op": "conv", "name": "c", "out_channels": 3, "kernel": 3, "pad": 1},
        {"op": "add", "name": "a", "with": "s"},
        {"op": "pool", "kernel": 2},
        {"op": "fc", "out_features": 4},
    ],
}


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=network_specs())
@example(spec=_SEPARABLE_RESIDUAL)
def test_onnx_and_json_lower_identically(spec):
    """One network written both ways is one ``Network``: every conv, pool,
    fc and add layer, residual operand labels included."""
    assert import_onnx(spec_to_onnx(spec)).network == import_json(spec).network


def test_mobilenet_graph_equals_its_json_twin():
    """The residual joins a Relu's output: both formats label that operand
    with the layer that produced the tensor, not with the pass-through."""
    assert import_onnx(_mobilenet_style_model()).network == import_json(_MOBILENET_TWIN).network


# One minimal model per rejection path: id -> (bytes, a code its report carries).
ONNX_REJECTIONS: dict[str, tuple[bytes, str]] = {
    "garbage": (b"\x99not a protobuf\xff", "SA140"),
    "unsupported-op": (
        onnx_model(
            onnx_node("Concat", ["x", "x"], ["y"], "cat")
            + onnx_input("x", (1, 3, 8, 8))
        ),
        "SA141",
    ),
    "auto-pad": (
        onnx_model(
            onnx_node("Conv", ["x", "w"], ["y"], "c",
                      onnx_attr_str("auto_pad", "SAME_UPPER"))
            + onnx_initializer("w", (4, 3, 3, 3))
            + onnx_input("x", (1, 3, 8, 8))
        ),
        "SA142",
    ),
    "asymmetric": (
        onnx_model(
            onnx_node("Conv", ["x", "w"], ["y"], "c",
                      onnx_attr_ints("strides", [1, 2]))
            + onnx_initializer("w", (4, 3, 3, 3))
            + onnx_input("x", (1, 3, 8, 8))
        ),
        "SA143",
    ),
    "unknown-shape": (
        onnx_model(
            onnx_node("Conv", ["mystery", "w"], ["y"], "c")
            + onnx_initializer("w", (4, 3, 3, 3))
            + onnx_input("x", (1, 3, 8, 8))
        ),
        "SA144",
    ),
    "kernel-too-big": (
        onnx_model(
            onnx_node("Conv", ["x", "w"], ["y"], "c")
            + onnx_initializer("w", (4, 3, 11, 11))
            + onnx_input("x", (1, 3, 8, 8))
        ),
        "SA145",
    ),
    # Regression: a pool without kernel_shape was dropped without a
    # diagnostic, so the Gemm's feature mismatch went unchecked too.
    "pool-without-kernel": (
        onnx_model(
            onnx_node("Conv", ["x", "w"], ["y"], "c")
            + onnx_node("MaxPool", ["y"], ["p"], "pool")
            + onnx_node("Flatten", ["p"], ["f"], "flat")
            + onnx_node("Gemm", ["f", "fw"], ["z"], "fc")
            + onnx_initializer("w", (4, 3, 3, 3))
            + onnx_initializer("fw", (999, 10))
            + onnx_input("x", (1, 3, 8, 8))
        ),
        "SA140",
    ),
    # A Gemm reading a tensor nobody produced used to import clean, with
    # in_features read off its weights; a Conv there was already SA144.
    "gemm-unknown-shape": (
        onnx_model(
            onnx_node("Conv", ["x", "w"], ["y"], "c")
            + onnx_node("Gemm", ["mystery", "fw"], ["z"], "fc")
            + onnx_initializer("w", (4, 3, 3, 3))
            + onnx_initializer("fw", (144, 10))
            + onnx_input("x", (1, 3, 8, 8))
        ),
        "SA144",
    ),
}


@pytest.mark.parametrize(
    "model, code", list(ONNX_REJECTIONS.values()), ids=list(ONNX_REJECTIONS)
)
def test_onnx_rejections(model, code):
    result = import_onnx(model, strict=False)
    assert not result.ok
    assert code in [d.code for d in result.report.errors]


def test_onnx_optional_package_objects_are_accepted():
    """With the onnx package installed, ModelProto objects import directly
    (exercised by the import-conformance CI job; skipped without onnx)."""
    onnx = pytest.importorskip("onnx")
    from onnx import TensorProto, helper

    graph = helper.make_graph(
        [
            helper.make_node("Conv", ["x", "w"], ["y"], name="conv",
                             kernel_shape=[3, 3], pads=[1, 1, 1, 1], strides=[2, 2]),
        ],
        "pkg_net",
        [helper.make_tensor_value_info("x", TensorProto.FLOAT, [1, 3, 16, 16])],
        [helper.make_tensor_value_info("y", TensorProto.FLOAT, [1, 4, 8, 8])],
        [helper.make_tensor("w", TensorProto.FLOAT, [4, 3, 3, 3],
                            [0.0] * (4 * 3 * 3 * 3))],
    )
    model = helper.make_model(graph)
    network = import_onnx(model).network
    (layer,) = network.conv_layers
    assert (layer.stride, layer.pad, layer.out_channels) == (2, 1, 4)
    _ = onnx


def test_docs_coverage_matrix_is_the_op_table():
    """docs/importer.md's matrix lists exactly the op table's rows, with
    the names each format uses for them — it cannot go stale."""
    from repro.frontend.network import _OPS

    docs = (Path(__file__).parents[2] / "docs" / "importer.md").read_text()
    matrix = docs.split("## Coverage matrix", 1)[1].split("\n## ", 1)[0]
    rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in matrix.splitlines()
        if line.startswith("| `")
    ]

    def spelled(names):
        return ", ".join(f"`{name}`" for name in names) or "—"

    assert [row[:3] for row in rows] == [
        [f"`{op}`", spelled(row.json), spelled(row.onnx)] for op, row in _OPS.items()
    ]


# --------------------------------------------------------------------------
# load_network dispatch + import CLI
# --------------------------------------------------------------------------


def _tiny_spec() -> dict:
    return {
        "name": "clinet",
        "input": {"channels": 3, "height": 11, "width": 11},
        "layers": [
            {"op": "conv", "name": "c1", "out_channels": 4, "kernel": 3, "stride": 2},
            {"op": "conv", "name": "c2", "out_channels": 4, "kernel": 3, "pad": 1,
             "groups": "depthwise"},
        ],
    }


def test_load_network_dispatch(tmp_path):
    json_path = tmp_path / "net.json"
    json_path.write_text(json.dumps(_tiny_spec()))
    assert load_network(json_path).network.name == "clinet"

    onnx_path = tmp_path / "net.onnx"
    onnx_path.write_bytes(_mobilenet_style_model())
    assert load_network(onnx_path).network.name == "testnet"

    bad = load_network(tmp_path / "net.txt", strict=False)
    assert not bad.ok and bad.report.errors[0].code == "SA140"
    (tmp_path / "net.txt").write_text("x")  # suffix decides before content


def test_load_network_unreadable_file_is_one_sa140(tmp_path):
    """Bytes that are not UTF-8, or a path that cannot be read at all,
    are a malformed spec like any other — never a traceback."""
    binary = tmp_path / "bin.json"
    binary.write_bytes(b"\xff\xfe\x00{")
    (tmp_path / "dir.onnx").mkdir()
    for path in (binary, tmp_path / "dir.onnx"):
        result = load_network(path, strict=False)
        assert result.network is None
        assert [d.code for d in result.report.errors] == ["SA140"]
        assert path.name in result.report.errors[0].message
    with pytest.raises(DiagnosticError):
        load_network(binary)


def test_import_cli_renders_an_undecodable_file(tmp_path, capsys):
    from repro.flow.cli import main

    binary = tmp_path / "bin.json"
    binary.write_bytes(b"\xff\xfe\x00{")
    assert main(["import", str(binary), "--check-only"]) == 1
    captured = capsys.readouterr()
    assert "SA140" in captured.err and "bin.json" in captured.err
    assert "Traceback" not in captured.err and not captured.out


def test_import_cli_check_only(tmp_path, capsys):
    from repro.flow.cli import main

    path = tmp_path / "net.json"
    path.write_text(json.dumps(_tiny_spec()))
    assert main(["import", str(path), "--check-only"]) == 0
    out = capsys.readouterr().out
    assert "clinet" in out and "c2" in out

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(BAD_SPEC_CORPUS["SA145"]))
    assert main(["import", str(bad), "--check-only"]) == 1
    assert "SA145" in capsys.readouterr().err


def test_import_cli_synthesizes_unified_design(tmp_path, capsys):
    from repro.flow.cli import main

    path = tmp_path / "net.json"
    path.write_text(json.dumps(_tiny_spec()))
    out_dir = tmp_path / "out"
    assert main([
        "import", str(path), "-o", str(out_dir), "-q", "--no-cache",
        "--top-n", "2", "--cs", "0.05",
    ]) == 0
    assert (out_dir / "kernel.cl").is_file()
    report = (out_dir / "report.txt").read_text()
    assert "unified design for clinet" in report and "c2" in report


# --------------------------------------------------------------------------
# Acceptance: cross_check passes bit-identically on one layer of each new
# structural kind (strided, dilated, grouped, depthwise).
# --------------------------------------------------------------------------

_KIND_LAYERS = {
    "strided": ConvLayer("strided", 3, 4, 9, 9, kernel=3, stride=2),
    "dilated": ConvLayer("dilated", 3, 4, 9, 9, kernel=3, pad=2, dilation=2),
    "grouped": ConvLayer("grouped", 4, 4, 7, 7, kernel=3, pad=1, groups=2),
    "depthwise": ConvLayer("depthwise", 4, 4, 7, 7, kernel=3, pad=1, groups=4),
}


@pytest.mark.parametrize("kind", sorted(_KIND_LAYERS))
def test_cross_check_per_layer_kind(kind):
    from repro.verify.conformance import cross_check

    layer = _KIND_LAYERS[kind]
    nest = layer.group_view().to_loop_nest()
    mapping = feasible_mappings(nest)[0]
    design = DesignPoint.create(nest, mapping, ArrayShape(2, 2, 1), {})
    conformance = cross_check(design, layer, seed=7)
    assert conformance.ok, conformance.render()
    leg_names = [leg.name for leg in conformance.legs]
    assert "layer-vs-conv-golden" in leg_names
