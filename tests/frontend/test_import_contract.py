"""The network importer's contract, pinned.

``golden/import_contract.json`` holds, for every input below, the
``repr`` of the lowered :class:`repro.nn.Network` (``null`` when none was
assembled) and the ordered ``(code, message)`` list of the report.  It
was recorded with the two hand-written lowerings (``import_json``'s
inline loop and ``_lower_onnx_graph``) that preceded the shared op table
of :mod:`repro.frontend.network`, so it is the oracle that translating
both formats to one node list changed no network and no diagnostic code.
The entries whose recording was *edited* afterwards — one wording for a
condition the two copies worded differently, residual operands labelled
by producing layer in both formats, and three fixes — are listed by name
in CHANGES.md (PR 21) with their old and new text; the two
``docs-example`` entries were refreshed when that example was fixed to
import cleanly.

Inputs: ``BAD_SPEC_CORPUS``, ``ONNX_REJECTIONS``, one extra malformed
input per remaining ``builder.error`` site of either format, the example
spec of ``docs/importer.md``, the MobileNet-style graph with its JSON
twin, ``WELL_FORMED`` and 20 seeded ``network_specs()`` draws — the last
three groups in both formats.  The draws are stored in the golden, so replaying them does
not depend on the hypothesis version.

Regenerate after an *intentional* change with::

    pytest tests/frontend/test_import_contract.py --refresh-golden
"""

import json
import re
from pathlib import Path

from hypothesis import Phase, given, seed, settings

from repro.frontend.network import import_json, import_onnx

from tests.frontend.test_network_import import (
    _MOBILENET_TWIN,
    _SEPARABLE_RESIDUAL,
    BAD_SPEC_CORPUS,
    ONNX_REJECTIONS,
    _mobilenet_style_model,
    onnx_attr_float,
    onnx_attr_int,
    onnx_attr_ints,
    onnx_initializer,
    onnx_input,
    onnx_model,
    onnx_node,
    spec_to_onnx,
)
from tests.strategies import network_specs

GOLDEN = Path(__file__).parent / "golden" / "import_contract.json"
DOCS = Path(__file__).parents[2] / "docs" / "importer.md"

_IN = {"channels": 3, "height": 8, "width": 8}
_CONV = {"op": "conv", "name": "c1", "out_channels": 4, "kernel": 3, "pad": 1}


def _net(*layers, **top):
    return {"input": _IN, "layers": list(layers), **top}


# One input per JSON diagnostic site the corpus does not reach, plus the
# multi-layer cases that pin how a failed layer affects the ones after it.
EXTRA_JSON = {
    "not-json": "{not json",
    "not-an-object": "[1, 2]",
    "no-layers-list": {"input": _IN},
    "bad-input-dims": {"input": {"channels": 3, "height": 0, "width": 8}, "layers": [_CONV]},
    "entry-not-an-object": _net(_CONV, 7, {"kernel": 3}),
    "kernel-list-of-strings": _net({"op": "conv", "out_channels": 4, "kernel": ["3", "3"]}),
    "negative-pad": _net({"op": "conv", "out_channels": 4, "kernel": 3, "pad": -1}),
    "conv-without-anything": _net({"op": "conv"}),
    "conv-bool-out-channels": _net({"op": "conv", "out_channels": True, "kernel": 3}),
    "groups-not-a-count": _net({"op": "conv", "out_channels": 4, "kernel": 3, "groups": "x"}),
    "groups-not-dividing": _net({"op": "conv", "out_channels": 4, "kernel": 3, "groups": 2}),
    "conv-after-flatten": _net(_CONV, {"op": "flatten"}, {"op": "conv", "name": "c2",
                                                          "out_channels": 4, "kernel": 1}),
    "pool-after-flatten": _net(_CONV, {"op": "flatten"}, {"op": "pool", "name": "p", "kernel": 2}),
    "pool-bad-mode": _net(_CONV, {"op": "pool", "kernel": 2, "mode": "median"}),
    "pool-without-kernel": _net(_CONV, {"op": "pool", "name": "p"}),
    "pool-asymmetric-stride": _net(_CONV, {"op": "pool", "kernel": 2, "stride": [1, 2]}),
    "pool-kernel-too-big": _net(_CONV, {"op": "pool", "name": "p", "kernel": 9}),
    "global-pool-not-square": {
        "input": {"channels": 3, "height": 8, "width": 6},
        "layers": [_CONV, {"op": "global_pool", "name": "gap"}],
    },
    "fc-without-out-features": _net(_CONV, {"op": "fc", "name": "fc"}),
    "add-without-with": _net(_CONV, {"op": "add", "name": "a"}),
    "add-shapes-disagree": _net(
        _CONV, {"op": "conv", "name": "c2", "out_channels": 6, "kernel": 3, "pad": 1},
        {"op": "add", "name": "a", "with": "c1"},
    ),
    "add-after-flatten": _net(_CONV, {"op": "flatten"}, {"op": "add", "name": "a", "with": "c1"}),
    "no-conv-layers": _net({"op": "pool", "kernel": 2}),
    "two-unknown-ops": _net(_CONV, {"op": "lstm"}, {"op": "gru"}),
    # every layer after a failed one still chains from the last good shape
    "failed-conv-then-more": _net(
        _CONV, {"op": "conv", "name": "big", "out_channels": 4, "kernel": 11},
        {"op": "conv", "name": "c3", "out_channels": 4, "kernel": 3, "pad": 1},
        {"op": "add", "name": "a", "with": "c1"}, {"op": "fc", "name": "fc", "out_features": 5},
    ),
    "every-kernel-too-big": _net(
        {"op": "conv", "name": "k1", "out_channels": 4, "kernel": 99},
        {"op": "relu"}, {"op": "conv", "name": "k2", "out_channels": 4, "kernel": 99},
    ),
    "list-valued-attributes": _net(
        {"op": "conv", "out_channels": 4, "kernel": [3, 3], "stride": [2, 2], "pad": [1, 1],
         "dilation": [1, 1]}, {"op": "pool", "kernel": [2, 2], "stride": [2, 2], "pad": [0, 0]},
    ),
}

# Well-formed specs the seeded draws do not produce; recorded in both formats.
WELL_FORMED = {
    "mobilenet-twin": _MOBILENET_TWIN,
    "every-passthrough": _net(
        _CONV, {"op": "relu"}, {"op": "batchnorm", "name": "bn"}, {"op": "dropout"},
        {"op": "identity"}, {"op": "add", "name": "a", "with": "bn"},
        {"op": "pool", "kernel": 2, "mode": "avg"}, {"op": "global_pool"},
        {"op": "fc", "name": "fc1", "out_features": 6}, {"op": "softmax"},
        {"op": "fc", "name": "fc2", "out_features": 2},
    ),
    "residual-on-separable": _SEPARABLE_RESIDUAL,
    "residual-on-the-input": {
        "input": {"channels": 3, "height": 8, "width": 8},
        "layers": [{"op": "relu", "name": "r"}, {"op": "add", "name": "a", "with": "r"},
                   {"op": "conv", "name": "c", "out_channels": 3, "kernel": 3,
                    "groups": 3, "dilation": 2, "stride": 2}],
    },
}

_X = onnx_input("x", (1, 3, 8, 8))
_W = onnx_initializer("w", (4, 3, 3, 3))
_C = onnx_node("Conv", ["x", "w"], ["y"], "c", onnx_attr_ints("pads", [1, 1, 1, 1]))
_FLAT = onnx_node("Flatten", ["y"], ["f"], "flat")

# The same for the ONNX path.
EXTRA_ONNX = {
    "no-graph": b"",
    "truncated": onnx_model(_C + _W + _X)[:-3],
    "dynamic-input-shape": onnx_model(_C + _W + onnx_input("x", (1, 3, 0, 0))),
    "flat-graph-input": onnx_model(
        _C + _W + _X + onnx_node("Gemm", ["v", "fw"], ["z"], "fc")
        + onnx_initializer("fw", (12, 5)) + onnx_input("v", (1, 12))
    ),
    "conv-after-flatten": onnx_model(
        _C + _FLAT + onnx_node("Conv", ["f", "w2"], ["z"], "c2")
        + _W + onnx_initializer("w2", (4, 4, 1, 1)) + _X
    ),
    "pool-after-flatten": onnx_model(
        _C + _FLAT + onnx_node("MaxPool", ["f"], ["z"], "pool",
                               onnx_attr_ints("kernel_shape", [2, 2])) + _W + _X
    ),
    "pool-unknown-input": onnx_model(
        _C + onnx_node("AveragePool", ["mystery"], ["z"], "pool",
                       onnx_attr_ints("kernel_shape", [2, 2])) + _W + _X
    ),
    "conv-computed-weights": onnx_model(onnx_node("Conv", ["x", "w"], ["y"], "c") + _X),
    "conv-rank-2-weights": onnx_model(
        onnx_node("Conv", ["x", "w"], ["y"], "c") + onnx_initializer("w", (4, 3)) + _X
    ),
    "non-square-kernel": onnx_model(
        onnx_node("Conv", ["x", "w"], ["y"], "c") + onnx_initializer("w", (4, 3, 3, 5)) + _X
    ),
    "asymmetric-dilations": onnx_model(
        onnx_node("Conv", ["x", "w"], ["y"], "c", onnx_attr_ints("dilations", [1, 2])) + _W + _X
    ),
    "asymmetric-pads": onnx_model(
        onnx_node("Conv", ["x", "w"], ["y"], "c", onnx_attr_ints("pads", [0, 1, 0, 1])) + _W + _X
    ),
    "channel-mismatch": onnx_model(
        onnx_node("Conv", ["x", "w"], ["y"], "c") + onnx_initializer("w", (4, 5, 3, 3)) + _X
    ),
    "group-mismatch": onnx_model(
        onnx_node("Conv", ["x", "w"], ["y"], "c", onnx_attr_int("group", 2)) + _W + _X
    ),
    "zero-stride": onnx_model(
        onnx_node("Conv", ["x", "w"], ["y"], "c", onnx_attr_ints("strides", [0, 0])) + _W + _X
    ),
    "ceil-mode-pool": onnx_model(
        _C + onnx_node("MaxPool", ["y"], ["p"], "pool", onnx_attr_ints("kernel_shape", [2, 2])
                       + onnx_attr_int("ceil_mode", 1)) + _W + _X
    ),
    "pool-asymmetric-kernel": onnx_model(
        _C + onnx_node("MaxPool", ["y"], ["p"], "pool", onnx_attr_ints("kernel_shape", [2, 3]))
        + _W + _X
    ),
    "pool-asymmetric-pads": onnx_model(
        _C + onnx_node("MaxPool", ["y"], ["p"], "pool", onnx_attr_ints("kernel_shape", [2, 2])
                       + onnx_attr_ints("pads", [0, 1, 0, 1])) + _W + _X
    ),
    "pool-kernel-too-big": onnx_model(
        _C + onnx_node("MaxPool", ["y"], ["p"], "pool", onnx_attr_ints("kernel_shape", [9, 9]))
        + _W + _X
    ),
    "global-pool-not-square": onnx_model(
        _C + onnx_node("GlobalAveragePool", ["y"], ["g"], "gap") + _W
        + onnx_input("x", (1, 3, 8, 6))
    ),
    "gemm-rank-4-weights": onnx_model(_C + _FLAT + onnx_node("Gemm", ["f", "w"], ["z"], "fc")
                                      + _W + _X),
    "gemm-alpha": onnx_model(
        _C + _FLAT + onnx_node("Gemm", ["f", "fw"], ["z"], "fc", onnx_attr_float("alpha", 0.5))
        + _W + onnx_initializer("fw", (256, 5)) + _X
    ),
    "gemm-trans-a": onnx_model(
        _C + _FLAT + onnx_node("Gemm", ["f", "fw"], ["z"], "fc", onnx_attr_int("transA", 1))
        + _W + onnx_initializer("fw", (256, 5)) + _X
    ),
    "gemm-feature-mismatch": onnx_model(
        _C + _FLAT + onnx_node("Gemm", ["f", "fw"], ["z"], "fc")
        + _W + onnx_initializer("fw", (100, 5)) + _X
    ),
    "matmul-feature-mismatch": onnx_model(
        _C + onnx_node("MatMul", ["y", "fw"], ["z"], "mm")
        + _W + onnx_initializer("fw", (100, 5)) + _X
    ),
    "add-unknown-operand": onnx_model(_C + onnx_node("Add", ["y", "mystery"], ["z"], "a")
                                      + _W + _X),
    "add-shapes-disagree": onnx_model(
        _C + onnx_node("Add", ["y", "x"], ["z"], "a") + _W + _X
    ),
    "add-after-flatten": onnx_model(
        _C + _FLAT + onnx_node("Add", ["f", "f"], ["z"], "a") + _W + _X
    ),
    "no-conv-layers": onnx_model(
        onnx_node("MaxPool", ["x"], ["p"], "pool", onnx_attr_ints("kernel_shape", [2, 2])) + _X
    ),
    # a failed node leaves its output without a shape: readers report it
    "failed-conv-then-more": onnx_model(
        _C + onnx_node("Conv", ["y", "wbig"], ["b"], "big")
        + onnx_node("Relu", ["b"], ["r"], "relu")
        + onnx_node("Conv", ["r", "w3"], ["z"], "c3")
        + onnx_node("Add", ["z", "y"], ["s"], "a")
        + _W + onnx_initializer("wbig", (4, 4, 11, 11)) + onnx_initializer("w3", (4, 4, 1, 1)) + _X
    ),
    # well-formed graphs outside what spec_to_onnx writes
    "bias-add-matmul-transb": onnx_model(
        onnx_node("Conv", ["x", "w", "b"], ["y"], "",
                  onnx_attr_ints("strides", [2, 2]) + onnx_attr_ints("kernel_shape", [3, 3]))
        + onnx_node("Add", ["y", "bias"], ["yb"], "bias_add")
        + onnx_node("Constant", [], ["k"], "const")
        + onnx_node("Clip", ["yb"], ["cl"], "clip")
        + onnx_node("AveragePool", ["cl"], ["p"], "", onnx_attr_ints("kernel_shape", [3, 3]))
        + onnx_node("Add", ["p", "p"], ["s"], "self_add")
        + onnx_node("Reshape", ["s", "shape"], ["f"], "reshape")
        + onnx_node("MatMul", ["f", "mw"], ["m"], "mm")
        + onnx_node("Gemm", ["m", "gw", "gb"], ["z"], "", onnx_attr_int("transB", 1))
        + _W + onnx_initializer("b", (4,)) + onnx_initializer("bias", (4, 1, 1))
        + onnx_initializer("shape", (2,)) + onnx_initializer("mw", (16, 7))
        + onnx_initializer("gw", (2, 7)) + onnx_initializer("gb", (2,))
        + onnx_input("x", (1, 3, 9, 9)) + onnx_input("w", (4, 3, 3, 3)),
        name="",
    ),
}


def docs_example_spec() -> dict:
    """The JSON block under ``## JSON schema`` in docs/importer.md."""
    schema = DOCS.read_text().split("## JSON schema", 1)[1]
    return json.loads(re.search(r"```json\n(.*?)```", schema, re.S).group(1))


def seeded_draws(count: int = 20) -> list[dict]:
    """``count`` reproducible ``network_specs()`` draws (refresh only)."""
    draws: list[dict] = []

    @seed(21)
    @settings(max_examples=count, database=None, deadline=None, phases=[Phase.generate])
    @given(network_specs())
    def collect(spec):
        if len(draws) < count:
            draws.append(spec)

    collect()
    assert len(draws) == count
    return draws


def inputs(draws: list[dict]) -> dict:
    """Entry id -> (importer, source)."""
    both = {"docs-example": docs_example_spec(), **WELL_FORMED}
    both.update((f"draw{i:02d}", spec) for i, spec in enumerate(draws))
    jsons = {f"corpus/{code}": spec for code, spec in BAD_SPEC_CORPUS.items()}
    jsons.update((f"json/{name}", spec) for name, spec in EXTRA_JSON.items())
    jsons.update((f"{name}/json", spec) for name, spec in both.items())
    onnxes = {f"rejection/{name}": model for name, (model, _code) in ONNX_REJECTIONS.items()}
    onnxes.update((f"onnx/{name}", model) for name, model in EXTRA_ONNX.items())
    onnxes["mobilenet/onnx"] = _mobilenet_style_model()
    onnxes.update((f"{name}/onnx", spec_to_onnx(spec)) for name, spec in both.items())
    return {
        **{name: (import_json, spec) for name, spec in jsons.items()},
        **{name: (import_onnx, model) for name, model in onnxes.items()},
    }


def record(importer, source) -> dict:
    result = importer(source, strict=False)
    return {
        "network": None if result.network is None else repr(result.network),
        "diagnostics": [[d.code, d.message] for d in result.report.diagnostics],
    }


def _load(request) -> dict:
    if request.config.getoption("--refresh-golden"):
        draws = seeded_draws()
        entries = {name: record(*call) for name, call in inputs(draws).items()}
        GOLDEN.write_text(json.dumps({"draws": draws, "entries": entries}, indent=1) + "\n")
    return json.loads(GOLDEN.read_text())


def test_every_input_matches_the_recorded_contract(request):
    golden = _load(request)
    calls = inputs(golden["draws"])
    assert sorted(calls) == sorted(golden["entries"])
    now = {name: record(*call) for name, call in calls.items()}
    wrong = [name for name in calls if now[name] != golden["entries"][name]]
    assert not wrong, "\n".join(
        f"{name}:\n  now      {now[name]}\n  recorded {golden['entries'][name]}" for name in wrong
    )


def test_docs_example_imports_with_no_diagnostics():
    """The schema example a reader copies from docs/importer.md is a
    network in both formats, not an SA14x report."""
    spec = docs_example_spec()
    for importer, source in ((import_json, spec), (import_onnx, spec_to_onnx(spec))):
        result = importer(source, strict=False)
        assert result.network is not None
        assert result.report.diagnostics == []
