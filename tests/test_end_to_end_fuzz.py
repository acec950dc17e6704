"""End-to-end property fuzz: for random small layers, the winning design
of the full DSE must (a) cover the iteration space exactly once and
(b) compute the exact convolution when its emitted RTL is stepped cycle
by cycle.

This chains front-end-equivalent nest construction -> DSE -> coverage
audit -> RTL-level execution -> golden comparison, on shapes nobody
hand-picked — the strongest single invariant in the repository.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.model.platform import Platform
from repro.nn.golden import conv2d_layer, random_layer_tensors
from repro.nn.layers import ConvLayer
from repro.dse.explore import DseConfig, explore
from repro.sim.functional import audit_tiling_coverage, simulate_layer
from tests.frontend.test_network_import import _mobilenet_style_model
from tests.strategies import network_specs, rich_conv_layers, seeds, small_layers


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(layer=small_layers(), seed=seeds)
def test_dse_winner_is_functionally_correct(layer, seed):
    nest = layer.to_loop_nest()
    result = explore(
        nest,
        Platform(),
        DseConfig(min_dsp_utilization=0.0, vector_choices=(2,), top_n=2),
    )
    design = result.best.design

    # (a) index-math invariant
    audit_tiling_coverage(design)

    # (b) the emitted RTL, stepped cycle by cycle, equals the golden model
    inputs, weights = random_layer_tensors(layer, seed=seed, dtype=np.float64)
    got = simulate_layer(design, layer, inputs, weights, backend="rtl")
    want = conv2d_layer(layer, inputs, weights)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-11)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(layer=rich_conv_layers(), seed=seeds)
def test_dse_winner_correct_for_rich_layers(layer, seed):
    """The same end-to-end invariant over the importer's full structural
    vocabulary: stride, dilation, grouped and depthwise layers."""
    nest = layer.group_view().to_loop_nest()
    result = explore(
        nest,
        Platform(),
        DseConfig(min_dsp_utilization=0.0, vector_choices=(2,), top_n=2),
    )
    design = result.best.design

    audit_tiling_coverage(design)

    inputs, weights = random_layer_tensors(layer, seed=seed, dtype=np.float64)
    got = simulate_layer(design, layer, inputs, weights, backend="fast")
    want = conv2d_layer(layer, inputs, weights)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-11)


def test_sa14x_corpus_reaches_every_registered_code():
    """Mutation-reachability audit of the importer:
    every registered SA14x diagnostic is emitted by some entry of the
    importer's bad-spec corpus — no dead codes, no undocumented exits."""
    from repro.analysis.diagnostics import CODE_CATALOG
    from repro.frontend.network import import_json
    from tests.frontend.test_network_import import BAD_SPEC_CORPUS

    registered = {code for code in CODE_CATALOG if code.startswith("SA14")}
    emitted = set()
    for spec in BAD_SPEC_CORPUS.values():
        result = import_json(spec, strict=False)
        assert not result.ok
        emitted.update(d.code for d in result.report.errors)
    assert emitted == registered


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=network_specs(), data=st.data())
def test_mangled_network_specs_never_traceback(spec, data):
    """However a valid spec is mangled, the importer answers with a
    report of registered codes — never an unstructured exception."""
    from repro.analysis.diagnostics import CODE_CATALOG
    from repro.frontend.network import import_json

    mutation = data.draw(
        st.sampled_from(
            [
                lambda s, d: {k: v for k, v in s.items() if k != "input"},
                lambda s, d: {**s, "layers": []},
                lambda s, d: {**s, "input": d.draw(st.sampled_from(
                    [{}, {"channels": 0}, {"channels": 3, "height": -1, "width": 8}, 7]
                ))},
                lambda s, d: {**s, "layers": s["layers"] + [
                    d.draw(st.sampled_from(
                        [{"op": "lstm"}, {"op": "conv"}, {"op": "conv",
                         "out_channels": 4, "kernel": [1, 5]}, {}, {"op": 3}]
                    ))
                ]},
                lambda s, d: {**s, "layers": [
                    {**layer, "kernel": 99} if layer.get("op") == "conv" else layer
                    for layer in s["layers"]
                ]},
            ]
        )
    )
    mangled = mutation(spec, data)
    result = import_json(mangled, strict=False)  # must not raise
    if not result.ok:
        for diag in result.report.errors:
            assert diag.code in CODE_CATALOG
            assert diag.code.startswith("SA14")


_ONNX_MODEL = _mobilenet_style_model()


@settings(max_examples=500, deadline=None)
@given(
    edits=st.lists(
        st.tuples(st.integers(0, len(_ONNX_MODEL) - 1), st.integers(0, 255)),
        min_size=1,
        max_size=3,
    )
)
def test_mutated_onnx_bytes_never_traceback(edits):
    """However a valid model's bytes are overwritten, the wire reader
    answers with an import result (SA140 when unparseable) or a
    structured diagnostic error — never a raw exception."""
    from repro.analysis.diagnostics import DiagnosticError
    from repro.frontend.network import ImportResult, import_onnx

    data = bytearray(_ONNX_MODEL)
    for position, byte in edits:
        data[position] = byte
    try:
        result = import_onnx(bytes(data), strict=False)
    except DiagnosticError:
        return
    assert isinstance(result, ImportResult)


_CODE1 = """
#pragma systolic
for (o = 0; o < 8; o++)
  for (i = 0; i < 4; i++)
    for (c = 0; c < 6; c++)
      for (r = 0; r < 6; r++)
        for (p = 0; p < 3; p++)
          for (q = 0; q < 3; q++)
            OUT[o][r][c] += W[o][i][p][q] * IN[i][r+p][c+q];
"""


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_malformed_sources_never_traceback(data):
    """Mutation fuzz over the checker: however we mangle the input, the
    static analyzer must answer with a report — never an exception."""
    from repro.analysis.diagnostics import CODE_CATALOG
    from repro.analysis.nest_check import check_source

    mutation = data.draw(
        st.sampled_from(
            [
                lambda s, d: s.replace(d.draw(st.sampled_from(list("oicrpq<=;[]()"))), "", 1),
                lambda s, d: s.replace(
                    d.draw(st.sampled_from(["for", "OUT", "+=", "pragma", "< 6", "[i]"])),
                    d.draw(st.sampled_from(["", "@", "while", "42", "%%"])),
                    1,
                ),
                lambda s, d: s[: d.draw(st.integers(0, len(s)))],
                lambda s, d: s[d.draw(st.integers(0, len(s))) :],
                lambda s, d: s + d.draw(st.sampled_from(["}", "/*", "for (", "#pragma", "\x00"])),
            ]
        )
    )
    source = mutation(_CODE1, data)
    nest, report = check_source(source)  # must not raise
    if nest is None or not report.ok:
        assert len(report.errors) >= 1
        for diag in report:
            assert diag.code in CODE_CATALOG


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(junk=st.text(max_size=200))
def test_arbitrary_text_never_tracebacks(junk):
    """Totally arbitrary text (not even mutated C) is also rejected
    gracefully by the full check pipeline."""
    from repro.analysis.check import run_checks

    result = run_checks(junk, level="nest")
    assert result.exit_code in (0, 1)
    if not result.ok:
        assert all(d.code.startswith("SA") for d in result.report.errors)


@pytest.mark.slow
@settings(max_examples=3, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    out_ch=st.integers(4, 12),
    in_ch=st.integers(2, 8),
    size=st.integers(5, 9),
    seed=st.integers(0, 100),
)
def test_dse_winner_testbench_compiles_and_passes(out_ch, in_ch, size, seed):
    """Same property through the C path: the generated testbench for the
    DSE winner compiles and passes under gcc."""
    import shutil

    if shutil.which("gcc") is None:
        pytest.skip("no C compiler")
    from repro.codegen.testbench import generate_testbench, run_testbench

    layer = ConvLayer("fuzz_c", in_ch, out_ch, size, size, kernel=2)
    result = explore(
        layer.to_loop_nest(),
        Platform(),
        DseConfig(min_dsp_utilization=0.0, vector_choices=(2,), top_n=1),
    )
    source = generate_testbench(result.best.design, Platform())
    run = run_testbench(source)
    assert run.passed, run.output
