"""Golden SA3xx findings: the artifact lint's verdicts, pinned.

``golden/lint_findings.json`` holds, for the two golden RTL designs
(``tests/sim/golden/rtl_*.json``) and the DSE winner of AlexNet conv3,
the exact findings — ``(code, severity, message, line, column)`` in
report order — of the clean artifacts and of :data:`MUTATIONS`: one
deterministic single-line edit each, all outside ``always`` bodies.
The file was generated by the character-loop stripper and the regex
cascade that preceded the single-pass scanner (and by the per-artifact
loop that preceded ``lint_artifacts``), so it is the oracle that a
rewrite of the scanning changes no verdict.  The ``:rtl`` cases were
re-recorded when the emitted top module became one ``generate`` grid;
each mutation that found something before finds the same code now,
and ``delete-top-assign``, which found nothing, finds SA330.

Regenerate after an *intentional* change to a finding with::

    pytest tests/analysis/test_lint_golden.py --refresh-golden
"""

import json
import re
import timeit
from pathlib import Path

import pytest

from repro.analysis.codegen_lint import lint_artifacts, lint_verilog
from repro.codegen.opencl import generate_kernel, generate_kernel_driver
from repro.codegen.rtl import generate_rtl
from repro.codegen.testbench import generate_testbench
from repro.dse.explore import DseConfig, explore
from repro.dse.multi_layer import prepare_network_nests
from repro.model.platform import Platform
from repro.model.serialize import design_from_dict, design_to_dict
from repro.nn import models

GOLDEN = Path(__file__).parent / "golden" / "lint_findings.json"
RTL_GOLDEN_DIR = Path(__file__).parent.parent / "sim" / "golden"
DESIGNS = ("rtl_alexnet_conv1", "rtl_mobilenet_dw", "alexnet_conv3")


def _minus_one(match):
    return f"{match.group(1)}{int(match.group(2)) - 1}{match.group(3)}"


#: (name, artifact, MULTILINE pattern, replacement, which match: 0 first / -1 last).
MUTATIONS = (
    ("delete-assign", "rtl", r"^ *assign .*\n", "", 0),
    ("duplicate-assign", "rtl", r"^ *assign .*\n", r"\g<0>\g<0>", 0),
    ("delete-top-assign", "rtl", r"^ *assign .*\n", "", -1),
    ("narrow-top-input", "rtl", r"^( *input )\[31:0\]( \w+;\n)", r"\1[15:0]\2", -1),
    ("narrow-top-wire", "rtl", r"^( *wire )\[63:0\]( \w+ \[)", r"\1[31:0]\2", 0),
    ("drop-connection", "rtl", r"^ *\.\w+_out\([^)]*\),\n", "", 0),
    ("rename-connection", "rtl", r"^( *\.)\w+_out(\([^)]*\),\n)", r"\1nosuch\2", 0),
    ("rename-wire", "rtl", r"^( *wire (?:\[\d+:\d+\] )?\w+);\n", r"\1_renamed;\n", 0),
    ("drop-define", "kernel", r"^#define T_\w+ \d+\n", "", 0),
    ("drop-define", "testbench", r"^#define T_\w+ \d+\n", "", 0),
    ("tamper-define", "kernel", r"^(#define S_\w+ )(\d+)()$", _minus_one, 0),
    ("shrink-extent", "kernel", r"^( *__local float buf_\w+\[2\]\[)(\d+)(\])", _minus_one, 0),
    ("shrink-extent", "testbench", r"^( *static float buf_\w+\[)(\d+)(\])", _minus_one, 0),
    ("shrink-extent", "driver", r"^(static float A_W\[)(\d+)(\])", _minus_one, 0),
    ("remove-init", "kernel", r"^ *int pp = 0;\n", "", 0),
    ("remove-flip", "kernel", r"^ *pp = 1 - pp;\n", "", 0),
    ("constant-plane", "kernel", r"\[pp\]", "[0]", 0),
)


def build_design(name):
    if name == "alexnet_conv3":
        nests = {w.name: w.nest for w in prepare_network_nests(models.alexnet())}
        return explore(nests["conv3"], Platform(), DseConfig()).best.design
    payload = json.loads((RTL_GOLDEN_DIR / f"{name}.json").read_text())
    return design_from_dict(payload["design"])


def emit(design):
    platform = Platform()
    return {
        "testbench": generate_testbench(design, platform),
        "kernel": generate_kernel(design, platform),
        "driver": generate_kernel_driver(design, platform),
        "rtl": generate_rtl(design),
    }


def mutate(text, pattern, replacement, which):
    matches = list(re.finditer(pattern, text, re.MULTILINE))
    assert matches, f"mutation pattern {pattern!r} matches nothing"
    match = matches[which]
    new = replacement(match) if callable(replacement) else match.expand(replacement)
    return text[: match.start()] + new + text[match.end():]


def findings(label, text, design):
    """The lints that artifact gets in a strict compile, as JSON rows."""
    return [
        [
            d.code,
            d.severity.value,
            d.message,
            d.span.line if d.span else None,
            d.span.column if d.span else None,
        ]
        for d in lint_artifacts(design, {label: text})
    ]


def cases(design):
    artifacts = emit(design)
    out = {
        f"clean:{label}": findings(label, text, design)
        for label, text in artifacts.items()
    }
    for name, label, pattern, replacement, which in MUTATIONS:
        mutated = mutate(artifacts[label], pattern, replacement, which)
        out[f"{name}:{label}"] = findings(label, mutated, design)
    return out


def write_golden():
    payload = {}
    for name in DESIGNS:
        design = build_design(name)
        payload[name] = {"design": design_to_dict(design), "cases": cases(design)}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(_one_case_per_line(payload))
    return json.loads(GOLDEN.read_text())


def _one_case_per_line(payload):
    blocks = []
    for name, entry in payload.items():
        rows = ",\n".join(
            f"   {json.dumps(case)}: {json.dumps(found)}"
            for case, found in entry["cases"].items()
        )
        blocks.append(
            f' {json.dumps(name)}: {{\n  "design": {json.dumps(entry["design"])},\n'
            f'  "cases": {{\n{rows}\n  }}\n }}'
        )
    return "{\n" + ",\n".join(blocks) + "\n}\n"


@pytest.fixture(scope="module")
def golden(request):
    if request.config.getoption("--refresh-golden"):
        return write_golden()
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", DESIGNS)
def test_findings_match_the_golden_file(golden, name):
    entry = golden[name]
    got = cases(design_from_dict(entry["design"]))
    assert sorted(got) == sorted(entry["cases"])
    for case, rows in got.items():
        assert rows == entry["cases"][case], case


def test_the_corpus_is_not_vacuous(golden):
    """Clean artifacts are clean, and the mutations between them reach
    every SA30x–SA33x code a single-line edit can reach."""
    codes = set()
    for entry in golden.values():
        for case, rows in entry["cases"].items():
            if case.startswith("clean:"):
                assert rows == [], case
            codes.update(row[0] for row in rows)
    assert codes >= {
        "SA301", "SA310", "SA311", "SA320", "SA321", "SA322", "SA330", "SA331", "SA332",
    }


def test_linting_the_verilog_costs_at_most_four_emissions():
    """Tripwire for the scanner going super-linear again — a ratio, so
    the speed of the box cancels: about 2.7 with the generate-grid text
    (1.6 when every PE was spelled out), about 11 with the character
    loop that preceded the single-pass scanner.  The two are timed in
    alternation, so a change of box speed between them cannot skew it."""
    design = build_design("rtl_alexnet_conv1")
    source = generate_rtl(design)
    lint, emit = [], []
    for _ in range(5):
        lint.append(timeit.timeit(lambda: lint_verilog(source), number=1))
        emit.append(timeit.timeit(lambda: generate_rtl(design), number=1))
    lint, emit = min(lint), min(emit)
    assert lint <= 4 * emit, f"lint {lint * 1e3:.1f} ms vs emit {emit * 1e3:.1f} ms"
