"""Pass 3: linting generated sources without ever invoking a compiler."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.codegen_lint import (
    _strip_comments,
    lint_against_design,
    lint_generated_code,
)
from repro.codegen.opencl import generate_kernel, generate_kernel_driver
from repro.codegen.testbench import generate_testbench
from repro.dse.explore import DseConfig, explore
from repro.ir.loop import conv_loop_nest
from repro.model.platform import Platform

FAST = DseConfig(min_dsp_utilization=0.0, vector_choices=(2, 4), top_n=1)


@pytest.fixture(scope="module")
def platform():
    return Platform()


@pytest.fixture(scope="module")
def design(platform):
    nest = conv_loop_nest(16, 8, 10, 10, 3, 3, name="small")
    return explore(nest, platform, FAST).best.design


@pytest.fixture(scope="module")
def testbench(design, platform):
    return generate_testbench(design, platform)


@pytest.fixture(scope="module")
def kernel(design, platform):
    return generate_kernel(design, platform)


@pytest.fixture(scope="module")
def driver(design, platform):
    return generate_kernel_driver(design, platform)


class TestCleanTemplates:
    def test_testbench_lints_clean(self, testbench):
        assert lint_generated_code(testbench).ok

    def test_kernel_lints_clean(self, kernel):
        assert lint_generated_code(kernel, kind="kernel").ok

    def test_driver_lints_clean(self, driver):
        assert lint_generated_code(driver).ok

    def test_defines_match_design(self, testbench, kernel, design):
        assert lint_against_design(testbench, design).ok
        assert lint_against_design(kernel, design).ok


class TestBufferBounds:
    def test_seeded_off_by_one_sa301(self, testbench):
        match = re.search(r"static float buf_(\w+)\[(\d+)\]", testbench)
        assert match, "testbench must declare local buffers"
        dim = int(match.group(2))
        seeded = testbench.replace(match.group(0), match.group(0).replace(f"[{dim}]", f"[{dim - 1}]"), 1)
        report = lint_generated_code(seeded, filename="tb.c")
        bad = [d for d in report.errors if d.code == "SA301"]
        assert bad, report.render(seeded)
        assert bad[0].span is not None and bad[0].span.filename == "tb.c"
        assert "extent" in (bad[0].hint or "")

    def test_negative_index_sa302(self):
        source = (
            "#define T 4\n"
            "float buf[4];\n"
            "for (int i = 0; i < T; i++) {\n"
            "    buf[i - 1] = 0.0f;\n"
            "}\n"
        )
        report = lint_generated_code(source)
        assert "SA302" in report.codes()

    def test_rank_mismatch_sa303(self):
        source = "float buf[4][4];\nfor (int i = 0; i < 4; i++) {\n    buf[i][i][i] = 0.0f;\n}\n"
        report = lint_generated_code(source)
        assert "SA303" in report.codes()

    def test_guarded_access_not_flagged(self):
        source = (
            "#define N 8\n"
            "float buf[4];\n"
            "for (int i = 0; i < N; i++) {\n"
            "    float v = i < 4 ? buf[i] : 0.0f;\n"
            "}\n"
        )
        assert lint_generated_code(source).ok


class TestDefineConsistency:
    def test_tampered_define_sa310(self, testbench, design):
        it = design.mapping.row
        pattern = re.compile(rf"#define T_{it} (\d+)")
        match = pattern.search(testbench)
        assert match
        tampered = testbench.replace(match.group(0), f"#define T_{it} {int(match.group(1)) + 1}", 1)
        report = lint_against_design(tampered, design, filename="tb.c")
        bad = [d for d in report.errors if d.code == "SA310"]
        assert bad and bad[0].span is not None

    def test_missing_define_sa311(self, testbench, design):
        it = design.mapping.row
        match = re.search(rf"#define T_{it} \d+\n", testbench)
        assert match
        report = lint_against_design(testbench.replace(match.group(0), "", 1), design)
        assert "SA311" in report.codes()


class TestDoubleBuffering:
    def test_missing_init_sa320(self, kernel):
        broken = kernel.replace("int pp = 0;", "int qq = 0;")
        report = lint_generated_code(broken, kind="kernel")
        assert "SA320" in report.codes()

    def test_missing_flip_sa321(self, kernel):
        broken = kernel.replace("pp = 1 - pp;", "")
        report = lint_generated_code(broken, kind="kernel")
        assert "SA321" in report.codes()

    def test_unswitched_access_warns_sa322(self, kernel):
        broken = re.sub(r"\[pp\]", "[0]", kernel, count=1)
        report = lint_generated_code(broken, kind="kernel")
        assert "SA322" in [d.code for d in report.warnings]

    def test_kind_autodetected_from_kernel_keyword(self, kernel):
        broken = kernel.replace("pp = 1 - pp;", "")
        assert "__kernel" in broken
        report = lint_generated_code(broken)  # kind=None
        assert "SA321" in report.codes()

    def test_non_kernel_sources_skip_protocol_checks(self, testbench):
        report = lint_generated_code(testbench, kind="testbench")
        assert "SA320" not in report.codes() and "SA321" not in report.codes()


def reference_strip(source):
    """The stripper's specification, one character at a time: comment
    text becomes spaces, everything else — quotes included — is kept."""
    lines = []
    in_block = False
    for raw in source.splitlines():
        out = []
        i = 0
        while i < len(raw):
            if in_block:
                closes = raw.startswith("*/", i)
                out.append("  " if closes else " ")
                in_block = not closes
                i += 2 if closes else 1
            elif raw.startswith("//", i):
                out.append(" " * (len(raw) - i))
                break
            elif raw.startswith("/*", i):
                out.append("  ")
                in_block = True
                i += 2
            else:
                out.append(raw[i])
                i += 1
        lines.append("".join(out))
    return lines


class TestCommentStripping:
    @given(st.text(alphabet='/*"\n\r a', max_size=60))
    def test_property_matches_the_character_loop(self, source):
        stripped = _strip_comments(source)
        assert stripped == reference_strip(source)
        for line, raw in zip(stripped, source.splitlines(), strict=True):
            assert all(a == b or a == " " for a, b in zip(line, raw, strict=True))

    @pytest.mark.parametrize(
        "source, want",  # `~` stands for a blanked character
        [
            ("a /* x\n// y */ b // c", ["a ~~~~", "~~~~~~~~b ~~~~"]),
            ("a // x /* y\nb */ c", ["a ~~~~~~~~~", "b */ c"]),
            ("a /*/ b */ c", ["a ~~~~~~~~~c"]),
            ("a /* never closed\nb", ["a ~~~~~~~~~~~~~~~", "~"]),
            ("a // x\rb", ["a ~~~~", "b"]),
            ("a /* x\r\ny */ b", ["a ~~~~", "~~~~ b"]),
            ("", []),
        ],
        ids=[
            "line-in-block", "block-in-line", "slash-star-slash",
            "never-closed", "carriage-return", "crlf-in-block", "empty",
        ],
    )
    def test_nesting_and_line_ends(self, source, want):
        want = [line.replace("~", " ") for line in want]
        assert _strip_comments(source) == want == reference_strip(source)

    def test_finding_after_an_inline_comment_keeps_its_column(self):
        source = "float buf[4];\nvoid f() { /* note */ buf[4] = 0; }\n"
        (finding,) = lint_generated_code(source).by_code("SA301")
        assert (finding.span.line, finding.span.column) == (2, 23)
        assert source.splitlines()[1][22:].startswith("buf[4]")
