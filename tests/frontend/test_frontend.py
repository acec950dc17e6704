"""Front-end tests: lexing, parsing, and IR extraction of user C code."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend.cparser import ParseError, parse_program
from repro.frontend.emit import nest_to_c
from repro.frontend.extract import loop_nest_from_source
from repro.frontend.lexer import LexError, TokenKind, tokenize
from repro.ir.loop import conv_loop_nest
from repro.ir.reuse import analyze_reuse
from tests.frontend import oracle
from tests.strategies import rich_conv_layers


CODE1 = """
// Code 1 from the paper: a convolutional layer.
float OUT[128][13][13];
float W[128][192][3][3];
float IN[192][15][15];

#pragma systolic
for (o = 0; o < 128; o++)      // Output feature
  for (i = 0; i < 192; i++)    // Input feature
    for (c = 0; c < 13; c++)   // Feature column
      for (r = 0; r < 13; r++) // Feature row
        for (p = 0; p < 3; p++)
          for (q = 0; q < 3; q++)
            OUT[o][r][c] += W[o][i][p][q] * IN[i][r+p][c+q];
"""


class TestLexer:
    def test_tokenizes_code1(self):
        tokens = tokenize(CODE1)
        kinds = {t.kind for t in tokens}
        assert TokenKind.PRAGMA in kinds
        assert tokens[-1].kind is TokenKind.EOF

    def test_comments_skipped(self):
        tokens = tokenize("for // comment\n /* block \n comment */ (")
        texts = [t.text for t in tokens if t.kind is not TokenKind.EOF]
        assert texts == ["for", "("]

    def test_locations_tracked(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_two_char_punct(self):
        texts = [t.text for t in tokenize("x += y ++ <=") if t.kind is TokenKind.PUNCT]
        assert texts == ["+=", "++", "<="]

    def test_rejects_garbage(self):
        with pytest.raises(LexError):
            tokenize("for (o @ 0)")
        with pytest.raises(LexError):
            tokenize("/* unterminated")


_WORDS = st.text(alphabet="abc xyz_09+=;{}()[]<*\t", max_size=12)

#: What may sit between two tokens: blanks, line ends, the three kinds of
#: comment-like line, all of them in any mix.
_TRIVIA = st.one_of(
    st.sampled_from([" ", "  ", "\t", "\n", "\r\n", " \t\r\n\n"]),
    _WORDS.map(lambda text: f"// {text}\r\n"),
    st.lists(_WORDS, max_size=3).map(lambda lines: "/*" + "\n".join(lines) + "*/"),
    _WORDS.map(lambda text: f"\n#pragma {text}\n"),
)


def _lexed(lexer, source):
    """``(kind, text, line, column)`` per token, or the rejection's
    ``(code, message, span)``."""
    try:
        return [tuple(token) for token in lexer(source)]
    except LexError as exc:
        return (exc.code, str(exc), exc.span)


class TestLexerMatchesTheOracle:
    """The regex scan against the character loop it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(layer=rich_conv_layers(), data=st.data())
    def test_emitted_layers_with_any_trivia(self, layer, data):
        clean = nest_to_c(layer.group_view().to_loop_nest())
        pieces = []
        for token in oracle.tokenize(clean)[:-1]:
            pieces.append("#" + token.text + "\n" if token.kind is TokenKind.PRAGMA else token.text)
            pieces.append("".join(data.draw(st.lists(_TRIVIA, min_size=1, max_size=3))))
        source = data.draw(_TRIVIA) + "".join(pieces)
        assert _lexed(tokenize, source) == _lexed(oracle.tokenize, source)

    @settings(max_examples=300, deadline=None)
    @given(
        source=st.text(alphabet=st.characters(max_codepoint=127), max_size=40)
        | st.lists(
            st.sampled_from(["/*", "*/", "//", "#", "\n", "\r", "a1", "_", "09", "+", "=", "<", " "]),
            max_size=20,
        ).map("".join)
    )
    def test_any_ascii_text(self, source):
        """Same tokens, or the same code, message and span."""
        assert _lexed(tokenize, source) == _lexed(oracle.tokenize, source)


class TestParser:
    def test_parses_code1(self):
        program = parse_program(CODE1)
        assert program.pragma == "systolic"
        assert len(program.declarations) == 3
        assert program.nest.iterator == "o"
        assert program.nest.bound == 128

    def test_braced_loops_accepted(self):
        src = """
        #pragma systolic
        for (int a = 0; a < 4; a++) {
          for (int b = 0; b < 4; b++) {
            for (int k = 0; k < 2; k++) {
              C[a][b] += A[a][k] * B[k][b];
            }
          }
        }
        """
        program = parse_program(src)
        assert program.nest.bound == 4

    def test_le_condition_normalized(self):
        src = "for (a = 0; a <= 3; a++) for (k=0;k<2;k++) C[a] += A[a][k] * B[k];"
        assert parse_program(src).nest.bound == 4

    def test_rejects_nonzero_start(self):
        with pytest.raises(ParseError, match="start at 0"):
            parse_program("for (a = 1; a < 4; a++) for(k=0;k<2;k++) C[a] += A[k] * B[k];")

    def test_rejects_mismatched_condition_var(self):
        with pytest.raises(ParseError):
            parse_program("for (a = 0; b < 4; a++) for(k=0;k<2;k++) C[a] += A[k] * B[k];")

    def test_rejects_non_unit_step(self):
        with pytest.raises(ParseError, match="unit-stride"):
            parse_program("for (a = 0; a < 4; a += 2) for(k=0;k<2;k++) C[a] += A[k] * B[k];")

    def test_rejects_missing_statement(self):
        with pytest.raises(ParseError):
            parse_program("for (a = 0; a < 4; a++) a++;")

    def test_affine_subscripts(self):
        src = "for (r=0;r<3;r++) for (p=0;p<2;p++) O[r] += A[4*r + p + 1] * B[p];"
        program = parse_program(src)
        mac = program.nest.body.body
        sub = mac.lhs.subscripts[0]
        assert sub.constant == 1
        assert {(t.coefficient, t.iterator) for t in sub.terms} == {(4, "r"), (1, "p")}


class TestExtraction:
    def test_code1_matches_builtin_conv_nest(self):
        nest, pragma = loop_nest_from_source(CODE1, name="conv5")
        reference = conv_loop_nest(128, 192, 13, 13, 3, 3, name="conv5")
        assert pragma == "systolic"
        assert nest.bounds == reference.bounds
        assert nest.iterators == reference.iterators
        for array in ("OUT", "W", "IN"):
            assert nest.access(array) == reference.access(array)

    def test_reuse_analysis_works_on_parsed_nest(self):
        nest, _ = loop_nest_from_source(CODE1)
        table = analyze_reuse(nest)
        assert set(table.reuse_loops("IN")) == {"o"}

    def test_shape_check_catches_overflow(self):
        bad = CODE1.replace("float IN[192][15][15];", "float IN[192][13][13];")
        with pytest.raises(ParseError, match="spans"):
            loop_nest_from_source(bad)

    def test_rank_mismatch_detected(self):
        bad = CODE1.replace("float W[128][192][3][3];", "float W[128][192][3];")
        with pytest.raises(ParseError, match="dims"):
            loop_nest_from_source(bad)

    def test_undeclared_arrays_are_fine(self):
        src = "for (a=0;a<4;a++) for(k=0;k<2;k++) C[a] += A[a][k] * B[k];"
        nest, pragma = loop_nest_from_source(src)
        assert pragma is None
        assert nest.bounds == {"a": 4, "k": 2}

    def test_duplicate_iterator_rejected(self):
        src = "for (a=0;a<4;a++) for(a=0;a<2;a++) C[a] += A[a] * B[a];"
        with pytest.raises(ParseError):
            loop_nest_from_source(src)

    def test_roundtrip_random_conv_shapes(self):
        """Property: emitting C for a random conv nest and parsing it back
        recovers the built-in nest exactly."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=30)
        @given(
            st.integers(1, 64),
            st.integers(1, 64),
            st.integers(1, 30),
            st.integers(1, 30),
            st.integers(1, 5),
        )
        def check(out_ch, in_ch, height, width, kernel):
            reference = conv_loop_nest(out_ch, in_ch, height, width, kernel, kernel)
            src = "\n".join(
                [
                    "#pragma systolic",
                    f"for (o = 0; o < {out_ch}; o++)",
                    f"for (i = 0; i < {in_ch}; i++)",
                    f"for (c = 0; c < {width}; c++)",
                    f"for (r = 0; r < {height}; r++)",
                    f"for (p = 0; p < {kernel}; p++)",
                    f"for (q = 0; q < {kernel}; q++)",
                    "OUT[o][r][c] += W[o][i][p][q] * IN[i][r+p][c+q];",
                ]
            )
            nest, _ = loop_nest_from_source(src)
            assert nest.bounds == reference.bounds
            for array in ("OUT", "W", "IN"):
                assert nest.access(array) == reference.access(array)

        check()

    def test_end_to_end_with_dse(self):
        """Parsed Code 1 flows through mapping analysis and the tuner."""
        from repro.model.design_point import ArrayShape
        from repro.model.mapping import feasible_mappings
        from repro.model.platform import Platform
        from repro.dse.tuner import MiddleTuner

        nest, _ = loop_nest_from_source(CODE1, name="conv5")
        mappings = feasible_mappings(nest)
        assert len(mappings) == 12
        mapping = next(m for m in mappings if m.inner_loops == ("o", "c", "i"))
        result = MiddleTuner(nest, mapping, ArrayShape(11, 13, 8), Platform()).tune()
        assert result.throughput_gops == pytest.approx(621, rel=0.01)
