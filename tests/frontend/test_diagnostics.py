"""Golden-message tests: every frontend rejection carries a stable code,
a source span, and (where promised) a fix-it hint."""

import pytest

from repro.frontend.cparser import ParseError, parse_program
from repro.frontend.emit import EmitError, nest_to_c
from repro.frontend.extract import loop_nest_from_source
from repro.frontend.lexer import LexError, tokenize
from repro.ir.access import AffineExpr, ArrayAccess
from repro.ir.loop import Loop, LoopNest

NEST = """
#pragma systolic
for (o = 0; o < 4; o++)
  for (i = 0; i < 4; i++)
    for (c = 0; c < 4; c++)
      OUT[o][c] += W[o][i] * IN[i][c];
"""


def _parse_error(source):
    with pytest.raises(ParseError) as exc:
        loop_nest_from_source(source)
    return exc.value


class TestLexerGolden:
    def test_bad_character_sa001(self):
        with pytest.raises(LexError) as exc:
            tokenize("for (o = 0; o < 4; o++) @")
        err = exc.value
        assert err.code == "SA001"
        assert "'@'" in str(err)
        assert err.span is not None and (err.span.line, err.span.column) == (1, 25)
        assert err.diagnostic.code == "SA001" and err.diagnostic.is_error

    @pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])  # superscript 2, Arabic-Indic 3
    def test_non_ascii_digit_sa001(self, digit):
        """Integers are ASCII: ``str.isdigit`` admits both, and ``int()``
        then raised a bare ValueError on one and read the other as 3."""
        with pytest.raises(LexError) as exc:
            tokenize(f"float A[4];\nfloat B[{digit}];")
        err = exc.value
        assert err.code == "SA001"
        assert repr(digit) in str(err)
        assert (err.span.line, err.span.column) == (2, 9)

    def test_unterminated_comment_sa002(self):
        with pytest.raises(LexError) as exc:
            tokenize("x = 1; /* never closed")
        assert exc.value.code == "SA002"
        assert "unterminated" in str(exc.value)


class TestParserGolden:
    def test_syntax_error_sa010(self):
        err = _parse_error("for for for")
        assert err.code == "SA010"
        assert err.span is not None

    def test_unnormalized_loop_sa011(self):
        err = _parse_error(NEST.replace("o = 0", "o = 1"))
        assert err.code == "SA011"
        assert "must start at 0" in str(err)
        assert err.span is not None and err.span.line == 3
        assert "normalize" in (err.hint or "")

    def test_non_unit_stride_sa012(self):
        err = _parse_error(NEST.replace("o++", "o += 2"))
        assert err.code == "SA012"
        assert "unit-stride" in str(err)
        assert "stride-1" in (err.hint or "")

    def test_condition_variable_mismatch_sa013(self):
        err = _parse_error(NEST.replace("o < 4", "x < 4"))
        assert err.code == "SA013"
        assert "'x'" in str(err) and "'o'" in str(err)

    def test_increment_variable_mismatch_sa013(self):
        err = _parse_error(NEST.replace("o++", "x++"))
        assert err.code == "SA013"

    def test_scalar_declaration_sa014(self):
        err = _parse_error("float scale;\n" + NEST)
        assert err.code == "SA014"
        assert "'scale'" in str(err)

    def test_unsubscripted_reference_sa015(self):
        err = _parse_error(NEST.replace("W[o][i]", "W"))
        assert err.code == "SA015"
        assert "'W'" in str(err)


class TestExtractGolden:
    def test_duplicate_iterator_sa102(self):
        err = _parse_error(NEST.replace("for (i = 0; i < 4; i++)", "for (o = 0; o < 4; o++)"))
        assert err.code == "SA102"
        assert "duplicate" in str(err)

    def test_unbound_iterator_sa103(self):
        err = _parse_error(NEST.replace("IN[i][c]", "IN[i][z]"))
        assert err.code == "SA103"
        assert "['z']" in str(err)
        assert err.span is not None

    def test_shape_overflow_sa122(self):
        err = _parse_error("float OUT[4][3];\n" + NEST)
        assert err.code == "SA122"
        assert "spans [0, 3]" in str(err)
        assert err.span is not None
        assert "dimension 1 >= 4" in (err.hint or "")

    def test_rank_mismatch_sa123(self):
        err = _parse_error("float OUT[4];\n" + NEST)
        assert err.code == "SA123"
        assert "1 dims" in str(err) and "accessed with 2" in str(err)


class TestEmitGolden:
    def test_extra_read_operand_sa133(self):
        nest = LoopNest(
            (Loop("i", 4), Loop("j", 4), Loop("k", 4)),
            (
                ArrayAccess("O", (AffineExpr.of([("i", 1)]),), is_write=True),
                ArrayAccess("A", (AffineExpr.of([("j", 1)]),)),
                ArrayAccess("B", (AffineExpr.of([("k", 1)]),)),
                ArrayAccess("C", (AffineExpr.of([("i", 1)]),)),
            ),
            name="wide",
        )
        with pytest.raises(EmitError) as exc:
            nest_to_c(nest)
        err = exc.value
        assert err.code == "SA133"
        assert "3 read operand(s)" in str(err)
        assert err.diagnostic.code == "SA133" and err.diagnostic.span is None


class TestRoundTrip:
    def test_valid_nest_still_parses(self):
        nest, pragma = loop_nest_from_source(NEST)
        assert pragma == "pragma systolic" or "systolic" in (pragma or "")
        assert nest.iterators == ("o", "i", "c")
        reparsed, _ = loop_nest_from_source(nest_to_c(nest))
        assert reparsed.bounds == nest.bounds
