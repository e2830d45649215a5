"""Property tests: parsing what the printers print gives the value back,
for the free-ring, divided-power and symmetric-function syntax.  All three
printers go through ``freering.format_signed_sum``.  On any other text each
parser returns or raises a ParseError at an offset inside the text."""

import re

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from dpinv.freering import (Alphabet, FreePoly, ParseError, Word,  # noqa: E402
                            parse_freepoly)
from dpinv.gamma import (GammaElement, enumerate_dp_monomials,  # noqa: E402
                         format_gamma, parse_gamma)
from dpinv.symfunc import SymPoly, format_sympoly, parse_sympoly  # noqa: E402
from dpinv.theorems import multidegrees  # noqa: E402

ABC = Alphabet("xyz")
coefficients = st.integers(-12, 12)

words = st.lists(st.integers(0, len(ABC) - 1), max_size=4).map(Word)
freepolys = st.dictionaries(words, coefficients, max_size=6).map(FreePoly)


@settings(max_examples=80, deadline=None)
@given(freepolys)
def test_freepoly_roundtrip(f):
    text = f.to_str(ABC)
    assert parse_freepoly(text, ABC) == f
    assert parse_freepoly(text, ABC).to_str(ABC) == text


MONOMIALS = [m for d in multidegrees(len(ABC), 4)
             for m in enumerate_dp_monomials(d, None)]


@st.composite
def gammas(draw):
    level = draw(st.none() | st.integers(1, 4))
    pool = [m for m in MONOMIALS if level is None or m.weight <= level]
    terms = draw(st.dictionaries(st.sampled_from(pool),
                                 coefficients.filter(bool),
                                 min_size=1, max_size=5))
    return GammaElement(terms, level)


@settings(max_examples=80, deadline=None)
@given(gammas())
def test_gamma_roundtrip(g):
    text = format_gamma(g, ABC)
    assert parse_gamma(text, ABC) == g
    assert format_gamma(parse_gamma(text, ABC), ABC) == text


@st.composite
def basis_elements(draw):
    """One m- or e-basis element; the parser reads a single one."""
    basis = draw(st.sampled_from("me"))
    parts = draw(st.lists(st.integers(1, 4), max_size=4))
    part = tuple(sorted(parts, reverse=True))
    # e_k needs k variables and m_part needs len(part)
    nvars = draw(st.integers(max(1, len(part), *part), 8))
    return SymPoly(basis, {part: 1}, nvars)


@settings(max_examples=80, deadline=None)
@given(basis_elements())
def test_sympoly_roundtrip(s):
    text = format_sympoly(s)
    assert parse_sympoly(text) == s
    assert format_sympoly(parse_sympoly(text)) == text


# range checks of well-formed symmetric functions, plain ValueErrors
SYM_RANGE = re.compile(r"partition parts must be .*|[em]_.* vanishes in .*")


@pytest.mark.parametrize("parse, chars", [
    (lambda t: parse_freepoly(t, ABC), "xyq 0129^*+-\t"),
    (lambda t: parse_gamma(t, ABC), "[]()^|xyq limn=0129*+- "),
    (parse_sympoly, "em[],@0129- "),
])
def test_parsers_return_or_raise_a_parse_error_inside_the_text(parse, chars):
    @settings(max_examples=300, deadline=None)
    @given(st.text(chars + "²٣", max_size=16))
    def check(text):
        try:
            parse(text)
        except ParseError as err:
            assert 0 <= err.pos <= len(text) and err.text == text
        except ValueError as err:
            assert parse is parse_sympoly and SYM_RANGE.fullmatch(str(err))

    check()
