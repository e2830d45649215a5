"""The three element parsers and the scanner under them: the message and
offset of every parse error."""

import pytest

from dpinv.freering import Alphabet, ParseError, Scanner, parse_freepoly
from dpinv.gamma import parse_gamma
from dpinv.symfunc import parse_sympoly

AB = Alphabet("xy")


def error_of(parse, text):
    with pytest.raises(ParseError) as exc:
        parse(text)
    err = exc.value
    assert err.text == text
    return str(err), err.pos


# one row per raise site: the text, the message, the offset
FREEPOLY_ERRORS = [
    ("", "unexpected end of input", 0),
    ("x +", "unexpected end of input", 3),
    ("x * ", "unexpected end of input", 4),
    ("2*x*q", "unexpected character 'q'", 4),
    ("x y", "unexpected character 'y'", 2),
    ("--x", "unexpected character '-'", 1),
    ("2x", "unexpected character 'x'", 1),
    ("x^2^3", "unexpected character '^'", 3),
    ("x^", "expected an integer", 2),
    ("x^ y", "expected an integer", 3),
    ("x ^ -1", "expected an integer", 4),
    ("y*x^ 128", "exponent 128 is not below the packing's bound 128", 5),
    ("x^99999999", "exponent 99999999 is not below the packing's bound 128",
     2),
]

GAMMA_ERRORS = [
    ("", "expected '['", 0),
    ("-", "expected '['", 1),
    ("2 [x^(1)|lim]", "expected '*'", 2),
    ("[x^(2 |n=2]", "expected ')'", 6),
    ("[x(1)|lim]", "expected '^'", 2),
    ("[x y^(1)|lim]", "expected '^'", 3),
    ("[x^1)|lim]", "expected '('", 3),
    ("[x^()|lim]", "expected an integer", 4),
    ("[x^( -1)|lim]", "expected an integer", 5),
    ("[q^(1)|lim]", "expected a word", 1),
    ("[]", "expected a word", 1),
    ("[x^(1)|n=q]", "expected an integer", 9),
    ("[x^(1)|n 2]", "expected '='", 9),
    ("[x^(1)|lam]", "expected 'lim' or 'n=<int>'", 7),
    ("[x^(1)|l im]", "expected 'lim' or 'n=<int>'", 7),
    ("[x^(1)|lim", "expected ']'", 10),
    ("[x^(0)|lim]", "exponents must be positive", 11),
    ("[x^(1) x^(2)|lim]", "duplicate word in factor list", 17),
    ("[x^(1)|lim] [y^(1)|lim]", "unexpected character '['", 12),
    ("[x^(1)|lim] + ", "expected '['", 14),
    ("[x^(1)|n=1] + [x^(1)|lim]", "mixed contexts in one element", 25),
    ("[x^(1)|lim] - [y^(1)|n=3] + [x^(1)|lim]",
     "mixed contexts in one element", 25),
    ("[x^(3)|n=2]", "monomial weight 3 exceeds level 2", 11),
    ("[x^(1)|n=2] + [y^(3)|n=2]  ", "monomial weight 3 exceeds level 2", 27),
    # tau loops once per value of an interior cell, and pi builds a ring of
    # letters * n^2 variables: both are bounded before any work
    ("[x^(128)|lim]", "exponent 128 is not below the packing's bound 128", 4),
    ("[x^(1) y^( 1000000000000)|n=3]",
     "exponent 1000000000000 is not below the packing's bound 128", 11),
    ("[x^(1)|n=128]", "level 128 is not below the packing's bound 128", 9),
]


@pytest.mark.parametrize("text, message, pos", FREEPOLY_ERRORS)
def test_freepoly_error_message_and_offset(text, message, pos):
    assert error_of(lambda t: parse_freepoly(t, AB), text) == (
        f"{message} (at position {pos})", pos)


@pytest.mark.parametrize("text, message, pos", GAMMA_ERRORS)
def test_gamma_error_message_and_offset(text, message, pos):
    assert error_of(lambda t: parse_gamma(t, AB), text) == (
        f"{message} (at position {pos})", pos)


SYMPOLY_ERRORS = [
    ("", "expected basis letter 'e' or 'm'", 0),
    ("  f[2]", "expected basis letter 'e' or 'm'", 2),
    ("e", "expected '['", 1),
    ("  m 2]", "expected '['", 4),
    ("   e[2,x]", "expected an integer", 7),
    ("e[2,,1]", "expected an integer", 4),
    ("e[-1]", "expected an integer", 2),
    ("e[2 1]", "expected ']'", 4),
    ("e[2,1", "expected ']'", 5),
    ("e[2]@", "expected an integer", 5),
    ("e[]@-1", "expected an integer", 4),
    ("e[2] x", "unexpected character 'x'", 5),
    ("e[2]@3 @4", "unexpected character '@'", 7),
]


@pytest.mark.parametrize("text, message, pos", SYMPOLY_ERRORS)
def test_sympoly_error_message_and_offset(text, message, pos):
    # offsets are into the text as given, at the offending entry
    assert error_of(parse_sympoly, text) == (
        f"{message} (at position {pos})", pos)


def test_sympoly_is_whitespace_insensitive():
    assert parse_sympoly("  m [ 2 , 1 ] @ 3 ") == parse_sympoly("m[2,1]@3")
    assert parse_sympoly("e[]").terms == {(): 1}


@pytest.mark.parametrize("parse, text, message, pos", [
    # str.isdigit accepts these; int() then failed on '²' and read '٣' as 3
    (lambda t: parse_freepoly(t, AB), "3²-2", "unexpected character '²'", 1),
    (lambda t: parse_freepoly(t, AB), "x^٣", "expected an integer", 2),
    (lambda t: parse_freepoly(t, AB), "٣", "unexpected character '٣'", 0),
    (lambda t: parse_gamma(t, AB), "2²*[x^(1)|lim]", "expected '*'", 1),
    (lambda t: parse_gamma(t, AB), "[x^(٣)|lim]", "expected an integer", 4),
    (parse_sympoly, "e[2²]", "expected ']'", 3),
    (parse_sympoly, "e[٣]", "expected an integer", 2),
])
def test_integers_are_ascii_digits(parse, text, message, pos):
    assert error_of(parse, text) == (f"{message} (at position {pos})", pos)


# past the interpreter's 4300-digit int-string limit, int() raised a bare
# ValueError with no offset
LONG = "9" * 5000


@pytest.mark.parametrize("parse, text, pos", [
    (lambda t: parse_freepoly(t, AB), f"2*x^{LONG}", 4),
    (lambda t: parse_freepoly(t, AB), f"x + {LONG}", 4),
    (lambda t: parse_gamma(t, AB), f"[x^({LONG})|lim]", 4),
    (lambda t: parse_gamma(t, AB), f"{LONG}*[x^(1)|lim]", 0),
    (parse_sympoly, f"e[{LONG}]", 2),
    (parse_sympoly, f"e[1] @ {LONG}", 7),
], ids=["freepoly-exponent", "freepoly-constant", "gamma-exponent",
        "gamma-coefficient", "sympoly-part", "sympoly-nvars"])
def test_an_over_long_integer_is_a_parse_error(parse, text, pos):
    assert error_of(parse, text) == (
        f"integer of 5000 digits is too long (at position {pos})", pos)


def test_scanner_tokens():
    sc = Scanner(" 12 ..3 , x")
    assert sc.integer() == 12 and sc.take("..") and sc.integer() == 3
    assert not sc.take("..") and sc.integer(required=False) is None
    assert sc.take(",") and sc.peek() == "x" and sc.pos == 10
    with pytest.raises(ParseError) as exc:
        sc.end()
    assert (exc.value.pos, exc.value.text) == (10, " 12 ..3 , x")
    sc = Scanner("- a + b c")
    signs = []
    with pytest.raises(ParseError) as exc:
        for sign in sc.signed_terms():
            signs.append(sign)
            sc.run("abc")
    assert signs == [-1, 1] and exc.value.pos == 8

