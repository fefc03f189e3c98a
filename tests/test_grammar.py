"""The one expression grammar behind parse_scalar and parse_operator."""

import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oplax.scalars import SYMBOLS, GaussRat, ScalarPoly, parse_scalar, parse_terms, symbol
from oplax.weyl import AP, CLASSICAL, P, Q, QUANTUM, OperatorExpr, parse_operator

X1 = symbol("x1")
S = symbol("s")

#: pieces of the grammar, valid and not, that random texts are built from
PIECES = ("0", "1", "2", "12", "1/2", "3/0", "/", "^", "^-", "-", "+", "*", "(", ")",
          " ", "i", "s", "w", "hbar", "beta", "x1", "x", "a", "b", "z3",
          "q", "p", "A+", "A-", "qh", "ph", "Ah+", "Ah-", "A", "h", "e")
CHARACTERS = "0123456789/^*+-() \tiswhbaretgmxyzqpA"

texts = st.one_of(
    st.lists(st.sampled_from(PIECES), max_size=10).map("".join),
    st.text(alphabet=CHARACTERS, max_size=20),
)


@settings(max_examples=300, deadline=None)
@given(texts)
@example("2/0")
@example("(1/0*i)")
@example("((1)")
@example("x1^")
def test_parsers_return_or_raise_value_error(text):
    for parse in (parse_scalar,
                  lambda t: parse_operator(t, CLASSICAL),
                  lambda t: parse_operator(t, QUANTUM)):
        try:
            parse(text)
        except ValueError:
            pass


@pytest.mark.parametrize("text, value", [
    ("", ScalarPoly.zero()),
    ("- - x1", X1),
    # a leading "+" was always accepted by parse_operator
    ("+ x1", X1),
    ("x1 + - s", X1 - S),
    ("x1 - - s", X1 + S),
    ("2 x1 * 3", 6 * X1),
    ("x1 ^ - 2 * x1 ^ 3", X1),
    # the digits after "^" are the exponent; a fraction after it is a coefficient
    ("s^4 1/2", ScalarPoly.monomial(Fraction(1, 2), {"s": 4})),
    ("s^-1", ScalarPoly.monomial(1, {"s": -1})),
    ("(1 - - i)", ScalarPoly.const(GaussRat(1, -1))),
    ("(-+2*i) x1", ScalarPoly.monomial(GaussRat(0, 2), {"x1": 1})),
    ("1/2*i*hbar", ScalarPoly.monomial(GaussRat(0, Fraction(1, 2)), {"hbar": 1})),
])
def test_scalar_forms(text, value):
    assert parse_scalar(text) == value


@settings(max_examples=200, deadline=None)
@given(st.from_regex(r"0*[0-9]{1,12}(/0*[0-9]{1,6})?", fullmatch=True))
@example("4/2")
@example("0006/0004")
@example("000/000")
def test_number_literals_read_as_the_fraction_of_their_text(text):
    _, _, den = text.partition("/")
    if den and int(den) == 0:
        with pytest.raises(ValueError, match="zero denominator"):
            parse_scalar(text)
        return
    value = Fraction(text)
    parsed = parse_scalar(text)
    assert parsed == ScalarPoly.const(value)
    # an integral value is stored as int, any other as a reduced Fraction
    want = [] if value == 0 else [int if value.denominator == 1 else Fraction]
    assert [type(coeff.re) for coeff in parsed.terms.values()] == want


def test_integral_literals_are_stored_as_int():
    (two,) = parse_scalar("4/2").terms.values()
    assert type(two.re) is int and two.re == 2
    (three_halves,) = parse_scalar("0006/0004").terms.values()
    assert three_halves.re == Fraction(3, 2)


@pytest.mark.parametrize("text", ["1" * 5000, "1/" + "1" * 5000],
                         ids=["numerator", "denominator"])
def test_a_literal_past_the_digit_limit_is_rejected(text):
    with pytest.raises(ValueError):
        parse_scalar(text)


def test_importing_the_package_compiles_no_token_pattern():
    proc = subprocess.run(
        [sys.executable, "-c", "import oplax.cli, oplax.scalars as s; "
         "print(s._token_pattern.cache_info().currsize)"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


@pytest.mark.parametrize("text", [
    "x1^-1", "x1^1/2", "(x1)", "()", "(1", "1)", "(i*2)", "2^3", "i^2", "e", "A+",
    # an exponent is a run of digits
    "x1^2/1", "s^4/2",
    # a sign may not end the text
    "-", "x1 -",
])
def test_scalar_rejects(text):
    with pytest.raises(ValueError):
        parse_scalar(text)


def test_operator_terms_use_the_mode_names():
    assert parse_terms("2 w * ph qh - Ah+", ("qh", "ph", "Ah+", "Ah-")) == [
        ((P, Q), ScalarPoly.monomial(2, {"w": 1})),
        ((AP,), ScalarPoly.const(-1)),
    ]
    # quantum words are normal-ordered: ph qh = qh ph - i*hbar
    hbar = ScalarPoly.monomial(GaussRat(0, -1), {"hbar": 1})
    assert parse_operator("ph qh", QUANTUM) == OperatorExpr(QUANTUM, [((Q, P), 1), ((), hbar)])
    assert parse_operator("p q", CLASSICAL) == OperatorExpr(CLASSICAL, [((Q, P), 1)])
    for text, mode in (("qh", CLASSICAL), ("q", QUANTUM), ("ph^2", QUANTUM), ("(qh)", QUANTUM),
                       ("qh -", QUANTUM)):
        with pytest.raises(ValueError):
            parse_operator(text, mode)


@pytest.mark.parametrize("name", SYMBOLS)
def test_every_symbol_parses_back_from_its_rendering(name):
    for power in (1, 2, -1) if name == "s" else (1, 2):
        value = ScalarPoly.monomial(3, {name: power})
        assert parse_scalar(value.render()) == value
