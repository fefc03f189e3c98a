"""The one expression grammar behind parse_scalar and parse_operator."""

import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oplax.scalars import (_ZERO_EXP, GR_I, GR_ONE, GR_ZERO, NSYMBOLS, SYMBOL_INDEX, SYMBOLS, GaussRat,
                           ScalarPoly, _token_pattern, parse_scalar, parse_terms, symbol)
from oplax.weyl import (AP, CLASSICAL, GENERATOR_NAMES, P, Q, QUANTUM, OperatorExpr,
                        parse_operator)

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
    # a "*" joins two factors of one term
    "*", "x1 *", "* x1", "x1 * * s", "x1 * - x2",
])
def test_scalar_rejects(text):
    with pytest.raises(ValueError):
        parse_scalar(text)


def test_operator_terms_use_the_mode_names():
    # (word, exponent, coefficient) triples, the word in reading order
    [((), w_exp)] = symbol("w").terms
    assert parse_terms("2 w * ph qh - Ah+", ("qh", "ph", "Ah+", "Ah-")) == [
        ((P, Q), w_exp, GaussRat(2)),
        ((AP,), _ZERO_EXP, GaussRat(-1)),
    ]
    # quantum words are normal-ordered: ph qh = qh ph - i*hbar
    hbar = ScalarPoly.monomial(GaussRat(0, -1), {"hbar": 1})
    assert parse_operator("ph qh", QUANTUM) == OperatorExpr(QUANTUM, [((Q, P), 1), ((), hbar)])
    assert parse_operator("p q", CLASSICAL) == OperatorExpr(CLASSICAL, [((Q, P), 1)])
    for text, mode in (("qh", CLASSICAL), ("q", QUANTUM), ("ph^2", QUANTUM), ("(qh)", QUANTUM),
                       ("qh -", QUANTUM), ("qh * * ph *", QUANTUM)):
        with pytest.raises(ValueError):
            parse_operator(text, mode)


@pytest.mark.parametrize("name", SYMBOLS)
def test_every_symbol_parses_back_from_its_rendering(name):
    for power in (1, 2, -1) if name == "s" else (1, 2):
        value = ScalarPoly.monomial(3, {name: power})
        assert parse_scalar(value.render()) == value


# -- the token-list parser, kept as an oracle ----------------------------------
#
# It makes one ``match`` per token into a list of (kind, value) pairs, each
# number already read, and then reads that list; oplax reads the groups of one
# ``findall`` in one loop.  Both use the same token pattern, so this parser also
# reads the ASCII grammar, and the oracle's operator route builds through the
# checking ``OperatorExpr`` constructor.

def oracle_tokens(text: str, words: tuple) -> list:
    """("num", GaussRat) for ``i`` or a number, ("sym", (index, exponent)),
    ("word", index into words), or (character, None) for ``( ) * + -``."""
    match_at = _token_pattern(words).match
    tokens = []
    pos, end = 0, len(text)
    while True:
        match = match_at(text, pos)
        pos = match.end()
        num, den, sym, neg, exp, op, word = match.groups()
        if num:
            try:
                tokens.append(("num", GaussRat(
                    Fraction(int(num), int(den)) if den else int(num))))
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {text!r}") from None
        elif sym:
            power = -int(exp) if neg else int(exp or 1)
            tokens.append(("sym", (SYMBOL_INDEX[sym], power)))
        elif op:
            tokens.append(("num", GR_I) if op == "i" else (op, None))
        elif word:
            tokens.append(("word", words.index(word)))
        elif pos == end:
            return tokens
        else:
            raise ValueError(f"unexpected character {text[pos]!r} in {text!r}")


def oracle_gauss(tokens: list, pos: int, text: str) -> tuple:
    total, sign, want_part = GR_ZERO, 1, True
    while pos < len(tokens):
        kind, value = tokens[pos]
        pos += 1
        if kind == "+" or kind == "-":
            sign, want_part = (1 if kind == "+" else -1), True
            continue
        if want_part and kind == "num":
            part = value
            if tokens[pos:pos + 2] == [("*", None), ("num", GR_I)]:
                part, pos = value * GR_I, pos + 2
        elif not want_part and kind == ")":
            return total, pos
        else:
            break
        total = total + part if sign == 1 else total - part
        sign, want_part = 1, False
    raise ValueError(f"malformed parenthesized coefficient in {text!r}")


def oracle_term(coeff: GaussRat, exp: list, sign: int) -> ScalarPoly:
    # the public constructor checks the exponents and drops a zero coefficient
    return ScalarPoly([(tuple(exp), -coeff if sign < 0 else coeff)])


#: the token kinds that open a factor, the only ones a "*" may precede
FACTOR_KINDS = ("num", "sym", "word", "(")


def oracle_terms(text: str, words=()) -> list:
    tokens = oracle_tokens(text, tuple(words))
    terms = []
    sign, coeff = 1, None
    pos = 0
    while pos < len(tokens):
        kind, value = tokens[pos]
        pos += 1
        if kind == "*":
            if coeff is None or pos == len(tokens) or tokens[pos][0] not in FACTOR_KINDS:
                raise ValueError(f"'*' joins no two factors in {text!r}")
            continue
        if kind == "+" or kind == "-":
            if coeff is not None:
                terms.append((tuple(word), oracle_term(coeff, exp, sign)))
                sign, coeff = 1, None
            if kind == "-":
                sign = -sign
            continue
        if coeff is None:
            coeff, exp, word = GR_ONE, [0] * NSYMBOLS, []
        if kind == "num":
            coeff = coeff * value
        elif kind == "sym":
            exp[value[0]] += value[1]
        elif kind == "word":
            word.append(value)
        elif kind == "(":
            value, pos = oracle_gauss(tokens, pos, text)
            coeff = coeff * value
        else:
            raise ValueError(f"unmatched ')' in {text!r}")
    if coeff is not None:
        terms.append((tuple(word), oracle_term(coeff, exp, sign)))
    elif any(kind == "+" or kind == "-" for kind, _ in tokens):
        raise ValueError(f"trailing sign in {text!r}")
    return terms


def oracle_scalar(text: str) -> ScalarPoly:
    total = ScalarPoly()
    for _, term in oracle_terms(text):
        total = total + term
    return total


#: (oplax's parser, the oracle) for scalar text and each operator mode
PARSER_PAIRS = [(parse_scalar, oracle_scalar)] + [
    (lambda text, mode=mode: parse_operator(text, mode),
     lambda text, mode=mode: OperatorExpr(mode, oracle_terms(text, GENERATOR_NAMES[mode])))
    for mode in (CLASSICAL, QUANTUM)]

#: the digit limit of int(str) is 4300 digits since Python 3.10.7 and 3.11
PAST_THE_DIGIT_LIMIT = "9" * 4301


def outcome(parse, text):
    """("value", what ``parse`` reads from ``text``) or ("error", its ValueError's message)."""
    try:
        return "value", parse(text)
    except ValueError as error:
        return "error", str(error)


#: texts for the oracle: the grammar's pieces and faults, with the parentheses,
#: "* i", tabs, newlines, trailing whitespace and literals the scan treats apart
ORACLE_PIECES = PIECES + ("*i", "* i", "(1+2*i)", "(-i)", "\t", "\n", "  ", "0/0", "$", "x1^-2",
                          "s^-2", "x1^3", PAST_THE_DIGIT_LIMIT, "1/" + PAST_THE_DIGIT_LIMIT)
oracle_texts = st.one_of(
    st.lists(st.sampled_from(ORACLE_PIECES), max_size=12).map("".join),
    st.text(alphabet=CHARACTERS + "\n$", max_size=24),
)


@settings(max_examples=400, deadline=None)
@given(oracle_texts)
@example("(1+2*i)*a")
@example("(-1/2*i + 3) x1 * qh")
@example("x1 -")
@example("qh ph + \t")
@example("x1 \t\n")
def test_the_parser_agrees_with_the_oracle(text):
    # both accept or both reject, and what both accept has one value; a text with
    # two faults may name another one (see test_two_faults_are_named_in_order)
    for parse, oracle in PARSER_PAIRS:
        (kind, got), (want_kind, want) = outcome(parse, text), outcome(oracle, text)
        assert kind == want_kind, (text, got, want)
        assert kind == "error" or got == want, (text, got, want)


@pytest.mark.parametrize("text", [
    "x1 $ 2", "x1^", "x1 ^ ", "\tx1^1/2", "2/0", "x1 1/0", "(1/0*i)", ")", "x1 )", "(1", "()",
    "(x1)", "(1 2)", "(i*2)", "x1 -", "qh -", "-", "+\t", "x1^-1", "s^2 x1^-2", "e", "A+",
    "q ph", "*", "x1 *", "* x1", "x1 * * s", "x1 * - x2", "qh * * ph *", "(1) * )",
    pytest.param(PAST_THE_DIGIT_LIMIT, id="numerator-digits"),
    pytest.param("2/" + PAST_THE_DIGIT_LIMIT, id="denominator-digits"),
    pytest.param("x1^" + PAST_THE_DIGIT_LIMIT, id="exponent-digits"),
])
def test_a_text_with_one_fault_keeps_its_message(text):
    for parse, oracle in PARSER_PAIRS:
        assert outcome(parse, text) == outcome(oracle, text)


@pytest.mark.parametrize("text, names, oracle_names", [
    # the faults of the loop in reading order; the token list read every number first
    (") 1/0", "unmatched ')'", "zero denominator"),
    ("(1 3/0)", "malformed parenthesized coefficient", "zero denominator"),
    ("x1^-1 + 1/0", "negative exponent of x1", "zero denominator"),
    # an unexpected character before any other fault, as the token list named it
    ("1/0 $", "unexpected character '$'", "zero denominator"),
    (") $", "unexpected character '$'", "unexpected character '$'"),
])
def test_two_faults_are_named_in_order(text, names, oracle_names):
    with pytest.raises(ValueError, match=re.escape(names)):
        parse_scalar(text)
    with pytest.raises(ValueError, match=re.escape(oracle_names)):
        oracle_scalar(text)


@pytest.mark.parametrize("text, char", [
    ("\u0663*x1", "\u0663"),         # ARABIC-INDIC DIGIT THREE
    ("\uff11", "\uff11"),            # FULLWIDTH DIGIT ONE
    ("x1^\u0662", "^"),
    ("x1\u3000x2", "\u3000"),        # IDEOGRAPHIC SPACE
    ("x1\u3000", "\u3000"),
    ("x1\x1c", "\x1c"),              # a str.isspace() separator
    ("x1 \xa0", "\xa0"),
])
def test_the_grammar_is_ascii(text, char):
    for parse in (parse_scalar, lambda t: parse_operator(t, QUANTUM)):
        with pytest.raises(ValueError, match=re.escape(f"unexpected character {char!r}")):
            parse(text)


def test_ascii_whitespace_may_end_the_text():
    assert parse_scalar("x1 \t\n\r\f\v") == X1
    assert parse_operator("\tqh\n", QUANTUM) == parse_operator("qh", QUANTUM)
