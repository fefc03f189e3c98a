from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oplax.scalars import _ZERO_EXP, NSYMBOLS, GaussRat, ScalarPoly, parse_scalar, symbol
from oplax.weyl import CLASSICAL, QUANTUM, OperatorExpr

W = symbol("w")
HBAR = symbol("hbar")
S = symbol("s")
BETA = symbol("beta")
A = symbol("a")


def test_imaginary_unit_squares_to_minus_one():
    i = GaussRat(0, 1)
    assert i * i == GaussRat(-1)


@pytest.mark.parametrize("bad", [0.1, "1/2", True, False])
def test_gaussrat_rejects_floats_and_strings(bad):
    message = f"cannot interpret {type(bad).__name__} as a Gaussian rational"
    # each level of the tower coerces through the one below, so each says so
    for make in (GaussRat, lambda value: GaussRat(1, value), ScalarPoly.const,
                 lambda value: OperatorExpr.scalar(CLASSICAL, value),
                 lambda value: OperatorExpr.scalar(QUANTUM, value)):
        with pytest.raises(TypeError, match=message):
            make(bad)


def test_gaussrat_operand_contract():
    # a GaussRat operand skips coercion; any other still goes through
    # GaussRat(), and its TypeError becomes NotImplemented
    one = GaussRat(1)
    for operation in (lambda: one + 0.5, lambda: 0.5 * one, lambda: one - "1",
                      lambda: one * "1", lambda: 0.5 - one, lambda: "1" - one):
        with pytest.raises(TypeError):
            operation()
    assert GaussRat.__add__(one, 0.5) is NotImplemented
    assert GaussRat.__rsub__(one, 0.5) is NotImplemented
    assert (one == 1.0) is False and (one != 1.0) is True
    assert one == 1 and one == Fraction(2, 2) and one == GaussRat(1)
    assert one + Fraction(1, 2) == GaussRat(Fraction(3, 2))
    assert one - 2 == GaussRat(-1) and 3 * one == GaussRat(3)


def test_a_plain_number_minus_a_gaussrat():
    # __rsub__ mirrors __radd__: an int or Fraction on the left subtracts
    g = GaussRat(Fraction(1, 2), -2)
    assert 1 - GaussRat(1) == GaussRat(0) and not (1 - GaussRat(1))
    for left in (3, -1, Fraction(5, 2), Fraction(1, 2)):
        got = left - g
        assert type(got) is GaussRat and got == GaussRat(left) - g
        assert_canonical(got)
    # 1/2 - 1/2 and 5/2 - 1/2 land on integers, stored as int
    assert type((Fraction(1, 2) - g).re) is int and (Fraction(5, 2) - g).re == 2


def assert_canonical(g):
    """Each part is an int exactly when its denominator is 1, else a Fraction."""
    for part in (g.re, g.im):
        assert type(part) in (int, Fraction), part
        assert (type(part) is int) == (Fraction(part).denominator == 1), part


def ref_render(re, im):
    if im == 0:
        return str(re)
    if re == 0:
        return {1: "i", -1: "-i"}.get(im, f"{im}*i")
    mag = "i" if abs(im) == 1 else f"{abs(im)}*i"
    return f"({re}{'+' if im > 0 else '-'}{mag})"


exact_parts = st.one_of(st.integers(-3, 3),
                        st.fractions(min_value=-3, max_value=3, max_denominator=4))
exact_pairs = st.tuples(exact_parts, exact_parts)


@settings(max_examples=200, deadline=None)
@given(exact_pairs, exact_pairs)
@example((Fraction(1, 2), 0), (Fraction(1, 2), 0))
@example((Fraction(2, 3), 0), (Fraction(3, 2), 0))
@example((0, Fraction(1, 2)), (Fraction(-1, 3), Fraction(1, 2)))
def test_gaussrat_matches_a_fraction_pair_reference(x, y):
    """Every operation agrees with plain (Fraction, Fraction) arithmetic and
    returns parts in canonical form, also when a fraction sums or multiplies
    to an integer."""
    (x0, x1), (y0, y1) = (map(Fraction, x), map(Fraction, y))
    gx, gy = GaussRat(*x), GaussRat(*y)
    cases = [
        (gx, (x0, x1)),
        (gx + gy, (x0 + y0, x1 + y1)),
        (gx - gy, (x0 - y0, x1 - y1)),
        (gx * gy, (x0 * y0 - x1 * y1, x0 * y1 + x1 * y0)),
        (-gx, (-x0, -x1)),
        (gx * y0 + y0, (x0 * y0 + y0, x1 * y0)),
    ]
    for got, (re, im) in cases:
        assert_canonical(got)
        assert (got.re, got.im) == (re, im)
        assert got == GaussRat(re, im)
        assert hash(got) == hash(GaussRat(re, im)) == (hash(re) if im == 0 else hash((re, im)))
        assert bool(got) == bool(re or im)
        assert got.is_negative() == (re < 0 if im == 0 else im < 0 and re == 0)
        assert got.render() == ref_render(re, im)
    assert (gx == gy) == ((x0, x1) == (y0, y1))


def test_laurent_cancellation():
    s_inv = ScalarPoly.monomial(1, {"s": -1})
    assert s_inv * S == ScalarPoly.const(1)


def test_commutativity_example():
    assert W * HBAR - HBAR * W == ScalarPoly.zero()


def test_only_s_may_be_negative():
    with pytest.raises(ValueError):
        ScalarPoly.monomial(1, {"w": -1})
    ScalarPoly.monomial(1, {"s": -5})  # fine


def test_subst_examples():
    assert (BETA * W).subst({"beta": 0}) == ScalarPoly.zero()
    assert (A * BETA).subst({"a": 1, "beta": 1}) == ScalarPoly.const(1)
    assert HBAR.subst({"hbar": 0}) == ScalarPoly.zero()


def test_subst_rejects_negative_power_of_non_s():
    s_inv = ScalarPoly.monomial(1, {"s": -1})
    with pytest.raises(ValueError, match=r"s\^-1 is bound to 0"):
        s_inv.subst({"s": 0})
    # any other rational is invertible, and a Fraction power keeps it exact
    assert s_inv.subst({"s": 2}) == ScalarPoly.const(Fraction(1, 2))
    assert (s_inv * s_inv * W).subst({"s": Fraction(-2, 3)}) == \
        ScalarPoly.const(Fraction(9, 4)) * W
    # a positive power of s may be bound to 0
    assert (S * W + BETA).subst({"s": 0}) == BETA


@pytest.mark.parametrize("value", [BETA, ScalarPoly.const(2), GaussRat(2), 0.5, "1/2", True, False],
                         ids=("polynomial", "constant-polynomial", "gaussrat", "float", "str",
                              "true", "false"))
def test_subst_takes_rational_constants_only(value):
    with pytest.raises(TypeError, match="only an int or a Fraction"):
        (S * W).subst({"s": value})
    with pytest.raises(TypeError, match="only an int or a Fraction"):
        W.subst({"w": 1, "s": value})


coeffs = st.builds(
    GaussRat,
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
)


@st.composite
def scalar_polys(draw):
    poly = ScalarPoly.zero()
    for _ in range(draw(st.integers(0, 4))):
        powers = {
            "s": draw(st.integers(-2, 2)),
            "w": draw(st.integers(0, 2)),
            "hbar": draw(st.integers(0, 1)),
            "beta": draw(st.integers(0, 2)),
        }
        poly = poly + ScalarPoly.monomial(draw(coeffs), powers)
    return poly


@settings(max_examples=200, deadline=None)
@given(scalar_polys(), scalar_polys())
def test_addition_and_multiplication_commute(x, y):
    assert x + y == y + x
    assert x * y == y * x


@settings(max_examples=200, deadline=None)
@given(scalar_polys(), scalar_polys(), scalar_polys())
def test_associativity_and_distributivity(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@settings(max_examples=200, deadline=None)
@given(scalar_polys())
def test_additive_inverse_cancels(x):
    assert (x + (-x)).is_zero


@settings(max_examples=100, deadline=None)
@given(scalar_polys(), scalar_polys(),
       st.one_of(st.integers(-3, 3), st.fractions(min_value=-2, max_value=2,
                                                  max_denominator=3)).filter(bool),
       st.fractions(min_value=-2, max_value=2, max_denominator=3))
def test_subst_is_a_ring_morphism(x, y, s_value, beta_value):
    # the polynomials carry s^-2 .. s^2, so s takes a nonzero value
    bindings = {"s": s_value, "beta": beta_value}
    assert (x * y).subst(bindings) == x.subst(bindings) * y.subst(bindings)
    assert (x + y).subst(bindings) == x.subst(bindings) + y.subst(bindings)


@settings(max_examples=200, deadline=None)
@given(scalar_polys())
def test_render_parse_round_trip(x):
    assert parse_scalar(x.render()) == x


def test_render_is_deterministic_and_sorted():
    x = ScalarPoly.const(Fraction(1, 2)) + ScalarPoly.monomial(1, {"s": -2}) * W
    assert x.render() == "1/2 + w*s^-2"
    assert x.render() == x.render()
    assert parse_scalar("0") == ScalarPoly.zero()
    mixed = ScalarPoly.monomial(GaussRat(1, 2), {"a": 1})
    assert mixed.render() == "(1+2*i)*a"
    assert parse_scalar(mixed.render()) == mixed
    for bad in ("2/0", "x1 1/0", "(1/0*i)"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_scalar(bad)
    # an exponent is an integer, so a "/" after one is out of place
    with pytest.raises(ValueError, match="unexpected character '/'"):
        parse_scalar("x1^1/0")


@pytest.mark.parametrize("call, error, match", [
    (lambda: ScalarPoly({(1, 0): 1}), ValueError,
     f"exponent vector must have length {NSYMBOLS}"),
    # the type alone is at fault: s may carry a negative exponent
    (lambda: ScalarPoly.monomial(1, {"s": -0.5}), ValueError, "not an int"),
    (lambda: ScalarPoly.monomial(1, {"x1": Fraction(1, 2)}), ValueError, "not an int"),
    (lambda: ScalarPoly.monomial(1, {"w": True}), ValueError, "not an int"),
    (lambda: ScalarPoly.monomial(1, {"s": "1"}), ValueError, "not an int"),
    (lambda: ScalarPoly({(2.0,) + _ZERO_EXP[1:]: 1}), ValueError, "not an int"),
    (lambda: ScalarPoly({(Fraction(1, 2),) + _ZERO_EXP[1:]: 1}), ValueError, "not an int"),
    (lambda: ScalarPoly([((True,) + _ZERO_EXP[1:], 1)]), ValueError, "not an int"),
    (lambda: ScalarPoly({("1",) + _ZERO_EXP[1:]: 1}), ValueError, "not an int"),
], ids=("exponent-length", "monomial-float", "monomial-fraction", "monomial-bool", "monomial-str",
        "vector-float", "vector-fraction", "vector-bool", "vector-str"))
def test_a_malformed_exponent_is_rejected(call, error, match):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("call", [
    lambda: symbol("q"),
    lambda: ScalarPoly.monomial(1, {"q": 1}),
    lambda: (W + 1).has_symbol("q"),
    lambda: (W + 1).subst({"q": 0}),
], ids=("symbol", "monomial", "has_symbol", "subst"))
def test_an_unknown_symbol_is_rejected(call):
    with pytest.raises(ValueError, match="unknown symbol 'q'"):
        call()
