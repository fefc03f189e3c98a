from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oplax.scalars import NSYMBOLS, GaussRat, ScalarPoly, parse_scalar, symbol

W = symbol("w")
HBAR = symbol("hbar")
S = symbol("s")
BETA = symbol("beta")
A = symbol("a")


def test_imaginary_unit_squares_to_minus_one():
    i = GaussRat(0, 1)
    assert i * i == GaussRat(-1)


def test_gaussrat_inverse():
    g = GaussRat(Fraction(1, 2), Fraction(-3, 4))
    assert g * g.inverse() == GaussRat(1)
    with pytest.raises(ZeroDivisionError):
        GaussRat(0).inverse()


@pytest.mark.parametrize("bad", [0.1, "1/2"])
def test_gaussrat_rejects_floats_and_strings(bad):
    message = f"cannot interpret {type(bad).__name__} as a Gaussian rational"
    with pytest.raises(TypeError, match=message):
        GaussRat(bad)
    with pytest.raises(TypeError, match=message):
        GaussRat(1, bad)


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
    if y0 or y1:
        norm = y0 * y0 + y1 * y1
        cases.append((gy.inverse(), (y0 / norm, -y1 / norm)))
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


def test_pow_negative_requires_monomial():
    assert S ** -2 == ScalarPoly.monomial(1, {"s": -2})
    with pytest.raises(ValueError):
        (S + W) ** -1


def test_subst_examples():
    assert (BETA * W).subst({"beta": 0}) == ScalarPoly.zero()
    assert (A * BETA).subst({"a": 1, "beta": 1}) == ScalarPoly.const(1)
    assert HBAR.subst({"hbar": 0}) == ScalarPoly.zero()


def test_subst_rejects_negative_power_of_non_s():
    s_inv = ScalarPoly.monomial(1, {"s": -1})
    with pytest.raises(ValueError):
        s_inv.subst({"s": BETA})
    # an invertible s-monomial is fine
    assert s_inv.subst({"s": ScalarPoly.monomial(2, {"s": 1})}) == \
        ScalarPoly.monomial(Fraction(1, 2), {"s": -1})


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
@given(scalar_polys(), scalar_polys(), st.integers(-1, 2),
       st.fractions(min_value=-2, max_value=2, max_denominator=3))
def test_subst_is_a_ring_morphism(x, y, s_power, beta_value):
    bindings = {"s": ScalarPoly.monomial(2, {"s": s_power}) if s_power else
                ScalarPoly.const(2),
                "beta": beta_value}
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
    (lambda: ScalarPoly.monomial(1, {"s": 1}) ** Fraction(1, 2), TypeError, "integer"),
    (lambda: ScalarPoly.monomial(1, {"s": 1}) ** 2.0, TypeError, "integer"),
], ids=("exponent-length", "fraction-power", "float-power"))
def test_a_malformed_exponent_is_rejected(call, error, match):
    with pytest.raises(error, match=match):
        call()
