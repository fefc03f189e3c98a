"""The contract every sparse sum keeps, whatever its values: ScalarPoly over
Gaussian rationals and OperatorExpr over ScalarPoly, in both modes.

A sum stores only nonzero values, so two sums are equal exactly when their
term maps are; a plain operand on either side gives the same value; and
comparing operators of different modes says False instead of raising.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oplax.operad import MultiOp
from oplax.scalars import GaussRat, ScalarPoly
from oplax.weyl import AM, AP, CLASSICAL, P, Q, QUANTUM, OperatorExpr

KINDS = ("scalar", CLASSICAL, QUANTUM)

parts = st.one_of(st.integers(-2, 2),
                  st.fractions(min_value=-2, max_value=2, max_denominator=3))
gauss = st.builds(GaussRat, parts, st.sampled_from((0, 0, 1, Fraction(-1, 2))))


@st.composite
def scalars(draw):
    """Small ScalarPolys whose terms often cancel: few symbols, low powers."""
    total = ScalarPoly.zero()
    for _ in range(draw(st.integers(0, 3))):
        powers = {"s": draw(st.integers(-1, 1)), "hbar": draw(st.integers(0, 1))}
        total = total + ScalarPoly.monomial(draw(gauss), powers)
    return total


plain = st.one_of(st.integers(-3, 3),
                  st.fractions(min_value=-2, max_value=2, max_denominator=3),
                  gauss, scalars())
words = st.lists(st.sampled_from((Q, P, AP, AM)), max_size=3).map(tuple)


def values(kind):
    if kind == "scalar":
        return scalars()
    return st.lists(st.tuples(words, scalars()), max_size=3).map(
        lambda terms: OperatorExpr(kind, terms))


def assert_no_zero_stored(x):
    assert all(v for v in x.terms.values())
    if isinstance(x, OperatorExpr):
        assert all(c for v in x.terms.values() for c in v.terms.values())


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_sum_never_stores_a_zero(kind, data):
    a, b = data.draw(values(kind)), data.draw(values(kind))
    for x in (a + b, a - b, -a, a * b, b * a):
        assert_no_zero_stored(x)
    assert (a - a).terms == {}
    assert not (a - a) and (a - a).is_zero


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_adding_then_subtracting_is_the_identity(kind, data):
    a, b = data.draw(values(kind)), data.draw(values(kind))
    assert a + b - b == a
    assert a - b + b == a
    assert -(-a) == a


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_plain_operand_on_the_left_gives_the_same_value(kind, data):
    e, s = data.draw(values(kind)), data.draw(plain)
    assert s + e == e + s
    assert s - e == -(e - s)
    assert s * e == e * s
    assert 1 - e == -(e - 1)
    for x in (s + e, s - e, s * e):
        assert type(x) is type(e)
        assert_no_zero_stored(x)


@pytest.mark.parametrize("kind", KINDS)
def test_equality_with_a_foreign_value_is_false(kind):
    one = ScalarPoly.const(1) if kind == "scalar" else OperatorExpr.scalar(kind, 1)
    for other in ("1", 1.0j, None, object()):
        assert not one == other
        assert one != other
    with pytest.raises(TypeError):
        hash(one)


def test_a_mode_mismatch_compares_false_and_does_not_raise():
    for make in (OperatorExpr.zero, lambda mode: OperatorExpr.generator(mode, Q)):
        classical, quantum = make(CLASSICAL), make(QUANTUM)
        assert not classical == quantum
        assert classical != quantum
    # arithmetic across modes is still an error
    with pytest.raises(ValueError, match="mode mismatch"):
        OperatorExpr.generator(CLASSICAL, Q) + OperatorExpr.generator(QUANTUM, Q)


@pytest.mark.parametrize("make, key, one", [
    (ScalarPoly, next(iter(ScalarPoly.const(1).terms)), 1),
    (lambda terms: OperatorExpr(CLASSICAL, terms), (Q,), 1),
    (lambda terms: MultiOp(1, 1, CLASSICAL, terms), (0, 0),
     OperatorExpr.scalar(CLASSICAL, 1)),
], ids=("ScalarPoly", "OperatorExpr", "MultiOp"))
def test_a_repeated_key_adds_up(make, key, one):
    assert make([(key, one), (key, one)]) == make([(key, one + one)])
    assert make([(key, one), (key, -one)]) == make([])


def test_a_multiop_minus_itself_stores_no_entries():
    bracket = MultiOp(2, 2, QUANTUM, {
        (0, 1, 0): OperatorExpr.generator(QUANTUM, P),
        (1, 0, 0): -OperatorExpr.generator(QUANTUM, P),
        (0, 1, 1): OperatorExpr.scalar(QUANTUM, ScalarPoly.monomial(1, {"hbar": 1})),
    })
    difference = bracket - bracket
    assert difference.is_zero and difference.entries == {}
    assert difference == MultiOp(2, 2, QUANTUM)
    # a zero value given to the constructor is not stored either
    assert MultiOp(2, 2, QUANTUM, {(0, 0, 0): OperatorExpr.zero(QUANTUM)}).entries == {}
