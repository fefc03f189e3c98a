"""The contract every sparse sum keeps, whatever its values: ScalarPoly over
Gaussian rationals, OperatorExpr over ScalarPoly, in both modes, and MultiOp
over OperatorExpr.

A sum stores only nonzero values, so two sums are equal exactly when their
term maps are; a plain operand on either side of a ring value gives the same
value; and comparing operators of different modes, or operations of
different shapes, says False instead of raising.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oplax.operad import MultiOp
from oplax.scalars import GaussRat, ScalarPoly, SparseSum
from oplax.weyl import AM, AP, CLASSICAL, P, Q, QUANTUM, OperatorExpr

#: the ring kinds, which take plain operands and multiply; an operation only adds
KINDS = ("scalar", CLASSICAL, QUANTUM)
OPERATION = "operation"

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
    if kind == OPERATION:
        # binary operations on a plane, so that entries often meet
        keys = st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1))
        return st.lists(st.tuples(keys, values(QUANTUM)), max_size=4).map(
            lambda entries: MultiOp(2, 2, QUANTUM, entries))
    return st.lists(st.tuples(words, scalars()), max_size=3).map(
        lambda terms: OperatorExpr(kind, terms))


def assert_no_zero_stored(x):
    for v in x.terms.values():
        assert v
        if isinstance(v, SparseSum):
            assert_no_zero_stored(v)


@pytest.mark.parametrize("kind", KINDS + (OPERATION,))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_sum_never_stores_a_zero(kind, data):
    a, b = data.draw(values(kind)), data.draw(values(kind))
    products = () if kind == OPERATION else (a * b, b * a)
    keep = itertools.cycle((True, False))
    halved = a.map_values(lambda v: v if next(keep) else v * 0)
    for x in (a + b, a - b, -a, *products, halved):
        assert_no_zero_stored(x)
    assert len(halved.terms) == (len(a.terms) + 1) // 2
    assert a.map_values(lambda v: v * 0).terms == {}
    assert a.map_values(lambda v: v + v) == a + a
    assert (a - a).terms == {}
    assert not (a - a) and (a - a).is_zero


@pytest.mark.parametrize("kind", KINDS + (OPERATION,))
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


def unit(kind):
    if kind == "scalar":
        return ScalarPoly.const(1)
    if kind == OPERATION:
        return MultiOp(1, 1, QUANTUM, {(0, 0): unit(QUANTUM)})
    return OperatorExpr.scalar(kind, 1)


@pytest.mark.parametrize("kind", KINDS + (OPERATION,))
def test_equality_with_a_foreign_value_is_false(kind):
    one = unit(kind)
    foreign = ("1", 1.0j, None, object())
    if kind == OPERATION:
        foreign += (1, unit("scalar"), unit(QUANTUM))
    for other in foreign:
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


@pytest.mark.parametrize("dim, degree, mode", [(3, 2, QUANTUM), (2, 1, QUANTUM),
                                               (2, 2, CLASSICAL)],
                         ids=("dim", "degree", "mode"))
def test_a_shape_mismatch_compares_false_and_raises_on_addition(dim, degree, mode):
    op, other = MultiOp(2, 2, QUANTUM), MultiOp(dim, degree, mode)
    assert not op == other
    assert op != other
    for combine in (lambda x, y: x + y, lambda x, y: x - y):
        with pytest.raises(ValueError, match="cannot add operations of different shape"):
            combine(op, other)


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
    assert bracket and not difference
    assert difference == MultiOp(2, 2, QUANTUM)
    # a zero value given to the constructor is not stored either
    assert MultiOp(2, 2, QUANTUM, {(0, 0, 0): OperatorExpr.zero(QUANTUM)}).entries == {}
