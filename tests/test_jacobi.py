import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oplax import bianchi
from oplax.jacobi import (
    closed_form_jacobi,
    det3,
    jacobi_op,
    rational_vec,
    symbolic_vec,
    verify_classical_lie_rows,
    verify_closed_form,
    verify_closed_form_specializations,
    verify_quantum_lie_types,
)
from oplax.operad import MultiOp, antisymmetric_binary
from oplax.oscillator import INV_2P0, INV_SQRT_2P0, P0
from oplax.scalars import GaussRat, ScalarPoly, symbol
from oplax.weyl import AM, AP, CLASSICAL, P, Q, QUANTUM, OperatorExpr, commutator

from helpers import reference_jacobi_op

E1, E2, E3 = rational_vec([1, 0, 0]), rational_vec([0, 1, 0]), rational_vec([0, 0, 1])
X, Y, Z = symbolic_vec("x"), symbolic_vec("y"), symbolic_vec("z")


def contract(mu, v, w):
    """Components of the bracket of scalar vector v with operator triple w.

    Component i collects mu[(j,k)->i] * v^j * w^k with the structure operator
    left of w's component; the scalar v^j commutes freely.
    """
    components = [OperatorExpr.zero(mu.mode)] * 3
    for (j, k, i), entry in mu.entries.items():
        if w[k].is_zero:
            continue
        components[i] = components[i] + v[j] * (entry * w[k])
    return tuple(components)


def vector_bracket(x, y, mu):
    """Bracket of two vectors with commuting components."""
    return contract(mu, x, tuple(OperatorExpr.scalar(mu.mode, c) for c in y))


def test_det3_on_basis_vectors():
    assert det3(E1, E2, E3) == ScalarPoly.const(1)
    assert det3(E2, E1, E3) == ScalarPoly.const(-1)


def test_det3_symbolic_expansion():
    x1, x2, x3 = X
    y1, y2, y3 = Y
    z1, z2, z3 = Z
    expected = (x1 * y2 * z3 - x1 * y3 * z2 + x2 * y3 * z1
                - x2 * y1 * z3 + x3 * y1 * z2 - x3 * y2 * z1)
    assert det3(X, Y, Z) == expected


def test_vector_bracket_in_type_ii():
    mu = bianchi.quantum_table()["II"]
    b1, b2, b3 = vector_bracket(E2, E3, mu)
    gen_ph = OperatorExpr.generator(QUANTUM, P)
    gen_qh = OperatorExpr.generator(QUANTUM, Q)
    assert b1 == (gen_ph + P0) * INV_2P0
    assert b2 == symbol("w") * gen_qh * INV_2P0
    assert b3.is_zero


def test_vector_bracket_is_alternating():
    mu = bianchi.quantum_table()["VII_a"]
    assert all(c.is_zero for c in vector_bracket(X, X, mu))


def test_vector_bracket_in_the_family():
    mu = bianchi.family_structure_op(bianchi.FamilyParams.symbolic())
    b1, b2, b3 = vector_bracket(E1, E2, mu)
    a = symbol("a")
    assert b1 == a * OperatorExpr.generator(QUANTUM, AM) * INV_SQRT_2P0
    assert b2 == -(a * OperatorExpr.generator(QUANTUM, AP) * INV_SQRT_2P0)
    assert b3 == OperatorExpr.scalar(QUANTUM, symbol("b"))


def nested_jacobi(x, y, z, mu):
    """The textbook route: three nested vector brackets, summed."""
    total = [OperatorExpr.zero(mu.mode)] * 3
    for outer, first, second in ((x, y, z), (y, z, x), (z, x, y)):
        nested = contract(mu, outer, vector_bracket(first, second, mu))
        total = [t + n for t, n in zip(total, nested)]
    return tuple(total)


def _every_structure_op():
    quantum = bianchi.quantum_table()
    yield from ((f"quantum {name}", quantum[name]) for name in bianchi.TYPE_NAMES)
    for row in bianchi.classification_rows():
        yield f"classical {row.name}", bianchi.initial_structure_op(row)
    yield "family", bianchi.family_structure_op(bianchi.FamilyParams.symbolic())


@pytest.mark.parametrize("mu", [pytest.param(mu, id=label)
                                for label, mu in _every_structure_op()])
def test_jacobi_op_equals_the_nested_bracket_sum(mu):
    assert tuple(jacobi_op(X, Y, Z, mu)) == nested_jacobi(X, Y, Z, mu)


small_vecs = st.lists(st.one_of(st.just(0), st.fractions(-2, 2, max_denominator=3)),
                      min_size=3, max_size=3).map(rational_vec)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(bianchi.TYPE_NAMES), small_vecs, small_vecs, small_vecs)
@example("VI_a", rational_vec([0, 0, 0]), rational_vec([1, 0, 0]), rational_vec([0, 1, 0]))
def test_jacobi_op_equals_the_nested_bracket_sum_on_rational_vectors(name, x, y, z):
    mu = bianchi.quantum_table()[name]
    assert tuple(jacobi_op(x, y, z, mu)) == nested_jacobi(x, y, z, mu)


#: Gaussian-rational coefficients, some with an imaginary part, in w and s^-1
jacobi_coeffs = st.builds(
    lambda re, im, powers: ScalarPoly.monomial(GaussRat(re, im), powers),
    st.sampled_from((1, -1, 2, Fraction(1, 2))),
    st.sampled_from((0, 0, 1, Fraction(-1, 3))),
    st.fixed_dictionaries({"w": st.integers(0, 1), "s": st.integers(-1, 0)}))
#: words that may start with q or end in p, so a quantum mu o_1 mu crosses p q junctions
jacobi_words = st.tuples(
    st.sampled_from(((), (Q,))), st.lists(st.sampled_from((Q, P, AP, AM)), max_size=1),
    st.sampled_from(((), (P,)))).map(lambda parts: parts[0] + tuple(parts[1]) + parts[2])


@st.composite
def binary_ops(draw, mode):
    """A binary operation on dimension 3 with up to six operator entries, drawn as
    they come or, as the tables are, antisymmetric."""
    keys = st.tuples(*[st.integers(0, 2)] * 3)
    terms = st.lists(st.tuples(jacobi_words, jacobi_coeffs), min_size=1, max_size=2)
    entries = {key: OperatorExpr(mode, value)
               for key, value in draw(st.dictionaries(keys, terms, max_size=6)).items()}
    if draw(st.booleans()):
        return antisymmetric_binary(3, mode, {(i + 1, j + 1, k + 1): value
                                              for (i, j, k), value in entries.items() if i < j})
    return MultiOp(3, 2, mode, entries)


#: symbolic, rational, or with Gaussian-rational monomial components in w and s^-1
vectors = st.one_of(st.sampled_from((X, Y, Z)), small_vecs,
                    st.tuples(*[st.one_of(st.just(ScalarPoly.zero()), jacobi_coeffs)] * 3))


@pytest.mark.parametrize("mode", (CLASSICAL, QUANTUM))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_jacobi_op_agrees_with_the_composite_route(mode, data):
    mu = data.draw(binary_ops(mode))
    x, y, z = (data.draw(vectors) for _ in range(3))
    got = jacobi_op(x, y, z, mu)
    assert got == reference_jacobi_op(x, y, z, mu)
    for component in got:
        assert component.mode == mode
        assert all(coeff.terms and all(coeff.terms.values()) for coeff in component.terms.values())


def test_jacobi_op_vanishes_for_type_ix():
    result = jacobi_op(E1, E2, E3, bianchi.quantum_table()["IX"])
    assert all(c.is_zero for c in result)


def test_jacobi_op_type_v_on_basis_vectors():
    result = jacobi_op(E1, E2, E3, bianchi.quantum_table()["V"])
    assert result[0].is_zero and result[1].is_zero
    want = ScalarPoly.monomial(2, {"s": -2}) * commutator(
        OperatorExpr.generator(QUANTUM, AP),
        OperatorExpr.generator(QUANTUM, AM))
    assert result[2] == want


def test_jacobi_op_with_repeated_argument_vanishes():
    rng = random.Random(77)
    tables = bianchi.quantum_table()
    for name in bianchi.TYPE_NAMES:
        v = rational_vec([rng.randint(-3, 3) for _ in range(3)])
        z = rational_vec([rng.randint(-3, 3) for _ in range(3)])
        assert all(c.is_zero for c in jacobi_op(v, v, z, tables[name])), name
    assert all(c.is_zero for c in jacobi_op(X, X, Z, tables["VI_a"]))


def test_jacobi_op_is_multilinear():
    mu = bianchi.quantum_table()["VII_a"]
    rng = random.Random(13)
    for _ in range(5):
        u = rational_vec([rng.randint(-2, 2) for _ in range(3)])
        v = rational_vec([rng.randint(-2, 2) for _ in range(3)])
        lam = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        combo = tuple(ui * lam + vi for ui, vi in zip(u, v))
        left = jacobi_op(combo, Y, Z, mu)
        parts = jacobi_op(u, Y, Z, mu), jacobi_op(v, Y, Z, mu)
        for got, a_part, b_part in zip(left, parts[0], parts[1]):
            assert got == lam * a_part + b_part


def test_swapping_arguments_negates_the_family_jacobi():
    params = bianchi.FamilyParams.symbolic()
    straight = closed_form_jacobi(X, Y, Z, params)
    swapped = closed_form_jacobi(Y, X, Z, params)
    for lhs, rhs in zip(straight, swapped):
        assert (lhs + rhs).is_zero
    # and the computed operator agrees with the closed form, so it inherits it
    computed_straight = jacobi_op(X, Y, Z, bianchi.family_structure_op(params))
    computed_swapped = jacobi_op(Y, X, Z, bianchi.family_structure_op(params))
    for lhs, rhs in zip(computed_straight, computed_swapped):
        assert (lhs + rhs).is_zero


def test_closed_form_examples():
    one3 = closed_form_jacobi(E1, E2, E3, bianchi.family_params("V"))
    want = ScalarPoly.monomial(2, {"s": -2}) * commutator(
        OperatorExpr.generator(QUANTUM, AP),
        OperatorExpr.generator(QUANTUM, AM))
    assert one3[0].is_zero and one3[1].is_zero and one3[2] == want
    # overall factor a kills everything
    silenced = closed_form_jacobi(X, Y, Z, bianchi.FamilyParams.of(1, 1, 0, 1))
    assert all(c.is_zero for c in silenced)


def test_closed_form_is_b_independent():
    x, y, z = X, Y, Z
    params = bianchi.FamilyParams.symbolic()
    computed = jacobi_op(x, y, z, bianchi.family_structure_op(params))
    at_zero = [c.subst_params({"b": 0}) for c in computed]
    at_one = [c.subst_params({"b": 1}) for c in computed]
    for lhs, rhs in zip(at_zero, at_one):
        assert lhs == rhs
    assert not any(c.has_symbol("b") for c in computed)


def test_verify_closed_form_report():
    checks = verify_closed_form()
    assert all(c.passed for c in checks)
    assert [c.id for c in checks] == [
        "theorem-9-1.J1", "theorem-9-1.J2", "theorem-9-1.J3",
        "theorem-9-1.b-independence",
    ]


def test_verify_specializations_report():
    checks = verify_closed_form_specializations(bianchi.quantum_table())
    assert all(c.passed for c in checks)
    assert len(checks) == 5


def test_verify_quantum_lie_types():
    checks = verify_quantum_lie_types(bianchi.quantum_table())
    assert all(c.passed for c in checks)
    assert [c.id.rsplit(".", 1)[1] for c in checks] == \
        ["I", "II", "VII", "VI", "IX", "VIII"]
    assert all(c.passed for c in
               verify_quantum_lie_types(bianchi.quantum_table(), hbar_zero=True))


def test_verify_classical_rows():
    checks = verify_classical_lie_rows(bianchi.classification_rows())
    assert all(c.passed for c in checks)
    assert len(checks) == 11


def test_rational_vec_takes_exact_rationals_only():
    assert rational_vec([Fraction(1, 10), 0, -2]) == (
        ScalarPoly.const(Fraction(1, 10)), ScalarPoly.zero(), ScalarPoly.const(-2))
    # a float would silently become its binary fraction 3602879701896397/2^55
    with pytest.raises(TypeError, match="cannot interpret float"):
        rational_vec([0.1, 0, 0])
    # and a bool would silently read as 1 or 0
    for flag in (True, False):
        with pytest.raises(TypeError, match="cannot interpret bool"):
            rational_vec([0, flag, 0])
    with pytest.raises(ValueError):
        rational_vec([1, 2])


def test_shape_validation():
    from oplax.operad import MultiOp

    wrong_dim = MultiOp(2, 2, QUANTUM, {})
    wrong_degree = MultiOp(3, 1, QUANTUM, {})
    with pytest.raises(ValueError):
        jacobi_op(E1, E2, E3, wrong_dim)
    with pytest.raises(ValueError):
        jacobi_op(E1, E2, E3, wrong_degree)


@pytest.mark.parametrize("prefix", ("w", "x1", ""))
def test_symbolic_vectors_take_only_the_component_symbols(prefix):
    with pytest.raises(ValueError, match="x, y or z"):
        symbolic_vec(prefix)


def test_the_family_and_the_quantum_lie_types_partition_the_types():
    quantum = bianchi.quantum_table()
    lie = [c.id.rsplit(".", 1)[1] for c in verify_quantum_lie_types(quantum)]
    family = [c.id.rsplit(".", 1)[1]
              for c in verify_closed_form_specializations(quantum)]
    assert lie == ["I", "II", "VII", "VI", "IX", "VIII"]
    assert family == list(bianchi.FAMILY_TYPE_NAMES) == \
        ["V", "IV", "VII_a", "III_a1", "VI_a"]
    assert sorted(lie + family) == sorted(bianchi.TYPE_NAMES)
