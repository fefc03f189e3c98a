import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oplax import bianchi
from oplax.operad import partial_compose
from oplax.oscillator import (
    INV_2P0,
    P0,
    STRUCTURE_COLUMNS,
    DeformationCoeffs,
    at_initial,
    coeffs_from_initial,
    coeffs_nondegenerate,
    ddt,
    deformed_structure_op,
    det3,
    hamiltonian,
    lax_pair,
    rotation_op,
    verify_matrix_lax,
    verify_operadic_lax,
)
from oplax.scalars import GaussRat, ScalarPoly, symbol
from oplax.weyl import AM, AP, CLASSICAL, GENERATORS, P, Q, QUANTUM, OperatorExpr

from helpers import is_antisymmetric, substitute_generators

W = symbol("w")
ZERO = ScalarPoly.zero()
ONE = ScalarPoly.const(1)


def gen(g):
    return OperatorExpr.generator(CLASSICAL, g)


def test_hamiltonian_value_at_start_is_energy():
    # E = p0^2 / 2 once p0 is the initial momentum
    assert at_initial(hamiltonian()) == \
        OperatorExpr.scalar(CLASSICAL, P0 * P0 * Fraction(1, 2))


def test_hamiltonian_is_even_in_each_variable():
    h = hamiltonian()
    assert substitute_generators(h, {Q: -gen(Q)}) == h
    assert substitute_generators(h, {P: -gen(P)}) == h


def rows(op):
    """The matrix of a degree-1 operation: entry (j, i) is row i, column j."""
    return [[op.entry((j,), i) for j in range(3)] for i in range(3)]


def trace(op):
    return sum((op.entry((i,), i) for i in range(3)), OperatorExpr.zero(CLASSICAL))


def test_determinant_is_minus_twice_hamiltonian():
    l_matrix = lax_pair().l_matrix
    assert det3(*rows(l_matrix)) + hamiltonian() + hamiltonian() == \
        OperatorExpr.zero(CLASSICAL)
    assert trace(l_matrix) == OperatorExpr.scalar(CLASSICAL, 1)


def test_ddt_generator_rules():
    assert ddt(gen(Q)) == gen(P)
    assert ddt(gen(P)) == -(W * W) * gen(Q)
    assert ddt(gen(AP)) == -(W * Fraction(1, 2)) * gen(AM)
    assert ddt(gen(AM)) == W * Fraction(1, 2) * gen(AP)
    assert ddt(hamiltonian()).is_zero


def test_ddt_rejects_quantum_input():
    with pytest.raises(ValueError):
        ddt(OperatorExpr.generator(QUANTUM, Q))


def test_ddt_is_a_derivation():
    rng = random.Random(101)

    def rand_expr():
        terms = []
        for _ in range(rng.randint(1, 3)):
            word = tuple(rng.choice((Q, P, AP, AM))
                         for _ in range(rng.randint(0, 3)))
            coeff = ScalarPoly.monomial(
                rng.randint(-3, 3),
                {"w": rng.randint(0, 1), "s": rng.randint(-1, 1)},
            )
            terms.append((word, coeff))
        return OperatorExpr(CLASSICAL, terms)

    for _ in range(100):
        u, v = rand_expr(), rand_expr()
        assert ddt(u * v) == ddt(u) * v + u * ddt(v)


def test_ddt_preserves_the_defining_relations():
    ap, am = gen(AP), gen(AM)
    radial = ap * ap - am * am - 2 * gen(P)
    angular = ap * am - W * gen(Q)
    assert ddt(radial) == -2 * W * angular
    assert ddt(angular) == W * Fraction(1, 2) * radial


def test_matrix_lax_report():
    checks = verify_matrix_lax()
    assert len(checks) == 11
    assert all(c.passed for c in checks)
    ids = [c.id for c in checks]
    assert "matrix-lax.entry.11" in ids and "matrix-lax.det-energy" in ids


def test_matrix_lax_entry_11_by_hand():
    # d/dt of the (1,1) entry is dp/dt = -w^2 q; the commutator side gives
    # M[1][2] L[2][1] - L[1][2] M[2][1] = -(w/2)(wq) - (wq)(w/2)
    pair = lax_pair()
    assert pair.m_matrix == rotation_op()
    l_rows, m_rows = rows(pair.l_matrix), rows(pair.m_matrix)
    assert ddt(l_rows[0][0]) == -(W * W) * gen(Q)
    # every entry against sum_k M[i][k] L[k][j] - L[i][k] M[k][j], summed
    # here by hand so the oracle does not go through operad.bracket
    for i in range(3):
        for j in range(3):
            rhs = OperatorExpr.zero(CLASSICAL)
            for k in range(3):
                rhs = rhs + m_rows[i][k] * l_rows[k][j] - l_rows[i][k] * m_rows[k][j]
            assert ddt(l_rows[i][j]) == rhs, (i + 1, j + 1)


def test_isospectral_traces():
    l_matrix = lax_pair().l_matrix
    l2 = partial_compose(l_matrix, 0, l_matrix)
    # L^2 = 2H on the (q, p) block and 1 in the corner
    zero, one = OperatorExpr.zero(CLASSICAL), OperatorExpr.scalar(CLASSICAL, 1)
    two_h = 2 * hamiltonian()
    assert rows(l2) == [[two_h, zero, zero], [zero, two_h, zero], [zero, zero, one]]
    assert ddt(trace(l_matrix)).is_zero
    assert ddt(trace(l2)).is_zero
    assert ddt(det3(*rows(l_matrix))).is_zero


def _initial(**entries):
    lookup = {f"{i}{j}{k}": col for col, (i, j, k) in enumerate(STRUCTURE_COLUMNS)}
    values = [ZERO] * 9
    for label, value in entries.items():
        values[lookup[label]] = ScalarPoly._coerce(value)
    return tuple(values)


def test_solve_coefficients_type_ii():
    c = coeffs_from_initial(_initial(**{"231": ONE}))
    assert c.c2 == ScalarPoly.monomial(1, {"s": -2})
    assert c.c4 == ScalarPoly.const(Fraction(-1, 2))
    for nu in (1, 3, 5, 6, 7, 8, 9):
        assert c[nu - 1].is_zero


def test_solve_coefficients_type_ix():
    c = coeffs_from_initial(_initial(**{"231": ONE, "312": ONE, "123": ONE}))
    assert c.c2.is_zero
    assert c.c4 == ScalarPoly.const(-1)
    assert c.c9 == ONE
    for nu in (1, 3, 5, 6, 7, 8):
        assert c[nu - 1].is_zero


def test_solve_coefficients_all_zero():
    c = coeffs_from_initial(_initial())
    assert all(c[nu - 1].is_zero for nu in range(1, 10))
    assert not coeffs_nondegenerate(c)


def test_nondegeneracy_examples():
    assert coeffs_nondegenerate(coeffs_from_initial(_initial(**{"231": ONE})))
    c_v = coeffs_from_initial(_initial(**{"122": -ONE, "313": ONE}))
    assert c_v.c6 == ScalarPoly.monomial(1, {"s": -1})
    assert coeffs_nondegenerate(c_v)


def test_deformed_structure_op_entries():
    c = coeffs_from_initial(_initial(**{"231": ONE}))
    mu = deformed_structure_op(c)
    # (2,3)->1 entry is (p + p0)/(2 p0)
    assert mu.entry((1, 2), 0) == (gen(P) + P0) * INV_2P0
    assert is_antisymmetric(mu)
    zero_op = deformed_structure_op(DeformationCoeffs.of(*[ZERO] * 9))
    assert zero_op.is_zero


def test_deformed_structure_op_antisymmetry_random():
    rng = random.Random(61)
    for _ in range(25):
        c = DeformationCoeffs.of(*[
            ScalarPoly.monomial(rng.randint(-2, 2), {"s": rng.randint(-1, 1)})
            for _ in range(9)
        ])
        assert is_antisymmetric(deformed_structure_op(c))


def test_at_initial_examples():
    assert at_initial((gen(P) + P0) * INV_2P0) == \
        OperatorExpr.scalar(CLASSICAL, 1)
    assert at_initial(gen(AM) * ScalarPoly.monomial(1, {"s": -1})).is_zero
    assert at_initial(W * gen(Q) * INV_2P0).is_zero


#: the start state as operator images, for the substitution oracle
START_IMAGES = {
    Q: OperatorExpr.zero(CLASSICAL),
    P: OperatorExpr.scalar(CLASSICAL, P0),
    AP: OperatorExpr.scalar(CLASSICAL, ScalarPoly.monomial(1, {"s": 1})),
    AM: OperatorExpr.zero(CLASSICAL),
}

parts = st.sampled_from((0, 1, -3, Fraction(1, 2)))


@st.composite
def classical_exprs(draw):
    """Words of up to four letters whose coefficients carry s^-k, w and x1."""
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        coeff = ScalarPoly.monomial(GaussRat(draw(parts), draw(parts)),
                                    {"s": draw(st.integers(-3, 2)), "w": draw(st.integers(0, 2)),
                                     "x1": draw(st.integers(0, 1))})
        terms.append((draw(st.lists(st.sampled_from(GENERATORS), max_size=4)), coeff))
    return OperatorExpr(CLASSICAL, terms)


@settings(max_examples=200, deadline=None)
@given(classical_exprs())
@example(OperatorExpr.zero(CLASSICAL))
@example(OperatorExpr(CLASSICAL, [((AP, AP, P), ScalarPoly.monomial(3, {"s": -4}))]))
def test_at_initial_is_substitution_of_the_start_state(expr):
    assert at_initial(expr) == substitute_generators(expr, START_IMAGES)


def test_operadic_lax_entry_oracle_type_ii():
    """Pin the index convention: entry (2,3)->1 for the first deformed type,
    both sides equal -w^2 q / (2 p0)."""
    mu = deformed_structure_op(coeffs_from_initial(_initial(**{"231": ONE})))
    lhs = ddt(mu.entry((1, 2), 0))
    want = -(W * W) * gen(Q) * INV_2P0
    assert lhs == want
    m = rotation_op()
    rhs = OperatorExpr.zero(CLASSICAL)
    for s in range(3):
        rhs = rhs + m.entry((s,), 0) * mu.entry((1, 2), s)
        rhs = rhs - m.entry((1,), s) * mu.entry((s, 2), 0)
        rhs = rhs - m.entry((2,), s) * mu.entry((1, s), 0)
    assert rhs == want


def test_operadic_lax_entry_oracle_type_v():
    # entry (1,2)->1 of the A-coordinate family: both sides w A+ / (2 sqrt(2p0))
    mu = deformed_structure_op(
        coeffs_from_initial(_initial(**{"122": -ONE, "313": ONE})))
    want = W * Fraction(1, 2) * ScalarPoly.monomial(1, {"s": -1}) * gen(AP)
    assert ddt(mu.entry((0, 1), 0)) == want
    m = rotation_op()
    rhs = OperatorExpr.zero(CLASSICAL)
    for s in range(3):
        rhs = rhs + m.entry((s,), 0) * mu.entry((0, 1), s)
        rhs = rhs - m.entry((0,), s) * mu.entry((s, 1), 0)
        rhs = rhs - m.entry((1,), s) * mu.entry((0, s), 0)
    assert rhs == want


def test_operadic_lax_reports():
    mu = deformed_structure_op(coeffs_from_initial(_initial(**{"231": ONE})))
    checks = verify_operadic_lax(mu, label="II")
    assert len(checks) == 27
    assert all(c.passed for c in checks)
    assert checks[0].id.startswith("operadic-lax.II.")
    with pytest.raises(ValueError):
        verify_operadic_lax(bianchi.quantum_table()["II"], label="II")


def test_round_trip_through_initial_state():
    for row in bianchi.classification_rows():
        mu = deformed_structure_op(coeffs_from_initial(row.mu0))
        for column, (i, j, k) in enumerate(STRUCTURE_COLUMNS):
            value = at_initial(mu.entry((i - 1, j - 1), k - 1))
            assert value == OperatorExpr.scalar(CLASSICAL, row.mu0[column]), \
                (row.name, (i, j, k))


@pytest.mark.parametrize("count", (8, 10))
def test_coeffs_from_initial_takes_exactly_nine_constants(count):
    with pytest.raises(ValueError, match=f"nine structure constants, got {count}"):
        coeffs_from_initial((ONE,) * count)


@pytest.mark.parametrize("call, error, match", [
    (lambda: DeformationCoeffs.of(*(1,) * 8), TypeError, "c9"),
    (lambda: DeformationCoeffs.of(*(1,) * 8, 0.5), TypeError, "cannot interpret float"),
    (lambda: at_initial(OperatorExpr.generator(QUANTUM, Q)), ValueError, "classical only"),
    (lambda: DeformationCoeffs.of(*(1,) * 8, True), TypeError, "cannot interpret bool"),
], ids=("length", "float", "quantum-at-initial", "bool"))
def test_deformation_inputs_are_checked(call, error, match):
    with pytest.raises(error, match=match):
        call()
