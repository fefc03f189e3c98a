"""sympy as a second witness for the matrix and operadic Lax suites.

L and M are read off ``lax_pair()`` and the Lax equation dL/dt = ML - LM and
the energy identity det L = -2H are checked in sympy, with the flow q' = p,
p' = -w^2 q and H = (p^2 + w^2 q^2) / 2 written out here, not taken from the
engine.  The operadic Lax equation d(mu)/dt = [M, mu] is checked the same way
on the stored dynamical table and the nine unit deformations, with the flow
extended by A+' = -(w/2) A-, A-' = (w/2) A+ and s written as sqrt(2 p0).  The
module skips when sympy is not installed.
"""

from itertools import product

import pytest

sympy = pytest.importorskip("sympy")

from oplax import bianchi, oscillator  # noqa: E402
from oplax.operad import MultiOp, antisymmetric_binary  # noqa: E402
from oplax.oscillator import DeformationCoeffs, deformed_structure_op  # noqa: E402
from oplax.scalars import SYMBOLS  # noqa: E402
from oplax.weyl import AM, AP, CLASSICAL, P, Q, generators  # noqa: E402

q, p, w, a_plus, a_minus = sympy.symbols("q p w Ap Am")
p0 = sympy.Symbol("p0", positive=True)
GENERATORS = {Q: q, P: p, AP: a_plus, AM: a_minus}
#: the engine's parameter symbols, s = sqrt(2 p0) spelled out
PARAMETERS = [sympy.sqrt(2 * p0) if name == "s" else sympy.Symbol(name) for name in SYMBOLS]
FLOW = {q: p, p: -w ** 2 * q, a_plus: -w / 2 * a_minus, a_minus: w / 2 * a_plus}


def _rational(value):
    return sympy.Rational(value.numerator, value.denominator)


def to_sympy(expr):
    """A classical operator expression as a sympy polynomial."""
    total = sympy.Integer(0)
    for word, exp, coeff in expr.flat_terms():
        term = _rational(coeff.re) + sympy.I * _rational(coeff.im)
        for gen in word:
            term *= GENERATORS[gen]
        for symbol, power in zip(PARAMETERS, exp):
            term *= symbol ** power
        total += term
    return total


def to_matrix(op):
    """A degree-1 operation as its matrix: entry (j, i) is row i, column j."""
    return sympy.Matrix(3, 3, lambda i, j: to_sympy(op.entry((j,), i)))


def lax_residuals():
    """dL/dt - (ML - LM) and det L + 2H, expanded, for the engine's Lax pair."""
    pair = oscillator.lax_pair()
    l_matrix, m_matrix = to_matrix(pair.l_matrix), to_matrix(pair.m_matrix)
    # the flow acts on q and p only, so L may hold no other generator
    assert l_matrix.free_symbols <= {q, p, w}
    dl_dt = l_matrix.diff(q) * p + l_matrix.diff(p) * (-w ** 2 * q)
    lax = (dl_dt - (m_matrix * l_matrix - l_matrix * m_matrix)).applyfunc(sympy.expand)
    energy = sympy.expand(l_matrix.det() + p ** 2 + w ** 2 * q ** 2)
    return lax, energy


def test_sympy_confirms_the_matrix_lax_pair():
    lax, energy = lax_residuals()
    assert lax == sympy.zeros(3, 3)
    assert energy == 0
    assert all(c.passed for c in oscillator.verify_matrix_lax())


def test_a_flipped_sign_in_m_fails_the_engine_and_sympy(monkeypatch):
    clean = oscillator.rotation_op()
    entries = dict(clean.entries)
    entries[(1, 0)] = -entries[(1, 0)]
    monkeypatch.setattr(oscillator, "rotation_op",
                        lambda: MultiOp(3, 1, CLASSICAL, entries))
    assert oscillator.lax_pair().m_matrix != clean
    failed = [c.id for c in oscillator.verify_matrix_lax() if not c.passed]
    assert failed and all(i.startswith("matrix-lax.entry.") for i in failed)
    lax, energy = lax_residuals()
    assert lax != sympy.zeros(3, 3)
    assert energy == 0
    type_ii = bianchi.dynamical_table()["II"]
    assert any(not c.passed for c in oscillator.verify_operadic_lax(type_ii, "II"))
    assert nonzero(operadic_residuals(type_ii))


def ddt(expr):
    """The time derivative along FLOW; every parameter is a constant."""
    return sum(expr.diff(gen) * image for gen, image in FLOW.items())


def operadic_residuals(mu):
    """Entry (a, b)->k of d(mu)/dt - [M, mu], expanded, M read off lax_pair():
    d(mu^k_ab)/dt - sum_i (M_ki mu^i_ab - mu^k_ib M_ia - mu^k_ai M_ib)."""
    m = to_matrix(oscillator.lax_pair().m_matrix)
    entry = {key: to_sympy(mu.entry(key[:2], key[2])) for key in product(range(3), repeat=3)}
    return {
        (a, b, k): sympy.expand(ddt(entry[a, b, k]) - sum(
            m[k, i] * entry[a, b, i] - entry[i, b, k] * m[i, a] - entry[a, i, k] * m[i, b]
            for i in range(3)))
        for a, b, k in entry
    }


def lax_cases():
    """The stored dynamical table by type, then deformed_structure_op at each
    unit coefficient c_nu = 1."""
    yield from bianchi.dynamical_table().items()
    for nu in range(1, 10):
        unit = DeformationCoeffs.of(*(int(j == nu) for j in range(1, 10)))
        yield f"c{nu}", deformed_structure_op(unit)


def nonzero(residuals):
    return [key for key, value in residuals.items() if value != 0]


def test_sympy_confirms_the_operadic_lax_equation():
    cases = list(lax_cases())
    assert len(cases) == 20
    for label, mu in cases:
        assert nonzero(operadic_residuals(mu)) == [], label
        assert all(c.passed for c in oscillator.verify_operadic_lax(mu, label)), label


def test_q_added_at_ii_231_fails_the_engine_and_sympy():
    q_gen = generators(CLASSICAL)[Q]
    mu = bianchi.dynamical_table()["II"] + antisymmetric_binary(3, CLASSICAL, {(2, 3, 1): q_gen})
    assert any(not c.passed for c in oscillator.verify_operadic_lax(mu, "II"))
    assert nonzero(operadic_residuals(mu))
