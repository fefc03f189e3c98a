"""sympy as a second witness for the matrix Lax suite.

L and M are read off ``lax_pair()`` and the Lax equation dL/dt = ML - LM and
the energy identity det L = -2H are checked in sympy, with the flow q' = p,
p' = -w^2 q and H = (p^2 + w^2 q^2) / 2 written out here, not taken from the
engine.  The module skips when sympy is not installed.
"""

import pytest

sympy = pytest.importorskip("sympy")

from oplax import oscillator  # noqa: E402
from oplax.operad import MultiOp  # noqa: E402
from oplax.scalars import SYMBOLS  # noqa: E402
from oplax.weyl import AM, AP, CLASSICAL, P, Q  # noqa: E402

q, p, w = sympy.symbols("q p w")
GENERATORS = {Q: q, P: p, AP: sympy.Symbol("Ap"), AM: sympy.Symbol("Am")}
PARAMETERS = sympy.symbols(SYMBOLS)


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
