"""Harmonic-oscillator dynamics as a formal derivation, its 3x3 matrix Lax
pair, and the nine-parameter family of antisymmetric binary operations that
solves the operadic Lax equation.

Time never appears explicitly: evolution is the derivation ``ddt`` acting on
classical operator expressions.  The auxiliary coordinates A+ and A- satisfy
A+^2 - A-^2 = 2p and A+ A- = w q; differentiating those two relations and
solving the linear system gives their evolution rules, which is what ``ddt``
implements (the two ideal-preservation identities below pin this down).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .operad import MultiOp, antisymmetric_binary, bracket
from .report import Check, first_nonzero_check
from .scalars import _ZERO_EXP, GR_ZERO, ScalarPoly, add_exponents, add_term, symbol
from .weyl import AM, AP, CLASSICAL, OperatorExpr, P, Q, _normalize_into, generators

W = symbol("w")
S = symbol("s")
#: the initial momentum p0, encoded via s^2 = 2*p0, and its inverse powers
P0 = ScalarPoly.monomial(Fraction(1, 2), {"s": 2})
INV_2P0 = ScalarPoly.monomial(1, {"s": -2})
INV_P0 = 2 * INV_2P0
INV_SQRT_2P0 = ScalarPoly.monomial(1, {"s": -1})


def hamiltonian() -> OperatorExpr:
    """(p^2 + w^2 q^2) / 2 in classical mode."""
    return OperatorExpr(CLASSICAL, [
        ((P, P), ScalarPoly.const(Fraction(1, 2))),
        ((Q, Q), W * W * Fraction(1, 2)),
    ])


def _monomial(value) -> tuple:
    """A monomial scalar's one ``(((), exp), GaussRat)`` term; 0 has a zero coefficient."""
    return next(iter(ScalarPoly._coerce(value).terms.items()), (((), _ZERO_EXP), GR_ZERO))


#: images of the generators under d/dt, each a word with a monomial's ``((), exp)`` and GaussRat
_DDT_IMAGES = {
    Q: ((P,), *_monomial(1)),
    P: ((Q,), *_monomial(-(W * W))),
    AP: ((AM,), *_monomial(W * Fraction(-1, 2))),
    AM: ((AP,), *_monomial(W * Fraction(1, 2))),
}

#: values of the generators at the start state, each a monomial's ``((), exp)`` and GaussRat
_START_VALUES = {Q: _monomial(0), P: _monomial(P0), AP: _monomial(S), AM: _monomial(0)}


def ddt(expr: OperatorExpr) -> OperatorExpr:
    """Time derivative: the Leibniz extension of q->p, p->-w^2 q,
    A+ -> -(w/2) A-, A- -> (w/2) A+; parameter symbols are constants."""
    if expr.mode != CLASSICAL:
        raise ValueError("ddt is defined on classical expressions only")
    acc: dict = {}
    for (word, exp), coeff in expr.terms.items():
        for j, gen in enumerate(word):
            image, (_, e), g = _DDT_IMAGES[gen]
            _normalize_into(acc, word[:j] + image + word[j + 1:], add_exponents(exp, e),
                            coeff * g, CLASSICAL)
    return OperatorExpr._make(CLASSICAL, acc)


# -- matrix Lax pair ----------------------------------------------------------

#: L and M as degree-1 operations: entry (j, i) is the matrix element in row i,
#: column j, so that ``bracket(M, L)`` is the commutator ML - LM
LaxPair = namedtuple("LaxPair", "l_matrix m_matrix")


def lax_pair() -> LaxPair:
    q, p, _, _ = generators(CLASSICAL)
    return LaxPair(MultiOp(3, 1, CLASSICAL, {
        (0, 0): p, (1, 0): W * q,
        (0, 1): W * q, (1, 1): -p,
        (2, 2): OperatorExpr.scalar(CLASSICAL, 1),
    }), rotation_op())


def rotation_op() -> MultiOp:
    """M of the Lax pair: the constant rotation generator, degree 1."""
    half_w = W * Fraction(1, 2)
    return MultiOp(3, 1, CLASSICAL, {
        (1, 0): OperatorExpr.scalar(CLASSICAL, -half_w),
        (0, 1): OperatorExpr.scalar(CLASSICAL, half_w),
    })


def lax_defect(mu: MultiOp) -> MultiOp:
    """d(mu)/dt - [M, mu] for a classical operation of any degree; degree 1
    is the matrix Lax equation, degree 2 the operadic one."""
    return mu.map_values(ddt) - bracket(rotation_op(), mu)


def det3(x, y, z):
    """Determinant of the 3x3 matrix with rows x, y, z, fully expanded; the
    entries are ScalarPoly or classical OperatorExpr values."""
    return (
        x[0] * y[1] * z[2] - x[0] * y[2] * z[1]
        + x[1] * y[2] * z[0] - x[1] * y[0] * z[2]
        + x[2] * y[0] * z[1] - x[2] * y[1] * z[0]
    )


def verify_matrix_lax() -> list[Check]:
    """Entrywise dL/dt = ML - LM, plus the isospectral/energy identities."""
    l_matrix = lax_pair().l_matrix
    defect = lax_defect(l_matrix)
    checks = []
    for i in range(3):
        for j in range(3):
            checks.append(first_nonzero_check(
                f"matrix-lax.entry.{i + 1}{j + 1}",
                "matrix Lax equation for the oscillator",
                [(None, defect.entry((j,), i))],
                f"entry ({i + 1},{j + 1}) of dL/dt - (ML - LM)",
            ))
    det = det3(*([l_matrix.entry((j,), i) for j in range(3)] for i in range(3)))
    checks.append(first_nonzero_check(
        "matrix-lax.ddt-det",
        "isospectral invariant of the Lax matrix",
        [(None, ddt(det))],
        "d/dt of det L",
    ))
    checks.append(first_nonzero_check(
        "matrix-lax.det-energy",
        "determinant of the Lax matrix against the energy",
        [(None, det + hamiltonian() + hamiltonian())],
        "det L + 2H",
    ))
    return checks


# -- the nine-parameter deformation family -------------------------------------

class DeformationCoeffs(namedtuple("DeformationCoeffs", "c1 c2 c3 c4 c5 c6 c7 c8 c9")):
    """The nine scalar parameters c1..c9 of the deformed bracket."""

    __slots__ = ()

    @classmethod
    def of(cls, *values) -> "DeformationCoeffs":
        return cls(*(ScalarPoly._coerce(v) for v in values))


def deformed_structure_op(c: DeformationCoeffs) -> MultiOp:
    """The antisymmetric binary operation whose structure constants are the
    nine-parameter combinations of p, w q, A+ and A-."""
    q, p, a_plus, a_minus = generators(CLASSICAL)
    wq = W * q
    return antisymmetric_binary(3, CLASSICAL, {
        (2, 3, 1): c.c2 * p - c.c3 * wq - c.c4,
        (1, 3, 2): c.c2 * p - c.c3 * wq + c.c4,
        (3, 1, 1): c.c2 * wq + c.c3 * p - c.c1,
        (2, 3, 2): c.c2 * wq + c.c3 * p + c.c1,
        (1, 2, 1): c.c5 * a_plus + c.c6 * a_minus,
        (1, 2, 2): c.c5 * a_minus - c.c6 * a_plus,
        (1, 3, 3): c.c7 * a_plus + c.c8 * a_minus,
        (2, 3, 3): c.c7 * a_minus - c.c8 * a_plus,
        (1, 2, 3): OperatorExpr.scalar(CLASSICAL, c.c9),
    })


#: column order of the nine independent structure constants, 1-based (i, j, k)
STRUCTURE_COLUMNS = (
    (1, 2, 1), (1, 2, 2), (1, 2, 3),
    (2, 3, 1), (2, 3, 2), (2, 3, 3),
    (3, 1, 1), (3, 1, 2), (3, 1, 3),
)


def coeffs_from_initial(initial) -> DeformationCoeffs:
    """Solve for the nine parameters from initial structure constants.

    ``initial`` holds the nine independent constants in STRUCTURE_COLUMNS
    order.  The start state has q = 0, p = p0 > 0, A+ = sqrt(2 p0), A- = 0.
    The (1,3)->k constants are the negated (3,1)->k columns.
    """
    if len(initial) != 9:
        raise ValueError(f"expected nine structure constants, got {len(initial)}")
    m = dict(zip(STRUCTURE_COLUMNS, initial))
    half = Fraction(1, 2)
    return DeformationCoeffs.of(
        (m[2, 3, 2] - m[3, 1, 1]) * half,
        (m[2, 3, 1] - m[3, 1, 2]) * INV_2P0,
        (m[2, 3, 2] + m[3, 1, 1]) * INV_2P0,
        -(m[3, 1, 2] + m[2, 3, 1]) * half,
        m[1, 2, 1] * INV_SQRT_2P0,
        -(m[1, 2, 2] * INV_SQRT_2P0),
        -(m[3, 1, 3] * INV_SQRT_2P0),
        -(m[2, 3, 3] * INV_SQRT_2P0),
        m[1, 2, 3],
    )


def coeffs_nondegenerate(c: DeformationCoeffs) -> bool:
    """Sum-of-squares nondegeneracy test on the six non-constant parameters."""
    total = ScalarPoly.zero()
    for value in (c.c2, c.c3, c.c5, c.c6, c.c7, c.c8):
        total = total + value * value
    return not total.is_zero


def at_initial(expr: OperatorExpr) -> OperatorExpr:
    """Evaluate at the start state q = 0, p = p0, A+ = sqrt(2 p0), A- = 0: each
    term times its letters' ``_START_VALUES``, summed on the empty word."""
    if expr.mode != CLASSICAL:
        raise ValueError("initial-state evaluation is classical only")
    acc: dict = {}
    for (word, exp), coeff in expr.terms.items():
        for gen in word:
            (_, value_exp), value = _START_VALUES[gen]
            exp, coeff = add_exponents(exp, value_exp), coeff * value
        add_term(acc, ((), exp), coeff)
    return OperatorExpr._make(CLASSICAL, acc)


def verify_operadic_lax(mu: MultiOp, label: str) -> list[Check]:
    """Entrywise d(mu)/dt = [M, mu] for a classical binary operation; the
    check ids read ``operadic-lax.<label>.<ijk>``."""
    if mu.mode != CLASSICAL or mu.dim != 3 or mu.degree != 2:
        raise ValueError("expected a classical binary operation on dimension 3")
    defect = lax_defect(mu)
    return [
        first_nonzero_check(
            f"operadic-lax.{label}.{i + 1}{j + 1}{k + 1}",
            "operadic Lax equation",
            [(None, defect.entry((i, j), k))],
            f"entry ({i + 1},{j + 1})->{k + 1} of d(mu)/dt - [M, mu]",
        )
        for i in range(3) for j in range(3) for k in range(3)
    ]
