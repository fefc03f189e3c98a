"""The Jacobi operator of the quantized bracket on the three-dimensional
algebras, and its closed form for the four-parameter family.

Vectors have commuting scalar components; the bracket contracts them against
the structure operators.  In a nested bracket the outer structure operator
always multiplies from the left of the inner, operator-valued component; that
single ordering convention fixes every product below.
"""

from __future__ import annotations

from .bianchi import (
    FAMILY_TYPE_NAMES,
    FamilyParams,
    family_params,
    family_structure_op,
    initial_structure_op,
)
from .operad import MultiOp, _compose_into, _operand
from .oscillator import INV_P0, INV_SQRT_2P0, P0, W, det3
from .report import Check, first_nonzero_check, flag_check
from .scalars import GaussRat, ScalarPoly, symbol
from .weyl import QUANTUM, OperatorExpr, _mul_rows_into, _wrap, commutator, generators

Vec3 = tuple  # three ScalarPoly components


def symbolic_vec(prefix: str) -> Vec3:
    if prefix not in ("x", "y", "z"):
        raise ValueError("symbolic vectors use the x, y or z component symbols")
    return tuple(symbol(f"{prefix}{j}") for j in (1, 2, 3))


def rational_vec(values) -> Vec3:
    values = tuple(ScalarPoly.const(GaussRat(v)) for v in values)
    if len(values) != 3:
        raise ValueError("expected three components")
    return values


def _require_binary3(mu: MultiOp) -> None:
    if mu.dim != 3 or mu.degree != 2:
        raise ValueError("expected a binary operation on dimension 3")


def jacobi_op(x: Vec3, y: Vec3, z: Vec3, mu: MultiOp) -> tuple:
    """Cyclic sum [x,[y,z]] + [y,[z,x]] + [z,[x,y]] for the given bracket, as
    its three operator components (all higher ones vanish).

    The composite T = mu o_1 mu has entry (a,b,c,k) = -sum_i mu[(a,i)->k] *
    mu[(b,c)->i], so the sum is -sum S[(a,b,c)->k] x^a y^b z^c with the cyclic
    symmetrisation S[abc] = T[abc] + T[bca] + T[cab], formed on the digits of T's raw
    entry codes, decoded modulo 3 as ``operad._composite`` does.  S carries no vector
    components and drops its cancelled parts, so a Lie bracket cancels before they
    enter; one kernel call joins its rows to each weight -x^a y^b z^c, built once.
    """
    _require_binary3(mu)
    f = _operand(mu)
    raw: dict = {}
    _compose_into(raw, f, 1, f, False)
    sym: dict = {}
    for (word, exp), (res, ims) in raw.items():
        for code in res.keys() | ims.keys() if ims else res:
            re, im = res.get(code, 0), ims.get(code, 0)
            a, b, c, k = code // 27 % 3, code // 9 % 3, code // 3 % 3, code % 3
            for abc in (9 * a + 3 * b + c, 9 * c + 3 * a + b, 9 * b + 3 * c + a):
                r, i = sym.get(key := (abc, k, word, exp), (0, 0))
                sym[key] = r + re, i + im
    rows = [(abc, k, word, exp, re, im) for (abc, k, word, exp), (re, im) in sym.items()
            if re or im]
    weights = {abc: [((), exp, not g.im, ((0, -g.re, -g.im),))
                     for exp, g in (x[abc // 9] * y[abc // 3 % 3] * z[abc % 3]).terms.items()]
               for abc in {row[0] for row in rows}}
    acc: dict = {}
    _mul_rows_into(acc, rows, weights, mu.mode)
    entries = _wrap(acc)
    return tuple(OperatorExpr._make(mu.mode, entries.get(k, {})) for k in range(3))


def closed_form_jacobi(x: Vec3, y: Vec3, z: Vec3,
                       params: FamilyParams) -> tuple:
    """The family's Jacobi operator in closed form.

    The first two components are multiples of the operators
    beta w q A-/+ +/- gamma (p -/+ p0) A+/-, the third is a multiple of the
    commutator of A+ and A-; the multiple carries the component determinant
    and the parameter a but never b.
    """
    gen_q, gen_p, gen_ap, gen_am = generators(QUANTUM)
    delta = det3(x, y, z)
    obstruction_plus = (params.beta * W * gen_q * gen_am
                        + params.gamma * (gen_p - P0) * gen_ap)
    obstruction_minus = (params.beta * W * gen_q * gen_ap
                         - params.gamma * (gen_p + P0) * gen_am)
    front = -(params.a * delta * INV_P0 * INV_SQRT_2P0)
    return (
        front * obstruction_plus,
        front * obstruction_minus,
        (params.a * params.a * delta * INV_P0) * commutator(gen_ap, gen_am),
    )


def verify_closed_form(hbar_zero: bool = False) -> list[Check]:
    """Fully symbolic check that the computed Jacobi operator of the family
    equals its closed form, and that the result does not involve b."""
    x, y, z = symbolic_vec("x"), symbolic_vec("y"), symbolic_vec("z")
    params = FamilyParams.symbolic()
    computed = jacobi_op(x, y, z, family_structure_op(params))
    closed = closed_form_jacobi(x, y, z, params)
    checks = []
    for idx, (got, want) in enumerate(zip(computed, closed), start=1):
        checks.append(first_nonzero_check(
            f"theorem-9-1.J{idx}",
            "closed form of the family Jacobi operator",
            [(None, got - want)],
            f"component {idx}, computed minus closed form, all parameters symbolic",
            hbar_zero,
        ))
    offending = next((c for c in computed if c.has_symbol("b")), None)
    checks.append(flag_check(
        "theorem-9-1.b-independence",
        "closed-form independence of the b parameter",
        offending is None,
        "the computed Jacobi operator carries no power of b",
        residual=offending.render() if offending is not None else None,
    ))
    return checks


def _jacobi_checks(prefix: str, ref: str, detail: str, cases,
                   hbar_zero: bool) -> list[Check]:
    """One check per case ``(name, mu, params)``: the Jacobi operator of mu on
    symbolic vectors, less the family's closed form at ``params`` unless they
    are None, vanishes."""
    x, y, z = symbolic_vec("x"), symbolic_vec("y"), symbolic_vec("z")
    checks = []
    for name, mu, params in cases:
        result = jacobi_op(x, y, z, mu)
        if params is not None:
            result = (c - d for c, d in zip(result, closed_form_jacobi(x, y, z, params)))
        checks.append(first_nonzero_check(f"{prefix}.{name}", ref,
                                          ((None, c) for c in result),
                                          f"type {name}: {detail}", hbar_zero))
    return checks


def verify_closed_form_specializations(quantum,
                                       hbar_zero: bool = False) -> list[Check]:
    """The family types of the quantum table, in its order, reproduce the
    closed form at their parameter values."""
    return _jacobi_checks(
        "theorem-9-1.special", "closed form specialized to a table row",
        "Jacobi operator of the stored quantum table vs closed form at its parameters",
        ((name, mu, family_params(name)) for name, mu in quantum.items()
         if name in FAMILY_TYPE_NAMES),
        hbar_zero)


def verify_quantum_lie_types(quantum, hbar_zero: bool = False) -> list[Check]:
    """The quantum table's types outside the family stay Lie algebras: their
    symbolic Jacobi operator vanishes, hbar kept symbolic."""
    return _jacobi_checks(
        "jacobi-quantum", "quantum Jacobi identity",
        "Jacobi operator with symbolic vectors",
        ((name, mu, None) for name, mu in quantum.items()
         if name not in FAMILY_TYPE_NAMES), hbar_zero)


def verify_classical_lie_rows(rows) -> list[Check]:
    """Every classification row is a Lie algebra: the classical Jacobi
    operator vanishes for symbolic vectors."""
    return _jacobi_checks(
        "jacobi-classical", "classical Jacobi identity",
        "Jacobi operator of the initial constants",
        ((row.name, initial_structure_op(row), None) for row in rows),
        hbar_zero=False)
