"""The Jacobi operator of a binary operation on any dimension, and its closed
form for the four-parameter family of the quantized three-dimensional algebras.

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
from .operad import MultiOp, cyclic_sum, partial_compose
from .oscillator import INV_P0, INV_SQRT_2P0, P0, W, det3
from .report import Check, first_nonzero_check, flag_check
from .scalars import GaussRat, ScalarPoly, add_exponents, add_term, symbol
from .weyl import QUANTUM, OperatorExpr, commutator, generators


def symbolic_vec(prefix: str) -> tuple:
    if prefix not in ("x", "y", "z"):
        raise ValueError("symbolic vectors use the x, y or z component symbols")
    return tuple(symbol(f"{prefix}{j}") for j in (1, 2, 3))


def _vec(values, dim: int) -> tuple:
    values = tuple(map(ScalarPoly._coerce, values))
    if len(values) != dim:
        raise ValueError(f"expected {dim} components on dimension {dim}, got {len(values)}")
    return values


def rational_vec(values) -> tuple:
    return _vec(map(GaussRat, values), 3)


def jacobi_op(x: tuple, y: tuple, z: tuple, mu: MultiOp) -> tuple:
    """Cyclic sum [x,[y,z]] + [y,[z,x]] + [z,[x,y]] of the bracket mu on any dimension, as
    its ``mu.dim`` operator components -sum S[(a,b,c)->k] x^a y^b z^c, with S the
    ``cyclic_sum`` of T = mu o_1 mu, T[(a,b,c)->k] = -sum_i mu[(a,i)->k] mu[(b,c)->i].
    S holds no vector component, so a Lie bracket cancels before any weight enters."""
    if not isinstance(mu, MultiOp):
        raise TypeError(f"cannot interpret {type(mu).__name__} as an operation")
    if mu.degree != 2:
        raise ValueError(f"expected a binary operation, not one of degree {mu.degree}")
    x, y, z = (_vec(v, mu.dim) for v in (x, y, z))
    weights: dict = {}
    components = [{} for _ in range(mu.dim)]
    for (a, b, c, k), value in cyclic_sum(partial_compose(mu, 1, mu)).sorted_entries():
        if (weight := weights.get((a, b, c))) is None:
            weight = weights[a, b, c] = (-(x[a] * y[b] * z[c])).terms
        for (word, exp), g in value.terms.items():
            for (_, e), w in weight.items():
                add_term(components[k], (word, add_exponents(exp, e)), g * w)
    return tuple(OperatorExpr._make(mu.mode, terms) for terms in components)


def closed_form_jacobi(x: tuple, y: tuple, z: tuple, params: FamilyParams) -> tuple:
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
