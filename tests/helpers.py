"""Oracles shared by several test modules."""

from oplax.operad import MultiOp, partial_compose
from oplax.scalars import NSYMBOLS, GaussRat, add_term
from oplax.weyl import GENERATORS, OperatorExpr


def exp_sum(e1, e2):
    """The exponent vector of a monomial product, added here, not by oplax."""
    return tuple(a + b for a, b in zip(e1, e2))


def term_products(x, y, sign=1):
    """Every term pair of x*y as a ``((word, exp), GaussRat)`` constructor pair: the words
    concatenated, the exponents added and the coefficients multiplied, times ``sign``."""
    return [((w1 + w2, exp_sum(e1, e2)), c1 * c2 * sign)
            for (w1, e1), c1 in x.terms.items() for (w2, e2), c2 in y.terms.items()]


def constructor_product(x, y):
    """x*y by the normalising constructor on every term pair.  ``__mul__`` normal-orders
    each joined word through the same ``_normalize_into``; test_schrodinger.py holds
    the product witness that shares no code with either."""
    return OperatorExpr(x.mode, term_products(x, y))


def all_parts_zero(acc):
    """Every part of a join kernel's raw sum ``{term: (re_sums, im_sums)}`` is zero."""
    return all(not part for sums in acc.values() for parts in sums for part in parts.values())


def assert_no_zero_survives_the_wrap(entries):
    """Wrapped ``{code: {(word, exp): GaussRat}}`` terms hold no empty entry and no zero
    coefficient, and each key is a word of generators and a full exponent vector."""
    for terms in entries.values():
        assert terms, "an emptied code survived the wrap"
        for (word, exp), coeff in terms.items():
            assert coeff, f"a zero coefficient is stored at {word}"
            assert type(coeff) is GaussRat and len(exp) == NSYMBOLS
            assert set(word) <= set(GENERATORS)


def substitute_generators(expr, images):
    """``expr`` with each generator in ``images`` replaced by its image, an operator
    expression or a scalar, word order kept: each term's coefficient times its
    letters, multiplied through ``OperatorExpr.__mul__`` and summed."""
    result = OperatorExpr.zero(expr.mode)
    for (word, exp), coeff in expr.terms.items():
        term = OperatorExpr(expr.mode, [(((), exp), coeff)])
        for gen in word:
            term = term * images.get(gen, OperatorExpr.generator(expr.mode, gen))
        result = result + term
    return result


def is_antisymmetric(mu) -> bool:
    """Swapping the two inputs of the binary operation mu negates every entry."""
    assert mu.degree == 2
    return all(i != j and mu.entry((j, i), k) == -value
               for (i, j, k), value in mu.entries.items())


# -- a tuple-keyed reference for operad composition ----------------------------
#
# Entries stay keyed by index tuples, every entry pair is multiplied by the
# normalising constructor (concatenated words, GaussRat coefficient products)
# and each key's terms are summed by one more constructor call, so no row, code,
# group or raw sum of the composition path enters the result.

def _compose_terms(terms, f, pos, g, sign):
    """Add the terms of sign * (f o_pos g), f's entry on the left of each product and
    the slot's sign (-1)^(pos |g|), into ``terms``, ``{key: [((word, exp), GaussRat)]}``."""
    if (pos * (g.degree - 1)) % 2:
        sign = -sign
    for fkey, fval in f.entries.items():
        for gkey, gval in g.entries.items():
            if gkey[-1] == fkey[pos]:
                terms.setdefault(fkey[:pos] + gkey[:-1] + fkey[pos + 1:], []).extend(
                    term_products(fval, gval, sign))


def _bracket_terms(terms, f, g, sign):
    """Add the terms of sign * (f o g - (-1)^(|f||g|) g o f) into ``terms``."""
    odd = ((f.degree - 1) * (g.degree - 1)) % 2
    for pos in range(f.degree):
        _compose_terms(terms, f, pos, g, sign)
    for pos in range(g.degree):
        _compose_terms(terms, g, pos, f, sign if odd else -sign)


def _reference_op(f, degree, terms):
    entries = {key: OperatorExpr(f.mode, parts) for key, parts in terms.items()}
    return MultiOp(f.dim, degree, f.mode, {key: value for key, value in entries.items() if value})


def reference_partial_compose(f, pos, g):
    terms: dict = {}
    _compose_terms(terms, f, pos, g, 1)
    return _reference_op(f, f.degree + g.degree - 1, terms)


def reference_total_compose(f, g):
    terms: dict = {}
    for pos in range(f.degree):
        _compose_terms(terms, f, pos, g, 1)
    return _reference_op(f, f.degree + g.degree - 1, terms)


def reference_bracket(f, g):
    terms: dict = {}
    _bracket_terms(terms, f, g, 1)
    return _reference_op(f, f.degree + g.degree - 1, terms)


def reference_jacobi_defect(f, g, h):
    """The sum over cyclic (x, y, z) of (-1)^(|x||z|) [x, [y, z]], all in one sum."""
    terms: dict = {}
    for x, y, z in ((f, g, h), (g, h, f), (h, f, g)):
        odd = ((x.degree - 1) * (z.degree - 1)) % 2
        _bracket_terms(terms, x, reference_bracket(y, z), -1 if odd else 1)
    return _reference_op(f, f.degree + g.degree + h.degree - 2, terms)


def reference_cyclic_sum(op):
    """The sum of op over the cyclic rotations of its inputs, by decoded key: each entry
    (i1, ..., in, k) goes to (i_r+1, ..., in, i1, ..., i_r, k) for each r, and each key's
    terms are summed by one constructor call."""
    terms: dict = {}
    for key, entry in op.entries.items():
        inputs = key[:-1]
        for r in range(op.degree):
            terms.setdefault(inputs[r:] + inputs[:r] + key[-1:], []).extend(entry.terms.items())
    return _reference_op(op, op.degree, terms)


def reference_jacobi_op(x, y, z, mu):
    """The Jacobi operator of mu, on any dimension, by operator arithmetic: T = mu o_1 mu
    from ``partial_compose``, its cyclic symmetrisation S[abc] = T[abc] + T[bca] + T[cab]
    summed as ``OperatorExpr`` values by index tuple, and each weight -x^a y^b z^c
    multiplied into every coefficient of S.  ``jacobi_op`` shares T with it but symmetrises
    on entry codes with ``operad.cyclic_sum`` and contracts on flat term maps, so neither of
    those steps enters the result here."""
    sym: dict = {}
    for (a, b, c, k), entry in partial_compose(mu, 1, mu).entries.items():
        for key in ((a, b, c, k), (c, a, b, k), (b, c, a, k)):
            add_term(sym, key, entry)
    total = [[] for _ in range(mu.dim)]
    for (a, b, c, k), entry in sym.items():
        weight = -(x[a] * y[b] * z[c])
        total[k].extend((key, weight * coeff) for key, coeff in entry.terms.items())
    return tuple(OperatorExpr(mu.mode, t) for t in total)
