import re
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from oplax import operad
from oplax.operad import MultiOp, _mul_rows_into, _wrap
from oplax.scalars import (NSYMBOLS, SYMBOLS, _ZERO_EXP, GaussRat, ScalarPoly, add_term,
                           parse_scalar, symbol)
from oplax.weyl import (
    AM,
    AP,
    CLASSICAL,
    P,
    Q,
    QUANTUM,
    OperatorExpr,
    _normal_form,
    _normalize_into,
    commutator,
    parse_operator,
    render_factored,
)

from helpers import all_parts_zero, assert_no_zero_survives_the_wrap, constructor_product, exp_sum

MINUS_I_HBAR = ScalarPoly.monomial(GaussRat(0, -1), {"hbar": 1})


def classical_limit(expr):
    """Drop hbar and let everything commute."""
    return OperatorExpr(CLASSICAL, expr.subst_params({"hbar": 0}).terms.items())


def qexpr(*word):
    return OperatorExpr(QUANTUM, [(word, ScalarPoly.const(1))])


def cexpr(*word):
    return OperatorExpr(CLASSICAL, [(word, ScalarPoly.const(1))])


def words_of(expr):
    """The words of ``expr``'s flat ``(word, exp)`` keys, in storage order."""
    return [word for word, _ in expr.terms]


def test_pq_rewrite():
    assert qexpr(P, Q) == qexpr(Q, P) + OperatorExpr.scalar(QUANTUM, MINUS_I_HBAR)


def test_ppq_rewrite():
    # hand oracle: p(pq) = p(qp - ih) = (qp - ih)p - ih p = qpp - 2ih p
    expected = qexpr(Q, P, P) + OperatorExpr(
        QUANTUM, [((P,), ScalarPoly.monomial(GaussRat(0, -2), {"hbar": 1}))])
    assert qexpr(P, P, Q) == expected


def test_free_pair_is_untouched():
    assert words_of(qexpr(AP, AM)) == [(AP, AM)]
    assert words_of(qexpr(AM, AP)) == [(AM, AP)]
    # no rule reorders q or p across the free generators
    assert words_of(qexpr(P, AP, Q)) == [(P, AP, Q)]


def test_classical_words_commute():
    assert cexpr(P, Q) == cexpr(Q, P)
    assert words_of(cexpr(AM, AP, P, Q)) == [(Q, P, AP, AM)]


def test_coefficient_extraction():
    w = symbol("w")
    s_inv = ScalarPoly.monomial(1, {"s": -1})
    lhs = (w * cexpr(Q)) * (s_inv * cexpr(AM))
    assert lhs == OperatorExpr(CLASSICAL, [((Q, AM), w * s_inv)])


def test_quantum_product_keeps_order():
    p0 = ScalarPoly.monomial(Fraction(1, 2), {"s": 2})
    product = (qexpr(P) - p0) * qexpr(AP)
    assert set(words_of(product)) == {(P, AP), (AP,)}
    assert product == OperatorExpr(QUANTUM, [((P, AP), 1), ((AP,), -p0)])


def test_zero_annihilates():
    assert (OperatorExpr.zero(QUANTUM) * qexpr(P, Q)).is_zero
    assert (0 * cexpr(Q)).is_zero


def test_commutator_examples():
    assert commutator(qexpr(P), qexpr(Q)) == OperatorExpr.scalar(QUANTUM, MINUS_I_HBAR)
    assert commutator(qexpr(Q), qexpr(Q)).is_zero
    free = commutator(qexpr(AP), qexpr(AM))
    assert free == qexpr(AP, AM) - qexpr(AM, AP)
    assert not free.is_zero


#: the zero expression, and a nonzero one whose coefficient carries no symbol
SUBST_EXPRS = (OperatorExpr.zero(QUANTUM), OperatorExpr(QUANTUM, [((P, Q), 2)]))


@pytest.mark.parametrize("expr", SUBST_EXPRS, ids=("zero", "nonzero"))
def test_an_expression_rejects_an_unknown_symbol_or_a_non_rational_value(expr):
    for call in (lambda: expr.has_symbol("q"), lambda: expr.subst_params({"q": 0}),
                 lambda: expr.subst_params({"hbar": 0, "q": Fraction(1, 2)})):
        with pytest.raises(ValueError, match="unknown symbol 'q'"):
            call()
    for value in (0.5, "1/2", GaussRat(2), ScalarPoly.const(2)):
        for bindings in ({"hbar": value}, {"q": value}, {"s": 1, "w": value}):
            with pytest.raises(TypeError, match="only an int or a Fraction"):
                expr.subst_params(bindings)
    for bindings in (None, [("hbar", 0)]):
        with pytest.raises(TypeError, match=f"bindings is {type(bindings).__name__}, not a dict"):
            expr.subst_params(bindings)
    # p q = q p - i hbar: the nonzero expression carries hbar, and no s
    assert expr.has_symbol("hbar") == bool(expr) and not expr.has_symbol("s")
    assert expr.subst_params({"s": 2, "hbar": 0}) == expr.subst_params({"hbar": 0})
    assert not expr.subst_params({"hbar": Fraction(1, 2)}).has_symbol("hbar")


def test_mode_mismatch_rejected():
    with pytest.raises(ValueError):
        qexpr(P) * cexpr(Q)
    with pytest.raises(ValueError):
        qexpr(P) + cexpr(Q)


def test_the_zero_of_a_mode_is_the_empty_sum_and_checks_its_mode(monkeypatch):
    for mode in (CLASSICAL, QUANTUM):
        assert OperatorExpr.zero(mode) == OperatorExpr.scalar(mode, 0)
    # it builds no scalar: MultiOp.entry returns it for every key that holds no entry
    def no_scalar(value):
        raise AssertionError("built a scalar")

    monkeypatch.setattr(ScalarPoly, "_coerce", staticmethod(no_scalar))
    for mode in (CLASSICAL, QUANTUM):
        assert OperatorExpr.zero(mode).terms == {} and OperatorExpr.zero(mode).mode == mode
        assert MultiOp(2, 1, mode).entry((0,), 1).terms == {}
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        OperatorExpr.zero("bogus")


def test_mixed_operations_do_not_render_the_operator(monkeypatch):
    # ScalarPoly * OperatorExpr first fails in ScalarPoly._coerce; the
    # operator's reflected method then takes over, and nothing is rendered
    def refuse(self):
        raise AssertionError("rendered an operand")

    monkeypatch.setattr(OperatorExpr, "render", refuse)
    product = symbol("w") * OperatorExpr.generator(QUANTUM, Q)
    assert product == OperatorExpr(QUANTUM, {(Q,): symbol("w")})
    difference = ScalarPoly.const(2) - qexpr(P)
    assert difference == OperatorExpr(QUANTUM, {(): ScalarPoly.const(2), (P,): ScalarPoly.const(-1)})
    with pytest.raises(TypeError, match="OperatorExpr"):
        GaussRat._coerce(qexpr(P))


def test_a_scalar_times_an_operator_is_handed_to_the_operator(monkeypatch):
    w, op = symbol("w"), qexpr(P)
    for scalar in (w, GaussRat(0, 1)):
        assert type(scalar).__mul__(scalar, op) is NotImplemented
        product = scalar * op
        assert type(product) is OperatorExpr
        assert product == OperatorExpr(QUANTUM, {(P,): scalar})
    # __rmul__ is __mul__ with the operands swapped, so a wrapper on __mul__ sees it
    calls, mul = [], OperatorExpr.__mul__

    def counted_mul(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(OperatorExpr, "__mul__", counted_mul)
    assert w * op == OperatorExpr(QUANTUM, {(P,): w})
    assert calls == [w]


def test_a_scalar_product_joins_no_words(monkeypatch):
    # a scalar multiplies each coefficient, and an operator operand joins term by term:
    # the composition kernel serves neither
    calls, kernel = [], operad._mul_rows_into

    def counted_kernel(*args):
        calls.append(args[3])
        return kernel(*args)

    monkeypatch.setattr(operad, "_mul_rows_into", counted_kernel)
    w, q, p = symbol("w"), qexpr(Q), qexpr(P)
    assert w * q == q * w == OperatorExpr(QUANTUM, {(Q,): w})
    assert q * GaussRat(0, 1) == OperatorExpr(QUANTUM, {(Q,): GaussRat(0, 1)})
    assert q * q == OperatorExpr(QUANTUM, {(Q, Q): 1})
    assert p * q == OperatorExpr(QUANTUM, {(P, Q): 1})
    assert cexpr(P) * cexpr(Q) == cexpr(Q, P)
    assert calls == []


words = st.lists(st.sampled_from((Q, P, AP, AM)), max_size=8).map(tuple)


def _normalize_choosing(word, coeff, pick):
    """Independent rewriting oracle: apply the p q rule at an arbitrary
    applicable position chosen by ``pick`` instead of the leftmost one."""
    acc: dict = {}
    stack = [(word, coeff)]
    while stack:
        w, c = stack.pop()
        positions = [j for j in range(len(w) - 1) if w[j] == P and w[j + 1] == Q]
        if not positions:
            total = acc.get(w, ScalarPoly.zero()) + c
            if total.is_zero:
                acc.pop(w, None)
            else:
                acc[w] = total
            continue
        j = pick(positions)
        stack.append((w[:j] + (Q, P) + w[j + 2:], c))
        stack.append((w[:j] + w[j + 2:], c * MINUS_I_HBAR))
    return acc


@settings(max_examples=200, deadline=None)
@given(words, st.randoms(use_true_random=False))
def test_rewriting_is_confluent(word, rng):
    canonical = OperatorExpr(QUANTUM, [(word, ScalarPoly.const(1))])
    anywhere = _normalize_choosing(word, ScalarPoly.const(1), rng.choice)
    assert canonical == OperatorExpr(QUANTUM, anywhere)


def has_p_before_q(word):
    return any(a == P and b == Q for a, b in zip(word, word[1:]))


@pytest.mark.parametrize("mode", (CLASSICAL, QUANTUM))
@settings(max_examples=200, deadline=None)
@given(word=words)
def test_the_normal_form_rows_are_normal_and_one_has_phase_one(mode, word):
    rows = _normal_form(word, mode)
    for w, _, _, _ in rows:
        assert w == tuple(sorted(w)) if mode == CLASSICAL else not has_p_before_q(w)
    (plain,) = [row for row in rows if row[1] == _ZERO_EXP]
    assert plain[1] is _ZERO_EXP and plain[2:] == (1, 0)
    assert sorted(plain[0]) == sorted(word)
    # more rows only where the walk rewrote a p q pair
    assert (len(rows) == 1) == (mode == CLASSICAL or not has_p_before_q(word))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from((Q, P)), max_size=6).map(tuple))
def test_classical_limit_agrees_on_phase_space_words(word):
    quantum = OperatorExpr(QUANTUM, [(word, ScalarPoly.const(1))])
    classical = OperatorExpr(CLASSICAL, [(word, ScalarPoly.const(1))])
    assert classical_limit(quantum) == classical


small_exprs = st.lists(
    st.tuples(words, st.integers(-3, 3)), min_size=0, max_size=3,
).map(lambda items: OperatorExpr(
    QUANTUM, [(w, ScalarPoly.const(c)) for w, c in items]))


@settings(max_examples=100, deadline=None)
@given(small_exprs, small_exprs)
def test_commutator_is_antisymmetric(u, v):
    assert (commutator(u, v) + commutator(v, u)).is_zero


@settings(max_examples=100, deadline=None)
@given(small_exprs, small_exprs, small_exprs)
def test_product_laws(u, v, t):
    assert (u * v) * t == u * (v * t)
    assert u * (v + t) == u * v + u * t


@settings(max_examples=100, deadline=None)
@given(small_exprs, small_exprs, small_exprs, st.integers(-3, 3))
def test_commutator_is_bilinear(u, v, t, c):
    lhs = commutator(u + c * t, v)
    rhs = commutator(u, v) + c * commutator(t, v)
    assert lhs == rhs


gauss_coeffs = st.builds(
    GaussRat, st.fractions(min_value=-2, max_value=2, max_denominator=3),
    st.sampled_from((0, 1, -2, Fraction(1, 2))))


@st.composite
def kernel_scalars(draw):
    """Coefficients with hbar, s^-1, a parameter and non-real parts."""
    total = ScalarPoly.zero()
    for _ in range(draw(st.integers(1, 3))):
        powers = {"hbar": draw(st.integers(0, 2)), "s": draw(st.integers(-2, 1)),
                  draw(st.sampled_from(("w", "beta", "x1"))): draw(st.integers(0, 1))}
        total = total + ScalarPoly.monomial(draw(gauss_coeffs), powers)
    return total


def kernel_exprs(mode, prefix=(), suffix=()):
    short_words = st.lists(st.sampled_from((Q, P, AP, AM)), max_size=4).map(tuple)
    return st.lists(st.tuples(short_words, kernel_scalars()), max_size=3).map(
        lambda terms: OperatorExpr(mode, [(prefix + w + suffix, c) for w, c in terms]))


@pytest.mark.parametrize("mode", (CLASSICAL, QUANTUM))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_product_kernel_matches_the_constructor(mode, data):
    # a trailing p on x and a leading q on y put a p q pair at the junction
    junction = data.draw(st.booleans())
    x = data.draw(kernel_exprs(mode, suffix=(P,) if junction else ()))
    y = data.draw(kernel_exprs(mode, prefix=(Q,) if junction else ()))
    product = x * y
    assert product == constructor_product(x, y)
    assert_no_zero_survives_the_wrap({0: product.terms} if product else {})


def old_route_terms(t1, t2, negate):
    """The product of two scalars' {((), exp): GaussRat} maps one GaussRat.__mul__
    and one add_term at a time, with the exponents added here."""
    acc: dict = {}
    for ((), e1), g1 in t1.items():
        for ((), e2), g2 in t2.items():
            g = g1 * g2
            add_term(acc, ((), tuple(a + b for a, b in zip(e1, e2))), -g if negate else g)
    return acc


def old_route_product(x, y, negate):
    """x*y, negated when ``negate``, as a flat {(word, exp): GaussRat} map: each
    term pair's word through _normalize_into, then one GaussRat.__mul__ and one
    add_term per normal term, with the exponents added here."""
    acc: dict = {}
    for (w1, e1), c1 in x.terms.items():
        for (w2, e2), c2 in y.terms.items():
            normal: dict = {}
            _normalize_into(normal, w1 + w2, e1, c1, x.mode)
            for (word, exp), c in normal.items():
                g = c * c2
                add_term(acc, (word, exp_sum(exp, e2)), -g if negate else g)
    return acc


def word_coeffs(expr):
    """Each word's coefficient as a ScalarPoly, grouped here from the flat terms."""
    coeffs: dict = {}
    for (word, exp), g in expr.terms.items():
        coeffs.setdefault(word, {})[exp] = g
    return [ScalarPoly(terms) for terms in coeffs.values()]


def assert_canonical_terms(terms):
    assert terms, "an empty word survived the wrap"
    for g in terms.values():
        assert g, "a zero coefficient is stored"
        for part in (g.re, g.im):
            assert type(part) is (int if Fraction(part).denominator == 1 else Fraction)


#: parts whose products cancel denominators (1/2 * 2, 2/3 * 3/2) or vanish
kernel_parts = st.sampled_from((0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3),
                                Fraction(3, 2)))


@st.composite
def differential_exprs(draw, mode):
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        coeff = ScalarPoly.zero()
        for _ in range(draw(st.integers(1, 2))):
            coeff = coeff + ScalarPoly.monomial(
                GaussRat(draw(kernel_parts), draw(kernel_parts)),
                {"s": draw(st.integers(-2, 1)), "hbar": draw(st.integers(0, 1)),
                 "w": draw(st.integers(0, 1))})
        terms.append((tuple(draw(st.lists(st.sampled_from((Q, P, AP, AM)), max_size=3))), coeff))
    return OperatorExpr(mode, terms)


def rows(terms):
    """Flat ``{(word, exp): GaussRat}`` terms as ``(word, exp, re, im)`` rows."""
    return [(word, exp, g.re, g.im) for (word, exp), g in terms.items()]


def join_into(acc, xs, ys, mode):
    """Add xs*ys, two lists of ``(word, exp, re, im)`` rows, into ``acc`` through
    the composition join kernel: one join digit, and a one-pair group at code 0 per
    row on each side, so every product lands at code 0."""
    def groups(rows):
        return {0: [(word, exp, not im, ((0, re, im),)) for word, exp, re, im in rows]}
    _mul_rows_into(acc, groups(xs), groups(ys), mode)


def mul_rows(acc, x, y, negate, sign_on_left=True):
    """Add x*y, negated when ``negate``, into ``acc`` through the join kernel,
    with the sign on x or on y."""
    if negate:
        x, y = (-x, y) if sign_on_left else (x, -y)
    join_into(acc, rows(x.terms), rows(y.terms), x.mode)


def wrapped(mode, acc):
    """The OperatorExpr that code 0 of the raw sum ``acc`` wraps into."""
    return OperatorExpr._make(mode, _wrap(acc).get(0, {}))


@pytest.mark.parametrize("mode", (CLASSICAL, QUANTUM))
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_product_kernel_matches_the_old_route(mode, data):
    u = data.draw(differential_exprs(mode))
    v = data.draw(differential_exprs(mode))
    # u and v as they are, or (u + v)(u - v), whose cross terms cancel in
    # classical mode
    x, y = (u + v, u - v) if data.draw(st.booleans()) else (u, v)
    sign_on_left = data.draw(st.booleans())
    for negate in (False, True):
        acc: dict = {}
        mul_rows(acc, x, y, negate, sign_on_left)
        assert set(_wrap(acc)) <= {0}
        assert_no_zero_survives_the_wrap(_wrap(acc))
        got = wrapped(mode, acc)
        if mode == CLASSICAL:  # the classical normal form, sorted here, not by oplax
            assert all(word == tuple(sorted(word)) for word, _ in got.terms)
        want = old_route_product(x, y, negate)
        assert got.terms == want
        if got:
            assert_canonical_terms(got.terms)
        # the same product added with the other sign zeroes every part, which
        # stays in the raw sum until the wrap drops it
        mul_rows(acc, x, y, not negate, sign_on_left)
        assert all_parts_zero(acc) and _wrap(acc) == {}
    product = x * y
    assert product.terms == old_route_product(x, y, False)
    for c1 in word_coeffs(x):
        for c2 in word_coeffs(y):
            terms = (c1 * c2).terms
            assert terms == old_route_terms(c1.terms, c2.terms, False)
            if terms:
                assert_canonical_terms(terms)


def test_product_kernel_keeps_integral_fraction_products_as_int():
    half = ScalarPoly.const(GaussRat(Fraction(1, 2), Fraction(-1, 2)))
    two = ScalarPoly.const(2)
    (g,) = (half * two).terms.values()
    assert (g.re, g.im) == (1, -1) and type(g.re) is int and type(g.im) is int
    product = (half * OperatorExpr.generator(QUANTUM, P)) * (two * qexpr(Q))
    # (1-i) p q = (1-i) q p + (-1-i) hbar
    assert product == qexpr(Q, P) * GaussRat(1, -1) + \
        OperatorExpr.scalar(QUANTUM, ScalarPoly.monomial(GaussRat(-1, -1), {"hbar": 1}))
    # the cross terms of (a + b)(a - b) cancel inside one product
    b = ScalarPoly.monomial(Fraction(2, 3), {"s": -1})
    assert ((half + b) * (half - b)).terms == (half * half - b * b).terms


#: (-i)^k for k mod 4
MINUS_I_POWERS = (GaussRat(1), GaussRat(0, -1), GaussRat(-1), GaussRat(0, 1))


def block_terms(b, c):
    """p^b q^c in normal order by its closed form, term by term, with no
    rewriting: the sum over k of k! C(b,k) C(c,k) (-i hbar)^k q^(c-k) p^(b-k)."""
    return [((Q,) * (c - k) + (P,) * (b - k),
             ScalarPoly.monomial(factorial(k) * comb(b, k) * comb(c, k) * MINUS_I_POWERS[k % 4],
                                 {"hbar": k}))
            for k in range(min(b, c) + 1)]


@pytest.mark.parametrize("b", range(8))
@pytest.mark.parametrize("c", range(8))
def test_normal_ordering_matches_the_closed_form(b, c):
    word = (P,) * b + (Q,) * c
    assert OperatorExpr(QUANTUM, [(word, 1)]) == OperatorExpr(QUANTUM, block_terms(b, c))


#: non-constant Gaussian coefficients: a fixed one and drawn ones with hbar, s^-1,
#: a parameter and non-real parts
symbolic_coeffs = st.one_of(
    st.just(ScalarPoly.monomial(GaussRat(1, 2), {"x1": 1, "s": -1})),
    kernel_scalars().filter(lambda c: any(map(any, c.terms))))


@settings(max_examples=200, deadline=None)
@given(words, symbolic_coeffs, st.randoms(use_true_random=False))
def test_the_counted_walk_matches_the_per_swap_rewrite(word, coeff, rng):
    # the constructor counts the leaves per normal word and multiplies once; the
    # oracle multiplies by -i hbar at every swap, at positions drawn by rng
    assert OperatorExpr(QUANTUM, [(word, coeff)]) == \
        OperatorExpr(QUANTUM, _normalize_choosing(word, coeff, rng.choice))


def test_the_counted_walk_makes_one_scalar_product_per_contracted_word(monkeypatch):
    # the scalar product is one GaussRat product per term of the coefficient; the
    # normaliser multiplies the parts and never calls ScalarPoly.__mul__
    coeff = ScalarPoly.monomial(GaussRat(1, 2), {"x1": 1, "s": -1})
    want = {w: coeff * c for w, c in block_terms(4, 4)}
    products, poly_products = [], []
    for cls, log in ((GaussRat, products), (ScalarPoly, poly_products)):
        def counting_mul(self, other, mul=cls.__mul__, log=log):
            log.append((self, other))
            return mul(self, other)
        monkeypatch.setattr(cls, "__mul__", counting_mul)
    got = OperatorExpr(QUANTUM, [((P,) * 4 + (Q,) * 4, coeff)])
    contracted = [w for w in words_of(got) if len(w) < 8]
    assert len(contracted) == 4
    assert 0 < len(products) <= len(contracted)
    products.clear()
    for normal in ((Q,) * 4 + (P,) * 4, (Q, P, AM, Q, Q, P), (AP, P, P, AM, Q)):
        assert words_of(OperatorExpr(QUANTUM, [(normal, coeff)])) == [normal]
    assert products == [] and poly_products == []
    monkeypatch.undo()
    assert got == OperatorExpr(QUANTUM, want)


@pytest.mark.parametrize("middle", (AP, AM))
def test_normal_ordering_keeps_blocks_apart_across_a_free_generator(middle):
    # p^3 q^2 A p^2 q^3: nothing passes A, so each block orders on its own
    want = {w1 + (middle,) + w2: c1 * c2
            for w1, c1 in block_terms(3, 2) for w2, c2 in block_terms(2, 3)}
    word = (P,) * 3 + (Q,) * 2 + (middle,) + (P,) * 2 + (Q,) * 3
    assert OperatorExpr(QUANTUM, [(word, 1)]) == OperatorExpr(QUANTUM, want)


@pytest.mark.parametrize("mode", (CLASSICAL, QUANTUM))
def test_row_kernel_wraps_an_integral_fraction_sum_as_int(mode):
    # (1/2 q + 1/2 p)(p + q): the q p word gets 1/2 + 1/2 from two row pairs,
    # a Fraction sum with denominator 1; in quantum mode 1/2 p * q also passes
    # a p q junction through the rewrite
    half = ScalarPoly.const(GaussRat(Fraction(1, 2), Fraction(-1, 2)))
    x = OperatorExpr(mode, [((Q,), half), ((P,), half)])
    y = OperatorExpr(mode, [((P,), 1), ((Q,), 1)])
    acc: dict = {}
    mul_rows(acc, x, y, False)
    res, ims = acc[(Q, P), _ZERO_EXP]
    raw = res[0], ims[0]
    assert raw == (1, -1) and type(raw[0]) is Fraction and type(raw[1]) is Fraction
    for product in (wrapped(mode, acc), x * y):
        g = product.terms[(Q, P), _ZERO_EXP]
        assert (g.re, g.im) == (1, -1) and type(g.re) is int and type(g.im) is int
        assert_canonical_terms(product.terms)
    assert x * y == constructor_product(x, y)


@pytest.mark.parametrize("mode", (CLASSICAL, QUANTUM))
def test_a_cancelled_word_leaves_at_the_wrap(mode):
    a = OperatorExpr(mode, [((Q,), 1), ((AP,), GaussRat(Fraction(1, 2), 1))])
    b = OperatorExpr(mode, [((P,), ScalarPoly.monomial(2, {"s": -1})), ((), 3)])
    acc: dict = {}
    # (a + b)(a - b) = a^2 - b^2 classically: the cross words q p, p A+, q and A+
    # of a*b and b*a cancel; their zero parts stay in the raw sum
    mul_rows(acc, a + b, a - b, False)
    entries = _wrap(acc)
    assert_no_zero_survives_the_wrap(entries)
    (terms,) = entries.values()
    if mode == CLASSICAL:
        assert set(acc) > set(terms)
        assert {word for word, _ in terms} == {(Q, Q), (Q, AP), (AP, AP), (P, P), (P,), ()}
    assert wrapped(mode, acc) == (a + b) * (a - b)
    # the same product with the other sign cancels every word, and the wrap
    # builds nothing
    mul_rows(acc, a + b, a - b, True)
    assert all_parts_zero(acc) and _wrap(acc) == {}


@pytest.mark.parametrize("mode", (CLASSICAL, QUANTUM))
def test_the_join_kernel_adds_at_base_plus_offset_and_the_wrap_drops_zeros(mode):
    one, [((), s)], [((), s2)] = _ZERO_EXP, symbol("s").terms, (symbol("s") * symbol("s")).terms
    # a real group of p at offsets 50 and 60, a complex one of A- s at 50, and
    # a real one of the empty word at 60
    by_p = ((P,), one, True, ((50, 3, 0), (60, 1, 0)))
    by_am = ((AM,), s, False, ((50, 1, -1),))
    by_one = ((), one, True, ((60, 2, 0),))
    ys = {0: [by_p, by_am, by_one]}

    def join(acc, at, exp, re, im, ys):
        # one x group of the one pair (re + i im) q s^exp at digit ``at`` and code 7
        _mul_rows_into(acc, {at: [((Q,), exp, not im, ((7, re, im),))]}, ys, mode)

    acc: dict = {}
    join(acc, 1, one, 1, 0, ys)  # no group at slot 1
    assert acc == {}
    for exp in (one, s):
        join(acc, 0, exp, 1, 0, ys)
    # q p has no p q junction, so it is joined as it is in both modes; two real
    # groups leave the imaginary sums empty
    want = {((Q, P), one): ({57: 3, 67: 1}, {}), ((Q, P), s): ({57: 3, 67: 1}, {}),
            ((Q, AM), s): ({57: 1}, {57: -1}), ((Q, AM), s2): ({57: 1}, {57: -1}),
            ((Q,), one): ({67: 2}, {}), ((Q,), s): ({67: 2}, {})}
    assert acc == want
    # an imaginary group takes the complex path against a real one too
    join(acc, 0, s, 0, 1, {0: [by_one]})
    want[(Q,), s] = ({67: 2}, {67: 2})
    assert acc == want
    assert _wrap(acc) == {
        57: {((Q, P), one): GaussRat(3), ((Q, P), s): GaussRat(3),
             ((Q, AM), s): GaussRat(1, -1), ((Q, AM), s2): GaussRat(1, -1)},
        67: {((Q, P), one): GaussRat(1), ((Q, P), s): GaussRat(1),
             ((Q,), one): GaussRat(2), ((Q,), s): GaussRat(2, 2)}}
    # zero parts stay in the raw sum; the wrap drops a zero (word, exp) term, then
    # an emptied code
    join(acc, 0, s, -1, 0, {0: [by_p]})
    join(acc, 0, one, -1, 0, {0: [by_am]})
    join(acc, 0, s, -1, 0, {0: [by_am]})
    assert set(acc) == set(want)
    assert _wrap(acc) == {
        57: {((Q, P), one): GaussRat(3)},
        67: {((Q, P), one): GaussRat(1), ((Q,), one): GaussRat(2), ((Q,), s): GaussRat(2, 2)}}
    join(acc, 0, one, -1, 0, {0: [by_p, by_one]})
    join(acc, 0, s, -1, -1, {0: [by_one]})
    assert _wrap(acc) == {}
    # a group of two pairs times a group of two adds each of the four part products
    acc = {}
    _mul_rows_into(acc, {0: [((Q,), one, True, ((7, 2, 0), (8, 5, 0)))]}, {0: [by_p]}, mode)
    assert acc == {((Q, P), one): ({57: 6, 67: 2, 58: 15, 68: 5}, {})}


@pytest.mark.parametrize("mode", (CLASSICAL, QUANTUM))
def test_an_equal_zero_exponent_gives_the_same_product_as_zero_exp_itself(mode):
    # the kernel skips the exponent add when a side is the _ZERO_EXP object; a
    # zero vector that is only equal to it must take the add and land on the same key
    [((), parsed)] = parse_scalar("2").terms
    zeros = (tuple([0] * NSYMBOLS), parsed)
    for zero in zeros:
        assert zero == _ZERO_EXP and zero is not _ZERO_EXP
    y = OperatorExpr(mode, [((Q,), 1), ((Q, AM), ScalarPoly.monomial(GaussRat(0, 2), {"s": -2})),
                            ((), ScalarPoly.monomial(-1, {"w": 1}))])
    ys = rows(y.terms)
    assert any(exp is _ZERO_EXP for _, exp, _, _ in ys)
    for word in ((), (P,), (AP,)):
        want_left: dict = {}
        join_into(want_left, [(word, _ZERO_EXP, 2, 0)], ys, mode)
        want_right: dict = {}
        join_into(want_right, ys, [(word, _ZERO_EXP, 2, 0)], mode)
        for zero in zeros:
            for xs, zs, want in (([(word, zero, 2, 0)], ys, want_left),
                                 (ys, [(word, zero, 2, 0)], want_right)):
                got: dict = {}
                join_into(got, xs, zs, mode)
                assert got == want
            # one product through the shortcut, its negation through the add
            acc: dict = {}
            join_into(acc, [(word, _ZERO_EXP, 2, 0)], ys, mode)
            join_into(acc, [(word, zero, -2, 0)], ys, mode)
            assert all_parts_zero(acc) and _wrap(acc) == {}
    two = OperatorExpr(mode, [((P,), parse_scalar("2"))])
    assert two * y == OperatorExpr(mode, [((P,), 2)]) * y


@settings(max_examples=150, deadline=None)
@given(small_exprs)
def test_operator_render_parse_round_trip(expr):
    assert parse_operator(expr.render(), QUANTUM) == expr


def test_classical_render_names():
    w = symbol("w")
    expr = w * cexpr(Q) - ScalarPoly.monomial(1, {"s": -1}) * cexpr(AP, AM)
    assert expr.render() == "w * q - s^-1 * A+ A-"
    assert parse_operator(expr.render(), CLASSICAL) == expr
    for text, mode in (("(1/0*i)", QUANTUM), ("1/0 * ph", CLASSICAL),
                       ("1/0 * p", CLASSICAL), ("s^2/0 * qh", QUANTUM)):
        with pytest.raises(ValueError):
            parse_operator(text, mode)


def test_factored_rendering():
    two_inv_p0 = ScalarPoly.monomial(2, {"s": -2})
    expr = two_inv_p0 * qexpr(AP, AM) - two_inv_p0 * qexpr(AM, AP)
    assert render_factored(expr) == "2*s^-2 * (Ah+ Ah- - Ah- Ah+)"
    assert render_factored(OperatorExpr.zero(QUANTUM)) == "0"
    # expressions without common content fall back to the flat rendering
    plain = qexpr(Q) + qexpr(P, P)
    assert render_factored(plain) == plain.render()


def test_factored_rendering_with_symbolic_content():
    # the common factor may carry positive powers of ordinary symbols;
    # dividing them out must not trip the Laurent validation
    a2s = ScalarPoly.monomial(2, {"a": 2, "s": -2})
    expr = a2s * symbol("x1") * qexpr(AP, AM) - a2s * symbol("y1") * qexpr(AM, AP)
    assert render_factored(expr) == \
        "2*s^-2*a^2 * (x1 * Ah+ Ah- - y1 * Ah- Ah+)"
    negated = -expr
    assert render_factored(negated) == \
        "-2*s^-2*a^2 * (x1 * Ah+ Ah- - y1 * Ah- Ah+)"


@pytest.mark.parametrize("mode", (CLASSICAL, QUANTUM))
@pytest.mark.parametrize("gen", (4, -1, "q", 1.0, True))
def test_an_unknown_generator_is_rejected(mode, gen):
    # 1.0 and True equal the generator 1, but only an int is a letter
    with pytest.raises(ValueError, match="unknown generator"):
        OperatorExpr.generator(mode, gen)


@pytest.mark.parametrize("mode", (CLASSICAL, QUANTUM))
@pytest.mark.parametrize("word", ((7, 1), ("q",), (1, -1), (1.0,), (Q, 3.0), (True,), (P, False)),
                         ids=("past-the-alphabet", "a-name", "negative", "float", "float-after-q",
                              "bool", "bool-after-p"))
def test_a_word_with_an_unknown_generator_is_rejected(mode, word):
    # a letter outside GENERATORS fails at construction, not later in render
    with pytest.raises(ValueError, match="unknown generator"):
        OperatorExpr(mode, [(word, 1)])
    with pytest.raises(ValueError, match="unknown generator"):
        OperatorExpr(mode, {word: ScalarPoly.const(1)})


@pytest.mark.parametrize("mode", (CLASSICAL, QUANTUM))
@pytest.mark.parametrize("call, error, match", [
    (lambda mode: OperatorExpr(mode, 5), TypeError, "terms is int, not a dict or an iterable"),
    (lambda mode: OperatorExpr(mode, [(0, 1)]), ValueError,
     re.escape("term (0, 1) is not a (key, value) pair")),
    (lambda mode: OperatorExpr(mode, [((Q,), 1, 2)]), ValueError,
     re.escape("term ((0,), 1, 2) is not a (key, value) pair")),
    (lambda mode: parse_operator(5, mode), TypeError, "text is int, not a str"),
], ids=("int-terms", "int-word", "long-pair", "int-text"))
def test_an_operator_argument_of_the_wrong_kind_is_named(mode, call, error, match):
    # the constructor checks a pairs-form item as MultiOp(...) does, before unpacking it
    with pytest.raises(error, match=match):
        call(mode)


@pytest.mark.parametrize("mode", (CLASSICAL, QUANTUM))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_the_constructor_takes_the_keys_that_terms_holds(mode, data):
    # coefficients with hbar, s^-k and imaginary parts; words that may end in p q,
    # so a quantum expression also carries the walk's -i hbar terms
    e = data.draw(kernel_exprs(mode, suffix=data.draw(st.sampled_from(((), (P, Q))))))
    assert OperatorExpr(mode, e.terms) == e
    assert OperatorExpr(mode, list(e.terms.items())) == e
    # a key's monomial multiplies a ScalarPoly coefficient too, and the two key
    # forms mix in one call
    w = symbol("w")
    mixed = [(key, w * g) for key, g in e.terms.items()] + [((P, Q), 1)]
    assert OperatorExpr(mode, mixed) == w * e + OperatorExpr(mode, [((P, Q), 1)])


#: bindings for the substitution: s may meet its negative powers at 0, which both types reject
substitutions = st.dictionaries(st.sampled_from(("hbar", "s", "w", "beta")),
                                st.sampled_from((0, 1, -2, Fraction(1, 2))), max_size=3)


@pytest.mark.parametrize("mode", (CLASSICAL, QUANTUM))
@settings(max_examples=80, deadline=None)
@given(scalar=kernel_scalars(), bindings=substitutions)
def test_a_scalar_is_an_operator_of_the_empty_word(mode, scalar, bindings):
    # one term layout: an operator takes a scalar's terms as they stand, and its
    # constructor reads them as (word, exp) keys
    op = OperatorExpr.scalar(mode, scalar)
    assert op.terms == scalar.terms
    assert OperatorExpr(mode, scalar.terms) == op
    # one substitution and one symbol test, bound on both types
    assert OperatorExpr.subst_params is ScalarPoly.subst
    assert OperatorExpr.has_symbol is ScalarPoly.has_symbol

    def substituted(subst):
        try:
            return subst(bindings).terms
        except ValueError as error:
            return str(error)

    assert substituted(op.subst_params) == substituted(scalar.subst)
    for name in SYMBOLS:
        assert op.has_symbol(name) == scalar.has_symbol(name)


def test_a_term_key_with_imaginary_parts_and_s_to_a_negative_power():
    s_inv2 = ScalarPoly.monomial(GaussRat(1, 2), {"s": -2})
    e = OperatorExpr(QUANTUM, [((P, Q), s_inv2)])
    [((), s_exp)] = s_inv2.terms
    assert e.terms[(Q, P), s_exp] == GaussRat(1, 2)
    assert OperatorExpr(QUANTUM, e.terms) == e
    assert OperatorExpr(QUANTUM, [(((P, Q), s_exp), GaussRat(1, 2))]) == e


@pytest.mark.parametrize("mode", (CLASSICAL, QUANTUM))
@pytest.mark.parametrize("key, match", [
    (((Q,), _ZERO_EXP[1:]), f"exponent vector must have length {NSYMBOLS}"),
    (((Q,), _ZERO_EXP + (0,)), f"exponent vector must have length {NSYMBOLS}"),
    (((Q,), (-1,) + _ZERO_EXP[1:]), "negative exponent of w is not allowed"),
    (((Q,), (0, -2) + _ZERO_EXP[2:]), "negative exponent of hbar is not allowed"),
    (((Q,), (Fraction(1, 2),) + _ZERO_EXP[1:]), "is not an int"),
    (((7,), _ZERO_EXP), "unknown generator"),
    ((("q",), _ZERO_EXP), "unknown generator"),
    (((P, 1.0), _ZERO_EXP), "unknown generator"),
    (("q",), "unknown generator"),
], ids=("exponent-too-short", "exponent-too-long", "negative-w", "negative-hbar",
        "fraction-exponent", "letter-past-the-alphabet", "letter-a-name", "letter-a-float",
        "a-name-for-a-word"))
def test_a_bad_term_key_is_rejected(mode, key, match):
    for coeff in (1, GaussRat(0, 1), symbol("w")):
        with pytest.raises(ValueError, match=match):
            OperatorExpr(mode, [(key, coeff)])
    with pytest.raises(ValueError, match=match):
        OperatorExpr(mode, {key: 1})
