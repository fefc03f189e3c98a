"""A Schrodinger-representation witness for quantum normal ordering.

The Weyl algebra acts faithfully on polynomials in x by qh = x* and
ph = -i hbar d/dx, and an operator in qh, ph with at most B factors ph is fixed
by its action on 1, x, ..., x^B (Coutinho, *A Primer of Algebraic D-modules*,
LMS Student Texts 33, 1995, ch. 1-2).  Ah+ and Ah- are free and the rewrite
never crosses them, so each maximal q/p segment of a word gets its own
variable: read from the right, the letters act on x_0 until an A+ or A- moves
them to the next variable.  The raw word and the engine's normal form then act
on the same monomials, and their images are compared as polynomials in the
x_j and hbar.

The witness does its own arithmetic, on (re, im) pairs of Fractions, and reads
the normal form of ``OperatorExpr(QUANTUM, ...)`` only through its terms, so it
shares no code with the rewrite, its contraction phases or ScalarPoly
arithmetic, and unlike every suite it sees the sign of hbar.

A monomial also records the A+ and A- letters it has met, in order, so the
action tells A+ from A- and two words with different letters apart, and it is
an action of the whole algebra: u * v acts as v followed by u, which the
product witness checks.  ``OperatorExpr.__mul__`` and the constructor both normal-order
each joined word through ``_normalize_into``, so their differential tests share
that code; this one does not.
"""

import itertools
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from oplax.scalars import SYMBOL_INDEX, GaussRat, ScalarPoly
from oplax.weyl import AM, AP, P, Q, QUANTUM, OperatorExpr

HBAR = SYMBOL_INDEX["hbar"]
ONE = (Fraction(1), Fraction(0))


def act(word: tuple, poly: dict) -> dict:
    """``word`` applied to ``poly``, ``{(A letters met, x exponents, hbar power): (re,
    im)}``, letter by letter from the right: an A+ or A- is appended to the letters
    met, and q or p acts on x_j, j the number of them, so an A+ or A- moves the
    letters to its left to the next variable.  Each letter maps distinct monomials
    to distinct ones, so no two images meet."""
    for letter in reversed(word):
        image = {}
        for (met, xs, h), (re, im) in poly.items():
            j = len(met)
            if letter == AP or letter == AM:
                image[met + (letter,), xs, h] = (re, im)
            elif letter == Q:
                image[met, xs[:j] + (xs[j] + 1,) + xs[j + 1:], h] = (re, im)
            elif xs[j]:
                # -i hbar d/dx: -i (re + i im) = im - i re
                image[met, xs[:j] + (xs[j] - 1,) + xs[j + 1:], h + 1] = (xs[j] * im, -xs[j] * re)
        poly = image
    return poly


def operator_action(expr, poly: dict) -> dict:
    """``expr``, whose coefficients carry no symbol but hbar, applied to ``poly``: each
    term's word by ``act``, times its coefficient, summed."""
    total: dict = {}
    for (word, exp), g in expr.terms.items():
        assert not any(exp[:HBAR] + exp[HBAR + 1:]), exp
        for (met, xs, h), (re, im) in act(word, poly).items():
            key = (met, xs, h + exp[HBAR])
            r0, i0 = total.get(key, (0, 0))
            total[key] = (r0 + g.re * re - g.im * im, i0 + g.re * im + g.im * re)
    return {key: c for key, c in total.items() if any(c)}


def normal_form_action(word: tuple, poly: dict) -> dict:
    """The engine's normal form of ``word`` applied to ``poly``; each normal word keeps
    the word's A+ and A- letters in order and holds no p q pair."""
    normal_form = OperatorExpr(QUANTUM, [(word, 1)])
    skeleton = [letter for letter in word if letter in (AP, AM)]
    for normal, _ in normal_form.terms:
        assert (P, Q) not in zip(normal, normal[1:]), normal
        assert [letter for letter in normal if letter in (AP, AM)] == skeleton, normal
    return operator_action(normal_form, poly)


def p_counts(word: tuple) -> list:
    """The number of p letters in each variable's segment, x_0's first."""
    counts = [0]
    for letter in reversed(word):
        if letter == AP or letter == AM:
            counts.append(0)
        elif letter == P:
            counts[-1] += 1
    return counts


#: words of up to 10 letters, three in four of them q or p
words = st.lists(st.sampled_from((Q, P, Q, P, Q, P, AP, AM)), max_size=10).map(tuple)


@settings(max_examples=300, deadline=1000)
@given(words)
@example((P,) * 5 + (Q,) * 5)
@example((P, Q) * 5)
@example((P, AP, Q, P, Q, AM, P, P, Q, Q))
def test_normal_ordering_agrees_with_the_schrodinger_representation(word):
    for xs in itertools.product(*(range(b + 1) for b in p_counts(word))):
        poly = {((), xs, 0): ONE}
        assert normal_form_action(word, poly) == act(word, poly), (word, xs)


def test_the_representation_satisfies_the_ccr():
    # ph qh x^k = -(k+1) i hbar x^k and qh ph x^k = -k i hbar x^k: ph qh - qh ph = -i hbar
    for k in range(4):
        xk = {((), (k,), 0): ONE}
        assert act((P, Q), xk) == {((), (k,), 1): (0, -(k + 1))}
        assert act((Q, P), xk) == ({((), (k,), 1): (0, -k)} if k else {})


#: coefficients c hbar^k with real, imaginary and complex c
hbar_coeffs = st.builds(
    lambda re, im, k: ScalarPoly.monomial(GaussRat(re, im), {"hbar": k}),
    st.sampled_from((1, -1, 2, Fraction(1, 2))), st.sampled_from((0, 0, 1, Fraction(-3, 2))),
    st.integers(0, 2))
#: operators of one to three terms over words of up to 5 letters
short_words = st.lists(st.sampled_from((Q, P, Q, P, AP, AM)), max_size=5).map(tuple)
operators = st.lists(st.tuples(short_words, hbar_coeffs), min_size=1, max_size=3).map(
    lambda terms: OperatorExpr(QUANTUM, terms))


def qop(*terms) -> OperatorExpr:
    return OperatorExpr(QUANTUM, terms)


@settings(max_examples=100, deadline=None)
@given(operators, operators)
@example(qop(((P,), 1)), qop(((Q,), 1)))
@example(qop(((P, P), GaussRat(0, 1)), ((AP, P), 1)), qop(((Q, Q, AM, Q), 2), ((Q,), -1)))
def test_a_product_acts_as_its_factors_in_turn(u, v):
    # x_j must reach the p count of segment j of every joined word, so that the
    # actions fix the operators; the normal form has no more p letters than a joined word
    bounds: dict = {}
    for w1, _ in u.terms:
        for w2, _ in v.terms:
            for j, count in enumerate(p_counts(w1 + w2)):
                bounds[j] = max(bounds.get(j, 0), count)
    product = u * v
    for xs in itertools.product(*(range(bounds[j] + 1) for j in range(len(bounds)))):
        poly = {((), xs, 0): ONE}
        assert operator_action(product, poly) == operator_action(u, operator_action(v, poly)), xs
