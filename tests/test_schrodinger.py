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
"""

import itertools
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from oplax.scalars import SYMBOL_INDEX
from oplax.weyl import AM, AP, P, Q, QUANTUM, OperatorExpr

HBAR = SYMBOL_INDEX["hbar"]
ONE = (Fraction(1), Fraction(0))


def act(word: tuple, poly: dict) -> dict:
    """``word`` applied to ``poly``, ``{(x exponents, hbar power): (re, im)}``,
    letter by letter from the right; an A+ or A- moves the letters to its left
    to the next variable.  Each letter maps distinct monomials to distinct ones,
    so no two images meet."""
    var = 0
    for letter in reversed(word):
        if letter == AP or letter == AM:
            var += 1
        elif letter == Q:
            poly = {(xs[:var] + (xs[var] + 1,) + xs[var + 1:], h): c
                    for (xs, h), c in poly.items()}
        else:
            # -i hbar d/dx: -i (re + i im) = im - i re
            poly = {(xs[:var] + (xs[var] - 1,) + xs[var + 1:], h + 1):
                    (xs[var] * im, -xs[var] * re)
                    for (xs, h), (re, im) in poly.items() if xs[var]}
    return poly


def normal_form_action(word: tuple, poly: dict) -> dict:
    """The engine's normal form of ``word`` applied to ``poly``: each normal word's
    image times its coefficient, a polynomial in hbar alone."""
    total: dict = {}
    skeleton = [letter for letter in word if letter in (AP, AM)]
    for (normal, exp), g in OperatorExpr(QUANTUM, [(word, 1)]).terms.items():
        assert (P, Q) not in zip(normal, normal[1:]), normal
        assert [letter for letter in normal if letter in (AP, AM)] == skeleton, normal
        assert not any(exp[:HBAR] + exp[HBAR + 1:]), exp
        for (xs, h), (re, im) in act(normal, poly).items():
            key = (xs, h + exp[HBAR])
            r0, i0 = total.get(key, (0, 0))
            total[key] = (r0 + g.re * re - g.im * im, i0 + g.re * im + g.im * re)
    return {key: c for key, c in total.items() if any(c)}


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
        poly = {(xs, 0): ONE}
        assert normal_form_action(word, poly) == act(word, poly), (word, xs)


def test_the_representation_satisfies_the_ccr():
    # ph qh x^k = -(k+1) i hbar x^k and qh ph x^k = -k i hbar x^k: ph qh - qh ph = -i hbar
    for k in range(4):
        xk = {((k,), 0): ONE}
        assert act((P, Q), xk) == {((k,), 1): (0, -(k + 1))}
        assert act((Q, P), xk) == ({((k,), 1): (0, -k)} if k else {})
