"""Noncommutative operator words over the four oscillator generators.

Words are finite sequences over q, p, A+, A-; an expression maps (word, exponent
vector) pairs to GaussRat coefficients, in one of two modes:

* ``classical`` - all generators commute; the normal form of a word is the
  sorted tuple under the fixed order q < p < A+ < A-.
* ``quantum`` - q and p satisfy the canonical commutation relation through the
  single rewrite ``p q -> q p - i*hbar``; A+ and A- are free generators and
  nothing commutes past them.

The rewrite strictly reduces the number of (p, q) inversions, so it terminates,
and it is confluent, so the fixpoint is a canonical form: expressions are equal
exactly when their term maps coincide.  Values are immutable once built.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import (_ZERO_EXP, GR_ONE, SYMBOL_INDEX, GaussRat, ScalarPoly, SparseSum,
                      _check_exponents, _coerced, _pairs, add_exponents, add_term, parse_terms,
                      render_sum, render_term)

CLASSICAL = "classical"
QUANTUM = "quantum"

Q, P, AP, AM = 0, 1, 2, 3
GENERATORS = (Q, P, AP, AM)
GENERATOR_NAMES = {
    CLASSICAL: ("q", "p", "A+", "A-"),
    QUANTUM: ("qh", "ph", "Ah+", "Ah-"),
}

#: (re, im) of (-i)^k for k mod 4, the phase of k contractions p q -> -i hbar
_MINUS_I_POWERS = ((1, 0), (0, -1), (-1, 0), (0, 1))
_HBAR = SYMBOL_INDEX["hbar"]
_LETTERS = frozenset(GENERATORS)


def _check_mode(mode: str) -> None:
    if mode not in (CLASSICAL, QUANTUM):
        raise ValueError(f"unknown mode {mode!r}")


def _normal_form(word: tuple, mode: str):
    """``word``'s normal form in ``mode`` as ``(w, exp, re, im)`` rows, exactly one at
    ``_ZERO_EXP`` with the phase 1 and no other unless a p q pair was rewritten.  A classical
    word is sorted; a quantum word with no p directly before a q stands (walking it too cost
    canonical-io 5 %); any other walks the leftmost p q -> q p rewrite and its contraction on
    words alone, and the n leaves that reach a normal word w give it n (-i hbar)^k once."""
    if mode == CLASSICAL:
        return ((tuple(sorted(word)), _ZERO_EXP, 1, 0),)
    for j in range(len(word) - 1):
        if word[j] == P and word[j + 1] == Q:
            break
    else:
        return ((word, _ZERO_EXP, 1, 0),)
    counts: dict = {}
    stack = [word]
    while stack:
        w = stack.pop()
        for j in range(len(w) - 1):
            if w[j] == P and w[j + 1] == Q:
                head, tail = w[:j], w[j + 2:]
                stack += (head + (Q, P) + tail, head + tail)
                break
        else:
            counts[w] = counts.get(w, 0) + 1
    return [(w, _ZERO_EXP[:_HBAR] + (k,) + _ZERO_EXP[_HBAR + 1:] if k else _ZERO_EXP,
             n * re, n * im) for w, n in counts.items()
            for k in ((len(word) - len(w)) // 2,) for re, im in (_MINUS_I_POWERS[k % 4],)]


def _normalize_into(acc: dict, word: tuple, exp: tuple, coeff: GaussRat, mode: str) -> None:
    """Add the term ``coeff`` times ``word`` at exponent ``exp`` into the flat ``acc`` in the
    mode's normal form; a sum that reaches zero drops its key."""
    for w, e, re, im in _normal_form(word, mode):
        if e is _ZERO_EXP:  # the row of phase 1
            add_term(acc, (w, exp), coeff)
        else:
            add_term(acc, (w, add_exponents(exp, e)), coeff * GaussRat(re, im))


class OperatorExpr(SparseSum):
    """Linear combination of normal words, held flat as ``{(word, exp): GaussRat}`` terms.
    The constructor normal-orders ``(word, coefficient)`` pairs; in place of the word a pair
    may name a ``(word, exp)`` key, so ``OperatorExpr(mode, e.terms) == e``."""

    __slots__ = ("mode", "terms")

    def __init__(self, mode: str, terms=None):
        _check_mode(mode)
        self.mode = mode
        acc: dict = {}
        for word, coeff in _pairs(terms, "terms", "term"):
            word, exp = tuple(word), _ZERO_EXP
            if len(word) == 2 and type(word[0]) is tuple:  # a (word, exp) key
                _check_exponents(exp := tuple(word[1]))
                word = word[0]
            if not (_LETTERS.issuperset(word) and {int}.issuperset(map(type, word))):
                raise ValueError(f"unknown generator in word {word!r}")
            for (_, e), g in ScalarPoly._coerce(coeff).terms.items():
                _normalize_into(acc, word, add_exponents(exp, e), g, mode)
        self.terms = acc

    @classmethod
    def _make(cls, mode: str, terms: dict) -> "OperatorExpr":
        # trusted constructor: terms already normal for the mode
        expr = cls.__new__(cls)
        expr.mode = mode
        expr.terms = terms
        return expr

    def _like(self, terms: dict) -> "OperatorExpr":
        return OperatorExpr._make(self.mode, terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, mode: str) -> "OperatorExpr":
        _check_mode(mode)
        return cls._make(mode, {})

    @classmethod
    def scalar(cls, mode: str, value) -> "OperatorExpr":
        _check_mode(mode)
        return cls._make(mode, ScalarPoly._coerce(value).terms)

    @classmethod
    def generator(cls, mode: str, gen: int) -> "OperatorExpr":
        _check_mode(mode)
        if type(gen) is not int or gen not in GENERATORS:
            raise ValueError(f"unknown generator {gen!r}")
        return cls._make(mode, {((gen,), _ZERO_EXP): GR_ONE})

    def _coerce(self, value) -> "OperatorExpr":
        if not isinstance(value, OperatorExpr):
            return OperatorExpr.scalar(self.mode, value)
        if value.mode != self.mode:
            raise ValueError(f"mode mismatch: {self.mode} vs {value.mode}")
        return value

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other):
        # a scalar is an operator of empty words
        if (other := _coerced(self._coerce, other)) is None:
            return NotImplemented
        acc: dict = {}
        for (w1, e1), g1 in self.terms.items():
            for (w2, e2), g2 in other.terms.items():
                _normalize_into(acc, w1 + w2, add_exponents(e1, e2), g1 * g2, self.mode)
        return self._like(acc)

    def __rmul__(self, other):
        # other is no operator: a scalar, which commutes, or a value __mul__ hands back
        return self.__mul__(other)

    # the scalars' own: a scalar's terms are keyed as an operator's
    has_symbol = ScalarPoly.has_symbol
    subst_params = ScalarPoly.subst

    def to_quantum(self) -> "OperatorExpr":
        """Reinterpret a classical expression with hatted generators.

        A classical normal word is sorted q <= p <= A+ <= A-, so no p comes
        before a q and the words are quantum normal as they stand.
        """
        if self.mode == QUANTUM:
            return self
        return OperatorExpr._make(QUANTUM, dict(self.terms))

    # -- rendering ---------------------------------------------------------

    def flat_terms(self):
        """(word, exponent-vector, coefficient) triples in canonical order.

        Words are graded-lexicographic (length first, then the generator
        order); within a word the scalar terms follow the exponent order.
        """
        return [(word, exp, coeff) for (word, exp), coeff
                in sorted(self.terms.items(), key=lambda item: (len(item[0][0]), item[0]))]

    def render(self) -> str:
        names = GENERATOR_NAMES[self.mode]
        return render_sum(render_term(coeff, exp, " ".join(names[g] for g in word))
                          for word, exp, coeff in self.flat_terms())

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"<OperatorExpr {self.mode} {self.render()}>"


def generators(mode: str) -> tuple:
    """The mode's generators q, p, A+, A- as expressions, in GENERATORS order."""
    return tuple(OperatorExpr.generator(mode, gen) for gen in GENERATORS)


def commutator(u: OperatorExpr, v: OperatorExpr) -> OperatorExpr:
    return u * v - v * u


def render_factored(expr: OperatorExpr) -> str:
    """Human-oriented rendering that pulls out a common scalar monomial.

    Used for display only; the canonical flat rendering is ``expr.render()``.
    Factoring happens when every coefficient is real and the terms share a
    nontrivial rational/monomial content; the remainder is normalized so its
    first term is positive.
    """
    coeffs = expr.terms.values()
    if len(coeffs) < 2 or any(c.im != 0 for c in coeffs):
        return expr.render()
    num_gcd = Fraction(gcd(*(c.re.numerator for c in coeffs)),
                       lcm(*(c.re.denominator for c in coeffs)))
    common = tuple(map(min, *(exp for _, exp in expr.terms)))
    if num_gcd == 1 and not any(common):
        return expr.render()
    if expr.flat_terms()[0][2].re < 0:
        num_gcd = -num_gcd
    # divide exponent-wise: the common vector is a minimum, so this never
    # produces an invalid negative power
    inverse_coeff = GaussRat(1 / num_gcd)
    remainder = OperatorExpr._make(expr.mode, {
        (word, tuple(e - g for e, g in zip(exp, common))): c * inverse_coeff
        for (word, exp), c in expr.terms.items()})
    neg, factor_body = render_term(GaussRat(num_gcd), common)
    prefix = ("-" if neg else "") + factor_body
    # shifting by common keeps terms apart and 1/num_gcd keeps them nonzero, so the
    # remainder has as many terms as expr: at least two
    return f"{prefix} * ({remainder.render()})"


# -- parsing ------------------------------------------------------------------

def parse_operator(text: str, mode: str) -> OperatorExpr:
    """Parse the canonical operator rendering back into an OperatorExpr.

    The scalar grammar of ``scalars.parse_terms`` with the mode's generator
    names as words; their positions in GENERATOR_NAMES are the generators.
    """
    _check_mode(mode)
    acc: dict = {}
    for word, exp, coeff in parse_terms(text, GENERATOR_NAMES[mode]):
        _normalize_into(acc, word, exp, coeff, mode)
    return OperatorExpr._make(mode, acc)
