"""Noncommutative operator words over the four oscillator generators.

Words are finite sequences over q, p, A+, A- with ScalarPoly coefficients, in
one of two modes:

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

from .scalars import (_ZERO_EXP, SYMBOL_INDEX, GaussRat, ScalarPoly, SparseSum, _bound_values,
                      _coerced, _symbol_index, add_exponents, add_term, parse_terms,
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


def _normal_rows(word: tuple):
    """The quantum normal form of ``word`` as ``(w, exp, re, im)`` rows.  The leftmost
    p q -> q p rewrite and its contraction are walked on words alone; the n leaves
    that reach a normal word w give it n (-i hbar)^k once, k = (len(word) - len(w)) / 2."""
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
    for w, n in counts.items():
        k = (len(word) - len(w)) // 2
        re, im = _MINUS_I_POWERS[k % 4]
        yield (w, _ZERO_EXP[:_HBAR] + (k,) + _ZERO_EXP[_HBAR + 1:] if k else _ZERO_EXP,
               n * re, n * im)


def _normalize_into(acc: dict, word: tuple, coeff: ScalarPoly, mode: str) -> None:
    if not coeff:
        return
    if mode == CLASSICAL:
        add_term(acc, tuple(sorted(word)), coeff)
        return
    for j in range(len(word) - 1):
        if word[j] == P and word[j + 1] == Q:
            break
    else:
        add_term(acc, word, coeff)  # already normal: cheaper than the walk's set-up
        return
    for w, exp, re, im in _normal_rows(word):
        add_term(acc, w, coeff * ScalarPoly._make({exp: GaussRat(re, im)})
                 if exp is not _ZERO_EXP else coeff)


def _mul_rows_into(acc: dict, xs, ys: dict, mode: str) -> None:
    """The one join kernel: each xs row ``(at, base, word, exp, re, im)`` times each group
    ``(word, exp, real, pairs)`` of ``ys[at]``, whose ``(off, re, im)`` pairs share a word and
    an exponent, is added into the raw sum ``acc``, ``{(word, exp): (re_sums, im_sums)}`` of
    ``{code: part}``, at code ``base + off``.  Word and exponent are built once per group, a
    real row against a real group adds to ``re_sums`` alone, and zero parts stay until
    ``_wrap``.  A classical pair is sorted unless a side is empty; at a quantum p q junction
    the normal rows of the word, times the xs row, come back here against the group.
    ``_ZERO_EXP`` itself skips the exponent add."""
    for at, base, w1, e1, r1, i1 in xs:
        for w2, e2, real, pairs in ys.get(at, ()):
            exp = e1 if e2 is _ZERO_EXP else e2 if e1 is _ZERO_EXP else add_exponents(e1, e2)
            if not (w1 and w2):
                word = w1 or w2
            elif mode == CLASSICAL:
                word = tuple(sorted(w1 + w2))
            elif w1[-1] != P or w2[0] != Q:
                word = w1 + w2
            else:
                _mul_rows_into(acc, [(0, base, w, add_exponents(exp, e), nr * r1 - ni * i1,
                                      nr * i1 + ni * r1) for w, e, nr, ni in _normal_rows(w1 + w2)],
                               {0: (((), _ZERO_EXP, real, pairs),)}, QUANTUM)
                continue
            if (sums := acc.get(term := (word, exp))) is None:
                sums = acc[term] = ({}, {})
            res, ims = sums
            if real and not i1:
                for off, r2, _ in pairs:
                    code = base + off
                    res[code] = res.get(code, 0) + r1 * r2
            else:
                for off, r2, i2 in pairs:
                    code = base + off
                    res[code] = res.get(code, 0) + r1 * r2 - i1 * i2
                    ims[code] = ims.get(code, 0) + r1 * i2 + i1 * r2


def _wrap(acc: dict) -> dict:
    """The raw sum as ``{code: {word: ScalarPoly}}`` terms: one GaussRat per part pair that
    is not zero, so a code whose every part cancelled builds nothing."""
    entries: dict = {}
    for (word, exp), (res, ims) in acc.items():
        for code in res.keys() | ims.keys() if ims else res:
            re, im = res.get(code, 0), ims.get(code, 0)
            if re or im:
                if (terms := entries.get(code)) is None:
                    entries[code] = {word: ScalarPoly._make({exp: GaussRat(re, im)})}
                elif (coeff := terms.get(word)) is None:
                    terms[word] = ScalarPoly._make({exp: GaussRat(re, im)})
                else:
                    coeff.terms[exp] = GaussRat(re, im)
    return entries


class OperatorExpr(SparseSum):
    """Linear combination of normal-form words with ScalarPoly coefficients."""

    __slots__ = ("mode", "terms")

    def __init__(self, mode: str, terms=None):
        _check_mode(mode)
        self.mode = mode
        acc: dict = {}
        if terms:
            for word, coeff in (terms.items() if isinstance(terms, dict) else terms):
                word = tuple(word)
                if not (_LETTERS.issuperset(word) and {int}.issuperset(map(type, word))):
                    raise ValueError(f"unknown generator in word {word!r}")
                _normalize_into(acc, word, ScalarPoly._coerce(coeff), mode)
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
        value = ScalarPoly._coerce(value)
        return cls._make(mode, {(): value} if value else {})

    @classmethod
    def generator(cls, mode: str, gen: int) -> "OperatorExpr":
        _check_mode(mode)
        if type(gen) is not int or gen not in GENERATORS:
            raise ValueError(f"unknown generator {gen!r}")
        return cls._make(mode, {(gen,): ScalarPoly.const(1)})

    def _coerce(self, value) -> "OperatorExpr":
        if not isinstance(value, OperatorExpr):
            return OperatorExpr.scalar(self.mode, value)
        if value.mode != self.mode:
            raise ValueError(f"mode mismatch: {self.mode} vs {value.mode}")
        return value

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, OperatorExpr):
            # a scalar multiplies each coefficient: no word is joined
            if (other := _coerced(ScalarPoly._coerce, other)) is None:
                return NotImplemented
            return self.map_values(other.__mul__)
        other = self._coerce(other)
        acc: dict = {}
        _mul_rows_into(acc, [(0, 0, word, exp, g.re, g.im)
                             for word, coeff in self.terms.items() for exp, g in coeff.terms.items()],
                       {0: [(word, exp, not g.im, ((0, g.re, g.im),))
                            for word, coeff in other.terms.items() for exp, g in coeff.terms.items()]},
                       self.mode)
        return OperatorExpr._make(self.mode, _wrap(acc).get(0, {}))

    def __rmul__(self, other):
        # other is no operator: a scalar, which commutes, or a value __mul__ hands back
        return self.__mul__(other)

    def has_symbol(self, name: str) -> bool:
        idx = _symbol_index(name)
        return any(exp[idx] for coeff in self.terms.values() for exp in coeff.terms)

    # -- substitutions -----------------------------------------------------

    def subst_params(self, bindings: dict) -> "OperatorExpr":
        """``ScalarPoly.subst`` of rational constants in every coefficient; the names and
        values are checked once, first, so the zero expression rejects what any other does."""
        values = _bound_values(bindings)
        return self.map_values(lambda coeff: coeff._subst(values))

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
        flat = []
        for word in sorted(self.terms, key=lambda w: (len(w), w)):
            for exp, coeff in self.terms[word].sorted_terms():
                flat.append((word, exp, coeff))
        return flat

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
    flat = expr.flat_terms()
    if len(flat) < 2:
        return expr.render()
    coeffs = [coeff for _, _, coeff in flat]
    if any(c.im != 0 for c in coeffs):
        return expr.render()
    num_gcd = Fraction(gcd(*(c.re.numerator for c in coeffs)),
                       lcm(*(c.re.denominator for c in coeffs)))
    exps = [exp for _, exp, _ in flat]
    common = tuple(min(e[idx] for e in exps) for idx in range(len(exps[0])))
    if num_gcd == 1 and not any(common):
        return expr.render()
    if flat[0][2].re < 0:
        num_gcd = -num_gcd
    # divide exponent-wise: the common vector is a minimum, so this never
    # produces an invalid negative power
    inverse_coeff = GaussRat(1 / num_gcd)
    remainder = OperatorExpr._make(expr.mode, {
        word: ScalarPoly._make({
            tuple(e - g for e, g in zip(exp, common)): c * inverse_coeff
            for exp, c in coeff.terms.items()
        })
        for word, coeff in expr.terms.items()
    })
    neg, factor_body = render_term(GaussRat(num_gcd), common)
    prefix = ("-" if neg else "") + factor_body
    # shifting by common keeps terms apart and 1/num_gcd keeps them nonzero, so the
    # remainder has as many terms as flat: at least two
    return f"{prefix} * ({remainder.render()})"


# -- parsing ------------------------------------------------------------------

def parse_operator(text: str, mode: str) -> OperatorExpr:
    """Parse the canonical operator rendering back into an OperatorExpr.

    The scalar grammar of ``scalars.parse_terms`` with the mode's generator
    names as words; their positions in GENERATOR_NAMES are the generators.
    """
    _check_mode(mode)
    acc: dict = {}
    for word, coeff in parse_terms(text, GENERATOR_NAMES[mode]):
        _normalize_into(acc, word, coeff, mode)
    return OperatorExpr._make(mode, acc)
