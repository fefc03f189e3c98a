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

from .scalars import (_ZERO_EXP, SYMBOL_INDEX, GaussRat, ScalarPoly, SparseSum, add_exponents,
                      add_term, parse_terms, render_sum, render_term)

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


def _rows(terms: dict, *tag) -> list:
    """``{word: ScalarPoly}`` terms as ``(*tag, word, exp, re, im)`` rows."""
    return [tag + (word, exp, g.re, g.im)
            for word, coeff in terms.items() for exp, g in coeff.terms.items()]


def _mul_rows_into(acc: dict, xs, ys: dict, mode: str) -> None:
    """The one join kernel: each xs row ``(at, head, tail, word, exp, re, im)`` times each
    ``(inputs, word, exp, re, im)`` of ``ys[at]`` lands in the raw ``{key: {word: {exp:
    (re, im)}}}`` sum ``acc`` at ``head + inputs + tail``, which keeps no zero part pair and
    no empty dict.  A classical pair is sorted unless a side is empty; a quantum p q junction
    is normal-ordered and comes back here.  ``_ZERO_EXP`` itself skips the exponent add."""
    for at, head, tail, w1, e1, r1, i1 in xs:
        for inputs, w2, e2, r2, i2 in ys.get(at, ()):
            if i1 or i2:
                re, im = r1 * r2 - i1 * i2, r1 * i2 + i1 * r2
            else:
                re, im = r1 * r2, 0
            exp = e1 if e2 is _ZERO_EXP else e2 if e1 is _ZERO_EXP else add_exponents(e1, e2)
            key = head + inputs + tail
            if not (w1 and w2):
                word = w1 or w2
            elif mode == CLASSICAL:
                word = tuple(sorted(w1 + w2))
            elif w1[-1] != P or w2[0] != Q:
                word = w1 + w2
            else:
                _mul_rows_into(acc, [(0, key, ()) + row for row in _normal_rows(w1 + w2)],
                               {0: (((), (), exp, re, im),)}, QUANTUM)
                continue
            if (raw := acc.get(key)) is None:
                acc[key] = {word: {exp: (re, im)}}
            elif (inner := raw.get(word)) is None:
                raw[word] = {exp: (re, im)}
            elif (total := inner.get(exp)) is None:
                inner[exp] = (re, im)
            else:
                re, im = re + total[0], im + total[1]
                if re or im:
                    inner[exp] = (re, im)
                else:
                    del inner[exp]
                    if not inner:
                        del raw[word]
                        if not raw:
                            del acc[key]


def _wrap(mode: str, acc: dict) -> "OperatorExpr":
    """The OperatorExpr of a raw sum, which has no empty word: one GaussRat per part pair."""
    return OperatorExpr._make(mode, {
        word: ScalarPoly._make({exp: GaussRat(re, im) for exp, (re, im) in raw.items()})
        for word, raw in acc.items()})


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
        if isinstance(value, OperatorExpr):
            if value.mode != self.mode:
                raise ValueError(f"mode mismatch: {self.mode} vs {value.mode}")
            return value
        if isinstance(value, (int, Fraction, GaussRat, ScalarPoly)):
            return OperatorExpr.scalar(self.mode, value)
        raise TypeError(f"cannot interpret {type(value).__name__} as an operator "
                        "expression")

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        acc: dict = {}
        _mul_rows_into(acc, _rows(self.terms, 0, (), ()), {0: _rows(other.terms, ())},
                       self.mode)
        return _wrap(self.mode, acc.get((), {}))

    def __rmul__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        # scalars commute, so coercion order is irrelevant here
        return other * self

    def has_symbol(self, name: str) -> bool:
        return any(coeff.has_symbol(name) for coeff in self.terms.values())

    # -- substitutions -----------------------------------------------------

    def subst_params(self, bindings: dict) -> "OperatorExpr":
        """``ScalarPoly.subst`` of rational constants in every coefficient."""
        return self.map_values(lambda coeff: coeff.subst(bindings))

    def subst_generators(self, images: dict) -> "OperatorExpr":
        """Replace generators by whole expressions, preserving word order."""
        result = OperatorExpr.zero(self.mode)
        for word, coeff in self.terms.items():
            term = OperatorExpr.scalar(self.mode, coeff)
            for gen in word:
                image = images.get(gen)
                term = term * (self._coerce(image) if image is not None
                               else OperatorExpr.generator(self.mode, gen))
            result = result + term
        return result

    def to_quantum(self) -> "OperatorExpr":
        """Reinterpret a classical expression with hatted generators.

        Classical normal form already lists q before p, so the words are
        normal-ordered as they stand.
        """
        if self.mode == QUANTUM:
            return self
        return OperatorExpr(QUANTUM, self.terms.items())

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
    inner = remainder.render()
    if len(remainder.flat_terms()) > 1:
        inner = f"({inner})"
    return f"{prefix} * {inner}"


# -- parsing ------------------------------------------------------------------

def parse_operator(text: str, mode: str) -> OperatorExpr:
    """Parse the canonical operator rendering back into an OperatorExpr.

    The scalar grammar of ``scalars.parse_terms`` with the mode's generator
    names as words; their positions in GENERATOR_NAMES are the generators.
    """
    _check_mode(mode)
    return OperatorExpr(mode, parse_terms(text, GENERATOR_NAMES[mode]))
