"""Exact commutative coefficients: Gaussian rationals over a fixed symbol alphabet.

Every scalar in the engine is a sparse polynomial in the sixteen commuting
symbols below, with Gaussian-rational coefficients.  The symbol ``s`` encodes
the square root of twice the initial momentum (s^2 = 2*p0), and it is the only
symbol allowed to carry negative exponents; that turns every denominator the
tables need into a Laurent monomial, so equality stays decidable and no
radical or float ever enters.

Values are immutable after construction and kept canonical: no zero
coefficients are stored, and two polynomials are equal exactly when their term
maps coincide.
"""

from __future__ import annotations

import functools
import operator
import re
from fractions import Fraction

#: Fixed alphabet, also the parser's; index order is the rendering / sorting order.
SYMBOLS = (
    "w", "hbar", "s", "a", "beta", "gamma", "b",
    "x1", "x2", "x3", "y1", "y2", "y3", "z1", "z2", "z3",
)
NSYMBOLS = len(SYMBOLS)
SYMBOL_INDEX = {name: i for i, name in enumerate(SYMBOLS)}
_ZERO_EXP = (0,) * NSYMBOLS


def _symbol_index(name) -> int:
    """The position of ``name`` in SYMBOLS; any other name raises ValueError."""
    if name not in SYMBOL_INDEX:
        raise ValueError(f"unknown symbol {name!r}")
    return SYMBOL_INDEX[name]


def _bound_values(bindings: dict) -> dict:
    """``subst`` bindings as ``{symbol index: Fraction}``: a name outside SYMBOLS raises
    ValueError, a value that is not an ``int`` or a ``Fraction`` TypeError."""
    if not {int, Fraction}.issuperset(map(type, bindings.values())):
        raise TypeError("only an int or a Fraction may be substituted for a symbol")
    return {_symbol_index(name): Fraction(value) for name, value in bindings.items()}


def _exact(value):
    """``value`` as an exact rational in canonical form: an ``int`` when it is
    integral, a ``Fraction`` only when its denominator is not 1; never a ``bool``."""
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int) and type(value) is not bool:
        return int(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a Gaussian rational")


def _coerced(coerce, value):
    """``coerce(value)``, or None when it raises TypeError: the one operand gate.  Given
    None, an operator returns NotImplemented, so Python offers the operation to the other
    operand (PEP 3141); a ValueError, an operand that can never be combined, propagates."""
    try:
        return coerce(value)
    except TypeError:
        return None


class GaussRat:
    """Gaussian rational ``re + im*i`` with exact rational parts.

    Each part is kept canonical by ``_exact``, so arithmetic on the integral
    coefficients that dominate the paper runs on ``int``, with no gcd.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is int else _exact(re)
        self.im = im if type(im) is int else _exact(im)

    @staticmethod
    def _coerce(value) -> "GaussRat":
        return value if isinstance(value, GaussRat) else GaussRat(value)

    def __add__(self, other):
        if type(other) is not GaussRat and (other := _coerced(GaussRat, other)) is None:
            return NotImplemented
        return GaussRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __sub__(self, other):
        if type(other) is not GaussRat and (other := _coerced(GaussRat, other)) is None:
            return NotImplemented
        return GaussRat(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if type(other) is not GaussRat and (other := _coerced(GaussRat, other)) is None:
            return NotImplemented
        if not self.im and not other.im:
            return GaussRat(self.re * other.re)
        return GaussRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is not GaussRat and (other := _coerced(GaussRat, other)) is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a real value hashes as its real part, as == compares it to one
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def is_negative(self) -> bool:
        """True when the rendered form starts with a minus sign."""
        if self.im == 0:
            return self.re < 0
        if self.re == 0:
            return self.im < 0
        return False

    def render(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        ipart = "i" if mag == 1 else f"{mag}*i"
        return f"({self.re}{sign}{ipart})"

    def __repr__(self):
        return f"GaussRat({self.re!s}, {self.im!s})"


GR_ZERO = GaussRat(0)
GR_ONE = GaussRat(1)
GR_I = GaussRat(0, 1)


def add_term(acc: dict, key, value) -> None:
    """Add ``value`` into ``acc[key]``, dropping the key when the sum is zero.

    The one accumulate kernel behind every sparse sum; it tests the sum by
    truthiness, so it serves GaussRat, ScalarPoly and OperatorExpr values.
    """
    total = acc.get(key)
    if total is not None:
        value = total + value
    if value:
        acc[key] = value
    else:
        acc.pop(key, None)


def add_exponents(e1: tuple, e2: tuple) -> tuple:
    """The exponent vector of a monomial product."""
    if e2 == _ZERO_EXP:
        return e1
    if e1 == _ZERO_EXP:
        return e2
    return tuple(map(operator.add, e1, e2))


# Kept apart from weyl's join kernel: as that kernel's empty-word case, a 1x1
# product took twice as long (2.3 -> 4.5 us on a 2-CPU host; 2x2: 5.3 -> 8.7).
def mul_terms_into(acc: dict, t1: dict, t2: dict) -> None:
    """The coefficient-product kernel: add t1*t2 into ``acc``, all three ``{exp:
    GaussRat}`` maps, multiplying the parts inline and dropping a zero sum."""
    for e1, g1 in t1.items():
        r1, i1 = g1.re, g1.im
        for e2, g2 in t2.items():
            if i1 or g2.im:
                re, im = r1 * g2.re - i1 * g2.im, r1 * g2.im + i1 * g2.re
            else:
                re, im = r1 * g2.re, 0
            key = add_exponents(e1, e2)
            total = acc.get(key)
            if total is not None:
                re, im = re + total.re, im + total.im
            if re or im:
                acc[key] = GaussRat(re, im)
            elif total is not None:
                del acc[key]


class SparseSum:
    """A sum stored as ``terms``, a dict of nonzero values: the additive group,
    the equality and the value map shared by ScalarPoly, OperatorExpr and MultiOp.

    Subclasses supply ``_coerce(value)``, which returns an operand of their own
    kind or raises TypeError (ValueError for an operand that can never be
    combined), and ``_like(terms)``, which wraps canonical terms.
    """

    __slots__ = ()

    def __add__(self, other):
        if (other := _coerced(self._coerce, other)) is None:
            return NotImplemented
        acc = dict(self.terms)
        for key, value in other.terms.items():
            add_term(acc, key, value)
        return self._like(acc)

    __radd__ = __add__

    def __neg__(self):
        return self._like({key: -value for key, value in self.terms.items()})

    def __sub__(self, other):
        # level by level: only a key that other alone holds is negated
        if (other := _coerced(self._coerce, other)) is None:
            return NotImplemented
        acc = dict(self.terms)
        for key, value in other.terms.items():
            total = acc.get(key)
            if value := -value if total is None else total - value:
                acc[key] = value
            else:
                del acc[key]
        return self._like(acc)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def map_values(self, fn):
        """The sum with each value replaced by ``fn(value)``, zero images dropped."""
        return self._like({key: image for key, value in self.terms.items()
                           if (image := fn(value))})


def _check_exponents(exp: tuple) -> None:
    if len(exp) != NSYMBOLS:
        raise ValueError(f"exponent vector must have length {NSYMBOLS}")
    for idx, e in enumerate(exp):
        if e < 0 and SYMBOLS[idx] != "s":
            raise ValueError(f"negative exponent of {SYMBOLS[idx]} is not allowed")


class ScalarPoly(SparseSum):
    """Sparse Laurent-in-``s`` polynomial with Gaussian-rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        acc: dict = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for exp, coeff in items:
                exp = tuple(exp)
                if not {int}.issuperset(map(type, exp)):
                    raise ValueError(f"an exponent in {exp!r} is not an int")
                _check_exponents(exp)
                add_term(acc, exp, GaussRat._coerce(coeff))
        self.terms = acc

    @classmethod
    def _make(cls, terms: dict) -> "ScalarPoly":
        # trusted constructor: terms already canonical
        poly = cls.__new__(cls)
        poly.terms = terms
        return poly

    _like = _make

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "ScalarPoly":
        return cls._make({})

    @classmethod
    def const(cls, value) -> "ScalarPoly":
        coeff = GaussRat._coerce(value)
        return cls._make({_ZERO_EXP: coeff} if coeff else {})

    @classmethod
    def monomial(cls, coeff, powers: dict) -> "ScalarPoly":
        if not {int}.issuperset(map(type, powers.values())):
            raise ValueError(f"an exponent in {powers!r} is not an int")
        exp = [0] * NSYMBOLS
        for name, e in powers.items():
            exp[_symbol_index(name)] += e
        exp = tuple(exp)
        _check_exponents(exp)
        coeff = GaussRat._coerce(coeff)
        return cls._make({exp: coeff} if coeff else {})

    @staticmethod
    def _coerce(value) -> "ScalarPoly":
        return value if isinstance(value, ScalarPoly) else ScalarPoly.const(value)

    # -- ring operations ---------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, ScalarPoly):
            # a sum of another kind, an operator say, takes the product itself
            if isinstance(other, SparseSum) or (other := _coerced(ScalarPoly.const, other)) is None:
                return NotImplemented
        acc: dict = {}
        mul_terms_into(acc, self.terms, other.terms)
        return ScalarPoly._make(acc)

    __rmul__ = __mul__

    def has_symbol(self, name: str) -> bool:
        idx = _symbol_index(name)
        return any(exp[idx] != 0 for exp in self.terms)

    def subst(self, bindings: dict) -> "ScalarPoly":
        """Substitute rational constants, each an ``int`` or a ``Fraction``, for symbols,
        exactly; binding 0 to a symbol that carries a negative power raises ValueError."""
        return self._subst(_bound_values(bindings))

    def _subst(self, values: dict) -> "ScalarPoly":
        acc: dict = {}
        for exp, coeff in self.terms.items():
            for idx, value in values.items():
                if exp[idx] < 0 and not value:
                    raise ValueError(f"{SYMBOLS[idx]}^{exp[idx]} is bound to 0")
                coeff = coeff * value ** exp[idx]
            add_term(acc, tuple(0 if idx in values else e for idx, e in enumerate(exp)), coeff)
        return ScalarPoly._make(acc)

    # -- rendering ---------------------------------------------------------

    def sorted_terms(self):
        """Terms in canonical order: lexicographic by exponent vector."""
        return sorted(self.terms.items(), key=lambda item: item[0])

    def render(self) -> str:
        return render_sum(render_term(coeff, exp) for exp, coeff in self.sorted_terms())

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"<ScalarPoly {self.render()}>"


def symbol(name: str) -> ScalarPoly:
    return ScalarPoly.monomial(1, {name: 1})


def monomial_string(exp: tuple) -> str:
    parts = []
    for idx, e in enumerate(exp):
        if e == 0:
            continue
        if e == 1:
            parts.append(SYMBOLS[idx])
        else:
            parts.append(f"{SYMBOLS[idx]}^{e}")
    return "*".join(parts)


def render_term(coeff: GaussRat, exp: tuple, word: str = "") -> tuple:
    """Render one flat term; returns (starts_negative, body_without_sign)."""
    neg = coeff.is_negative()
    mag = -coeff if neg else coeff
    mono = monomial_string(exp)
    if mag == GR_ONE:
        scalar = mono or "1"
    elif mono:
        scalar = f"{mag.render()}*{mono}"
    else:
        scalar = mag.render()
    if not word:
        return neg, scalar
    if scalar == "1":
        return neg, word
    return neg, f"{scalar} * {word}"


def render_sum(signed_bodies) -> str:
    """Join (starts_negative, body) pairs into a signed sum; empty is "0"."""
    parts = []
    for neg, body in signed_bodies:
        sign = (" - " if neg else " + ") if parts else ("-" if neg else "")
        parts.append(sign + body)
    return "".join(parts) or "0"


# -- parsing ----------------------------------------------------------------
#
# One grammar reads every canonical rendering, scalar or operator:
#
#   text   := ((sign | term)* term)?            sign := "+" | "-"
#   term   := factor ("*"? factor)*
#   factor := number | symbol ("^" "-"? integer)? | "i" | "(" gauss ")" | word
#   gauss  := sign* part (sign+ part)*          part := (number | "i") ("*" "i")?
#
# Whitespace may separate any two tokens.  A "*" stands between two factors
# of one term.  A sign after a factor closes the term and must open another,
# so no sign ends the text; the signs before a term multiply, while inside
# parentheses the last one counts.  Words are spellings the caller names (the
# operator generators); scalar text has none.

_SPACE = " \t\n\r\f\v"   # what \s matches: the grammar is ASCII
_EMPTY = ("",) * 7       # a match at the end, or at an unexpected character


@functools.cache
def _token_pattern(words: tuple) -> re.Pattern:
    """The token regex for one word set, compiled on first use.  Each name list
    is longest first; with no words the word group is empty and reads as no token."""
    def names(spellings):
        return "|".join(map(re.escape, sorted(spellings, key=len, reverse=True)))
    return re.compile(
        r"\s*(?:(?P<num>\d+)(?:/(?P<den>\d+))?"
        r"|(?P<sym>" + names(SYMBOLS) + ")"
        r"(?:\s*\^\s*(?P<neg>-)?\s*(?P<exp>\d+))?"
        r"|(?P<op>[i()*+-])"
        r"|(?P<word>" + names(words) + "))?", re.ASCII
    )


def _number(num: str, den: str, text: str) -> GaussRat:
    """A number token, read as ``int`` or as ``Fraction(int, int)``."""
    if not den:
        return GaussRat(int(num))
    try:
        return GaussRat(Fraction(int(num), int(den)))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _parse_gauss(tokens: list, pos: int, text: str) -> tuple:
    """The Gaussian rational between a "(" and its ")", read from the token
    groups at ``pos``; returns it and the position after the ")"."""
    total, sign, want_part = GR_ZERO, 1, True
    while True:
        num, den, _, _, _, op, _ = tokens[pos]
        pos += 1
        if op == "+" or op == "-":
            sign, want_part = (1 if op == "+" else -1), True
            continue
        if want_part and (num or op == "i"):
            part = _number(num, den, text) if num else GR_I
            if tokens[pos][5] == "*" and tokens[pos + 1][5] == "i":
                part, pos = part * GR_I, pos + 2
        elif not want_part and op == ")":
            return total, pos
        else:
            raise ValueError(f"malformed parenthesized coefficient in {text!r}")
        total = total + part if sign == 1 else total - part
        sign, want_part = 1, False


def _term(coeff: GaussRat, powers: list, sign: int) -> ScalarPoly:
    if min(powers) < 0:
        _check_exponents(powers)
    if sign < 0:
        coeff = -coeff
    return ScalarPoly._make({tuple(powers): coeff} if coeff else {})


def parse_terms(text: str, words=()) -> list:
    """The (word, coefficient) terms of ``text`` in the grammar above.

    ``words`` lists the word spellings, which the token pattern carries
    longest first; a term's word is the tuple of their indices in reading
    order.  One ``findall`` gives the groups of every token, which one loop
    reads.  Malformed text raises ValueError.
    """
    words = tuple(words)
    pattern = _token_pattern(words)
    body = text.rstrip(_SPACE)
    tokens = pattern.findall(body)
    if tokens.count(_EMPTY) > 1:
        at = next(match.end() for match in pattern.finditer(body) if not any(match.groups()))
        raise ValueError(f"unexpected character {body[at]!r} in {text!r}")
    terms = []
    sign, coeff = 1, None          # coeff is None until a term opens
    pos, last = 0, len(tokens) - 1   # the last groups are the end's
    while pos < last:
        num, den, sym, neg, exp, op, word = tokens[pos]
        pos += 1
        if sym or word:
            if coeff is None:
                coeff, powers, letters = GR_ONE, [0] * NSYMBOLS, []
            if sym:
                powers[SYMBOL_INDEX[sym]] += (-int(exp) if neg else int(exp)) if exp else 1
            else:
                letters.append(words.index(word))
            continue
        if num:
            value = _number(num, den, text)
        elif op == "*":
            # a token with no op is a number, symbol or word, unless it is the end's
            if coeff is None or pos == last or tokens[pos][5] not in ("", "i", "("):
                raise ValueError(f"'*' joins no two factors in {text!r}")
            continue
        elif op == "+" or op == "-":
            if coeff is not None:
                terms.append((tuple(letters), _term(coeff, powers, sign)))
                sign, coeff = 1, None
            if op == "-":
                sign = -sign
            continue
        elif op == "i":
            value = GR_I
        elif op == "(":
            value, pos = _parse_gauss(tokens, pos, text)
        else:
            raise ValueError(f"unmatched ')' in {text!r}")
        if coeff is None:
            coeff, powers, letters = value, [0] * NSYMBOLS, []
        else:
            coeff = coeff * value
    if coeff is not None:
        terms.append((tuple(letters), _term(coeff, powers, sign)))
    elif "+" in text or "-" in text:
        # with no term open, every "+" or "-" is a sign or inside a factor
        # that a later sign closed: no term opened after the last sign
        raise ValueError(f"trailing sign in {text!r}")
    return terms


def parse_scalar(text: str) -> ScalarPoly:
    """Parse the canonical scalar rendering back into a ScalarPoly."""
    acc: dict = {}
    for _, term in parse_terms(text):
        for exp, coeff in term.terms.items():
            add_term(acc, exp, coeff)
    return ScalarPoly._make(acc)
