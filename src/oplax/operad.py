"""Multilinear operations on a finite-dimensional space, with their operad
structure: partial compositions, total composition, the graded commutator
(Gerstenhaber bracket), the graded Jacobi defect, and the cyclic sum over inputs.

An operation of degree n on a d-dimensional space is stored sparsely by its
structure constants: entry (i1, ..., in, k) is the coefficient of basis vector
k in the value on basis inputs i1...in, under the base-d code of its key, first
index most significant.  Entries are OperatorExpr values; a degree-1 operation
acting on a vector contracts as (Mv)^k = sum_s M[s,k] v^s.  All sign
conventions run on the reduced degree (degree minus one).
"""

from __future__ import annotations

from collections import namedtuple

from .scalars import _ZERO_EXP, GaussRat, SparseSum, _pairs, add_exponents, add_term
from .weyl import OperatorExpr, _check_mode, _normal_form


class MultiOp(SparseSum):
    """Degree-n multilinear operation: a sparse sum of OperatorExpr entries by code."""

    __slots__ = ("dim", "degree", "mode", "terms")

    entries = property(lambda self: dict(self.sorted_entries()))

    def __init__(self, dim: int, degree: int, mode: str, entries=None):
        for name, value in (("dim", dim), ("degree", degree)):
            if type(value) is not int:
                raise ValueError(f"{name} {value!r} is not an int")
        if dim < 1:
            raise ValueError("dimension must be positive")
        if degree < 1:
            raise ValueError("degree must be at least 1")
        _check_mode(mode)
        self.dim = dim
        self.degree = degree
        self.mode = mode
        acc: dict = {}
        for key, value in _pairs(entries, "entries", "entry"):
            if not isinstance(key, tuple) or len(key) != degree + 1:
                raise ValueError(f"entry key {key} does not match degree {degree}")
            if not {int}.issuperset(map(type, key)):
                raise ValueError(f"entry key {key} holds an index that is not an int")
            if any(not 0 <= idx < dim for idx in key):
                raise ValueError(f"entry key {key} out of range for dim {dim}")
            if not isinstance(value, OperatorExpr):
                raise TypeError(f"entry {key} is {type(value).__name__}, not OperatorExpr")
            if value.mode != mode:
                raise ValueError("entry mode does not match operation mode")
            add_term(acc, self._code(key), value)
        self.terms = acc

    @classmethod
    def _make(cls, dim, degree, mode, terms: dict) -> "MultiOp":
        # terms are canonical {code: OperatorExpr} entries
        op = cls.__new__(cls)
        op.dim = dim
        op.degree = degree
        op.mode = mode
        op.terms = terms
        return op

    def _like(self, terms: dict) -> "MultiOp":
        return MultiOp._make(self.dim, self.degree, self.mode, terms)

    def _coerce(self, value) -> "MultiOp":
        if not isinstance(value, MultiOp):
            raise TypeError(f"cannot interpret {type(value).__name__} as an operation")
        if (value.dim, value.degree, value.mode) != (self.dim, self.degree, self.mode):
            raise ValueError("cannot add operations of different shape")
        return value

    @property
    def reduced_degree(self) -> int:
        return self.degree - 1

    def _code(self, key) -> int:
        code = 0
        for idx in key:
            code = code * self.dim + idx
        return code

    def entry(self, inputs: tuple, k: int) -> OperatorExpr:
        key = tuple(inputs) + (k,)
        # a bool or a float would code as an int would; a sympy Integer is an index
        if len(key) != self.degree + 1 or any(type(i) is bool or not hasattr(i, "__index__")
                                              or not 0 <= i < self.dim for i in key):
            raise ValueError(f"no entry key {key} at degree {self.degree}, dim {self.dim}")
        return self.terms.get(self._code(key)) or OperatorExpr.zero(self.mode)

    def sorted_entries(self):
        """``(key, value)`` pairs in key order: the codes sorted, then each one decoded."""
        powers = [self.dim ** k for k in range(self.degree, -1, -1)]
        return [(tuple([code // power % self.dim for power in powers]), self.terms[code])
                for code in sorted(self.terms)]

    def __repr__(self):
        return (f"<MultiOp dim={self.dim} degree={self.degree} mode={self.mode} "
                f"nonzero={len(self.terms)}>")


_Operand = namedtuple("_Operand", "dim degree mode groups")


def _operand(op: MultiOp) -> _Operand:
    """``op`` flattened once per public call, read off its stored entry codes: its terms in
    ``(word, exp, real, pairs)`` groups, one per word and exponent, of ``(code, re, im)``
    pairs, ``real`` when no pair has an imaginary part."""
    by_word: dict = {}
    for code, value in op.terms.items():
        for (word, exp), g in value.terms.items():
            by_word.setdefault((word, exp), []).append((code, g.re, g.im))
    return _Operand(op.dim, op.degree, op.mode, [
        (word, exp, not any(im for _, _, im in pairs), pairs)
        for (word, exp), pairs in by_word.items()])


def _by_slot(op: _Operand, low: int, wide: int, sign: int) -> dict:
    """``op``'s groups split by the digit ``at = code // low % dim`` of their codes, as
    ``{at: [(word, exp, real, pairs)]}``: a pair's code loses that digit, its higher digits
    move up to ``wide``, its ``low`` ones stay, and its parts take ``sign``."""
    dim, high, slots = op.dim, low * op.dim, {}
    for word, exp, real, pairs in op.groups:
        split: dict = {}
        for code, re, im in pairs:
            split.setdefault(code // low % dim, []).append(
                (code // high * wide + code % low, sign * re, sign * im))
        for at, parts in split.items():
            slots.setdefault(at, []).append((word, exp, real, parts))
    return slots


def _mul_rows_into(acc: dict, xs: dict, ys: dict, mode: str) -> None:
    """The join kernel of composition: for each digit ``at`` both sides split on, each group
    ``(word, exp, real, pairs)`` of ``xs[at]`` times each of ``ys[at]`` is added into the raw
    sum ``acc``, ``{(word, exp): (re_sums, im_sums)}`` of ``{code: part}``: each pair ``(c1,
    re, im)`` of the one times each ``(c2, re, im)`` of the other, at code ``c1 + c2``.  Word,
    exponent and sums are found once per pair of groups, two real groups add to ``re_sums``
    alone, and zero parts stay until ``_wrap``.  A pair of words takes its joined word's
    ``_normal_form``: one row is the word, and more rows each scale the xs group's pairs and
    come back here against the ys group.  ``_ZERO_EXP`` itself skips the exponent add."""
    for at, x_groups in xs.items():
        y_groups = ys.get(at, ())
        for w1, e1, real1, pairs1 in x_groups:
            for w2, e2, real2, pairs2 in y_groups:
                exp = e1 if e2 is _ZERO_EXP else e2 if e1 is _ZERO_EXP else add_exponents(e1, e2)
                if not (w1 and w2):
                    word = w1 or w2
                elif len(rows := _normal_form(w1 + w2, mode)) == 1:
                    word = rows[0][0]
                else:
                    _mul_rows_into(acc, {0: [(w, add_exponents(exp, e), real1 and not ni,
                                              [(c1, nr * r1 - ni * i1, nr * i1 + ni * r1)
                                               for c1, r1, i1 in pairs1])
                                             for w, e, nr, ni in rows]},
                                   {0: (((), _ZERO_EXP, real2, pairs2),)}, mode)
                    continue
                if (sums := acc.get(term := (word, exp))) is None:
                    sums = acc[term] = ({}, {})
                res, ims = sums
                res_get, ims_get = res.get, ims.get
                if real1 and real2:
                    for c1, r1, _ in pairs1:
                        for c2, r2, _ in pairs2:
                            code = c1 + c2
                            res[code] = res_get(code, 0) + r1 * r2
                else:
                    for c1, r1, i1 in pairs1:
                        for c2, r2, i2 in pairs2:
                            code = c1 + c2
                            res[code] = res_get(code, 0) + r1 * r2 - i1 * i2
                            ims[code] = ims_get(code, 0) + r1 * i2 + i1 * r2


def _wrap(acc: dict) -> dict:
    """The raw sum as flat ``{code: {(word, exp): GaussRat}}`` terms: one GaussRat per part
    pair that is not zero, so a code whose every part cancelled builds nothing."""
    entries: dict = {}
    for key, (res, ims) in acc.items():
        for code in res.keys() | ims.keys() if ims else res:
            re, im = res.get(code, 0), ims.get(code, 0)
            if re or im:
                entries.setdefault(code, {})[key] = GaussRat(re, im)
    return entries


def _compose_into(acc: dict, f: _Operand, pos: int, g: _Operand, negate: bool) -> None:
    """Add f o_pos g, negated when ``negate``, into the raw sum ``acc`` by entry code: one
    kernel call joins f's groups, split by the digit at slot ``pos``, to g's, split by output
    index.  The ``low`` digits after the slot stay, f's head moves up past g's inputs, and
    g's inputs move up past the low digits: a composite code is f's part ``head *
    dim^|g inputs| * low + tail`` plus g's part ``inputs * low``, which carries the sign."""
    sign = -1 if negate ^ ((pos * (g.degree - 1)) % 2 == 1) else 1
    low = f.dim ** (f.degree - pos)
    _mul_rows_into(acc, _by_slot(f, low, low * f.dim ** g.degree, 1), _by_slot(g, 1, low, sign),
                   f.mode)


def _total_into(acc: dict, f: _Operand, g: _Operand, negate: bool) -> None:
    for pos in range(f.degree):
        _compose_into(acc, f, pos, g, negate)


def _bracket_into(acc: dict, f: _Operand, g: _Operand, negate: bool) -> None:
    _total_into(acc, f, g, negate)
    _total_into(acc, g, f, negate == (((f.degree - 1) * (g.degree - 1)) % 2 == 1))


def _composite(ops: tuple, fill) -> MultiOp:
    """Check that every operand is a ``MultiOp`` of the first's dimension and mode, flatten
    each once, fill one raw sum from their operands and wrap it once into the composite's
    entries, by code as they stand; an entry whose every part cancelled builds nothing."""
    f = ops[0]
    for op in ops:
        if not isinstance(op, MultiOp):
            raise TypeError(f"cannot interpret {type(op).__name__} as an operation")
        if op.dim != f.dim:
            raise ValueError(f"dimension mismatch: {f.dim} vs {op.dim}")
        if op.mode != f.mode:
            raise ValueError(f"mode mismatch: {f.mode} vs {op.mode}")
    acc: dict = {}
    fill(acc, *map(_operand, ops))
    return MultiOp._make(f.dim, sum(op.reduced_degree for op in ops) + 1, f.mode, {
        code: OperatorExpr._make(f.mode, terms) for code, terms in _wrap(acc).items()})


def partial_compose(f: MultiOp, pos: int, g: MultiOp) -> MultiOp:
    """Insert g into input slot ``pos`` of f (0-based), with the graded sign.

    The composite picks up (-1)^(pos * |g|) where |g| is g's reduced degree,
    and every entry is a sum of products with the f-entry on the left.
    """
    if type(pos) is not int:
        raise ValueError(f"slot {pos!r} is not an int")
    if isinstance(f, MultiOp) and not 0 <= pos < f.degree:
        raise ValueError(f"slot {pos} out of range for degree {f.degree}")
    return _composite((f, g), lambda acc, f, g: _compose_into(acc, f, pos, g, False))


def total_compose(f: MultiOp, g: MultiOp) -> MultiOp:
    """Sum of all partial compositions of g into f."""
    return _composite((f, g), lambda acc, f, g: _total_into(acc, f, g, False))


def bracket(f: MultiOp, g: MultiOp) -> MultiOp:
    """Graded commutator f o g - (-1)^(|f||g|) g o f."""
    return _composite((f, g), lambda acc, f, g: _bracket_into(acc, f, g, False))


def jacobi_defect(f: MultiOp, g: MultiOp, h: MultiOp) -> MultiOp:
    """Signed cyclic sum of nested brackets; zero for a graded Lie algebra.

    [x, [y, z]] has the sign (-1)^(|x||z|); the outer brackets share one sum.
    """
    def fill(acc, *operands):
        for x, (y, z) in zip(operands, ((g, h), (h, f), (f, g))):
            _bracket_into(acc, x, _operand(bracket(y, z)),
                          ((x.degree - 1) * z.reduced_degree) % 2 == 1)
    return _composite((f, g, h), fill)


def cyclic_sum(op: MultiOp) -> MultiOp:
    """Sum of op over the cyclic rotations of its inputs, on entry codes alone: a rotation
    moves the leading digit of a code's inputs to their end, past which k stays."""
    if not isinstance(op, MultiOp):
        raise TypeError(f"cannot interpret {type(op).__name__} as an operation")
    dim, top = op.dim, op.dim ** (op.degree - 1)
    acc: dict = {}
    for code, value in op.terms.items():
        inputs, k = divmod(code, dim)
        for _ in range(op.degree):
            add_term(acc, inputs * dim + k, value)
            inputs = inputs % top * dim + inputs // top
    return op._like(acc)


def antisymmetric_binary(dim: int, mode: str, pair_entries: dict) -> MultiOp:
    """Degree-2 antisymmetric operation from entries keyed (i, j, k), 1-based.

    Each off-diagonal pair may be given in either order; the flipped entry is
    filled with the opposite sign and the diagonal stays zero.  Giving both
    orders of the same pair is rejected.
    """
    entries: dict = {}
    seen: set = set()
    for given, value in pair_entries.items():
        if not isinstance(given, tuple) or len(given) != 3:
            raise ValueError(f"entry key {given} does not match degree 2")
        i, j, k = given
        if i == j or not all(type(idx) is int and 1 <= idx <= dim for idx in given):
            raise ValueError(f"bad 1-based entry key {given}")
        key = (i - 1, j - 1, k - 1)
        flip = (j - 1, i - 1, k - 1)
        if key in seen:
            raise ValueError(f"entry {given} given twice")
        seen.update((key, flip))
        if not isinstance(value, OperatorExpr):
            raise TypeError(f"entry {given} is {type(value).__name__}, not OperatorExpr")
        if value.is_zero:
            continue
        entries[key] = value
        entries[flip] = -value
    return MultiOp(dim, 2, mode, entries)
