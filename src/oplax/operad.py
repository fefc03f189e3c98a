"""Multilinear operations on a finite-dimensional space, with their operad
structure: partial compositions, total composition, the graded commutator
(Gerstenhaber bracket), and the graded Jacobi defect.

An operation of degree n on a d-dimensional space is stored sparsely by its
structure constants: entry (i1, ..., in, k) is the coefficient of basis vector
k in the value on basis inputs i1...in.  Entries are OperatorExpr values; a
degree-1 operation acting on a vector contracts as (Mv)^k = sum_s M[s,k] v^s.
All sign conventions run on the reduced degree (degree minus one).
"""

from __future__ import annotations

from collections import namedtuple

from .scalars import SparseSum, add_term
from .weyl import OperatorExpr, _check_mode, _mul_rows_into, _rows, _wrap


class MultiOp(SparseSum):
    """Degree-n multilinear operation: a sparse sum of OperatorExpr entries."""

    __slots__ = ("dim", "degree", "mode", "entries")

    terms = property(lambda self: self.entries)

    def __init__(self, dim: int, degree: int, mode: str, entries=None):
        if dim < 1:
            raise ValueError("dimension must be positive")
        if degree < 1:
            raise ValueError("degree must be at least 1")
        _check_mode(mode)
        self.dim = dim
        self.degree = degree
        self.mode = mode
        acc: dict = {}
        if entries:
            items = entries.items() if isinstance(entries, dict) else entries
            for key, value in items:
                key = tuple(key)
                if len(key) != degree + 1:
                    raise ValueError(f"entry key {key} does not match degree {degree}")
                if not {int}.issuperset(map(type, key)):
                    raise ValueError(f"entry key {key} holds an index that is not an int")
                if any(not 0 <= idx < dim for idx in key):
                    raise ValueError(f"entry key {key} out of range for dim {dim}")
                if not isinstance(value, OperatorExpr):
                    raise TypeError(f"entry {key} is {type(value).__name__}, "
                                    "not OperatorExpr")
                if value.mode != mode:
                    raise ValueError("entry mode does not match operation mode")
                add_term(acc, key, value)
        self.entries = acc

    @classmethod
    def _make(cls, dim, degree, mode, entries: dict) -> "MultiOp":
        op = cls.__new__(cls)
        op.dim = dim
        op.degree = degree
        op.mode = mode
        op.entries = entries
        return op

    def _like(self, entries: dict) -> "MultiOp":
        return MultiOp._make(self.dim, self.degree, self.mode, entries)

    def _coerce(self, value) -> "MultiOp":
        if not isinstance(value, MultiOp):
            raise TypeError(f"cannot interpret {type(value).__name__} as an operation")
        if (value.dim, value.degree, value.mode) != (self.dim, self.degree, self.mode):
            raise ValueError("cannot add operations of different shape")
        return value

    @property
    def reduced_degree(self) -> int:
        return self.degree - 1

    def entry(self, inputs: tuple, k: int) -> OperatorExpr:
        return self.entries.get(tuple(inputs) + (k,), OperatorExpr.zero(self.mode))

    def sorted_entries(self):
        return sorted(self.entries.items())

    def __repr__(self):
        return (f"<MultiOp dim={self.dim} degree={self.degree} mode={self.mode} "
                f"nonzero={len(self.entries)}>")


_Operand = namedtuple("_Operand", "dim degree mode rows by_out")


def _operand(op: MultiOp) -> _Operand:
    """``op`` flattened once per public call: its ``(key, word, exp, re, im)`` rows by sign
    (the negated ones made on first use) and its ``(inputs, word, ...)`` rows by output index."""
    rows, by_out = [], {}
    for key, value in op.entries.items():
        rows += _rows(value.terms, key)
        by_out.setdefault(key[-1], []).extend(_rows(value.terms, key[:-1]))
    return _Operand(op.dim, op.degree, op.mode, {False: rows}, by_out)


def _compose_into(acc: dict, f: _Operand, pos: int, g: _Operand, negate: bool) -> None:
    """Add f o_pos g, negated when ``negate``, into the raw sum ``acc`` by entry key: one
    kernel call joins f's rows, at their key's slot ``pos``, to g's rows by output index."""
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    if f.mode != g.mode:
        raise ValueError(f"mode mismatch: {f.mode} vs {g.mode}")
    if not 0 <= pos < f.degree:
        raise ValueError(f"slot {pos} out of range for degree {f.degree}")
    negate ^= (pos * (g.degree - 1)) % 2 == 1
    if negate not in f.rows:
        f.rows[True] = [(key, word, exp, -re, -im) for key, word, exp, re, im in f.rows[False]]
    _mul_rows_into(acc, [(key[pos], key[:pos], key[pos + 1:], word, exp, re, im)
                         for key, word, exp, re, im in f.rows[negate]], g.by_out, f.mode)


def _total_into(acc: dict, f: _Operand, g: _Operand, negate: bool) -> None:
    for pos in range(f.degree):
        _compose_into(acc, f, pos, g, negate)


def _bracket_into(acc: dict, f: _Operand, g: _Operand, negate: bool) -> None:
    _total_into(acc, f, g, negate)
    _total_into(acc, g, f, negate == (((f.degree - 1) * (g.degree - 1)) % 2 == 1))


def _composite(ops: tuple, fill) -> MultiOp:
    """Flatten each operation once, fill one raw sum from their operands and
    wrap it once; an entry that cancelled has left the sum and builds nothing."""
    acc: dict = {}
    fill(acc, *map(_operand, ops))
    f = ops[0]
    return MultiOp._make(f.dim, sum(op.reduced_degree for op in ops) + 1, f.mode, {
        key: _wrap(f.mode, raw) for key, raw in acc.items()})


def partial_compose(f: MultiOp, pos: int, g: MultiOp) -> MultiOp:
    """Insert g into input slot ``pos`` of f (0-based), with the graded sign.

    The composite picks up (-1)^(pos * |g|) where |g| is g's reduced degree,
    and every entry is a sum of products with the f-entry on the left.
    """
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


def antisymmetric_binary(dim: int, mode: str, pair_entries: dict) -> MultiOp:
    """Degree-2 antisymmetric operation from entries keyed (i, j, k), 1-based.

    Each off-diagonal pair may be given in either order; the flipped entry is
    filled with the opposite sign and the diagonal stays zero.  Giving both
    orders of the same pair is rejected.
    """
    entries: dict = {}
    seen: set = set()
    for (i, j, k), value in pair_entries.items():
        if i == j or not all(1 <= idx <= dim for idx in (i, j, k)):
            raise ValueError(f"bad 1-based entry key {(i, j, k)}")
        key = (i - 1, j - 1, k - 1)
        flip = (j - 1, i - 1, k - 1)
        if key in seen:
            raise ValueError(f"entry {(i, j, k)} given twice")
        seen.update((key, flip))
        if value.is_zero:
            continue
        entries[key] = value
        entries[flip] = -value
    return MultiOp(dim, 2, mode, entries)
