"""The eleven three-dimensional real Lie algebra types (Bianchi classification)
and their deformations: the initial structure constants, the stored dynamical
table, its quantum counterpart, and the four-parameter family that collects
the five non-Lie quantum types.

The stored tables are direct transcriptions that `builtin_tables` gathers
into one `BianchiTables`; `check_tables_consistency` cross-checks them, entry
by entry, against every derivation route, the nine-parameter solve among them.
"""

from __future__ import annotations

import json
from collections import namedtuple

from .operad import MultiOp, antisymmetric_binary
from .oscillator import (
    INV_2P0,
    INV_P0,
    INV_SQRT_2P0,
    P0,
    STRUCTURE_COLUMNS,
    W,
    at_initial,
    coeffs_from_initial,
    coeffs_nondegenerate,
    deformed_structure_op,
)
from .report import Check, first_nonzero_check, flag_check
from .scalars import ScalarPoly, parse_scalar, symbol
from .weyl import CLASSICAL, QUANTUM, OperatorExpr, generators, parse_operator

_ZERO = ScalarPoly.zero()
_ONE = ScalarPoly.const(1)
_A = symbol("a")


class BianchiRow(namedtuple("BianchiRow", "name alpha n note", defaults=("",))):
    """One classification row: the type's alpha and n = (n1, n2, n3).

    They fix the structure equations
    [e1,e2] = -alpha e2 + n3 e3, [e2,e3] = n1 e1, [e3,e1] = n2 e2 + alpha e3.
    """

    __slots__ = ()

    @classmethod
    def of(cls, name, alpha, n, note="") -> "BianchiRow":
        n = tuple(ScalarPoly._coerce(v) for v in n)
        if len(n) != 3:
            raise ValueError(f"row {name}: expected three n-values, got {len(n)}")
        return cls(name, ScalarPoly._coerce(alpha), n, note)

    @property
    def mu0(self) -> tuple:
        """The nine initial structure constants in STRUCTURE_COLUMNS order."""
        n1, n2, n3 = self.n
        return (_ZERO, -self.alpha, n3, n1, _ZERO, _ZERO, _ZERO, n2, self.alpha)


def classification_rows() -> tuple:
    """The eleven types with their alpha and n."""
    return (
        BianchiRow.of("I", 0, (0, 0, 0)),
        BianchiRow.of("II", 0, (1, 0, 0)),
        BianchiRow.of("VII", 0, (1, 1, 0)),
        BianchiRow.of("VI", 0, (1, -1, 0)),
        BianchiRow.of("IX", 0, (1, 1, 1)),
        BianchiRow.of("VIII", 0, (1, 1, -1)),
        BianchiRow.of("V", 1, (0, 0, 0)),
        BianchiRow.of("IV", 1, (0, 0, 1)),
        BianchiRow.of("VII_a", _A, (0, 1, 1), "a > 0"),
        BianchiRow.of("III_a1", 1, (0, 1, -1), "a = 1"),
        BianchiRow.of("VI_a", _A, (0, 1, -1), "a > 0, a != 1"),
    )


TYPE_NAMES = tuple(row.name for row in classification_rows())

BianchiTables = namedtuple("BianchiTables", "rows dynamical quantum")


def initial_structure_op(row: BianchiRow) -> MultiOp:
    """The row's constant antisymmetric binary operation, classical."""
    entries = {
        key: OperatorExpr.scalar(CLASSICAL, value)
        for key, value in zip(STRUCTURE_COLUMNS, row.mu0)
    }
    return antisymmetric_binary(3, CLASSICAL, entries)


# -- stored dynamical / quantum tables -----------------------------------------

def _table_entries(mode: str) -> dict:
    """Entries of the stored deformation table, by type name.

    The same text describes the classical table and its quantum counterpart;
    only the generator hats differ, which is exactly the mode switch.
    """
    gen_q, gen_p, gen_ap, gen_am = generators(mode)
    one = OperatorExpr.scalar(mode, 1)

    p_plus = (gen_p + P0) * INV_2P0          # (p + p0) / (2 p0)
    p_minus_flip = (P0 - gen_p) * INV_2P0    # (p - p0) / (-2 p0)
    wq_over_2p0 = W * gen_q * INV_2P0
    p_over_p0 = gen_p * INV_P0
    wq_over_p0 = W * gen_q * INV_P0
    ap_s = gen_ap * INV_SQRT_2P0             # A+ / sqrt(2 p0)
    am_s = gen_am * INV_SQRT_2P0

    def av_pattern(b):
        entries = {
            (1, 2, 1): am_s,
            (1, 2, 2): -ap_s,
            (2, 3, 3): -am_s,
            (3, 1, 3): ap_s,
        }
        if b:
            entries[(1, 2, 3)] = one * b
        return entries

    def family_pattern(a, b):
        return {
            (1, 2, 1): a * am_s,
            (1, 2, 2): -(a * ap_s),
            (1, 2, 3): one * b,
            (2, 3, 1): p_minus_flip,
            (2, 3, 2): -wq_over_2p0,
            (2, 3, 3): -(a * am_s),
            (3, 1, 1): -wq_over_2p0,
            (3, 1, 2): p_plus,
            (3, 1, 3): a * ap_s,
        }

    return {
        "I": {},
        "II": {
            (2, 3, 1): p_plus,
            (2, 3, 2): wq_over_2p0,
            (3, 1, 1): wq_over_2p0,
            (3, 1, 2): p_minus_flip,
        },
        "VII": {(2, 3, 1): one, (3, 1, 2): one},
        "VI": {
            (2, 3, 1): p_over_p0,
            (2, 3, 2): wq_over_p0,
            (3, 1, 1): wq_over_p0,
            (3, 1, 2): -p_over_p0,
        },
        "IX": {(1, 2, 3): one, (2, 3, 1): one, (3, 1, 2): one},
        "VIII": {(1, 2, 3): -one, (2, 3, 1): one, (3, 1, 2): one},
        "V": av_pattern(0),
        "IV": av_pattern(1),
        "VII_a": family_pattern(_A, 1),
        "III_a1": family_pattern(_ONE, -1),
        "VI_a": family_pattern(_A, -1),
    }


def dynamical_table() -> dict:
    """Stored time-dependent structure operations, classical mode."""
    return {
        name: antisymmetric_binary(3, CLASSICAL, entries)
        for name, entries in _table_entries(CLASSICAL).items()
    }


def quantum_table() -> dict:
    """Stored quantum structure operations (hatted generators)."""
    return {
        name: antisymmetric_binary(3, QUANTUM, entries)
        for name, entries in _table_entries(QUANTUM).items()
    }


def builtin_tables() -> BianchiTables:
    """The stored rows and tables, each builder looked up when called."""
    return BianchiTables(classification_rows(), dynamical_table(), quantum_table())


def quantize(mu: MultiOp) -> MultiOp:
    """Generator-wise hatting: same words, same coefficients, quantum mode."""
    if mu.mode != CLASSICAL:
        raise ValueError("quantize expects a classical operation")
    return MultiOp._make(mu.dim, mu.degree, QUANTUM,
                         {code: value.to_quantum() for code, value in mu.terms.items()})


# -- the four-parameter family --------------------------------------------------

class FamilyParams(namedtuple("FamilyParams", "beta gamma a b")):
    """Parameters (beta, gamma, a, b) selecting a member of the family."""

    __slots__ = ()

    @classmethod
    def of(cls, beta, gamma, a, b) -> "FamilyParams":
        return cls(*(ScalarPoly._coerce(v) for v in (beta, gamma, a, b)))

    @classmethod
    def symbolic(cls) -> "FamilyParams":
        return cls(symbol("beta"), symbol("gamma"), symbol("a"), symbol("b"))


#: stored parameter values per family type; III_a1 carries b = -1 because the
#: quantum table's (1,2)->3 entry for that type is -1 and the family table
#: sets that entry to b (the alternative b = 1 would contradict it); the
#: tables suite's flag check compares this b with that entry.
_FAMILY_PARAMS = {
    "V": (0, 0, 1, 0),
    "IV": (0, 0, 1, 1),
    "VII_a": (1, 1, _A, 1),
    "III_a1": (1, 1, 1, -1),
    "VI_a": (1, 1, _A, -1),
}
FAMILY_TYPE_NAMES = tuple(_FAMILY_PARAMS)


def family_params(name: str) -> FamilyParams:
    if name not in _FAMILY_PARAMS:
        raise KeyError(f"type {name!r} is not in the four-parameter family")
    return FamilyParams.of(*_FAMILY_PARAMS[name])


def family_structure_op(params: FamilyParams) -> MultiOp:
    """The quantum family operation in terms of (beta, gamma, a, b)."""
    gen_q, gen_p, gen_ap, gen_am = generators(QUANTUM)
    ap_s = gen_ap * INV_SQRT_2P0
    am_s = gen_am * INV_SQRT_2P0
    beta_wq = params.beta * W * gen_q * INV_2P0
    return antisymmetric_binary(3, QUANTUM, {
        (1, 2, 1): params.a * am_s,
        (1, 2, 2): -(params.a * ap_s),
        (1, 2, 3): OperatorExpr.scalar(QUANTUM, params.b),
        (2, 3, 1): -(params.gamma * (gen_p - P0) * INV_2P0),
        (2, 3, 2): -beta_wq,
        (2, 3, 3): -(params.a * am_s),
        (3, 1, 1): -beta_wq,
        (3, 1, 2): params.gamma * (gen_p + P0) * INV_2P0,
        (3, 1, 3): params.a * ap_s,
    })


# -- consistency report ---------------------------------------------------------

def multiop_check(check_id: str, ref: str, got: MultiOp, want: MultiOp,
                  detail: str, hbar_zero: bool = False) -> Check:
    return first_nonzero_check(check_id, ref, (
        (f"first differing entry ({i + 1},{j + 1})->{k + 1}", value)
        for (i, j, k), value in (got - want).sorted_entries()
    ), detail, hbar_zero)


def check_tables_consistency(tables, hbar_zero: bool = False) -> list[Check]:
    """Cross-check every table in ``tables`` against its derivation route."""
    rows, dynamical, quantum = tables
    checks = []
    for row in rows:
        coeffs = coeffs_from_initial(row.mu0)
        advisory = "" if coeffs_nondegenerate(coeffs) else \
            "; nondegeneracy sum of squares vanishes (advisory)"
        checks.append(multiop_check(
            f"tables.derive.{row.name}",
            "structure constants solved from initial data",
            deformed_structure_op(coeffs), dynamical[row.name],
            f"type {row.name}: derived operation vs stored table{advisory}",
        ))
    for row in rows:
        initial = dynamical[row.name].map_values(at_initial)
        checks.append(multiop_check(
            f"tables.initial.{row.name}",
            "initial-state evaluation of the dynamical table",
            initial, initial_structure_op(row),
            f"type {row.name}: dynamical table at the start state vs "
            "classification constants",
        ))
    for row in rows:
        checks.append(multiop_check(
            f"tables.quantize.{row.name}",
            "quantization of the dynamical table",
            quantize(dynamical[row.name]), quantum[row.name],
            f"type {row.name}: hatted dynamical operation vs stored quantum table",
            hbar_zero=hbar_zero,
        ))
    for name in [n for n in quantum if n in FAMILY_TYPE_NAMES]:
        checks.append(multiop_check(
            f"tables.family.{name}",
            "four-parameter family against the quantum table",
            family_structure_op(family_params(name)), quantum[name],
            f"type {name}: family operation at its parameter values",
            hbar_zero=hbar_zero,
        ))
    if "III_a1" in quantum:
        checks.append(flag_check(
            "tables.family.III_a1.b-value",
            "parameter value reconciliation for III_a1",
            quantum["III_a1"].entry((0, 1), 2)
            == OperatorExpr.scalar(QUANTUM, family_params("III_a1").b),
            "stored b = -1 for III_a1 so the family table matches the quantum "
            "table entry (1,2)->3 = -1; the alternative b = 1 contradicts that "
            "entry",
        ))
    return checks


# -- JSON export / import --------------------------------------------------------

_ENTRY_KEYS = tuple(f"{i}{j}^{k}" for i, j, k in STRUCTURE_COLUMNS)


def _op_to_strings(mu: MultiOp) -> dict:
    return {
        key: mu.entry((i - 1, j - 1), k - 1).render()
        for key, (i, j, k) in zip(_ENTRY_KEYS, STRUCTURE_COLUMNS)
    }


_KINDS = {dict: "an object", list: "a list", str: "a string"}


def _expect(value, kind, what: str, keys=None):
    """``value`` when it is a ``kind``, and an object with no key outside ``keys``
    when they are given; else ValueError naming what is wrong."""
    if not isinstance(value, kind):
        raise ValueError(f"table document: {what} is not {_KINDS[kind]}")
    if keys and (unknown := [key for key in value if key not in keys]):
        raise ValueError(f"table document: {what} has unknown key {unknown[0]!r}")
    return value


def _unique_keys(pairs) -> dict:
    """The JSON object of ``pairs``; a repeated key raises ValueError naming it."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"table document: repeated key {key!r}")
        obj[key] = value
    return obj


def _field(data: dict, key: str, where: str, kind=dict):
    if key not in data:
        raise ValueError(f"table document: {where} has no {key!r}")
    return _expect(data[key], kind, f"{where} {key!r}")


def _ops_from_strings(doc: dict, part: str, mode: str) -> dict:
    ops = {}
    for name, data in _field(doc, part, "the document").items():
        where = f"{part} table {name!r}"
        _expect(data, dict, where, _ENTRY_KEYS)
        ops[name] = antisymmetric_binary(3, mode, {
            (i, j, k): parse_operator(_field(data, key, where, str), mode)
            for key, (i, j, k) in zip(_ENTRY_KEYS, STRUCTURE_COLUMNS)
        })
    return ops


def export_tables() -> str:
    """All three built-in tables as one deterministic JSON document."""
    doc = {"classification": {}, "dynamical": {}, "quantum": {}}
    rows, dynamical, quantum = builtin_tables()
    for row in rows:
        doc["classification"][row.name] = {
            "alpha": row.alpha.render(),
            "n": [v.render() for v in row.n],
            "mu": {key: value.render()
                   for key, value in zip(_ENTRY_KEYS, row.mu0)},
            "note": row.note,
        }
        doc["dynamical"][row.name] = _op_to_strings(dynamical[row.name])
        doc["quantum"][row.name] = _op_to_strings(quantum[row.name])
    return json.dumps(doc, indent=2) + "\n"


def import_tables(text: str) -> BianchiTables:
    """Inverse of export_tables; round-trips bit-exactly.

    Malformed JSON, a repeated or unknown key, a missing or mistyped field,
    malformed expression text, classification constants that contradict the
    row's alpha and n, and parts that do not name the same types all raise
    ValueError.
    """
    try:
        doc = _expect(json.loads(text, object_pairs_hook=_unique_keys), dict,
                      "the document", ("classification", "dynamical", "quantum"))
    except RecursionError:
        raise ValueError("table document: nested too deeply") from None
    rows = []
    for name, data in _field(doc, "classification", "the document").items():
        where = f"classification row {name!r}"
        mu = _field(_expect(data, dict, where, ("alpha", "n", "mu", "note")), "mu", where)
        _expect(mu, dict, f"{where} 'mu'", _ENTRY_KEYS)
        row = BianchiRow.of(
            name,
            parse_scalar(_field(data, "alpha", where, str)),
            [parse_scalar(_expect(v, str, f"{where} 'n' entry"))
             for v in _field(data, "n", where, list)],
            _expect(data.get("note", ""), str, f"{where} 'note'"),
        )
        for key, (i, j, k), want in zip(_ENTRY_KEYS, STRUCTURE_COLUMNS, row.mu0):
            got = parse_scalar(_field(mu, key, f"{where} 'mu'", str))
            if got != want:
                raise ValueError(
                    f"row {name}: constant ({i},{j})->{k} is {got.render()}, "
                    f"structure equations require {want.render()}"
                )
        rows.append(row)
    dynamical = _ops_from_strings(doc, "dynamical", CLASSICAL)
    quantum = _ops_from_strings(doc, "quantum", QUANTUM)
    names = [row.name for row in rows]
    for part, ops in (("dynamical", dynamical), ("quantum", quantum)):
        for name in [*names, *ops]:
            if name not in ops:
                raise ValueError(f"table document: {part} has no type {name!r}")
            if name not in names:
                raise ValueError(f"table document: classification has no type {name!r} "
                                 f"of {part}")
    return BianchiTables(tuple(rows), dynamical, quantum)
