"""Verifier sensitivity: a fixed, stratified sample of table-entry mutants.

Each mutant adds one term to one stored entry (and, through
``antisymmetric_binary``, the opposite term to its flip) in the dynamical or
the quantum table.  Every mutant must fail at least one check of the
``cli.SUITES`` suites with hbar symbolic, and every check it fails must name
the mutated type, so a wrong entry is both caught and localised.

The sample covers each of the eleven types in each table, each
``STRUCTURE_COLUMNS`` entry at least once per table, and each delta kind:
+1, +q and +A- in both tables, +hbar and +[A+, A-] in the quantum table.

Code-level mutants change one constant or function of the engine instead, in
every ``oplax`` module that holds it, and must fail a given check first.  One
survives on purpose: flipping the phase of the commutation relation is hbar ->
-hbar, which no suite can tell apart.
"""

import sys

import pytest

from oplax import bianchi, cli, jacobi, oscillator, weyl
from oplax.operad import antisymmetric_binary
from oplax.oscillator import STRUCTURE_COLUMNS
from oplax.scalars import symbol
from oplax.weyl import AM, AP, CLASSICAL, P, Q, QUANTUM, OperatorExpr, commutator

HBAR = OperatorExpr.scalar(QUANTUM, symbol("hbar"))


def _delta(kind: str, mode: str) -> OperatorExpr:
    if kind == "+1":
        return OperatorExpr.scalar(mode, 1)
    if kind in ("+q", "+A-"):
        return OperatorExpr.generator(mode, Q if kind == "+q" else AM)
    if kind == "+hbar":
        return HBAR
    return commutator(OperatorExpr.generator(mode, AP), OperatorExpr.generator(mode, AM))


#: delta kinds per table; the quantum table also takes the two that vanish or
#: cannot be written classically
DELTAS = {
    "dynamical": ("+1", "+q", "+A-"),
    "quantum": ("+1", "+q", "+A-", "+hbar", "+[A+, A-]"),
}

#: (table, type, 1-based entry key, delta kind): type number t in each table
#: takes column t mod 9 and delta kind t mod len(DELTAS[table])
MUTANTS = tuple(
    (table, name, STRUCTURE_COLUMNS[t % len(STRUCTURE_COLUMNS)], kinds[t % len(kinds)])
    for table, kinds in DELTAS.items()
    for t, name in enumerate(bianchi.TYPE_NAMES))


def test_the_sample_is_stratified():
    for table, kinds in DELTAS.items():
        sample = [m for m in MUTANTS if m[0] == table]
        assert {name for _, name, _, _ in sample} == set(bianchi.TYPE_NAMES)
        assert {key for _, _, key, _ in sample} == set(STRUCTURE_COLUMNS)
        assert {kind for _, _, _, kind in sample} == set(kinds)


def failing_ids(tables) -> list:
    return [check.id for suite in cli.SUITES.values()
            for check in suite(tables, False) if not check.passed]


def test_the_builtin_tables_fail_no_check():
    assert failing_ids(bianchi.builtin_tables()) == []


@pytest.mark.parametrize("table, name, key, kind", MUTANTS,
                         ids=[f"{t}-{n}-{''.join(map(str, k))}{d}" for t, n, k, d in MUTANTS])
def test_a_table_entry_mutant_fails_a_check_that_names_its_type(table, name, key, kind):
    mode = CLASSICAL if table == "dynamical" else QUANTUM
    builtin = bianchi.builtin_tables()
    ops = dict(getattr(builtin, table))
    ops[name] = ops[name] + antisymmetric_binary(3, mode, {key: _delta(kind, mode)})
    assert ops[name] != getattr(builtin, table)[name]
    failing = failing_ids(builtin._replace(**{table: ops}))
    assert failing, "the mutant passes every suite"
    strangers = [cid for cid in failing if name not in cid.split(".")]
    assert not strangers, f"failing checks that do not name {name}: {strangers}"


def _swap_columns(columns, first=(2, 3, 1), second=(2, 3, 2)):
    swapped = {first: second, second: first}
    return tuple(swapped.get(column, column) for column in columns)


def _double_j3(closed_form_jacobi):
    def mutant(*args):
        j1, j2, j3 = closed_form_jacobi(*args)
        return j1, j2, j3 + j3
    return mutant


#: (home module, name, original -> mutant, the first check that fails)
CODE_MUTANTS = {
    "ddt-image-sign": (oscillator, "_DDT_IMAGES",
                       lambda images: {**images, Q: (images[Q][0], -images[Q][1])},
                       "matrix-lax.entry.12"),
    "rotation-sign": (oscillator, "rotation_op", lambda rotation_op: lambda: -rotation_op(),
                      "matrix-lax.entry.11"),
    "columns-swapped": (oscillator, "STRUCTURE_COLUMNS", _swap_columns, "tables.derive.II"),
    "family-gamma-zero": (bianchi, "_FAMILY_PARAMS",
                          lambda params: {**params, "VII_a": (1, 0, *params["VII_a"][2:])},
                          "tables.family.VII_a"),
    "closed-form-j3-doubled": (jacobi, "closed_form_jacobi", _double_j3, "theorem-9-1.J3"),
    "p0-doubled": (oscillator, "P0", lambda p0: p0 + p0, "tables.derive.II"),
}

#: (re, im) of i^k in place of (-i)^k: the contraction p q -> +i hbar
PHASE_FLIPPED = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _mutate(monkeypatch, home, name, make) -> None:
    """Set ``name`` to ``make(original)`` in every loaded oplax module that holds it."""
    original = getattr(home, name)
    mutant = make(original)
    holders = [module for key, module in list(sys.modules.items())
               if (key == "oplax" or key.startswith("oplax."))
               and getattr(module, name, None) is original]
    assert home in holders
    for module in holders:
        monkeypatch.setattr(module, name, mutant)


@pytest.mark.parametrize("home, name, make, first", CODE_MUTANTS.values(), ids=CODE_MUTANTS)
def test_a_code_mutant_fails_its_first_check(monkeypatch, home, name, make, first):
    _mutate(monkeypatch, home, name, make)
    failing = failing_ids(bianchi.builtin_tables())
    assert failing[:1] == [first], failing[:3]


def test_the_commutation_phase_mutant_survives_every_suite(monkeypatch):
    ph, qh = (OperatorExpr.generator(QUANTUM, gen) for gen in (P, Q))
    assert (ph * qh).render() == "-i*hbar + qh ph"
    _mutate(monkeypatch, weyl, "_MINUS_I_POWERS", lambda powers: PHASE_FLIPPED)
    # the mutant is live: p q now contracts to +i hbar ...
    assert (ph * qh).render() == "i*hbar + qh ph"
    # ... and every suite still passes, since hbar -> -hbar keeps every claim
    assert failing_ids(bianchi.builtin_tables()) == []
