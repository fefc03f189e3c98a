"""Verifier sensitivity: a fixed, stratified sample of table-entry mutants.

Each mutant adds one term to one stored entry (and, through
``antisymmetric_binary``, the opposite term to its flip) in the dynamical or
the quantum table.  Every mutant must fail at least one check of the
``cli.SUITES`` suites with hbar symbolic, and every check it fails must name
the mutated type, so a wrong entry is both caught and localised.

The sample covers each of the eleven types in each table, each
``STRUCTURE_COLUMNS`` entry at least once per table, and each delta kind:
+1, +q and +A- in both tables, +hbar and +[A+, A-] in the quantum table.
"""

import pytest

from oplax import bianchi, cli
from oplax.operad import antisymmetric_binary
from oplax.oscillator import STRUCTURE_COLUMNS
from oplax.scalars import symbol
from oplax.weyl import AM, AP, CLASSICAL, Q, QUANTUM, OperatorExpr, commutator

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
