"""Verifier sensitivity: planted faults that the checks must catch, and where.

Table-entry mutants add one term to one stored entry (and, through
``antisymmetric_binary``, the opposite term to its flip) in the dynamical or
the quantum table.  Every such mutant must fail at least one check of the
``cli.SUITES`` suites with hbar symbolic, and every check it fails must name
the mutated type, so a wrong entry is both caught and localised.  The sample
covers each of the eleven types in each table, each ``STRUCTURE_COLUMNS`` entry
at least once per table, and each delta kind: +1, +q and +A- in both tables,
+hbar and +[A+, A-] in the quantum table.

Code mutants change one constant or function of the engine, in every ``oplax``
module that holds it; most recompile one function from its source with one
expression changed.  ``CODE_MUTANTS`` is their one registry, and each row states
one contract: under the mutant every tier-1 test the row names raises
``AssertionError``, and the first check of the suites that fails is the one the
row names, or none at all when it names ``None``.  A row names a test, a check
or both, so no mutant is left unchecked.

The rows with ``None`` record the suite survivors, faults that every suite
passes and only tier-1 catches.  Flipping the phase of the commutation relation
is hbar -> -hbar, which no suite can tell apart; a normal form that drops the
contraction term or leaves a classical word unsorted passes too.  No suite check
depends on the -i hbar of a p q contraction in a composite.  A key's decode is seen:
the closed-form check reads the cyclic sum S of mu o_1 mu through ``sorted_entries``;
on a Lie row S cancels on its codes, before any decode.  No suite forms a total
composition of an operation of degree 3 or more: its only bracket is [M, mu]
with mu binary.  Nor does any suite parse text or mix modes, and with hbar
symbolic none substitutes a value for a symbol.
"""

import functools
import inspect
import sys
import textwrap

import pytest

import test_grammar
import test_jacobi
import test_operad
import test_scalars
import test_schrodinger
import test_sparse_sum
import test_weyl
from oplax import bianchi, cli, jacobi, operad, oscillator, scalars, weyl
from oplax.operad import MultiOp, antisymmetric_binary
from oplax.oscillator import STRUCTURE_COLUMNS
from oplax.scalars import ScalarPoly, symbol
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


def _rewrite(old, new):
    """original -> mutant: the function recompiled from its source with the one
    occurrence of ``old`` replaced by ``new``, in the globals of its module."""
    def make(fn):
        source = textwrap.dedent(inspect.getsource(fn))
        assert source.count(old) == 1, f"{old!r} is not in {fn.__name__} once"
        namespace: dict = {}
        exec(compile(source.replace(old, new), inspect.getsourcefile(fn), "exec"),
             fn.__globals__, namespace)
        return namespace[fn.__name__]
    return make


#: (re, im) of i^k in place of (-i)^k: the contraction p q -> +i hbar
PHASE_FLIPPED = ((1, 0), (0, 1), (-1, 0), (0, -1))

#: id -> (home module or class, name, original -> mutant, tier-1 tests that each fail,
#: the first suite check that fails or None when every suite passes)
CODE_MUTANTS = {
    # the oscillator, the tables and the closed form
    "ddt-image-sign": (oscillator, "_DDT_IMAGES",
                       lambda images: {**images, Q: (*images[Q][:2], -images[Q][2])},
                       (), "matrix-lax.entry.12"),
    "rotation-sign": (oscillator, "rotation_op", lambda rotation_op: lambda: -rotation_op(),
                      (), "matrix-lax.entry.11"),
    "columns-swapped": (oscillator, "STRUCTURE_COLUMNS", _swap_columns, (), "tables.derive.II"),
    "family-gamma-zero": (bianchi, "_FAMILY_PARAMS",
                          lambda params: {**params, "VII_a": (1, 0, *params["VII_a"][2:])},
                          (), "tables.family.VII_a"),
    "closed-form-j3-doubled": (jacobi, "closed_form_jacobi", _double_j3, (), "theorem-9-1.J3"),
    "p0-doubled": (oscillator, "P0", lambda p0: p0 + p0, (), "tables.derive.II"),
    # A+ takes A-'s start value, 0
    "start-a-plus-zero": (oscillator, "_START_VALUES", lambda values: {**values, AP: values[AM]},
                          (), "tables.initial.V"),
    # the composition kernel and the key code.  g's inputs land one power of dim too
    # high in the composite's code
    "slot-shift-off-by-one-power": (
        operad, "_compose_into",
        _rewrite("_by_slot(g, 1, low, sign)", "_by_slot(g, 1, low * f.dim, sign)"),
        (test_operad.test_degree_one_composition_is_matrix_product,), "matrix-lax.entry.12"),
    # the graded sign of f o_pos g read off f's reduced degree, not g's; it also fails
    # both composition laws, whose failing draws take about a minute to shrink
    "sign-from-the-left-degree": (
        operad, "_compose_into", _rewrite("(pos * (g.degree - 1))", "(pos * (f.degree - 1))"),
        (test_operad.test_a_quantum_parallel_defect_is_the_contraction_of_its_entries,),
        "operadic-lax.II.311"),
    # f's digits after the slot moved up past g's inputs, where g's inputs also land;
    # it also fails both composition laws
    "low-digits-above-the-inputs": (
        operad, "_by_slot", _rewrite("code % low,", "code % low * (wide // low),"),
        (test_operad.test_a_quantum_parallel_defect_is_the_contraction_of_its_entries,),
        "matrix-lax.entry.12"),
    # the total composition skips f's last slot from degree 3 on; the composition laws
    # also fail it, but their failing draws shrink for minutes
    "total-skips-the-last-slot": (
        operad, "_total_into",
        _rewrite("range(f.degree)", "range(f.degree if f.degree < 3 else f.degree - 1)"),
        (test_operad.test_jacobi_defect_vanishes_for_scalar_entries,
         test_operad.test_a_dynamical_row_composed_with_itself_solves_the_lax_equation), None),
    # an imaginary group against a real one drops its imaginary parts: a composite's
    # p q loses its -i hbar
    "real-path-for-an-imaginary-row": (
        operad, "_mul_rows_into", _rewrite("if real1 and real2:", "if real2:"),
        (test_operad.test_a_quantum_composition_contracts_its_p_q_junction,), None),
    # the last index decoded as the most significant
    "codes-decoded-in-reverse": (
        MultiOp, "sorted_entries",
        _rewrite("range(self.degree, -1, -1)", "range(self.degree + 1)"),
        (test_operad.test_composition_index_conventions,), "theorem-9-1.J1"),
    # each index decoded from the digit one place higher, so the first reads 0
    "decode-off-by-one-power": (
        MultiOp, "sorted_entries",
        _rewrite("range(self.degree, -1, -1)", "range(self.degree + 1, 0, -1)"),
        (test_operad.test_composition_index_conventions,), "theorem-9-1.J1"),
    # a key coded last index first: composition reads its output index as its first input
    "code-built-least-significant-first": (
        MultiOp, "_code", _rewrite("for idx in key:", "for idx in reversed(key):"),
        (test_operad.test_composition_index_conventions,), "matrix-lax.entry.11"),
    # products that keep one path.  A scalar product keeps the left factor's monomial
    "scalar-product-drops-the-right-exponent": (
        ScalarPoly, "__mul__", _rewrite("add_exponents(e1, e2)", "e1"),
        (test_scalars.test_laurent_cancellation,), "matrix-lax.det-energy"),
    # the contraction reads each coefficient of S by its real part alone: every -i hbar
    # of a table's S is lost
    "jacobi-drops-the-imaginary-part": (
        jacobi, "jacobi_op", _rewrite("g * w", "GaussRat(g.re) * w"),
        (test_jacobi.test_the_i_hbar_of_a_p_q_junction_reaches_the_jacobi_operator,), None),
    # the cyclic sum leaves out its last rotation: S[abc] misses T[bca]
    "cyclic-sum-skips-a-rotation": (
        operad, "cyclic_sum", _rewrite("range(op.degree)", "range(op.degree - 1)"),
        (functools.partial(test_operad.test_cyclic_sum_matches_the_tuple_keyed_reference,
                           kind="constant", dim=3),
         test_jacobi.test_jacobi_op_type_v_on_basis_vectors), "jacobi-classical.VII"),
    # the one substitution, ScalarPoly.subst and OperatorExpr.subst_params: a bound symbol
    # keeps its exponent, so only a binding to 0 or 1 gives the right value
    "bound-symbol-keeps-its-exponent": (
        ScalarPoly, "subst",
        _rewrite("tuple(0 if i in values else e for i, e in enumerate(exp))", "exp"),
        (test_scalars.test_subst_examples, functools.partial(
            test_weyl.test_an_expression_rejects_an_unknown_symbol_or_a_non_rational_value,
            expr=test_weyl.SUBST_EXPRS[1])), None),
    # the text route.  "(1+2*i)" is read as a malformed coefficient
    "times-i-lookahead-dropped": (
        scalars, "_parse_gauss",
        _rewrite('tokens[pos][5] == "*" and tokens[pos + 1][5] == "i"', "False"),
        (test_grammar.test_the_parser_agrees_with_the_oracle,), None),
    # "x1 -" is read as x1
    "trailing-sign-check-dropped": (
        scalars, "parse_terms", _rewrite('elif "+" in text or "-" in text:', "elif False:"),
        (test_grammar.test_the_parser_agrees_with_the_oracle,), None),
    # the operand gate: a mode mismatch hands the operation back too, so Python raises
    # TypeError where cross-mode arithmetic must raise ValueError
    "gate-hands-back-a-value-error": (
        scalars, "_coerced", _rewrite("except TypeError:", "except (TypeError, ValueError):"),
        (test_sparse_sum.test_a_mode_mismatch_compares_false_and_does_not_raise,), None),
    # normal ordering, seen by the Schrodinger witnesses.  p q -> q p + i hbar
    "phase-flipped": (
        weyl, "_MINUS_I_POWERS", lambda powers: PHASE_FLIPPED,
        (test_schrodinger.test_normal_ordering_agrees_with_the_schrodinger_representation,), None),
    # p q -> q p with no contraction term
    "contraction-dropped": (
        weyl, "_normal_form",
        _rewrite("stack += (head + (Q, P) + tail, head + tail)",
                 "stack.append(head + (Q, P) + tail)"),
        (test_schrodinger.test_normal_ordering_agrees_with_the_schrodinger_representation,), None),
    # the same flip seen through products
    "phase-flipped-in-a-product": (
        weyl, "_MINUS_I_POWERS", lambda powers: PHASE_FLIPPED,
        (test_schrodinger.test_a_product_acts_as_its_factors_in_turn,), None),
    # u * v normal-orders v's word followed by u's
    "product-joined-in-reverse": (
        OperatorExpr, "__mul__", _rewrite("w1 + w2", "w2 + w1"),
        (test_schrodinger.test_a_product_acts_as_its_factors_in_turn,), "theorem-9-1.J1"),
    # a classical word keeps the order it came in: the constructor and the composition
    # kernel both read weyl._normal_form, so a test of each fails
    "classical-word-left-unsorted": (
        weyl, "_normal_form", _rewrite("tuple(sorted(word))", "word"),
        (test_weyl.test_classical_words_commute,
         functools.partial(test_weyl.test_product_kernel_matches_the_old_route, mode=CLASSICAL)),
        None),
}

assert all(tests or first for *_, tests, first in CODE_MUTANTS.values()), \
    "a code mutant names neither a tier-1 test nor a suite check"


def _mutate(monkeypatch, home, name, make) -> None:
    """Set ``name`` to ``make(original)`` in every loaded oplax module that holds it; a
    class ``home``'s function is set under each name an oplax class holds it by, as
    ``__rmul__`` for ``__mul__`` or ``OperatorExpr.subst_params`` for ``ScalarPoly.subst``."""
    original = getattr(home, name)
    mutant = make(original)
    modules = [module for key, module in list(sys.modules.items())
               if key == "oplax" or key.startswith("oplax.")]
    if isinstance(home, type):
        classes = {value for module in modules for value in vars(module).values()
                   if isinstance(value, type)}
        assert home in classes
        for cls in classes:
            for alias in [key for key, value in vars(cls).items() if value is original]:
                monkeypatch.setattr(cls, alias, mutant)
        return
    holders = [module for module in modules if getattr(module, name, None) is original]
    assert home in holders
    for module in holders:
        monkeypatch.setattr(module, name, mutant)


@pytest.mark.parametrize("home, name, make, tests, first", CODE_MUTANTS.values(),
                         ids=CODE_MUTANTS)
def test_a_code_mutant_fails_its_first_check(monkeypatch, home, name, make, tests, first):
    _mutate(monkeypatch, home, name, make)
    for test in tests:
        with pytest.raises(AssertionError):
            test()
    failing = failing_ids(bianchi.builtin_tables())
    assert failing[:1] == ([first] if first else []), failing[:3]


def test_the_commutation_phase_mutant_survives_every_suite(monkeypatch):
    ph, qh = (OperatorExpr.generator(QUANTUM, gen) for gen in (P, Q))
    assert (ph * qh).render() == "-i*hbar + qh ph"
    _mutate(monkeypatch, weyl, "_MINUS_I_POWERS", lambda powers: PHASE_FLIPPED)
    # the mutant is live: p q now contracts to +i hbar ...
    assert (ph * qh).render() == "i*hbar + qh ph"
    # ... and every suite still passes, since hbar -> -hbar keeps every claim
    assert failing_ids(bianchi.builtin_tables()) == []
