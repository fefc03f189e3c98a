"""End-to-end acceptance suite.

Each test prints one pass/fail line.  Every comparison is exact: a check
passes only when the residual is the literal zero of the canonical form.
Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they go.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from oplax import bianchi, cli, jacobi
from oplax.operad import MultiOp, bracket, jacobi_defect
from oplax.oscillator import (
    INV_2P0,
    STRUCTURE_COLUMNS,
    at_initial,
    coeffs_from_initial,
    ddt,
    deformed_structure_op,
    det3,
    hamiltonian,
    lax_pair,
    rotation_op,
    verify_matrix_lax,
    verify_operadic_lax,
)
from oplax.scalars import GaussRat, ScalarPoly, symbol
from oplax.weyl import AM, AP, CLASSICAL, P, Q, QUANTUM, OperatorExpr


def _conclude(name, ok, extra=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert ok, line


def test_a1_matrix_lax():
    start = time.perf_counter()
    checks = verify_matrix_lax()
    l_matrix = lax_pair().l_matrix
    det = det3(*([l_matrix.entry((j,), i) for j in range(3)] for i in range(3)))
    det_rate = ddt(det)
    energy = det + hamiltonian() + hamiltonian()
    elapsed = time.perf_counter() - start
    ok = (len(checks) == 11 and all(c.passed for c in checks)
          and det_rate.is_zero and energy.is_zero and elapsed < 1.0)
    _conclude("A1 matrix Lax pair", ok, f"{elapsed:.3f}s")


def test_a2_operadic_lax_all_rows():
    start = time.perf_counter()
    # the hand oracle for the first deformed type pins the index convention:
    # entry (2,3)->1 equals -w^2 q / (2 p0) on both sides
    w, o_q = symbol("w"), OperatorExpr.generator(CLASSICAL, Q)
    mu_ii = bianchi.dynamical_table()["II"]
    lhs = ddt(mu_ii.entry((1, 2), 0))
    rhs = bracket(rotation_op(), mu_ii).entry((1, 2), 0)
    oracle = -(w * w) * o_q * INV_2P0
    ok = lhs == oracle and rhs == oracle
    total = 0
    for name, mu in bianchi.dynamical_table().items():
        checks = verify_operadic_lax(mu, label=name)
        ok = ok and len(checks) == 27 and all(c.passed for c in checks)
        total += len(checks)
    elapsed = time.perf_counter() - start
    ok = ok and total == 297 and elapsed < 5.0
    _conclude("A2 operadic Lax, eleven rows x 27 entries", ok,
              f"{elapsed:.3f}s")


def test_a3_table_regeneration():
    stored = bianchi.dynamical_table()
    comparisons = 0
    ok = True
    for row in bianchi.classification_rows():
        regenerated = deformed_structure_op(coeffs_from_initial(row.mu0))
        for i, j, k in STRUCTURE_COLUMNS:
            ok = ok and (regenerated.entry((i - 1, j - 1), k - 1)
                         == stored[row.name].entry((i - 1, j - 1), k - 1))
            comparisons += 1
        for column, (i, j, k) in enumerate(STRUCTURE_COLUMNS):
            value = at_initial(stored[row.name].entry((i - 1, j - 1), k - 1))
            ok = ok and value == OperatorExpr.scalar(CLASSICAL, row.mu0[column])
            comparisons += 1
    ok = ok and comparisons == 198
    _conclude("A3 table regeneration and initial values", ok,
              f"{comparisons} exact entry comparisons")


def test_a4_classical_lie_rows():
    checks = jacobi.verify_classical_lie_rows(bianchi.classification_rows())
    _conclude("A4 classical Jacobi identity, eleven rows",
              len(checks) == 11 and all(c.passed for c in checks))


def test_a5_quantum_lie_types():
    checks = jacobi.verify_quantum_lie_types(bianchi.quantum_table())
    _conclude("A5 quantum Jacobi identity, six types, symbolic hbar",
              len(checks) == 6 and all(c.passed for c in checks))


def test_a6_closed_form_fully_symbolic():
    start = time.perf_counter()
    checks = jacobi.verify_closed_form()
    elapsed = time.perf_counter() - start
    ok = len(checks) == 4 and all(c.passed for c in checks) and elapsed < 10.0
    _conclude("A6 closed-form Jacobi operator, all parameters symbolic", ok,
              f"{elapsed:.3f}s")


def test_a7_closed_form_specializations():
    checks = jacobi.verify_closed_form_specializations(bianchi.quantum_table())
    ok = len(checks) == 5 and all(c.passed for c in checks)
    # explicit form for the first family type: (0, 0, det/p0 [A+, A-])
    x, y, z = (jacobi.symbolic_vec(prefix) for prefix in "xyz")
    result = jacobi.jacobi_op(x, y, z, bianchi.quantum_table()["V"])
    from oplax.weyl import commutator

    want = (jacobi.det3(x, y, z) * ScalarPoly.monomial(2, {"s": -2})) * \
        commutator(OperatorExpr.generator(QUANTUM, AP),
                   OperatorExpr.generator(QUANTUM, AM))
    ok = ok and result[0].is_zero and result[1].is_zero and result[2] == want
    _conclude("A7 closed form specialized to the five family types", ok)


def _random_scalar_op(rng, dim, degree):
    density = 0.5 if degree <= 2 else (0.4 if dim == 2 else 0.25)
    entries = {}
    for key in itertools.product(range(dim), repeat=degree + 1):
        if rng.random() < density:
            value = rng.randint(-3, 3)
            if value:
                entries[key] = OperatorExpr.scalar(CLASSICAL, value)
    return MultiOp(dim, degree, CLASSICAL, entries)


def test_a8_graded_lie_property_suite():
    rng = random.Random(20260809)
    triples = 0
    ok = True
    for _ in range(2):
        for dim in (2, 3):
            for degrees in itertools.product((1, 2, 3), repeat=3):
                f, g, h = (_random_scalar_op(rng, dim, d) for d in degrees)
                sign_odd = (f.reduced_degree * g.reduced_degree) % 2 == 1
                anti = bracket(f, g) + \
                    (-bracket(g, f) if sign_odd else bracket(g, f))
                ok = ok and anti.is_zero and jacobi_defect(f, g, h).is_zero
                triples += 1
    ok = ok and triples >= 100

    minus_i_hbar = ScalarPoly.monomial(GaussRat(0, -1), {"hbar": 1})
    words = 0
    for _ in range(200):
        word = tuple(rng.choice((Q, P, AP, AM))
                     for _ in range(rng.randint(0, 8)))
        canonical = OperatorExpr(QUANTUM, [(word, ScalarPoly.const(1))])
        # independent route: rewrite at randomly chosen applicable positions
        acc = {}
        stack = [(word, ScalarPoly.const(1))]
        while stack:
            w, c = stack.pop()
            spots = [j for j in range(len(w) - 1)
                     if w[j] == P and w[j + 1] == Q]
            if not spots:
                total = acc.get(w, ScalarPoly.zero()) + c
                if total.is_zero:
                    acc.pop(w, None)
                else:
                    acc[w] = total
                continue
            j = rng.choice(spots)
            stack.append((w[:j] + (Q, P) + w[j + 2:], c))
            stack.append((w[:j] + w[j + 2:], c * minus_i_hbar))
        ok = ok and OperatorExpr(QUANTUM, acc) == canonical
        words += 1
    ok = ok and words >= 200
    _conclude("A8 graded Lie laws and rewriting confluence", ok,
              f"{triples} triples, {words} words")


def test_a9_derivation_consistency():
    ap = OperatorExpr.generator(CLASSICAL, AP)
    am = OperatorExpr.generator(CLASSICAL, AM)
    w = symbol("w")
    radial = ap * ap - am * am - 2 * OperatorExpr.generator(CLASSICAL, P)
    angular = ap * am - w * OperatorExpr.generator(CLASSICAL, Q)
    ok = (ddt(radial) == -2 * w * angular
          and ddt(angular) == w * Fraction(1, 2) * radial)
    _conclude("A9 derivation preserves the defining relations", ok)


def test_a10_cli_contract(monkeypatch, capsys):
    command = [sys.executable, "-m", "oplax", "verify", "all",
               "--format", "json"]
    first = subprocess.run(command, capture_output=True, timeout=300)
    second = subprocess.run(command, capture_output=True, timeout=300)
    ok = (first.returncode == 0 and second.returncode == 0
          and first.stdout == second.stdout and len(first.stdout) > 0)
    if ok:
        summary = json.loads(first.stdout)["summary"]
        ok = summary["failed"] == 0 and summary["total"] == summary["passed"]

    # a corrupted table must force exit status 1
    doc = json.loads(bianchi.export_tables())
    doc["dynamical"]["II"]["23^1"] = "0"
    mutated = bianchi.import_tables(json.dumps(doc)).dynamical
    monkeypatch.setattr(bianchi, "dynamical_table", lambda: mutated)
    code = cli.run(["verify", "tables", "--format", "json"])
    capsys.readouterr()
    ok = ok and code == 1
    _conclude("A10 CLI determinism and exit-status contract", ok)
