"""The benchmark's own checks: every oracle accepts the engine's answers and
rejects a planted wrong one, the tracer survives a refactor, and the runner
refuses to report without the sources.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import tracing
import workloads
from oplax import operad
from oplax.operad import MultiOp, total_compose
from oplax.scalars import ScalarPoly
from oplax.weyl import QUANTUM, OperatorExpr
from workloads import (
    WORKLOADS,
    QWord,
    check_round_trip,
    check_verify_output,
    expected_normal_form,
    render_and_parse,
    run_cli,
)

ROOT = Path(__file__).resolve().parents[2]


def small_words(seed=5):
    return [w for w in WORKLOADS["quantum-ordering"].build(seed)
            if all(seg[0] == "gens" or max(seg[1:]) <= 3 for seg in w.segments)]


def small_triples(seed=5):
    return [t for t in WORKLOADS["operad-laws"].build(seed) if t[0].dim == 2][:6]


# -- known answers accepted ----------------------------------------------------------

def fingerprint(item):
    if isinstance(item, tuple):
        return tuple(sorted((key, value.render()) for key, value in op.entries.items())
                     for op in item)
    return getattr(item, "segments", None) or getattr(item, "text", None) or item


def test_decks_depend_on_the_seed_only():
    for name in ("operad-laws", "quantum-ordering", "canonical-io"):
        workload = WORKLOADS[name]
        first, again, other = ([fingerprint(i) for i in workload.build(s)] for s in (3, 3, 4))
        assert first == again, name
        assert first != other, name


def test_oracles_accept_the_engine():
    for name, items in (("quantum-ordering", small_words()),
                        ("operad-laws", small_triples()),
                        ("canonical-io", WORKLOADS["canonical-io"].build(5))):
        workload = WORKLOADS[name]
        assert items, name
        for item in items:
            assert workload.check(item, workload.run(item)), (name, item)


def test_quantum_oracle_matches_every_single_block():
    q = WORKLOADS["quantum-ordering"]
    for m in range(1, 5):
        for n in range(1, 5):
            word = QWord((("block", m, n),))
            assert q.check(word, q.run(word)), (m, n)


def test_paper_verify_accepts_the_cli():
    result = run_cli(WORKLOADS["paper-verify"].command)
    assert check_verify_output(result.code, result.stdout)


# -- planted wrong answers rejected ----------------------------------------------------

def test_quantum_oracle_rejects_one_coefficient_off():
    word = QWord((("gens", (2,)), ("block", 3, 2)))
    q = WORKLOADS["quantum-ordering"]
    right = q.run(word)
    some_word = sorted(right.terms)[1]
    wrong = right + OperatorExpr(QUANTUM, [(some_word, ScalarPoly.const(1))])
    assert q.check(word, right)
    assert len(wrong.terms) == len(right.terms)
    assert not q.check(word, wrong)
    assert expected_normal_form(word) != wrong.render()


CORRUPT_AND_RUN = """
import json, sys
from oplax import bianchi, cli
doc = json.loads(bianchi.export_tables())
doc["dynamical"]["II"]["23^1"] = "0"
mutated = bianchi.import_tables(json.dumps(doc)).dynamical
bianchi.dynamical_table = lambda: mutated
sys.exit(cli.run(["verify", "all", "--format", "json"]))
"""


def test_paper_verify_rejects_a_corrupted_table():
    result = run_cli([sys.executable, "-c", CORRUPT_AND_RUN])
    assert result.code == 1
    assert json.loads(result.stdout)["summary"]["failed"] >= 1
    assert not check_verify_output(result.code, result.stdout)


def test_paper_verify_rejects_changed_bytes():
    result = run_cli(WORKLOADS["paper-verify"].command)
    assert not check_verify_output(result.code, result.stdout.replace(b"  ", b" "))
    assert not check_verify_output(1, result.stdout)


def test_operad_oracle_rejects_a_nonzero_defect(monkeypatch):
    f, g, h = small_triples()[0]
    monkeypatch.setattr(operad, "bracket", lambda x, y: total_compose(x, y))
    anti, defect = workloads.operad_laws(f, g, h)
    assert not defect.is_zero
    assert not WORKLOADS["operad-laws"].check((f, g, h), (anti, defect))


def test_operad_oracle_rejects_a_nonzero_antisymmetry_residual():
    triple = small_triples()[0]
    nonzero = next(op for op in triple if not op.is_zero)
    zero = MultiOp(nonzero.dim, nonzero.degree, nonzero.mode)
    assert not WORKLOADS["operad-laws"].check(triple, (nonzero, zero))


def test_round_trip_oracle_rejects_a_bad_text():
    pool = workloads.canonical_pool()
    item = pool["jacobi"][0]
    text, parsed = render_and_parse(item)
    assert check_round_trip(item, text, parsed)
    bad = text.replace("2*", "3*", 1)
    assert bad != text
    assert not check_round_trip(item, bad, parsed)
    reparsed = workloads.weyl.parse_operator(text + " + w", item.kind)
    assert not check_round_trip(item, text, reparsed)
    doc = pool["document"][0]
    text, tables = render_and_parse(doc)
    assert check_round_trip(doc, text, tables)
    broken = text.replace('"1/2 + s^-2 * p"', '"1/2 - s^-2 * p"', 1)
    assert broken != text
    assert not check_round_trip(doc, text, workloads.bianchi.import_tables(broken))


# -- the tracer --------------------------------------------------------------------

def test_tracer_counts_layers_and_restores_the_engine():
    original = OperatorExpr.__init__
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.operation(0, "op.test"):
            WORKLOADS["quantum-ordering"].run(QWord((("block", 2, 2),)))
    finally:
        tracer.uninstall()
    assert OperatorExpr.__init__ is original
    metrics = tracer.layer_metrics(1)
    assert metrics["weyl.construct.calls"] == 1
    # p^2 q^2 takes 6 rewrites of p q into q p - i hbar before it is normal
    assert metrics["weyl.rewrite_muls"] == 6
    assert metrics["weyl.peak_terms"] == 3
    assert metrics["operad.partial_compose.calls"] == 0
    assert all(v >= 0 for v in metrics.values())


def test_tracer_sees_the_calls_the_workloads_make():
    triple = small_triples()[0]
    entry = workloads.canonical_pool()["entries"][0]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.operation(0, "op.triple"):
            WORKLOADS["operad-laws"].run(triple)
        with tracer.operation(1, "op.entry"):
            WORKLOADS["canonical-io"].run(entry)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(1)
    # two brackets for antisymmetry, six inside the Jacobi defect
    assert metrics["operad.jacobi_defect.calls"] == 1
    assert metrics["operad.bracket.calls"] == 8
    assert metrics["weyl.parse.calls"] == 1
    assert metrics["weyl.render.calls"] >= 1


def test_tracer_survives_names_a_refactor_removed(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("gone.class", "oplax.scalars", "NoSuchClass", ("__add__",), False),
        ("gone.method", "oplax.scalars", "ScalarPoly", ("no_such_method",), False),
        ("gone.module", "oplax.no_such_module", None, ("fn",), True),
    ))
    monkeypatch.setattr(tracing, "LAYERS", tracing.LAYERS + ("gone.class", "gone.method",
                                                             "gone.module"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.operation(0, "op.test"):
            f, g, h = small_triples()[0]
            workloads.operad_laws(f, g, h)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(1)
    assert metrics["gone.class.calls"] == metrics["gone.module.calls"] == 0
    assert metrics["operad.bracket.calls"] > 0
    assert metrics["scalars.gauss.calls"] > 0


# -- the runner --------------------------------------------------------------------

def test_runner_refuses_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paper-verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
