import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

from oplax import bianchi, cli, jacobi
from oplax.operad import antisymmetric_binary
from oplax.weyl import CLASSICAL, QUANTUM, parse_operator


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_all_json_green(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"checks", "summary"}
    assert doc["summary"]["failed"] == 0
    assert doc["summary"]["total"] == doc["summary"]["passed"] == len(doc["checks"])
    for check in doc["checks"]:
        assert set(check) <= {"id", "paper_ref", "status", "residual", "detail"}
        assert check["status"] == "pass"
        if "residual" in check:
            assert check["residual"] == "0"
    ids = [check["id"] for check in doc["checks"]]
    assert len(ids) == len(set(ids)), "check ids must be unique"


def test_verify_all_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify", "all", "--format", "json")
    _, second, _ = run_cli(capsys, "verify", "all", "--format", "json")
    assert first == second


def test_text_format_lines(capsys):
    code, out, _ = run_cli(capsys, "verify", "matrix-lax")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 11
    pattern = re.compile(r"^\[(PASS|FAIL)\] \S+ — .+$")
    assert all(pattern.match(line) for line in lines)


def test_operadic_lax_with_type_filter(capsys):
    code, out, _ = run_cli(capsys, "verify", "operadic-lax", "--type", "II",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["total"] == 27
    assert all(check["id"].startswith("operadic-lax.II.")
               for check in doc["checks"])


def test_type_filter_rejected_elsewhere(capsys):
    code, _, err = run_cli(capsys, "verify", "tables", "--type", "II")
    assert code == 2
    assert "operadic-lax" in err


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "verify", "bogus")[0] == 2
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys, "compute", "jacobi", "--type", "nope")[0] == 2
    assert run_cli(capsys, "compute", "jacobi", "--type", "V")[0] == 2
    code, _, err = run_cli(capsys, "compute", "jacobi", "--type", "V",
                           "--x", "1,2", "--y", "0,1,0", "--z", "0,0,1")
    assert code == 2 and "--x" in err
    # --symbolic takes no vector: one stderr line naming the flags it got, no traceback
    for given in (("--x", "1,2,3"), ("--y", "0,1,0", "--z", "0,0,1")):
        code, out, err = run_cli(capsys, "compute", "jacobi", "--type", "V", "--symbolic",
                                 *given)
        assert code == 2 and out == "" and err.count("\n") == 1
        assert "--symbolic" in err and all(flag in err for flag in given[::2])
        assert "Traceback" not in err
    # exponent notation is refused before Fraction can build a huge power of 10
    code, out, err = run_cli(capsys, "compute", "jacobi", "--type", "V",
                             "--x", "1e5000,0,0", "--y", "0,1,0", "--z", "0,0,1")
    assert code == 2 and "--x" in err and "exponent" in err and out == ""
    # digit separators and non-ASCII digits are refused on every Python version
    for bad in (("--x", "1_0,0,0", "--y", "0,1,0"), ("--y", "0,\u0661,0", "--x", "1,0,0")):
        code, out, err = run_cli(capsys, "compute", "jacobi", "--type", "V", *bad,
                                 "--z", "0,0,1")
        assert code == 2 and bad[0] in err and out == ""
    # a result coefficient past the int-to-str digit limit exits 2, prints nothing
    big = "1" * 2001
    code, out, err = run_cli(capsys, "compute", "jacobi", "--type", "V",
                             "--x", f"{big},0,0", "--y", f"0,{big},0",
                             "--z", f"0,0,{big}")
    assert code == 2 and "too large" in err and out == ""


def test_compute_jacobi_type_v(capsys):
    code, out, _ = run_cli(capsys, "compute", "jacobi", "--type", "V",
                           "--x", "1,0,0", "--y", "0,1,0", "--z", "0,0,1")
    assert code == 0
    assert out == ("J1 = 0\n"
                   "J2 = 0\n"
                   "J3 = 2*s^-2 * (Ah+ Ah- - Ah- Ah+)\n")


def test_compute_jacobi_json_and_rationals(capsys):
    code, out, _ = run_cli(capsys, "compute", "jacobi", "--type", "V",
                           "--x", "1/2,0,0", "--y", "0,1,0", "--z", "0,0,1",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"J1", "J2", "J3"}
    assert doc["J1"] == "0"
    assert doc["J3"] == "s^-2 * Ah+ Ah- - s^-2 * Ah- Ah+"


def test_compute_jacobi_symbolic(capsys):
    code, out, _ = run_cli(capsys, "compute", "jacobi", "--type", "IX",
                           "--symbolic")
    assert code == 0
    assert out == "J1 = 0\nJ2 = 0\nJ3 = 0\n"


def test_hbar_zero_stays_green(capsys):
    code, out, _ = run_cli(capsys, "verify", "jacobi-quantum", "--hbar", "0",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["summary"]["failed"] == 0


def test_corrupted_table_forces_exit_1(capsys, monkeypatch):
    doc = json.loads(bianchi.export_tables())
    doc["dynamical"]["II"]["23^1"] = "0"
    mutated = bianchi.import_tables(json.dumps(doc)).dynamical
    monkeypatch.setattr(bianchi, "dynamical_table", lambda: mutated)
    code, out, _ = run_cli(capsys, "verify", "tables", "--format", "json")
    assert code == 1
    report = json.loads(out)
    assert report["summary"]["failed"] >= 1
    failing = [c for c in report["checks"] if c["status"] == "fail"]
    assert any(c["id"] == "tables.derive.II" for c in failing)
    assert all(c["residual"] != "0" for c in failing)


def test_corrupted_table_fails_operadic_lax_too(capsys, monkeypatch):
    doc = json.loads(bianchi.export_tables())
    doc["dynamical"]["VII"]["23^1"] = "s^-2 * p"
    mutated = bianchi.import_tables(json.dumps(doc)).dynamical
    monkeypatch.setattr(bianchi, "dynamical_table", lambda: mutated)
    code, _, _ = run_cli(capsys, "verify", "operadic-lax", "--type", "VII")
    assert code == 1


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "oplax", "verify", "matrix-lax"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.count("[PASS]") == 11


#: one command of each kind; both write their output through the same try in ``cli.run``
WRITERS = {
    "verify": ["verify", "matrix-lax"],
    "compute": ["compute", "jacobi", "--type", "V", "--x", "1,0,0", "--y", "0,1,0",
                "--z", "0,0,1"],
}


def run_with_stdout(stdout, command, unbuffered):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "oplax", *WRITERS[command]], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env, timeout=120)


def assert_one_line_and_exit_2(proc, reason):
    # buffered, the rest of the output would fail again at exit ("Exception
    # ignored", exit 120) unless stdout is sent to the null device
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"cannot write the output: {reason}\n"


@pytest.mark.parametrize("unbuffered", (True, False), ids=("unbuffered", "buffered"))
@pytest.mark.parametrize("command", WRITERS)
def test_a_closed_pipe_exits_2_with_one_line(command, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child writes, so the write meets EPIPE
    try:
        proc = run_with_stdout(write_end, command, unbuffered)
    finally:
        os.close(write_end)
    assert_one_line_and_exit_2(proc, "Broken pipe")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("unbuffered", (True, False), ids=("unbuffered", "buffered"))
@pytest.mark.parametrize("command", WRITERS)
def test_a_full_device_exits_2_with_one_line(command, unbuffered):
    with open("/dev/full", "w") as full:
        proc = run_with_stdout(full, command, unbuffered)
    assert_one_line_and_exit_2(proc, "No space left on device")


def test_cli_import_skips_dataclasses_and_inspect():
    # dataclasses imports inspect, ast, dis and tokenize: about 11 ms of start-up
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import oplax.cli, sys; "
         "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_the_package_binds_only_its_modules():
    # the modules are the API (oplax.operad.MultiOp); the package re-exports nothing
    proc = subprocess.run(
        [sys.executable, "-c", "import json, types, oplax; "
         "names = lambda: {name: value.__name__ if isinstance(value, types.ModuleType) "
         "else None for name, value in vars(oplax).items() if not name.startswith('_')}; "
         "bare = names(); import oplax.cli; print(json.dumps([bare, names()]))"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    bare, loaded = json.loads(proc.stdout)
    assert bare == {}
    assert loaded == {name: f"oplax.{name}" for name in (
        "bianchi", "cli", "jacobi", "operad", "oscillator", "report", "scalars", "weyl")}


#: sha256 of ``oplax verify all --format json`` stdout; any byte change in the
#: report (a check id, a rendering, the order) changes it
VERIFY_ALL_JSON_SHA256 = "13367951390e22cb42b2229c849016135883b6891102dadf71d7ce5bcc176843"


@pytest.mark.parametrize("hash_seed", ("0", "1"))
def test_verify_all_json_is_byte_identical(hash_seed):
    # the composite's wrap iterates set unions, whose order the hash seed sets
    proc = subprocess.run(
        [sys.executable, "-m", "oplax", "verify", "all", "--format", "json"],
        capture_output=True, timeout=120, env={**os.environ, "PYTHONHASHSEED": hash_seed},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["summary"] == {"total": 373, "passed": 373, "failed": 0}
    assert hashlib.sha256(proc.stdout).hexdigest() == VERIFY_ALL_JSON_SHA256


#: sha256 of the clean ``verify all`` text report; no check in it carries a
#: residual, so ``--hbar 0`` prints the same bytes
VERIFY_ALL_TEXT_SHA256 = "b249d1cb734494ef2c8e8ba25908ead9b738876efa4777fcc958e667af9e5adc"


def test_verify_all_reports_are_byte_identical(capsys):
    for args, digest in (((), VERIFY_ALL_TEXT_SHA256),
                         (("--hbar", "0"), VERIFY_ALL_TEXT_SHA256),
                         (("--format", "json", "--hbar", "0"), VERIFY_ALL_JSON_SHA256)):
        code, out, _ = run_cli(capsys, "verify", "all", *args)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, args


#: sha256 of every `compute jacobi --symbolic` output, over the types, both
#: formats and both hbar settings, concatenated in that loop order
COMPUTE_JACOBI_SHA256 = "02f7b72745331c5963e26521b35cde8e564b7e9278505bc2f9ceaf61e17b71b2"


def test_compute_jacobi_is_byte_identical(capsys):
    text = ""
    for name in bianchi.TYPE_NAMES:
        for fmt in ("text", "json"):
            for hbar in ("symbolic", "0"):
                code, out, _ = run_cli(capsys, "compute", "jacobi", "--type", name,
                                       "--symbolic", "--format", fmt, "--hbar", hbar)
                assert code == 0
                text += out
    assert hashlib.sha256(text.encode()).hexdigest() == COMPUTE_JACOBI_SHA256


#: sha256 of single `compute jacobi` runs: VI_a's symbolic operator as text, which
#: the sweep above covers only inside its concatenation, and type V's on the basis
#: vectors at hbar = 0, which no other digest covers
COMPUTE_JACOBI_SINGLE_SHA256 = {
    ("--type", "VI_a", "--symbolic"):
        "b78d2754fc080f5c6d8205456e5ded700ec3930629a67a91cee10d7432974b09",
    ("--type", "V", "--x", "1,0,0", "--y", "0,1,0", "--z", "0,0,1", "--format", "json",
     "--hbar", "0"):
        "c5c7e7886b1bbff42460a53f403e0d76650f242f4815135570e17a0ca9d0fb54",
}


@pytest.mark.parametrize("args", COMPUTE_JACOBI_SINGLE_SHA256, ids=("VI_a-symbolic", "V-hbar0"))
def test_a_single_compute_jacobi_run_is_byte_identical(capsys, args):
    code, out, _ = run_cli(capsys, "compute", "jacobi", *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == COMPUTE_JACOBI_SINGLE_SHA256[args]


#: sha256 of the family member VII_a's symbolic Jacobi operator in JSON: its weights are
#: ScalarPoly products, and its S is summed from the wrapped entries of mu o_1 mu
COMPUTE_JACOBI_VII_A_JSON_SHA256 = \
    "612d4c6e438b71745e75b64c7afa22e68b24fc1d5828ee8c29743da8d86cca89"


def test_compute_jacobi_vii_a_json_is_byte_identical(capsys):
    code, out, _ = run_cli(capsys, "compute", "jacobi", "--type", "VII_a", "--symbolic",
                           "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == COMPUTE_JACOBI_VII_A_JSON_SHA256


#: sha256 of the III_a1 Jacobi operator on vectors with Fraction components
COMPUTE_JACOBI_FRACTIONS_SHA256 = \
    "cd4509b92afbaf324905164627ec2cb4d945d30ad30ea4dc2490f2076741f6b2"


def test_compute_jacobi_on_fraction_vectors_is_byte_identical(capsys):
    code, out, _ = run_cli(capsys, "compute", "jacobi", "--type", "III_a1", "--x", "1/3,2,-1",
                           "--y", "0,5/7,1", "--z", "2,1,1", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == COMPUTE_JACOBI_FRACTIONS_SHA256


#: the III_a1 vectors above
III_A1_VECTORS = {"--x": "1/3,2,-1", "--y": "0,5/7,1", "--z": "2,1,1"}


@pytest.mark.parametrize("flag, value", [
    ("--x", "-1/3,2,-1"), ("--y", "-.5,5/7,1"), ("--z", "-2,1,1"),
], ids=("x", "y", "z"))
def test_a_leading_minus_is_part_of_the_vector_in_either_spelling(capsys, flag, value):
    # argparse takes "-1/3,2,-1" after --x for a flag unless the CLI joins the two
    vectors = {**III_A1_VECTORS, flag: value}
    apart = [arg for pair in vectors.items() for arg in pair]
    joined = [f"{name}={text}" for name, text in vectors.items()]
    runs = [run_cli(capsys, "compute", "jacobi", "--type", "III_a1", *args, "--format", "json")
            for args in (apart, joined)]
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and runs[0][2] == ""


@pytest.mark.parametrize("args", [
    ("--x", "--y", "0,1,0", "--z", "0,0,1"),
    ("--x", "-h", "--y", "0,1,0", "--z", "0,0,1"),
    ("--y", "0,1,0", "--z", "0,0,1", "--x"),
], ids=("long-flag-next", "short-flag-next", "nothing-next"))
def test_a_vector_flag_without_its_value_is_a_usage_error(capsys, args):
    code, out, err = run_cli(capsys, "compute", "jacobi", "--type", "V", *args)
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.count("error:") == 1
    assert err.endswith("error: argument --x: expected one argument\n")


#: sha256 of the built-in table document; its classification constants are
#: computed from each row's alpha and n
EXPORT_TABLES_SHA256 = "f837d42c287a32ac11eeeb28c1457015ea2d65a190ba3ec3a86a3a66985ceb3d"


def test_export_tables_is_byte_identical():
    text = bianchi.export_tables()
    assert len(text) == 8754
    assert hashlib.sha256(text.encode()).hexdigest() == EXPORT_TABLES_SHA256


#: four planted faults, each added with its antisymmetric flip:
#: (table, type, 1-based (i, j, k) entry, added operator text)
PLANTED_FAULTS = (
    ("dynamical", "II", (2, 3, 1), "q"),
    ("quantum", "VII_a", (1, 2, 3), "hbar*qh"),
    ("quantum", "IX", (2, 3, 1), "hbar*ph"),
    ("quantum", "VI", (2, 3, 1), "ph"),
)

#: sha256 of ``verify all`` stdout with the planted faults, per argument list,
#: and its number of failing checks (None for the text format)
PLANTED_FAULT_REPORTS = (
    (("--format", "json"), 12,
     "2610b863bfa88933f1240f57feb065f9820cecfdbe570114e006e8218814faef"),
    (("--format", "json", "--hbar", "0"), 9,
     "780f17d4a05b628ab9763090b0558cab65c778f96b1d9713199f754de0eb4648"),
    ((), None,
     "851a1c7255c4b69c9716925500c7aa87fa40ce326060bcb8bda5211ad2d98520"),
)


def test_planted_fault_reports_are_byte_identical(capsys, monkeypatch):
    tables = {"dynamical": bianchi.dynamical_table(), "quantum": bianchi.quantum_table()}
    for table, name, key, text in PLANTED_FAULTS:
        mode = CLASSICAL if table == "dynamical" else QUANTUM
        fault = antisymmetric_binary(3, mode, {key: parse_operator(text, mode)})
        tables[table][name] = tables[table][name] + fault
    monkeypatch.setattr(bianchi, "dynamical_table", lambda: tables["dynamical"])
    monkeypatch.setattr(bianchi, "quantum_table", lambda: tables["quantum"])
    for args, failed, digest in PLANTED_FAULT_REPORTS:
        code, out, _ = run_cli(capsys, "verify", "all", *args)
        assert code == 1
        if failed is not None:
            assert json.loads(out)["summary"]["failed"] == failed
        assert hashlib.sha256(out.encode()).hexdigest() == digest, args


@pytest.mark.parametrize("suite, name, key, text, check_id", [
    ("jacobi-quantum", "IX", (1, 2, 1), "Ah+", "jacobi-quantum.IX"),
    ("theorem-9-1", "V", (2, 3, 1), "ph", "theorem-9-1.special.V"),
], ids=("IX", "V"))
def test_a_planted_jacobi_fault_fails_its_suite(capsys, monkeypatch, suite, name,
                                                key, text, check_id):
    # the quantum table's type gains ``text`` at the 1-based entry ``key``
    # (and its antisymmetric flip), which changes its Jacobi operator
    symbolic = [jacobi.symbolic_vec(prefix) for prefix in "xyz"]
    quantum = bianchi.quantum_table()
    clean = jacobi.jacobi_op(*symbolic, quantum[name])
    quantum[name] = quantum[name] + antisymmetric_binary(
        3, QUANTUM, {key: parse_operator(text, QUANTUM)})
    assert jacobi.jacobi_op(*symbolic, quantum[name]) != clean
    monkeypatch.setattr(bianchi, "quantum_table", lambda: quantum)
    code, out, _ = run_cli(capsys, "verify", suite, "--format", "json")
    assert code == 1
    failing = {c["id"]: c["residual"] for c in json.loads(out)["checks"]
               if c["status"] == "fail"}
    assert list(failing) == [check_id]
    assert failing[check_id] != "0"


#: sha256 of ``verify all --format json`` stdout with both planted Jacobi faults
#: above, so the pinned bytes cover a failing jacobi-quantum and theorem-9-1 report
PLANTED_JACOBI_FAULT_REPORT_SHA256 = \
    "716c0fad589a75e8f31d356ae8630bd3108362d9d60f11ebc3938297a6c8d69a"


def test_planted_jacobi_fault_report_is_byte_identical(capsys, monkeypatch):
    quantum = bianchi.quantum_table()
    for name, key, text in (("IX", (1, 2, 1), "Ah+"), ("V", (2, 3, 1), "ph")):
        quantum[name] = quantum[name] + antisymmetric_binary(
            3, QUANTUM, {key: parse_operator(text, QUANTUM)})
    monkeypatch.setattr(bianchi, "quantum_table", lambda: quantum)
    code, out, _ = run_cli(capsys, "verify", "all", "--format", "json")
    assert code == 1
    failing = [c["id"] for c in json.loads(out)["checks"] if c["status"] == "fail"]
    assert {"jacobi-quantum.IX", "theorem-9-1.special.V"} <= set(failing)
    assert hashlib.sha256(out.encode()).hexdigest() == PLANTED_JACOBI_FAULT_REPORT_SHA256


def test_suites_check_an_imported_document_like_the_builtin_tables():
    builtin = bianchi.builtin_tables()
    imported = bianchi.import_tables(bianchi.export_tables())
    for hbar_zero in (False, True):
        for suite in (
            lambda t: bianchi.check_tables_consistency(t, hbar_zero),
            lambda t: jacobi.verify_quantum_lie_types(t.quantum, hbar_zero),
            lambda t: jacobi.verify_closed_form_specializations(t.quantum, hbar_zero),
            lambda t: jacobi.verify_classical_lie_rows(t.rows),
        ):
            assert suite(imported) == suite(builtin)


def _edited_document(edit):
    """The exported tables with ``edit`` applied to each of the three parts."""
    doc = json.loads(bianchi.export_tables())
    for part in doc.values():
        edit(part)
    return bianchi.import_tables(json.dumps(doc))


def _drop_ii_and_v(part):
    del part["II"], part["V"]


def test_every_suite_checks_only_the_types_of_its_document():
    tables = _edited_document(_drop_ii_and_v)
    held = {row.name for row in tables.rows}
    assert held == set(bianchi.TYPE_NAMES) - {"II", "V"}
    for name, suite in cli.SUITES.items():
        checks = suite(tables, False)
        assert checks and all(c.passed for c in checks), name
        for check in checks:
            assert set(check.id.split(".")) & set(bianchi.TYPE_NAMES) <= held, check.id


def test_a_type_the_document_adds_is_checked():
    tables = _edited_document(lambda part: part.update(X=part["II"]))
    checks = cli.SUITES["jacobi-quantum"](tables, False)
    assert [c.id for c in checks][-1] == "jacobi-quantum.X"
    assert all(c.passed for c in checks)
    assert "tables.quantize.X" in [c.id for c in cli.SUITES["tables"](tables, False)]


def test_verify_all_builds_each_table_once(capsys, monkeypatch):
    calls = {}
    for builder in ("dynamical_table", "quantum_table"):
        def counted(build=getattr(bianchi, builder), builder=builder):
            calls[builder] = calls.get(builder, 0) + 1
            return build()
        monkeypatch.setattr(bianchi, builder, counted)
    assert run_cli(capsys, "verify", "all")[0] == 0
    assert calls == {"dynamical_table": 1, "quantum_table": 1}


def test_type_filter_prints_that_types_lines_of_the_full_suite(capsys):
    _, full, _ = run_cli(capsys, "verify", "operadic-lax")
    code, narrowed, _ = run_cli(capsys, "verify", "operadic-lax", "--type", "VII")
    assert code == 0
    lines = [line for line in full.splitlines(keepends=True)
             if line.split()[1].startswith("operadic-lax.VII.")]
    assert len(lines) == 27
    assert narrowed == "".join(lines)


@pytest.mark.parametrize("text, message", [
    ("1/0,0,0", "--x: zero denominator\n"),
    ("a,b,c", "--x: Invalid literal for Fraction"),
], ids=("zero-denominator", "not-a-number"))
def test_a_rejected_vector_exits_2_and_names_its_flag(capsys, text, message):
    code, out, err = run_cli(capsys, "compute", "jacobi", "--type", "V",
                             "--x", text, "--y", "0,1,0", "--z", "0,0,1")
    assert code == 2 and out == "" and err.startswith(message)
