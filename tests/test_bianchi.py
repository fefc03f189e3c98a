import json

import pytest

from oplax import bianchi
from oplax.bianchi import (
    BianchiRow,
    FamilyParams,
    builtin_tables,
    check_tables_consistency,
    classification_rows,
    dynamical_table,
    export_tables,
    family_params,
    family_structure_op,
    import_tables,
    multiop_check,
    quantize,
    quantum_table,
)
from oplax.operad import MultiOp
from oplax.oscillator import (
    INV_2P0,
    INV_SQRT_2P0,
    P0,
    at_initial,
    coeffs_from_initial,
    deformed_structure_op,
    verify_operadic_lax,
)
from oplax.scalars import GaussRat, ScalarPoly, SparseSum, symbol
from oplax.weyl import AM, AP, CLASSICAL, P, Q, QUANTUM, OperatorExpr

from helpers import is_antisymmetric, substitute_generators

ONE = ScalarPoly.const(1)
ZERO = ScalarPoly.zero()


def row_by_name(name):
    return next(row for row in classification_rows() if row.name == name)


def test_classification_spot_checks():
    ix = row_by_name("IX")
    assert ix.alpha == ZERO and ix.n == (ONE, ONE, ONE)
    mu = dict(zip(("121", "122", "123", "231", "232", "233",
                   "311", "312", "313"),
                  ix.mu0))
    assert mu["123"] == ONE and mu["231"] == ONE and mu["312"] == ONE
    assert all(mu[key].is_zero for key in ("121", "122", "232", "233", "311", "313"))

    assert all(v.is_zero for v in row_by_name("I").mu0)

    vi_a = row_by_name("VI_a")
    a = symbol("a")
    assert vi_a.mu0[1] == -a and vi_a.mu0[2] == -ONE
    assert vi_a.mu0[7] == ONE and vi_a.mu0[8] == a


def test_eleven_types_in_fixed_order():
    assert bianchi.TYPE_NAMES == (
        "I", "II", "VII", "VI", "IX", "VIII", "V", "IV",
        "VII_a", "III_a1", "VI_a",
    )


def test_structure_equations_enforced():
    # a document's constants must agree with its alpha and n: (2,3)->1 is n1
    edited_mu = json.loads(export_tables())
    edited_mu["classification"]["II"]["mu"]["23^1"] = "0"
    edited_n = json.loads(export_tables())
    edited_n["classification"]["II"]["n"] = ["0", "0", "0"]
    for doc, got, want in ((edited_mu, "0", "1"), (edited_n, "1", "0")):
        message = (rf"^row II: constant \(2,3\)->1 is {got}, "
                   rf"structure equations require {want}$")
        with pytest.raises(ValueError, match=message):
            import_tables(json.dumps(doc))


def test_derived_dynamical_matches_stored_table():
    stored = dynamical_table()
    for row in classification_rows():
        derived = deformed_structure_op(coeffs_from_initial(row.mu0))
        assert derived == stored[row.name], row.name


def test_dynamical_entries_match_hand_transcription():
    table = dynamical_table()
    gen_p = OperatorExpr.generator(CLASSICAL, P)
    gen_q = OperatorExpr.generator(CLASSICAL, Q)
    gen_ap = OperatorExpr.generator(CLASSICAL, AP)
    gen_am = OperatorExpr.generator(CLASSICAL, AM)
    w = symbol("w")

    ii = table["II"]
    assert ii.entry((1, 2), 0) == (gen_p + P0) * INV_2P0
    assert ii.entry((1, 2), 1) == w * gen_q * INV_2P0
    assert ii.entry((2, 0), 0) == w * gen_q * INV_2P0
    assert ii.entry((2, 0), 1) == (P0 - gen_p) * INV_2P0
    assert ii.entry((0, 1), 2).is_zero

    vii = table["VII"]
    assert vii.entry((1, 2), 0) == OperatorExpr.scalar(CLASSICAL, 1)
    assert vii.entry((2, 0), 1) == OperatorExpr.scalar(CLASSICAL, 1)

    v = table["V"]
    assert v.entry((0, 1), 0) == gen_am * INV_SQRT_2P0
    assert v.entry((0, 1), 1) == -(gen_ap * INV_SQRT_2P0)
    assert v.entry((1, 2), 2) == -(gen_am * INV_SQRT_2P0)
    assert v.entry((2, 0), 2) == gen_ap * INV_SQRT_2P0


def test_every_dynamical_row_solves_the_lax_equation():
    for name, mu in dynamical_table().items():
        assert all(c.passed for c in verify_operadic_lax(mu, label=name)), name


def test_quantize_examples():
    table = dynamical_table()
    hatted = quantize(table["II"])
    assert hatted.mode == QUANTUM
    gen_ph = OperatorExpr.generator(QUANTUM, P)
    assert hatted.entry((1, 2), 0) == (gen_ph + P0) * INV_2P0
    assert hatted == quantum_table()["II"]
    # constant rows are unchanged apart from the mode tag
    assert quantize(table["IX"]) == quantum_table()["IX"]
    v_hat = quantize(table["V"])
    assert v_hat.entry((0, 1), 0) == \
        OperatorExpr.generator(QUANTUM, AM) * INV_SQRT_2P0
    with pytest.raises(ValueError):
        quantize(quantum_table()["II"])


def test_family_parameter_specializations():
    table = quantum_table()
    assert family_structure_op(family_params("V")) == table["V"]
    assert family_structure_op(family_params("IV")) == table["IV"]
    assert family_structure_op(family_params("VII_a")) == table["VII_a"]
    assert family_structure_op(family_params("III_a1")) == table["III_a1"]
    assert family_structure_op(family_params("VI_a")) == table["VI_a"]
    with pytest.raises(KeyError):
        family_params("IX")


def test_family_b_value_for_iii_a1():
    # the stored parameters keep the family table consistent: b must match
    # the (1,2)->3 entry of the quantum table, which is -1
    params = family_params("III_a1")
    assert params.b == ScalarPoly.const(-1)
    assert quantum_table()["III_a1"].entry((0, 1), 2) == \
        OperatorExpr.scalar(QUANTUM, -1)


def test_family_symbolic_entries():
    params = FamilyParams.symbolic()
    op = family_structure_op(params)
    beta, gamma = symbol("beta"), symbol("gamma")
    gen_ph = OperatorExpr.generator(QUANTUM, P)
    gen_qh = OperatorExpr.generator(QUANTUM, Q)
    w = symbol("w")
    assert op.entry((1, 2), 0) == -(gamma * (gen_ph - P0) * INV_2P0)
    assert op.entry((1, 2), 1) == -(beta * w * gen_qh * INV_2P0)
    assert op.entry((0, 1), 2) == OperatorExpr.scalar(QUANTUM, symbol("b"))
    assert is_antisymmetric(op)


def test_tables_consistency_report():
    checks = check_tables_consistency(builtin_tables())
    assert all(c.passed for c in checks)
    ids = [c.id for c in checks]
    assert "tables.derive.II" in ids
    assert "tables.initial.VI_a" in ids
    assert "tables.quantize.V" in ids
    assert "tables.family.III_a1" in ids
    assert "tables.family.III_a1.b-value" in ids
    # 11 + 11 + 11 + 5 + 1 checks
    assert len(checks) == 39
    assert all(c.passed for c in check_tables_consistency(builtin_tables(), hbar_zero=True))


def test_condition_flag_is_advisory():
    checks = check_tables_consistency(builtin_tables())
    by_id = {c.id: c for c in checks}
    # several rows violate the nondegeneracy condition yet still verify
    assert "advisory" in by_id["tables.derive.I"].detail
    assert "advisory" in by_id["tables.derive.IX"].detail
    assert by_id["tables.derive.IX"].passed
    assert "advisory" not in by_id["tables.derive.II"].detail


def test_the_iii_a1_flag_reads_the_quantum_table():
    doc = json.loads(export_tables())
    doc["quantum"]["III_a1"]["12^3"] = "1"
    by_id = {c.id: c for c in check_tables_consistency(import_tables(json.dumps(doc)))}
    assert not by_id["tables.family.III_a1.b-value"].passed
    assert by_id["tables.family.III_a1.b-value"].residual is None
    assert not by_id["tables.family.III_a1"].passed


def test_quantizing_commutes_with_initial_state_evaluation():
    start_images = {
        Q: OperatorExpr.zero(QUANTUM),
        P: OperatorExpr.scalar(QUANTUM, P0),
        AP: OperatorExpr.scalar(QUANTUM, ScalarPoly.monomial(1, {"s": 1})),
        AM: OperatorExpr.zero(QUANTUM),
    }
    for name, mu in dynamical_table().items():
        for key, entry in mu.entries.items():
            via_classical = at_initial(entry).to_quantum()
            via_quantum = substitute_generators(entry.to_quantum(), start_images)
            assert via_classical == via_quantum, (name, key)


def test_the_direct_maps_multiply_no_operator_and_check_nothing(monkeypatch):
    # start-state evaluation sums scalars and hatting relabels: neither multiplies
    # operators nor passes its valid, normal values through a checking constructor
    dynamical, quantum = dynamical_table(), quantum_table()
    calls = []
    for cls, name in ((OperatorExpr, "__mul__"), (OperatorExpr, "__rmul__"),
                      (OperatorExpr, "__init__"), (MultiOp, "__init__")):
        def counting(*args, original=getattr(cls, name), called=f"{cls.__name__}.{name}"):
            calls.append(called)
            return original(*args)
        monkeypatch.setattr(cls, name, counting)
    values = [at_initial(entry) for mu in dynamical.values() for entry in mu.entries.values()]
    hatted = {name: quantize(mu) for name, mu in dynamical.items()}
    assert calls == []
    monkeypatch.undo()
    assert hatted == quantum and all({word for word, _ in value.terms} <= {()} for value in values)


def test_export_is_deterministic():
    assert export_tables() == export_tables()


def test_import_round_trips_bit_exactly():
    text = export_tables()
    tables = import_tables(text)
    assert tables.rows == classification_rows()
    assert tables.dynamical == dynamical_table()
    assert tables.quantum == quantum_table()
    # exporting the imported data reproduces the document byte for byte
    doc = json.loads(text)
    assert json.dumps(doc, indent=2) + "\n" == text


def test_import_detects_mutation():
    doc = json.loads(export_tables())
    doc["dynamical"]["II"]["23^1"] = "0"
    mutated = import_tables(json.dumps(doc))
    assert mutated.dynamical["II"] != dynamical_table()["II"]
    assert mutated.quantum == quantum_table()


def _without(path):
    doc = json.loads(export_tables())
    *parents, last = path
    holder = doc
    for key in parents:
        holder = holder[key]
    del holder[last]
    return doc


def _with_quantum_copy(name, of):
    doc = json.loads(export_tables())
    doc["quantum"][name] = doc["quantum"][of]
    return doc


def _repeating(markers, insert):
    """The exported text with ``insert`` placed where the markers, found one
    after the other, end: a key written twice, the inserted copy first, which a
    decoder that keeps the last copy would silently drop."""
    text, at = export_tables(), 0
    for marker in markers:
        at = text.index(marker, at) + len(marker)
    return text[:at] + insert + text[at:]


def _edited_quantum_ii():
    doc = json.loads(export_tables())
    return json.dumps({**doc["quantum"]["II"], "23^1": "0"})


def _with(path, value):
    doc = json.loads(export_tables())
    *parents, last = path
    holder = doc
    for key in parents:
        holder = holder[key]
    holder[last] = value
    return doc


@pytest.mark.parametrize("doc, named", [
    (_without(["classification"]), "the document has no 'classification'"),
    (_without(["classification", "II", "mu"]), "classification row 'II' has no 'mu'"),
    (_without(["dynamical", "VI_a", "23^1"]), r"dynamical table 'VI_a' has no '23\^1'"),
    ([], "the document is not an object"),
    # raw texts: nesting deeper than the JSON decoder's recursion limit
    pytest.param("[" * 100000, "nested too deeply", id="deep-list"),
    pytest.param('{"classification": ' * 50000, "nested too deeply", id="deep-object"),
    (_with(["classification", "II", "note"], [1, 2]),
     "classification row 'II' 'note' is not a string"),
    # the three parts must name the same types
    (_without(["quantum", "II"]), "quantum has no type 'II'"),
    (_without(["dynamical", "V"]), "dynamical has no type 'V'"),
    (_without(["classification", "IX"]), "classification has no type 'IX' of dynamical"),
    (_with_quantum_copy("X", "II"), "classification has no type 'X' of quantum"),
    # a key written twice, the edited copy first
    pytest.param(_repeating(['"quantum": {'], f'"II": {_edited_quantum_ii()},'),
                 "repeated key 'II'", id="repeated-type"),
    pytest.param(_repeating(['"dynamical": {', '"II": {'], '"23^1": "0",'),
                 r"repeated key '23\^1'", id="repeated-entry"),
    pytest.param(_repeating(["{"], '"quantum": {},'), "repeated key 'quantum'",
                 id="repeated-part"),
    # a key the document does not define
    (_with(["dynamical", "II", "13^1"], "5*q"), r"dynamical table 'II' has unknown key '13\^1'"),
    (_with(["classification", "VI_a", "mu", "22^1"], "0"),
     r"classification row 'VI_a' 'mu' has unknown key '22\^1'"),
    (_with(["classification", "IX", "beta"], "1"), "classification row 'IX' has unknown key 'beta'"),
    (_with(["jacobi"], {}), "the document has unknown key 'jacobi'"),
])
def test_import_rejects_malformed_documents(doc, named):
    with pytest.raises(ValueError, match=named):
        import_tables(doc if isinstance(doc, str) else json.dumps(doc))


def test_import_defaults_a_missing_note_to_empty():
    rows = import_tables(json.dumps(_without(["classification", "VI_a", "note"]))).rows
    assert next(row for row in rows if row.name == "VI_a").note == ""


@pytest.mark.parametrize("lookup, error, match", [
    (lambda: BianchiRow.of("short", 0, (0, 0)), ValueError, "three n-values, got 2"),
    (lambda: import_tables(json.dumps(_without(["classification", "II", "mu", "31^3"]))),
     ValueError, r"classification row 'II' 'mu' has no '31\^3'"),
    (lambda: BianchiRow.of("float", 0.5, (0, 0, 0)), TypeError, "cannot interpret float"),
    (lambda: BianchiRow.of("float", 0, (0, 1.0, 0)), TypeError, "cannot interpret float"),
    (lambda: bianchi.FamilyParams.of(1, 0.5, 0, 1), TypeError, "cannot interpret float"),
    # a bool is no number: True would silently read as 1 and False as 0
    (lambda: BianchiRow.of("bool", True, (0, 0, 0)), TypeError, "cannot interpret bool"),
    (lambda: BianchiRow.of("bool", 0, (False, 1, 0)), TypeError, "cannot interpret bool"),
    (lambda: bianchi.FamilyParams.of(1, 1, True, 1), TypeError, "cannot interpret bool"),
], ids=("n-length", "mu0-length", "float-alpha", "float-n", "float-family-param",
        "bool-alpha", "bool-n", "bool-family-param"))
def test_a_malformed_row_or_an_unknown_name_is_rejected(lookup, error, match):
    with pytest.raises(error, match=match):
        lookup()


def test_the_difference_of_equal_tables_negates_nothing(monkeypatch):
    # got - want subtracts level by level: only a key that want alone holds is negated
    got, want = quantum_table()["VII_a"], quantum_table()["VII_a"]
    assert got is not want and got.entries
    calls = []
    for kind in (SparseSum, GaussRat):
        monkeypatch.setattr(kind, "__neg__",
                            lambda value, neg=kind.__neg__: calls.append(value) or neg(value))
    assert (got - want).is_zero
    assert multiop_check("demo", "equal tables", got, want, "detail").passed
    assert calls == []
    zero = MultiOp(3, 2, QUANTUM)
    assert zero - want == -want and len(calls) > len(want.entries)
