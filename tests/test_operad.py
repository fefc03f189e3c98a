import ast
import inspect
import itertools
import pathlib
import random
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from oplax import operad
from oplax.bianchi import dynamical_table, quantum_table
from oplax.operad import (
    MultiOp,
    antisymmetric_binary,
    bracket,
    cyclic_sum,
    jacobi_defect,
    partial_compose,
    total_compose,
)
from oplax.oscillator import lax_defect
from oplax.scalars import GaussRat, ScalarPoly
from oplax.weyl import AM, AP, CLASSICAL, P, Q, QUANTUM, OperatorExpr

from helpers import (
    all_parts_zero,
    assert_no_zero_survives_the_wrap,
    constructor_product,
    is_antisymmetric,
    reference_bracket,
    reference_cyclic_sum,
    reference_jacobi_defect,
    reference_partial_compose,
    reference_total_compose,
)


def scalar_op(dim, degree, values):
    """Build an operation with integer entries from {key: int}."""
    return MultiOp(dim, degree, CLASSICAL, {
        key: OperatorExpr.scalar(CLASSICAL, v) for key, v in values.items()
    })


def compose_by_basis_evaluation(f, pos, g):
    """Independent oracle: evaluate f(id x ... x g x ... x id) on every basis
    tuple, extending bilinearly over g's output, then apply the graded sign."""
    dim = f.dim
    result_degree = f.degree + g.degree - 1
    entries = {}
    for inputs in itertools.product(range(dim), repeat=result_degree):
        head = inputs[:pos]
        mid = inputs[pos:pos + g.degree]
        tail = inputs[pos + g.degree:]
        for k in range(dim):
            total = OperatorExpr.zero(f.mode)
            for s in range(dim):
                gval = g.entries.get(mid + (s,))
                fval = f.entries.get(head + (s,) + tail + (k,))
                if gval is None or fval is None:
                    continue
                total = total + constructor_product(fval, gval)
            if (pos * (g.degree - 1)) % 2 == 1:
                total = -total
            if not total.is_zero:
                entries[inputs + (k,)] = total
    return MultiOp(dim, result_degree, f.mode, entries)


def random_scalar_op(rng, dim, degree, density=0.5):
    entries = {}
    for key in itertools.product(range(dim), repeat=degree + 1):
        if rng.random() < density:
            v = rng.randint(-3, 3)
            if v:
                entries[key] = OperatorExpr.scalar(CLASSICAL, v)
    return MultiOp(dim, degree, CLASSICAL, entries)


#: operator entry coefficients: hbar, s^-1, a parameter, non-real parts
OPERATOR_COEFFS = (
    ScalarPoly.const(1),
    ScalarPoly.monomial(GaussRat(0, -1), {"hbar": 1}),
    ScalarPoly.monomial(GaussRat(1, 2), {"s": -1}),
    ScalarPoly.monomial(-2, {"w": 1, "s": 1}),
    ScalarPoly.monomial(GaussRat(0, Fraction(1, 2)), {"beta": 1, "hbar": 1}),
)


def random_operator_op(rng, mode, dim, degree, density=0.4):
    """Entries of one or two terms over words in q, p, A+, A- of length <= 2."""
    entries = {}
    for key in itertools.product(range(dim), repeat=degree + 1):
        if rng.random() < density:
            terms = [(tuple(rng.choice((Q, P, AP, AM)) for _ in range(rng.randint(0, 2))),
                      rng.choice(OPERATOR_COEFFS) * rng.choice((-1, 1, 2)))
                     for _ in range(rng.randint(1, 2))]
            entries[key] = OperatorExpr(mode, terms)
    return MultiOp(dim, degree, mode, entries)


def operator_pairs(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        mode = rng.choice((CLASSICAL, QUANTUM))
        dim = rng.choice((2, 3))
        yield (random_operator_op(rng, mode, dim, rng.randint(1, 2)),
               random_operator_op(rng, mode, dim, rng.randint(1, 2)))


def test_operator_entries_compose_like_basis_evaluation():
    for f, g in operator_pairs(7, 16):
        for pos in range(f.degree):
            assert partial_compose(f, pos, g) == compose_by_basis_evaluation(f, pos, g)


def test_total_compose_and_bracket_are_their_multiop_sums():
    for f, g in operator_pairs(13, 16):
        partials = [partial_compose(f, pos, g) for pos in range(f.degree)]
        total = partials[0]
        for partial in partials[1:]:
            total = total + partial
        assert total_compose(f, g) == total
        gf = total_compose(g, f)
        odd = (f.reduced_degree * g.reduced_degree) % 2 == 1
        assert bracket(f, g) == (total + gf if odd else total - gf)


def test_operator_jacobi_defect_is_its_multiop_sum():
    rng = random.Random(19)
    for mode in (CLASSICAL, QUANTUM):
        f, g, h = (random_operator_op(rng, mode, 2, d) for d in (2, 1, 2))
        want = None
        for x, y, z in ((f, g, h), (g, h, f), (h, f, g)):
            term = bracket(x, bracket(y, z))
            if (x.reduced_degree * z.reduced_degree) % 2 == 1:
                term = -term
            want = term if want is None else want + term
        assert jacobi_defect(f, g, h) == want


def test_degree_one_composition_is_matrix_product():
    f = scalar_op(2, 1, {(0, 0): 1, (1, 0): 2, (0, 1): 3, (1, 1): 4})
    g = scalar_op(2, 1, {(0, 0): 5, (1, 0): 6, (0, 1): 7, (1, 1): 8})
    fg = partial_compose(f, 0, g)
    # (f o g)[s, k] = sum_t f[t, k] g[s, t]
    for s in range(2):
        for k in range(2):
            want = sum(
                (f.entries.get((t, k), OperatorExpr.zero(CLASSICAL))
                 * g.entries.get((s, t), OperatorExpr.zero(CLASSICAL)))
                for t in range(2)
            ) + OperatorExpr.zero(CLASSICAL)
            assert fg.entry((s,), k) == want
    assert total_compose(f, g) == fg  # single summand for degree 1
    assert bracket(f, g) == total_compose(f, g) - total_compose(g, f)


def test_composition_index_conventions():
    # pinned by the deformed-table check: with (Mv)^k = M[s,k] v^s,
    # (M o0 mu)[i,j,k] = sum_s M[s,k] mu[i,j,s] and
    # (mu o1 M)[i,j,k] = sum_s mu[i,s,k] M[j,s]
    rng = random.Random(11)
    m = random_scalar_op(rng, 3, 1, density=0.8)
    mu = random_scalar_op(rng, 3, 2, density=0.8)
    m0mu = partial_compose(m, 0, mu)
    mu1m = partial_compose(mu, 1, m)
    zero = OperatorExpr.zero(CLASSICAL)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                want = zero
                for s in range(3):
                    want = want + (m.entries.get((s, k), zero)
                                   * mu.entries.get((i, j, s), zero))
                assert m0mu.entry((i, j), k) == want
                want = zero
                for s in range(3):
                    want = want + (mu.entries.get((i, s, k), zero)
                                   * m.entries.get((j, s), zero))
                assert mu1m.entry((i, j), k) == want


def test_partial_compose_matches_basis_evaluation():
    rng = random.Random(23)
    for _ in range(20):
        dim = rng.choice((2, 3))
        deg_f = rng.randint(1, 2)
        deg_g = rng.randint(1, 2)
        f = random_scalar_op(rng, dim, deg_f)
        g = random_scalar_op(rng, dim, deg_g)
        for pos in range(deg_f):
            assert partial_compose(f, pos, g) == \
                compose_by_basis_evaluation(f, pos, g)


def test_total_compose_summand_counts():
    rng = random.Random(5)
    m = random_scalar_op(rng, 3, 1, density=0.9)
    mu = random_scalar_op(rng, 3, 2, density=0.9)
    # |m| = 0: one summand; |mu| = 1: two summands
    assert total_compose(m, mu) == partial_compose(m, 0, mu)
    assert total_compose(mu, m) == \
        partial_compose(mu, 0, m) + partial_compose(mu, 1, m)


def test_degree_bookkeeping():
    rng = random.Random(3)
    for deg_f, deg_g in itertools.product((1, 2, 3), repeat=2):
        f = random_scalar_op(rng, 2, deg_f)
        g = random_scalar_op(rng, 2, deg_g)
        for pos in range(deg_f):
            assert partial_compose(f, pos, g).degree == deg_f + deg_g - 1


def test_self_bracket_of_even_operation():
    rng = random.Random(9)
    f = random_scalar_op(rng, 3, 2, density=0.7)
    assert bracket(f, f) == total_compose(f, f) + total_compose(f, f)


def test_graded_antisymmetry_randomized():
    rng = random.Random(41)
    cases = 0
    while cases < 100:
        dim = rng.choice((2, 3))
        f = random_scalar_op(rng, dim, rng.randint(1, 3))
        g = random_scalar_op(rng, dim, rng.randint(1, 3))
        sign_odd = (f.reduced_degree * g.reduced_degree) % 2 == 1
        anti = bracket(f, g) + (-bracket(g, f) if sign_odd else bracket(g, f))
        assert anti.is_zero
        cases += 1


def test_jacobi_defect_vanishes_for_scalar_entries():
    rng = random.Random(17)
    # the two shapes called out as worked examples, then a random sweep
    f = random_scalar_op(rng, 2, 2)
    g = random_scalar_op(rng, 2, 2)
    h = random_scalar_op(rng, 2, 1)
    assert jacobi_defect(f, g, h).is_zero
    f = random_scalar_op(rng, 3, 2)
    g = random_scalar_op(rng, 3, 1)
    h = random_scalar_op(rng, 3, 2)
    assert jacobi_defect(f, g, h).is_zero
    for _ in range(30):
        dim = rng.choice((2, 3))
        ops = [random_scalar_op(rng, dim, rng.randint(1, 2)) for _ in range(3)]
        assert jacobi_defect(*ops).is_zero


def test_degree_one_triple_is_ordinary_jacobi():
    rng = random.Random(29)
    ops = [random_scalar_op(rng, 3, 1, density=0.9) for _ in range(3)]
    assert jacobi_defect(*ops).is_zero


def test_shape_and_slot_errors():
    rng = random.Random(1)
    f = random_scalar_op(rng, 2, 2)
    g = random_scalar_op(rng, 3, 2)
    with pytest.raises(ValueError):
        partial_compose(f, 0, g)  # dim mismatch
    with pytest.raises(ValueError):
        partial_compose(f, 2, random_scalar_op(rng, 2, 1))  # slot out of range
    quantum = MultiOp(2, 2, QUANTUM, {
        (0, 1, 0): OperatorExpr.scalar(QUANTUM, 1)})
    with pytest.raises(ValueError):
        partial_compose(f, 0, quantum)  # mode mismatch
    with pytest.raises(ValueError):
        f + random_scalar_op(rng, 2, 1)  # shape mismatch on addition
    for other in (g, quantum):
        # each public call checks every operation against its first one, so all
        # three orders meet the mismatch before any bracket is composed
        for build in (bracket, total_compose, lambda x, y: jacobi_defect(x, x, y),
                      lambda x, y: jacobi_defect(x, y, x),
                      lambda x, y: jacobi_defect(y, x, x)):
            with pytest.raises(ValueError, match="mismatch"):
                build(f, other)


def test_a_quantum_composition_contracts_its_p_q_junction():
    # f's entry ends in p and g's starts with q, so the composite's one entry is
    # p q in normal order: the contraction's -i hbar row is imaginary against g's
    # real group
    f, g = (MultiOp(1, 1, QUANTUM, {(0, 0): OperatorExpr(QUANTUM, [(word, 1)])})
            for word in ((AP, P), (Q,)))
    assert partial_compose(f, 0, g).entries == {(0, 0): OperatorExpr(QUANTUM, [((AP, P, Q), 1)])}
    assert partial_compose(f, 0, g).entry((0,), 0).has_symbol("hbar")


def test_a_mismatch_raises_before_any_kernel_call(monkeypatch):
    rng = random.Random(1)
    f = random_scalar_op(rng, 2, 2)
    calls, kernel = [], operad._mul_rows_into

    def counted_kernel(*args):
        calls.append(args)
        kernel(*args)

    monkeypatch.setattr(operad, "_mul_rows_into", counted_kernel)
    for other, message in ((random_scalar_op(rng, 3, 2), "dimension mismatch: 3 vs 2"),
                           (MultiOp(2, 2, QUANTUM), "mode mismatch: quantum vs classical")):
        # the inner bracket [f, f] is well formed: only the call's own check stops it
        with pytest.raises(ValueError, match=message):
            jacobi_defect(other, f, f)
    with pytest.raises(ValueError, match="slot 2 out of range for degree 2"):
        partial_compose(f, 2, f)
    assert calls == []


def test_antisymmetric_builder():
    one = OperatorExpr.scalar(CLASSICAL, 1)
    op = antisymmetric_binary(3, CLASSICAL, {(2, 3, 1): one, (3, 1, 2): one})
    assert op.entry((1, 2), 0) == one
    assert op.entry((2, 1), 0) == -one
    assert op.entry((0, 0), 0).is_zero
    assert is_antisymmetric(op)
    with pytest.raises(ValueError):
        antisymmetric_binary(3, CLASSICAL, {(1, 1, 2): one})
    with pytest.raises(ValueError):
        antisymmetric_binary(3, CLASSICAL, {(1, 2, 1): one, (2, 1, 1): one})


def test_antisymmetric_builder_rejects_a_pair_given_twice_with_a_zero():
    zero, one = OperatorExpr.zero(CLASSICAL), OperatorExpr.scalar(CLASSICAL, 1)
    for entries in ({(1, 2, 3): zero, (2, 1, 3): one},
                    {(1, 2, 3): one, (2, 1, 3): zero},
                    {(1, 2, 3): zero, (2, 1, 3): zero}):
        with pytest.raises(ValueError, match="given twice"):
            antisymmetric_binary(3, CLASSICAL, entries)


def test_an_entry_key_no_operation_can_hold_raises():
    ix = quantum_table()["IX"]
    for inputs, k in (((0, 1, 2), 0), ((0,), 1), ((5, 7), 0), ((0, 1), 3), ((-1, 1), 0),
                      ((0, 1.5), 0)):
        key = (*inputs, k)
        with pytest.raises(ValueError, match=re.escape(f"no entry key {key} at degree 2, dim 3")):
            ix.entry(inputs, k)
    # a key that fits the shape reads zero when no entry is stored there
    assert ix.entry((0, 0), 1).is_zero
    assert ix.entry((1, 2), 0) is ix.entries[(1, 2, 0)]


def test_an_entry_index_that_is_a_bool_or_a_float_raises():
    # each hashes as the int it equals, so a lookup alone reads the stored (1, 2, 0) entry
    ix = quantum_table()["IX"]
    for inputs, k in (((True, 2), 0), ((1, 2), False), ((1, 2.0), 0), ((1, 2), 0.0),
                      ((1, Fraction(2)), 0)):
        key = (*inputs, k)
        with pytest.raises(ValueError, match=re.escape(f"no entry key {key} at degree 2, dim 3")):
            ix.entry(inputs, k)
    assert ix.entry((1, 2), 0) is ix.entries[(1, 2, 0)]


@st.composite
def coded_keys(draw):
    """A shape (dim 1-3, degree 1-3) and a few distinct entry keys for it."""
    dim, degree = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    keys = st.tuples(*[st.integers(0, dim - 1)] * (degree + 1))
    return dim, degree, draw(st.lists(keys, min_size=1, max_size=6, unique=True))


@pytest.mark.parametrize("mode", (CLASSICAL, QUANTUM))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_entry_keys_round_trip_through_their_codes(mode, data):
    dim, degree, keys = data.draw(coded_keys())
    values = [OperatorExpr(mode, [((Q,) * n, n + 1)]) for n in range(len(keys))]
    for key, e in zip(keys, values):
        op = MultiOp(dim, degree, mode, {key: e})
        # stored once, under the base-dim code with the first index most significant
        assert op.terms == {sum(idx * dim ** (degree - n) for n, idx in enumerate(key)): e}
        assert op.sorted_entries() == [(key, e)]
        assert op.entry(key[:-1], key[-1]) is e
    op = MultiOp(dim, degree, mode, dict(zip(keys, values)))
    assert [key for key, _ in op.sorted_entries()] == sorted(keys)
    assert len(op.entries) == len(op.terms) == len(keys)
    # the entries view is a copy: writing into it leaves the operation as it was
    view = op.entries
    view[keys[0]] = values[0] + values[0]
    assert op.entries == dict(zip(keys, values))


def test_operad_imports_from_weyl_only_the_operator_the_mode_check_and_the_normal_form():
    # no generator letter or mode constant: the kernel leaves every word to _normal_form
    tree = ast.parse(inspect.getsource(operad))
    imported = {(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert {name for module, name in imported if "weyl" in (module or name)} == \
        {"OperatorExpr", "_check_mode", "_normal_form"}


def test_only_operad_knows_its_private_names_and_jacobi_composes_through_the_public_one():
    # the entry codes and the raw sums stay inside operad: jacobi reads mu o_1 mu by key.
    # A module's names from operad are those it imports and those it reads as operad.name
    imported = {}
    for path in pathlib.Path(operad.__file__).parent.glob("*.py"):
        if path.stem != "operad":
            nodes = list(ast.walk(ast.parse(path.read_text())))
            imported[path.stem] = {
                alias.name for node in nodes if isinstance(node, ast.ImportFrom)
                and node.module in ("operad", "oplax.operad") for alias in node.names} | {
                node.attr for node in nodes if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "operad"}
    assert {stem: sorted(name for name in names if name.startswith("_"))
            for stem, names in imported.items()} == dict.fromkeys(imported, [])
    assert imported["jacobi"] == {"MultiOp", "cyclic_sum", "partial_compose"}


def test_multiop_validates_its_mode_and_entry_values():
    with pytest.raises(ValueError, match="unknown mode"):
        MultiOp(3, 2, "bogus")
    with pytest.raises(TypeError, match="int"):
        MultiOp(3, 2, CLASSICAL, {(0, 1, 2): 5})


#: Gaussian-rational coefficients of the Leibniz operands, with w and s^-1
leibniz_coeffs = st.builds(
    lambda re, im, powers: ScalarPoly.monomial(GaussRat(re, im), powers),
    st.sampled_from((1, -1, 2, Fraction(1, 2), Fraction(-3, 2))),
    st.sampled_from((0, 0, 1, Fraction(-1, 2))),
    st.fixed_dictionaries({"w": st.integers(0, 1), "s": st.integers(-1, 1)}))
leibniz_entries = st.lists(
    st.tuples(st.lists(st.sampled_from((Q, P, AP, AM)), max_size=2).map(tuple), leibniz_coeffs),
    min_size=1, max_size=2).map(lambda terms: OperatorExpr(CLASSICAL, terms))


@st.composite
def leibniz_ops(draw):
    """A classical operation on dimension 3 (the rotation's), degree 1 or 2,
    with up to four operator-valued entries."""
    degree = draw(st.integers(1, 2))
    keys = st.tuples(*[st.integers(0, 2)] * (degree + 1))
    return MultiOp(3, degree, CLASSICAL,
                   draw(st.dictionaries(keys, leibniz_entries, max_size=4)))


@settings(max_examples=45, deadline=None)
@given(leibniz_ops(), leibniz_ops())
def test_lax_defect_is_a_derivation_of_partial_composition(f, g):
    # d/dt is a derivation of every product, and [M, .] of every partial
    # composition, since M has reduced degree 0; no stored table is involved
    for pos in range(f.degree):
        assert lax_defect(partial_compose(f, pos, g)) == \
            partial_compose(lax_defect(f), pos, g) + partial_compose(f, pos, lax_defect(g))


def test_a_dynamical_row_composed_with_itself_solves_the_lax_equation():
    table = dynamical_table()
    assert len(table) == 11
    for name, mu in table.items():
        for pos in range(mu.degree):
            composite = partial_compose(mu, pos, mu)
            # type I is the zero bracket; every other composite has entries
            assert composite.is_zero == (name == "I")
            assert lax_defect(composite).is_zero


def compose_by_entry_products(f, pos, g):
    """f o_pos g as the signed sum, entry pair by entry pair, of the
    OperatorExpr products fval * gval, accumulated as operators."""
    sign = -1 if (pos * g.reduced_degree) % 2 else 1
    entries = {}
    for fkey, fval in f.entries.items():
        for gkey, gval in g.entries.items():
            if gkey[-1] == fkey[pos]:
                key = fkey[:pos] + gkey[:-1] + fkey[pos + 1:]
                entries[key] = entries.get(key, OperatorExpr.zero(f.mode)) + sign * (fval * gval)
    return MultiOp(f.dim, f.degree + g.reduced_degree, f.mode,
                   {key: value for key, value in entries.items() if value})


@st.composite
def product_ops(draw, mode, dim=2, min_entries=0, max_entries=6, scalar=False):
    """An operation of degree 1-3 whose entries' words may end in p or start
    with q, so quantum compositions cross a p q junction; with ``scalar``, every
    entry is a scalar."""
    degree = draw(st.integers(1, 3))
    words = st.just(()) if scalar else st.tuples(st.sampled_from(((), (Q,))), st.lists(
        st.sampled_from((Q, P, AP, AM)), max_size=2), st.sampled_from(((), (P,)))).map(
        lambda w: w[0] + tuple(w[1]) + w[2])
    terms = st.lists(st.tuples(words, leibniz_coeffs), min_size=1, max_size=2)
    keys = st.tuples(*[st.integers(0, dim - 1)] * (degree + 1))
    entries = draw(st.dictionaries(keys, terms, min_size=min_entries, max_size=max_entries))
    return MultiOp(dim, degree, mode, {key: OperatorExpr(mode, value)
                                       for key, value in entries.items()})


@pytest.mark.parametrize("mode", (CLASSICAL, QUANTUM))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_partial_compose_is_the_signed_sum_of_entry_products(mode, data):
    f = data.draw(product_ops(mode))
    g = data.draw(product_ops(mode))
    for pos in range(f.degree):
        got = partial_compose(f, pos, g)
        assert got == compose_by_entry_products(f, pos, g)
        assert_no_zero_survives_the_wrap({key: value.terms for key, value in got.entries.items()})


def bracket_by_entry_products(f, g):
    """[f, g] summed from the entry-product oracle, so no operand row or sign
    of the composition path enters it."""
    zero = MultiOp(f.dim, f.degree + g.reduced_degree, f.mode)
    fg = sum((compose_by_entry_products(f, pos, g) for pos in range(f.degree)), zero)
    gf = sum((compose_by_entry_products(g, pos, f) for pos in range(g.degree)), zero)
    return fg + gf if (f.reduced_degree * g.reduced_degree) % 2 else fg - gf


@st.composite
def jacobi_triples(draw, mode, max_entries=3):
    """Three operations of dimension 2-3, or the repeated triples (f, f, g) and
    (f, f, f); [f, f] cancels to zero for an even f."""
    dim = draw(st.integers(2, 3))
    f, g, h = (draw(product_ops(mode, dim, 1, max_entries)) for _ in range(3))
    return draw(st.sampled_from(((f, g, h), (f, f, g), (f, f, f))))


@pytest.mark.parametrize("mode", (CLASSICAL, QUANTUM))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_jacobi_defect_is_the_signed_cyclic_sum_of_public_brackets(mode, data):
    f, g, h = data.draw(jacobi_triples(mode))
    want = None
    for x, y, z in ((f, g, h), (g, h, f), (h, f, g)):
        inner = bracket(y, z)
        assert inner == bracket_by_entry_products(y, z)
        term = bracket(x, inner)
        if (x.reduced_degree * z.reduced_degree) % 2:
            term = -term
        want = term if want is None else want + term
    assert jacobi_defect(f, g, h) == want


@pytest.mark.parametrize("mode", (CLASSICAL, QUANTUM))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_partial_composition_is_sequentially_associative(mode, data):
    # (f o_i g) o_(i+j) h = f o_i (g o_j h): both sides carry the sign
    # (-1)^(i|g| + (i+j)|h|), and the entry products associate in both modes
    f, g, h = data.draw(jacobi_triples(mode, max_entries=6))
    for i in range(f.degree):
        fg = partial_compose(f, i, g)
        for j in range(g.degree):
            assert partial_compose(fg, i + j, h) == partial_compose(f, i, partial_compose(g, j, h))


def parallel_defect(f, i, j, g, h):
    """(f o_j g) o_i h - (-1)^(|g||h|) (f o_i h) o_(j+|h|) g for slots i < j of f."""
    left = partial_compose(partial_compose(f, j, g), i, h)
    right = partial_compose(partial_compose(f, i, h), j + h.reduced_degree, g)
    return left + right if (g.reduced_degree * h.reduced_degree) % 2 else left - right


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_partial_composition_is_parallel_commutative_classically(data):
    # g and h fill two slots of f; the entries multiply as f g h on the left side
    # and f h g on the right, which only a commutative product ignores
    f, g, h = data.draw(jacobi_triples(CLASSICAL, max_entries=6))
    for j in range(f.degree):
        for i in range(j):
            assert parallel_defect(f, i, j, g, h).is_zero


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_partial_composition_is_parallel_commutative_for_scalar_g_or_h(data):
    # the two sides multiply f g h and f h g; when g's or h's entries are all
    # scalars they commute with the rest, so the law holds in quantum mode too
    f, g, h = data.draw(jacobi_triples(QUANTUM, max_entries=6))
    scalars = data.draw(product_ops(QUANTUM, f.dim, 1, 6, scalar=True))
    g, h = data.draw(st.sampled_from(((scalars, h), (g, scalars))))
    for j in range(f.degree):
        for i in range(j):
            assert parallel_defect(f, i, j, g, h).is_zero


def test_a_quantum_parallel_defect_is_the_contraction_of_its_entries():
    # g puts p and h puts q into the two slots of f: the left side's entry is
    # p q = q p - i hbar and the right side's q p, so the defect is -i hbar
    ph, qh = (OperatorExpr.generator(QUANTUM, gen) for gen in (P, Q))
    f = MultiOp(2, 2, QUANTUM, {(0, 1, 1): OperatorExpr.scalar(QUANTUM, 1)})
    g = MultiOp(2, 1, QUANTUM, {(1, 1): ph})
    h = MultiOp(2, 1, QUANTUM, {(0, 0): qh})
    defect = parallel_defect(f, 0, 1, g, h)
    assert defect == MultiOp(2, 2, QUANTUM, {(0, 1, 1): ph * qh - qh * ph})
    assert defect.entries == {(0, 1, 1): OperatorExpr.scalar(
        QUANTUM, ScalarPoly.monomial(GaussRat(0, -1), {"hbar": 1}))}


@pytest.fixture
def raw_sums(monkeypatch):
    """Check what every ``_wrap`` of a composite builds; ``seen`` lists the raw sums
    in call order and ``wraps`` counts the entries they wrap into."""
    record = SimpleNamespace(seen=[], wraps=0)
    wrap = operad._wrap

    def counted_wrap(acc):
        entries = wrap(acc)
        assert_no_zero_survives_the_wrap(entries)
        record.seen.append(acc)
        record.wraps += len(entries)
        return entries

    monkeypatch.setattr(operad, "_wrap", counted_wrap)
    return record


@pytest.mark.parametrize("mode", (CLASSICAL, QUANTUM))
@pytest.mark.parametrize("degree", (1, 3))
def test_the_self_bracket_of_an_even_operation_wraps_nothing(raw_sums, mode, degree):
    # [f, f] = f o f - f o f for an even reduced degree: every entry cancels
    f = random_operator_op(random.Random(degree), mode, 2, degree, density=0.7)
    assert len(f.entries) >= 3 and not total_compose(f, f).is_zero
    raw_sums.wraps = 0
    assert bracket(f, f).entries == {}
    # every product landed, and every part cancelled to a zero the wrap drops
    assert raw_sums.seen[-1] and all_parts_zero(raw_sums.seen[-1]) and raw_sums.wraps == 0


@pytest.mark.parametrize("name", ("IX", "VI_a"))
def test_the_zero_jacobi_defect_wraps_only_its_inner_brackets(raw_sums, name):
    mu = dynamical_table()[name]
    inner = len(bracket(mu, mu).entries)
    assert inner
    raw_sums.wraps = 0
    assert jacobi_defect(mu, mu, mu).entries == {}
    # the three inner brackets are public calls; the outer sum cancels part by
    # part and builds no OperatorExpr
    assert all_parts_zero(raw_sums.seen[-1]) and raw_sums.wraps == 3 * inner


@pytest.mark.parametrize("mode", (CLASSICAL, QUANTUM))
def test_each_composition_makes_one_kernel_call(monkeypatch, mode):
    """``_compose_into`` joins all of f's groups to g's in one call of the kernel;
    only a quantum p q junction calls it again, from inside, by its name in operad."""
    calls = SimpleNamespace(kernel=0, compose=0, junction=0, depth=0)
    kernel, compose = operad._mul_rows_into, operad._compose_into

    def counted_kernel(acc, xs, ys, mode):
        if calls.depth:
            calls.junction += 1
        else:
            # both sides are split by an int digit, and their pairs carry int codes,
            # not tuple keys
            assert all(type(at) is int for side in (xs, ys) for at in side)
            assert all(type(code) is int for side in (xs, ys) for groups in side.values()
                       for *_, pairs in groups for code, _, _ in pairs)
            calls.kernel += 1
        calls.depth += 1
        kernel(acc, xs, ys, mode)
        calls.depth -= 1

    def counted_compose(*args):
        before = calls.kernel
        compose(*args)
        assert calls.kernel == before + 1
        calls.compose += 1

    monkeypatch.setattr(operad, "_mul_rows_into", counted_kernel)
    monkeypatch.setattr(operad, "_compose_into", counted_compose)
    # every f-entry ends in p and every g-entry starts with q, so each quantum
    # composite of f with g crosses a p q junction
    f, g = (MultiOp(2, degree, mode, {key: OperatorExpr(mode, terms) for key in
                                      itertools.product(range(2), repeat=degree + 1)})
            for degree, terms in ((2, [((Q, P), 1), ((AP,), 2)]), (3, [((Q,), 1), ((P, AM), -1)])))
    # a slot per input of the left operation: [f, g] has 2 + 3; the defect's
    # inner brackets [g, g], [g, f] and [f, g] have 6, 5 and 5, and each outer
    # one [x, [y, z]] has 7
    for composite, slots in ((lambda: partial_compose(f, 1, g), 1),
                             (lambda: total_compose(f, g), 2), (lambda: bracket(f, g), 5),
                             (lambda: jacobi_defect(f, g, g), 37)):
        calls.kernel = calls.compose = calls.junction = 0
        composite()
        assert calls.compose == slots and calls.kernel == slots
        assert (calls.junction > 0) == (mode == QUANTUM)


def composite_by_the_old_route(ops, fill):
    """What ``_composite`` returned before zero parts stayed in the raw sum until the
    wrap: every code's terms through the constructors, under the key at the code's
    place in the lexicographic key order, then the zero values dropped."""
    acc: dict = {}
    fill(acc, *map(operad._operand, ops))
    f = ops[0]
    degree = sum(op.reduced_degree for op in ops) + 1
    keys = list(itertools.product(range(f.dim), repeat=degree + 1))
    by_code: dict = {}
    for (word, exp), (res, ims) in acc.items():
        for code in set(res) | set(ims):
            by_code.setdefault(code, []).append(
                (word, ScalarPoly({exp: GaussRat(res.get(code, 0), ims.get(code, 0))})))
    entries = {}
    for code, terms in by_code.items():
        value = OperatorExpr(f.mode, terms)
        if value:
            entries[keys[code]] = value
    return MultiOp(f.dim, degree, f.mode, entries)


@st.composite
def constant_ops(draw, dim=2):
    degree = draw(st.integers(1, 3))
    keys = st.tuples(*[st.integers(0, dim - 1)] * (degree + 1))
    values = st.sampled_from((1, -1, 2, Fraction(1, 2), GaussRat(0, 1)))
    return MultiOp(dim, degree, CLASSICAL, {
        key: OperatorExpr.scalar(CLASSICAL, v)
        for key, v in draw(st.dictionaries(keys, values, max_size=6)).items()})


@pytest.mark.parametrize("kind", ("constant", "symbolic", "quantum"))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_composite_matches_wrapping_every_key_then_dropping_zeros(kind, data):
    ops = {"constant": constant_ops(), "symbolic": product_ops(CLASSICAL),
           "quantum": product_ops(QUANTUM)}[kind]
    f = data.draw(ops)
    # f with itself, so an even f's self-bracket cancels
    g = data.draw(ops) if data.draw(st.booleans()) else f
    fills = [lambda acc, x, y, pos=pos: operad._compose_into(acc, x, pos, y, False)
             for pos in range(f.degree)]
    fills += [lambda acc, x, y: operad._total_into(acc, x, y, False),
              lambda acc, x, y: operad._bracket_into(acc, x, y, False)]
    for fill in fills:
        got = operad._composite((f, g), fill)
        want = composite_by_the_old_route((f, g), fill)
        assert got.degree == want.degree and got.entries == want.entries
        assert all(got.entries.values())


_ONE = OperatorExpr.scalar(CLASSICAL, 1)
#: a binary operation whose composite with itself has entries at either slot
_BINARY = MultiOp(2, 2, QUANTUM, {(0, 1, 0): OperatorExpr.generator(QUANTUM, Q),
                                  (1, 0, 1): OperatorExpr.generator(QUANTUM, P)})


@pytest.mark.parametrize("build, error, match", [
    (lambda: MultiOp(0, 2, CLASSICAL), ValueError, "dimension must be positive"),
    (lambda: MultiOp(2, 0, CLASSICAL), ValueError, "degree must be at least 1"),
    (lambda: MultiOp(2, 2, CLASSICAL, {(0, 1): _ONE}), ValueError, "does not match degree 2"),
    (lambda: MultiOp(2, 2, CLASSICAL, {(0, 2, 1): _ONE}), ValueError, "out of range for dim 2"),
    (lambda: MultiOp(2, 2, CLASSICAL, {(0.0, 1, 1): _ONE}), ValueError,
     "index that is not an int"),
    (lambda: MultiOp(2, 2, CLASSICAL, {(0, 1, True): _ONE}), ValueError,
     "index that is not an int"),
    (lambda: MultiOp(2, 2, CLASSICAL, {(0, 1, 1): OperatorExpr.scalar(QUANTUM, 1)}),
     ValueError, "entry mode does not match"),
    (lambda: MultiOp(2.0, 1, CLASSICAL), ValueError, "dim 2.0 is not an int"),
    (lambda: MultiOp(True, 1, CLASSICAL), ValueError, "dim True is not an int"),
    (lambda: MultiOp(2, 1.0, CLASSICAL), ValueError, "degree 1.0 is not an int"),
    (lambda: MultiOp(2, True, CLASSICAL), ValueError, "degree True is not an int"),
    (lambda: partial_compose(_BINARY, 1.0, _BINARY), ValueError, "slot 1.0 is not an int"),
    (lambda: partial_compose(_BINARY, True, _BINARY), ValueError, "slot True is not an int"),
    # True is no 1-based index 1, and a value that is no operator is named by its entry
    (lambda: antisymmetric_binary(3, CLASSICAL, {(True, 2, 3): _ONE}), ValueError,
     re.escape("bad 1-based entry key (True, 2, 3)")),
    (lambda: antisymmetric_binary(3, CLASSICAL, {(1, 2, 3): 1}), TypeError,
     re.escape("entry (1, 2, 3) is int, not OperatorExpr")),
    (lambda: antisymmetric_binary(3, CLASSICAL, {(1, 2, 3): "q"}), TypeError,
     re.escape("entry (1, 2, 3) is str, not OperatorExpr")),
    # a key that is no tuple, or has the wrong length, is named before it is unpacked
    (lambda: MultiOp(3, 1, CLASSICAL, {1: _ONE}), ValueError,
     re.escape("entry key 1 does not match degree 1")),
    (lambda: antisymmetric_binary(3, CLASSICAL, {(1, 2): _ONE}), ValueError,
     re.escape("entry key (1, 2) does not match degree 2")),
    (lambda: antisymmetric_binary(3, CLASSICAL, {1: _ONE}), ValueError,
     re.escape("entry key 1 does not match degree 2")),
    (lambda: antisymmetric_binary(3, CLASSICAL, {(1, 2, 3, 4): _ONE}), ValueError,
     re.escape("entry key (1, 2, 3, 4) does not match degree 2")),
    # an item of the pairs form is named before it is unpacked, and entries that are
    # neither a dict nor an iterable are named by their type
    (lambda: MultiOp(2, 1, CLASSICAL, [((0, 0), _ONE, 3)]), ValueError,
     re.escape("entry ((0, 0), <OperatorExpr classical 1>, 3) is not a (key, value) pair")),
    (lambda: MultiOp(2, 1, CLASSICAL, 5), TypeError,
     "entries is int, not a dict or an iterable"),
    (lambda: MultiOp(2, 1, CLASSICAL, [(0, 0)]), ValueError,
     re.escape("entry (0, 0) is not a (key, value) pair")),
    # an operand that is no operation is named by its type in every public composition
    (lambda: bracket(_BINARY, 5), TypeError, "cannot interpret int as an operation"),
    (lambda: partial_compose(_BINARY, 0, None), TypeError,
     "cannot interpret NoneType as an operation"),
    (lambda: partial_compose(None, 0, _BINARY), TypeError,
     "cannot interpret NoneType as an operation"),
    (lambda: total_compose(2.0, _BINARY), TypeError, "cannot interpret float as an operation"),
    (lambda: jacobi_defect(_BINARY, _BINARY, "x"), TypeError,
     "cannot interpret str as an operation"),
    (lambda: cyclic_sum([_BINARY]), TypeError, "cannot interpret list as an operation"),
], ids=("dim", "degree", "key-length", "key-range", "float-index", "bool-index", "entry-mode",
        "float-dim", "bool-dim", "float-degree", "bool-degree", "float-slot", "bool-slot",
        "antisymmetric-bool-index", "antisymmetric-int-value", "antisymmetric-str-value",
        "int-key", "antisymmetric-short-key", "antisymmetric-int-key",
        "antisymmetric-long-key", "long-pair", "int-entries", "key-without-value",
        "int-operand", "none-operand", "none-left-operand", "float-operand", "str-operand",
        "list-operand"))
def test_multiop_rejects_a_malformed_operation(build, error, match):
    with pytest.raises(error, match=match):
        build()


@pytest.mark.parametrize("entries", [
    {(0, 0, 1): _ONE},
    {(0, 1, 0): _ONE},
    {(0, 1, 0): _ONE, (1, 0, 0): _ONE},
], ids=("diagonal", "no-flipped-entry", "flipped-entry-same-sign"))
def test_a_non_antisymmetric_operation_is_detected(entries):
    assert not is_antisymmetric(MultiOp(2, 2, CLASSICAL, entries))


#: constant entries: integral, fractional, imaginary and complex
constant_values = st.sampled_from((1, -1, 2, Fraction(1, 2), GaussRat(0, 1), GaussRat(Fraction(-1, 2), 3)))


@st.composite
def reference_ops(draw, kind, dim):
    """An operation of degree 1-4 on ``dim`` with up to five entries: constants, or
    classical or quantum words with symbolic, partly imaginary coefficients whose
    words may end in p or start with q, so quantum products cross a p q junction."""
    degree = draw(st.integers(1, 4))
    mode = QUANTUM if kind == "quantum" else CLASSICAL
    if kind == "constant":
        values = constant_values.map(lambda v: OperatorExpr.scalar(CLASSICAL, v))
    else:
        words = st.tuples(st.sampled_from(((), (Q,))), st.lists(
            st.sampled_from((Q, P, AP, AM)), max_size=1), st.sampled_from(((), (P,))))
        values = st.lists(st.tuples(words.map(lambda w: w[0] + tuple(w[1]) + w[2]),
                                    leibniz_coeffs), min_size=1, max_size=2).map(
            lambda terms: OperatorExpr(mode, terms))
    keys = st.tuples(*[st.integers(0, dim - 1)] * (degree + 1))
    return MultiOp(dim, degree, mode, draw(st.dictionaries(keys, values, max_size=5)))


@pytest.mark.parametrize("kind", ("constant", "quantum"))
@pytest.mark.parametrize("dim", (2, 3))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cyclic_sum_matches_the_tuple_keyed_reference(kind, dim, data):
    # called through the module, so a patched cyclic_sum is seen
    op = data.draw(reference_ops(kind, dim))
    got = operad.cyclic_sum(op)
    assert (got.dim, got.degree, got.mode) == (op.dim, op.degree, op.mode)
    assert got.entries == reference_cyclic_sum(op).entries
    # a rotation of op's inputs has the same cyclic sum, so op less it sums to nothing
    rotated = MultiOp(dim, op.degree, op.mode, {key[1:-1] + key[:1] + key[-1:]: value
                                                for key, value in op.entries.items()})
    assert operad.cyclic_sum(rotated) == got
    assert operad.cyclic_sum(op - rotated).terms == {}


@pytest.mark.parametrize("kind", ("constant", "symbolic", "quantum"))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_composition_matches_the_tuple_keyed_reference(kind, data):
    dim = data.draw(st.integers(1, 4))
    f, g, h = (data.draw(reference_ops(kind, dim)) for _ in range(3))
    # repeated operands: the self-bracket of an even f cancels, and so does the
    # defect of (f, f, f)
    g, h = data.draw(st.sampled_from(((g, h), (f, h), (f, f))))
    results = [(partial_compose(f, pos, g), reference_partial_compose(f, pos, g))
               for pos in range(f.degree)]
    results += [(total_compose(f, g), reference_total_compose(f, g)),
                (bracket(f, g), reference_bracket(f, g)),
                (jacobi_defect(f, g, h), reference_jacobi_defect(f, g, h))]
    for got, want in results:
        assert (got.dim, got.degree, got.mode) == (want.dim, want.degree, want.mode)
        assert got.entries == want.entries
