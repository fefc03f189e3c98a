"""The benchmark's four workloads: seeded inputs, the timed operation, and
the known-answer check of every result.

Each workload builds a *deck* of inputs from the seed.  The timed loop runs
the deck's items in order, over and over, one at a time (a closed loop with a
single client).  Decks are stratified: the seed draws every item, but the
number of items of each size class is fixed, so a pass over the deck costs
about the same for every seed and figures from different seeds compare.

The engine only ever sees the generated inputs; the seed stays here.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from math import comb, factorial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "oplax" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no oplax sources under {SRC}")
sys.path.insert(0, str(SRC))

import oplax  # noqa: E402
# the timed operations call the engine's functions through their modules, so
# the wrappers the traced run installs on those names see every call
from oplax import bianchi, jacobi, operad, weyl  # noqa: E402
from oplax.operad import MultiOp  # noqa: E402
from oplax.scalars import ScalarPoly  # noqa: E402
from oplax.weyl import AM, AP, CLASSICAL, P, Q, QUANTUM, OperatorExpr  # noqa: E402

if Path(oplax.__file__).resolve().parent != (SRC / "oplax").resolve():
    raise SystemExit(f"perfbench: imported oplax from {oplax.__file__}, not {SRC}")


def child_env() -> dict:
    """Environment for a child interpreter that must import this checkout's oplax."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


# -- paper-verify -----------------------------------------------------------

#: ``python -m oplax verify all --format json`` as a reader of the paper runs it
VERIFY_ARGS = ("verify", "all", "--format", "json")
#: sha256 of that command's stdout at the commit that defined this benchmark;
#: the output is a byte-identity contract, so any change to it is a failure
VERIFY_SHA256 = "13367951390e22cb42b2229c849016135883b6891102dadf71d7ce5bcc176843"
VERIFY_CHECKS = 373


@dataclass
class CliResult:
    code: int
    stdout: bytes
    maxrss_kb: int


def run_cli(command) -> CliResult:
    """Run one CLI process to completion; peak RSS comes from its own rusage."""
    proc = subprocess.Popen(command, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    try:
        stdout = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(proc.returncode, stdout, usage.ru_maxrss)


def check_verify_output(code: int, stdout: bytes) -> bool:
    """Exit 0, every check passes with residual "0", and the bytes match."""
    if code != 0:
        return False
    try:
        doc = json.loads(stdout)
    except ValueError:
        return False
    summary = doc.get("summary", {})
    if summary != {"total": VERIFY_CHECKS, "passed": VERIFY_CHECKS, "failed": 0}:
        return False
    if any(c.get("residual", "0") != "0" for c in doc["checks"]):
        return False
    return hashlib.sha256(stdout).hexdigest() == VERIFY_SHA256


class PaperVerify:
    """One fresh ``python -m oplax verify all --format json`` per operation:
    interpreter start, import, every suite, the report and the CLI."""

    name = "paper-verify"
    work_unit = "runs"
    tail_pct = 75
    runs_in_child = True
    command = (sys.executable, "-m", "oplax") + VERIFY_ARGS

    def build(self, seed: int) -> list:
        # the paper's checks take no input; the seed has nothing to draw
        return [self.command]

    def run(self, command) -> CliResult:
        return run_cli(command)

    def check(self, command, result: CliResult) -> bool:
        return check_verify_output(result.code, result.stdout)

    def work(self, command) -> int:
        return 1


# -- operad-laws --------------------------------------------------------------

#: dim-3 shapes whose degrees sum past this are left out: one such triple
#: takes 1-2.5 s, so a run's figures would hinge on a handful of draws
MAX_DIM3_DEGREE_SUM = 7
DRAWS_PER_SHAPE = 2


def _density(dim: int, degree: int) -> float:
    return 0.5 if degree <= 2 else (0.4 if dim == 2 else 0.25)


def random_constant_op(rng: random.Random, dim: int, degree: int) -> MultiOp:
    """Constant-coefficient operation with the test suite's density per shape.

    The number of nonzero entries is fixed at the expected count of that
    generator; the seed draws their positions and values.
    """
    keys = list(itertools.product(range(dim), repeat=degree + 1))
    count = round(_density(dim, degree) * len(keys) * 6 / 7)
    entries = {key: OperatorExpr.scalar(CLASSICAL, rng.choice((-3, -2, -1, 1, 2, 3)))
               for key in rng.sample(keys, count)}
    return MultiOp(dim, degree, CLASSICAL, entries)


def operad_shapes() -> list:
    return [(dim, degrees)
            for dim in (2, 3)
            for degrees in itertools.product((1, 2, 3), repeat=3)
            if dim == 2 or sum(degrees) <= MAX_DIM3_DEGREE_SUM]


def operad_laws(f: MultiOp, g: MultiOp, h: MultiOp) -> tuple:
    """Graded antisymmetry residual and Jacobi defect of one triple."""
    sign_odd = (f.reduced_degree * g.reduced_degree) % 2 == 1
    swapped = operad.bracket(g, f)
    anti = operad.bracket(f, g) + (-swapped if sign_odd else swapped)
    return anti, operad.jacobi_defect(f, g, h)


class OperadLaws:
    """One triple of random constant operations per operation, checked for
    graded antisymmetry and a zero Jacobi defect: operad composition and
    the coefficient arithmetic, no rewriting, no parsing."""

    name = "operad-laws"
    work_unit = "triples"
    tail_pct = 90
    runs_in_child = False

    def build(self, seed: int) -> list:
        rng = random.Random(seed)
        deck = [tuple(random_constant_op(rng, dim, d) for d in degrees)
                for dim, degrees in operad_shapes()
                for _ in range(DRAWS_PER_SHAPE)]
        rng.shuffle(deck)
        return deck

    def run(self, triple) -> tuple:
        return operad_laws(*triple)

    def check(self, triple, result) -> bool:
        anti, defect = result
        return anti.is_zero and defect.is_zero

    def work(self, triple) -> int:
        return 1


# -- quantum-ordering -----------------------------------------------------------

QUANTUM_NAMES = {Q: "qh", P: "ph", AP: "Ah+", AM: "Ah-"}
_ONE = ScalarPoly.const(1)


@dataclass(frozen=True)
class QWord:
    """A quantum word as segments: ("gens", tuple) or ("block", m, n) = p^m q^n."""

    segments: tuple

    @property
    def word(self) -> tuple:
        out = []
        for seg in self.segments:
            out.extend(seg[1] if seg[0] == "gens" else (P,) * seg[1] + (Q,) * seg[2])
        return tuple(out)


def expected_normal_form(qword: QWord) -> str:
    """Canonical text of the word's normal form, computed without the engine.

    Each block uses p^m q^n = sum_k k! C(m,k) C(n,k) (-i hbar)^k q^(n-k) p^(m-k);
    the A+/A- between blocks commute with nothing, so the blocks multiply out
    independently.  Terms map a word to (integer magnitude, power of hbar).
    """
    terms = {(): (1, 0)}
    for seg in qword.segments:
        if seg[0] == "gens":
            terms = {w + seg[1]: t for w, t in terms.items()}
            continue
        _, m, n = seg
        grown = {}
        for w, (c, power) in terms.items():
            for k in range(min(m, n) + 1):
                key = w + (Q,) * (n - k) + (P,) * (m - k)
                if key in grown:
                    raise ValueError("a normal-form word arose twice")
                grown[key] = (c * factorial(k) * comb(m, k) * comb(n, k), power + k)
        terms = grown
    parts = []
    for w in sorted(terms, key=lambda w: (len(w), w)):
        c, power = terms[w]
        phase = power % 4                       # (-i)^power: 1, -i, -1, i
        negative, imaginary = phase in (1, 2), phase in (1, 3)
        if imaginary:
            magnitude = "i" if c == 1 else f"{c}*i"
        else:
            magnitude = str(c)
        mono = "" if power == 0 else ("hbar" if power == 1 else f"hbar^{power}")
        if magnitude == "1":
            scalar = mono or "1"
        elif mono:
            scalar = f"{magnitude}*{mono}"
        else:
            scalar = magnitude
        word = " ".join(QUANTUM_NAMES[g] for g in w)
        if not word:
            body = scalar
        else:
            body = word if scalar == "1" else f"{scalar} * {word}"
        if parts:
            parts.append((" - " if negative else " + ") + body)
        else:
            parts.append(("-" if negative else "") + body)
    return "".join(parts) or "0"


def _gens(rng: random.Random, count: int) -> tuple:
    return ("gens", tuple(rng.choice((AP, AM)) for _ in range(count)))


class QuantumOrdering:
    """One quantum word normalised by ``OperatorExpr(QUANTUM, ...)`` per
    operation: the p q -> q p - i hbar rewriting alone, no operad layer.

    The deck holds one word Ah ph^m qh^n Ah for every 1 <= m, n <= 6, and
    one two-block word Ah ph^m qh^n Ah ph^m' qh^n' Ah for every first block
    with 1 <= m, n <= 4, whose second block is the same or its transpose.
    The seed draws each Ah (Ah+ or Ah-), the transposes and the order; the
    rewrite work of a word does not depend on them.
    """

    name = "quantum-ordering"
    work_unit = "words"
    tail_pct = 80
    runs_in_child = False

    def build(self, seed: int) -> list:
        rng = random.Random(seed)
        deck = []
        for m, n in itertools.product(range(1, 7), repeat=2):
            deck.append(QWord((_gens(rng, 1), ("block", m, n), _gens(rng, 1))))
        for m, n in itertools.product(range(1, 5), repeat=2):
            second = ("block", m, n) if rng.random() < 0.5 else ("block", n, m)
            deck.append(QWord((_gens(rng, 1), ("block", m, n), _gens(rng, 1),
                               second, _gens(rng, 1))))
        rng.shuffle(deck)
        return deck

    def run(self, qword: QWord) -> OperatorExpr:
        return OperatorExpr(QUANTUM, [(qword.word, _ONE)])

    def check(self, qword: QWord, result: OperatorExpr) -> bool:
        return result.render() == expected_normal_form(qword)

    def work(self, qword: QWord) -> int:
        return 1


# -- canonical-io -----------------------------------------------------------------

@dataclass(frozen=True)
class Text:
    """One pool entry: the object, its canonical text, and how to read it."""

    kind: str          # "classical", "quantum" or "document"
    value: object
    text: str


def canonical_pool() -> dict:
    """Pool strata: stored table entries, Jacobi components, closed form, document.

    The Jacobi components are those of every quantum table row with symbolic
    vectors (the six Lie types give "0"); the closed form is the family's with
    every parameter symbolic.
    """
    dynamical, quantum = bianchi.dynamical_table(), bianchi.quantum_table()
    entries = [Text(mu.mode, value, value.render())
               for table in (dynamical, quantum)
               for mu in table.values()
               for _, value in mu.sorted_entries()]
    x, y, z = (jacobi.symbolic_vec(c) for c in "xyz")
    components = [c for mu in quantum.values() for c in jacobi.jacobi_op(x, y, z, mu)]
    closed = jacobi.closed_form_jacobi(x, y, z, bianchi.FamilyParams.symbolic())
    document = (dynamical, quantum, bianchi.classification_rows())
    return {
        "entries": entries,
        "jacobi": [Text(QUANTUM, c, c.render()) for c in components if not c.is_zero],
        "jacobi-zero": [Text(QUANTUM, c, c.render()) for c in components if c.is_zero],
        "closed-form": [Text(QUANTUM, c, c.render()) for c in closed],
        "document": [Text("document", document, bianchi.export_tables())],
    }


def render_and_parse(item: Text) -> tuple:
    """The timed round trip: write the value's canonical text, read it back."""
    if item.kind == "document":
        text = bianchi.export_tables()
        return text, bianchi.import_tables(text)
    text = item.value.render()
    return text, weyl.parse_operator(text, item.kind)


def check_round_trip(item: Text, text: str, parsed) -> bool:
    """render(e) == t, parse(t) == e, and render(parse(t)) == t."""
    if text != item.text:
        return False
    if item.kind == "document":
        dynamical, quantum, rows = item.value
        return (parsed.dynamical == dynamical and parsed.quantum == quantum
                and parsed.rows == rows)
    return parsed == item.value and parsed.render() == item.text


WHOLE_STRATUM_BELOW = 50


class CanonicalIO:
    """One pool text rendered and parsed back per operation: the scalar and
    operator grammars, and the table document export/import.

    Each stratum of the pool gives the deck as many items as it has members,
    so short and long texts mix in fixed proportion.  The table entries are
    drawn with replacement; the smaller strata, which hold the long texts,
    are taken whole, so the deck's longest items are the same for every seed.
    """

    name = "canonical-io"
    work_unit = "chars"
    tail_pct = 95
    runs_in_child = False

    def build(self, seed: int) -> list:
        rng = random.Random(seed)
        deck = []
        for stratum in canonical_pool().values():
            drawn = len(stratum) >= WHOLE_STRATUM_BELOW
            deck.extend(rng.choice(stratum) if drawn else item for item in stratum)
        rng.shuffle(deck)
        return deck

    def run(self, item: Text) -> tuple:
        return render_and_parse(item)

    def check(self, item: Text, result) -> bool:
        return check_round_trip(item, *result)

    def work(self, item: Text) -> int:
        return 2 * len(item.text)       # characters written plus read back


WORKLOADS = {w.name: w for w in (PaperVerify(), OperadLaws(), QuantumOrdering(),
                                 CanonicalIO())}
