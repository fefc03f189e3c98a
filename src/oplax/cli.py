"""Command-line verification driver.

``oplax verify <suite>`` runs a named check suite and prints a report, one
line per check in text mode or the JSON document described in the README.
Exit status: 0 when every executed check passes, 1 when any fails, 2 on a
usage error or an unwritable stdout.  ``oplax compute jacobi`` evaluates the
Jacobi operator of one quantum type on given (or fully symbolic) vectors.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

from . import bianchi, jacobi, oscillator
from .report import render_json, render_text
from .weyl import render_factored

#: suite name -> fn(tables, hbar_zero), in the order ``verify all`` runs
#: them; each check is looked up in its module at call time
SUITES = {
    "matrix-lax": lambda tables, hbar_zero: oscillator.verify_matrix_lax(),
    "operadic-lax": lambda tables, _: [
        check for name, mu in tables.dynamical.items()
        for check in oscillator.verify_operadic_lax(mu, name)],
    "tables": lambda tables, hbar_zero: bianchi.check_tables_consistency(tables, hbar_zero),
    "jacobi-classical": lambda tables, _: jacobi.verify_classical_lie_rows(tables.rows),
    "jacobi-quantum": lambda tables, hbar_zero:
        jacobi.verify_quantum_lie_types(tables.quantum, hbar_zero),
    "theorem-9-1": lambda tables, hbar_zero: jacobi.verify_closed_form(hbar_zero)
        + jacobi.verify_closed_form_specializations(tables.quantum, hbar_zero),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oplax",
        description="Exact symbolic checks for the oscillator Lax pair, its "
                    "operadic deformations, and their quantum Jacobi operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=("all", *SUITES))
    verify.add_argument("--type", dest="type_name", choices=bianchi.TYPE_NAMES,
                        help="restrict the operadic-lax suite to one type")
    verify.add_argument("--format", dest="fmt", choices=("text", "json"),
                        default="text")
    verify.add_argument("--hbar", choices=("symbolic", "0"), default="symbolic",
                        help="keep hbar symbolic or take the classical limit "
                             "of every quantum residual")

    compute = sub.add_parser("compute", help="evaluate an operator")
    compute.add_argument("target", choices=("jacobi",))
    compute.add_argument("--type", dest="type_name", required=True,
                         choices=bianchi.TYPE_NAMES)
    compute.add_argument("--x", dest="vec_x", help="comma-separated rationals")
    compute.add_argument("--y", dest="vec_y", help="comma-separated rationals")
    compute.add_argument("--z", dest="vec_z", help="comma-separated rationals")
    compute.add_argument("--symbolic", action="store_true",
                         help="use fully symbolic vector components")
    compute.add_argument("--format", dest="fmt", choices=("text", "json"),
                         default="text")
    compute.add_argument("--hbar", choices=("symbolic", "0"), default="symbolic")
    return parser


def _parse_vector(text: str, flag: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"{flag} expects three comma-separated rationals")
    if "e" in text.lower():
        # Fraction("1e999999999") would build 10**999999999 before failing
        raise ValueError(f"{flag}: exponent notation is not accepted")
    if "_" in text or not text.isascii():
        # Fraction reads "1_0" on some Python versions and non-ASCII digits on all
        raise ValueError(f"{flag}: '_' and non-ASCII characters are not accepted")
    try:
        return jacobi.rational_vec(Fraction(part.strip()) for part in parts)
    except ZeroDivisionError:
        raise ValueError(f"{flag}: zero denominator") from None
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _run_verify(args) -> tuple[int, str]:
    if args.type_name is not None and args.suite != "operadic-lax":
        print("--type applies to the operadic-lax suite only", file=sys.stderr)
        return 2, ""
    hbar_zero = args.hbar == "0"
    tables = bianchi.builtin_tables()
    if args.type_name is not None:
        tables = tables._replace(dynamical={args.type_name: tables.dynamical[args.type_name]})
    checks = [check for name, suite in SUITES.items() if args.suite in ("all", name)
              for check in suite(tables, hbar_zero)]
    return (0 if all(c.passed for c in checks) else 1,
            render_json(checks) if args.fmt == "json" else render_text(checks))


def _run_compute(args) -> tuple[int, str]:
    vecs = {"--x": args.vec_x, "--y": args.vec_y, "--z": args.vec_z}
    given = [flag for flag, text in vecs.items() if text is not None]
    if args.symbolic and given:
        print(f"--symbolic takes no {', '.join(given)}", file=sys.stderr)
        return 2, ""
    if args.symbolic:
        vectors = tuple(map(jacobi.symbolic_vec, "xyz"))
    elif len(given) < 3:
        missing = [flag for flag in vecs if flag not in given]
        print(f"missing {', '.join(missing)} (or pass --symbolic)", file=sys.stderr)
        return 2, ""
    else:
        try:
            vectors = tuple(_parse_vector(text, flag) for flag, text in vecs.items())
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2, ""
    mu = bianchi.quantum_table()[args.type_name]
    result = jacobi.jacobi_op(*vectors, mu)
    if args.hbar == "0":
        result = tuple(c.subst_params({"hbar": 0}) for c in result)
    try:
        if args.fmt == "json":
            import json

            doc = {f"J{i}": c.render() for i, c in enumerate(result, start=1)}
            rendered = json.dumps(doc, indent=2) + "\n"
        else:
            rendered = "".join(f"J{i} = {render_factored(component)}\n"
                               for i, component in enumerate(result, start=1))
    except ValueError as exc:  # a coefficient past the int-to-str digit limit
        print(f"result too large to print: {exc}", file=sys.stderr)
        return 2, ""
    return 0, rendered


def run(argv) -> int:
    parser = build_parser()
    argv = list(argv)
    for i in range(len(argv) - 1, 0, -1):  # argparse may take "-1/2,0,0" for a flag
        if argv[i - 1] in ("--x", "--y", "--z") and re.match(r"-\.?\d", argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    status, text = (_run_verify if args.command == "verify" else _run_compute)(args)
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:  # a closed pipe or a full device: the buffered rest
        # would fail again at exit, so stdout goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"cannot write the output: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return status


def main() -> None:
    sys.exit(run(sys.argv[1:]))

