"""Check results and their text/JSON serialization.

Every residual verdict comes from `first_nonzero_check`: a check passes
exactly when each of its residuals is the zero of its canonical form.  A
report is a list of checks in the caller's order; `render_json` and
`render_text` render it, and their layout never depends on runtime state.
"""

from __future__ import annotations

from collections import namedtuple
from json.encoder import encode_basestring_ascii


class Check(namedtuple("Check", "id paper_ref status residual detail")):
    """One check: its id, paper reference, status, residual text (or None)
    and detail."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def flag_check(check_id: str, ref: str, ok: bool, detail: str = "",
               residual: str | None = None) -> Check:
    return Check(check_id, ref, "pass" if ok else "fail", residual, detail)


def first_nonzero_check(check_id: str, ref: str, residuals, detail: str = "",
                        hbar_zero: bool = False) -> Check:
    """The one verdict on residuals: pass when every residual is zero.

    ``residuals`` yields ``(label, residual)`` pairs in order; a residual has
    ``is_zero`` and ``render()``, and with ``hbar_zero`` it is first taken to
    the classical limit hbar = 0 by ``subst_params``.  The check fails on the
    first nonzero residual, shows its rendering, and appends its label, when
    there is one, to the detail.
    """
    for label, residual in residuals:
        if hbar_zero:
            residual = residual.subst_params({"hbar": 0})
        if not residual.is_zero:
            if label:
                detail = f"{detail}; {label}"
            return flag_check(check_id, ref, False, detail, residual.render())
    return flag_check(check_id, ref, True, detail, "0")


def render_json(checks) -> str:
    """The JSON report: each check's fields in `Check` order, leaving out a
    residual of None, then the pass/fail summary.  The text is what
    ``json.dumps(..., indent=2)`` gives, laid out here: every field is a string,
    escaped by the C escaper json.dumps uses, and every count an int."""
    fields = [",\n".join(f'      "{key}": {encode_basestring_ascii(value)}'
                         for key, value in zip(Check._fields, c)
                         if key != "residual" or value is not None) for c in checks]
    listing = "[\n    {\n" + "\n    },\n    {\n".join(fields) + "\n    }\n  ]" if fields else "[]"
    passed = sum(c.passed for c in checks)
    return (f'{{\n  "checks": {listing},\n  "summary": {{\n    "total": {len(checks)},\n'
            f'    "passed": {passed},\n    "failed": {len(checks) - passed}\n  }}\n}}\n')


def render_text(checks) -> str:
    """The text report: one ``[PASS]`` or ``[FAIL]`` line per check."""
    return "\n".join(f"[{'PASS' if c.passed else 'FAIL'}] {c.id} — {c.paper_ref}"
                     for c in checks) + "\n"
