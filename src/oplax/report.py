"""Check results and their text/JSON serialization.

Every residual verdict comes from `first_nonzero_check`: a check passes
exactly when each of its residuals is the zero of its canonical form.  Reports
are deterministic: check order is fixed by the caller and the JSON layout
never depends on runtime state.
"""

from __future__ import annotations

import json
from collections import namedtuple


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


class VerificationReport:
    """Ordered collection of checks with a pass/fail summary."""

    def __init__(self, checks=None):
        self.checks: list[Check] = list(checks) if checks else []

    def add(self, check: Check) -> None:
        self.checks.append(check)

    def extend(self, other: "VerificationReport") -> None:
        self.checks.extend(other.checks)

    @property
    def total(self) -> int:
        return len(self.checks)

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def failed(self) -> int:
        return self.total - self.passed

    @property
    def all_passed(self) -> bool:
        return self.failed == 0

    def to_dict(self) -> dict:
        checks = []
        for c in self.checks:
            entry = {"id": c.id, "paper_ref": c.paper_ref, "status": c.status}
            if c.residual is not None:
                entry["residual"] = c.residual
            entry["detail"] = c.detail
            checks.append(entry)
        return {
            "checks": checks,
            "summary": {"total": self.total, "passed": self.passed,
                        "failed": self.failed},
        }

    def render_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def render_text(self) -> str:
        lines = []
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            lines.append(f"[{tag}] {c.id} — {c.paper_ref}")
        return "\n".join(lines) + "\n"
