"""Per-layer tracing installed from outside the engine.

``Tracer.install()`` replaces oplax's public functions and methods with
timing wrappers, wherever a module holds a reference to them.  Each wrapper
counts its calls and adds its *self* time (its duration minus the time spent
in wrapped calls beneath it) to its layer.  Coarse layers also record a span
(name, start, end, parent span, operation id); fine layers, which run about
a million times per second of work, keep only counters.

A name a later refactor removes is skipped: its layer then reads zero calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

#: (layer, module, owner class or None, attribute names, coarse)
TARGETS = (
    ("scalars.gauss", "oplax.scalars", "GaussRat",
     ("__add__", "__radd__", "__neg__", "__mul__", "__rmul__", "inverse"), False),
    ("scalars.add", "oplax.scalars", "ScalarPoly", ("__add__", "__radd__"), False),
    ("scalars.mul", "oplax.scalars", "ScalarPoly", ("__mul__", "__rmul__"), False),
    ("scalars.subst", "oplax.scalars", "ScalarPoly", ("subst",), False),
    ("scalars.render", "oplax.scalars", "ScalarPoly", ("render",), False),
    ("scalars.parse", "oplax.scalars", None, ("parse_scalar",), False),
    ("weyl.construct", "oplax.weyl", "OperatorExpr", ("__init__",), False),
    ("weyl.add", "oplax.weyl", "OperatorExpr", ("__add__", "__radd__"), False),
    ("weyl.mul", "oplax.weyl", "OperatorExpr", ("__mul__",), False),
    ("weyl.render", "oplax.weyl", "OperatorExpr", ("render",), False),
    ("weyl.parse", "oplax.weyl", None, ("parse_operator",), False),
    ("operad.partial_compose", "oplax.operad", None, ("partial_compose",), True),
    ("operad.bracket", "oplax.operad", None, ("bracket",), True),
    ("operad.jacobi_defect", "oplax.operad", None, ("jacobi_defect",), True),
    ("oscillator.ddt", "oplax.oscillator", None, ("ddt",), False),
    ("oscillator.verify", "oplax.oscillator", None,
     ("verify_matrix_lax", "verify_operadic_lax"), True),
    ("bianchi.table_build", "oplax.bianchi", None,
     ("dynamical_table", "quantum_table"), False),
    ("bianchi.export", "oplax.bianchi", None, ("export_tables",), True),
    ("bianchi.import", "oplax.bianchi", None, ("import_tables",), True),
    ("bianchi.verify", "oplax.bianchi", None, ("check_tables_consistency",), True),
    ("jacobi.jacobi_op", "oplax.jacobi", None, ("jacobi_op",), True),
    ("jacobi.closed_form", "oplax.jacobi", None, ("closed_form_jacobi",), False),
    ("jacobi.verify", "oplax.jacobi", None,
     ("verify_closed_form", "verify_closed_form_specializations",
      "verify_quantum_lie_types", "verify_classical_lie_rows"), True),
    ("report.render_json", "oplax.report", "VerificationReport", ("render_json",), False),
    ("cli.run", "oplax.cli", None, ("run",), True),
)

LAYERS = tuple(dict.fromkeys(t[0] for t in TARGETS))
#: counters beside calls and self time; peak_terms is a maximum, the rest sums
COUNTERS = ("scalars.mul.terms_out", "weyl.rewrite_muls", "weyl.peak_terms",
            "operad.partial_compose.entries_out")


def _size(value, attr: str) -> int:
    return len(getattr(value, attr, ()) or ())


def _measure(tracer: "Tracer", layer: str, args, result) -> None:
    """Counters read off a wrapped call's result after it returns."""
    counters = tracer.counters
    if layer == "scalars.mul":
        counters["scalars.mul.terms_out"] += _size(result, "terms")
        # the innermost traced caller is the normalising constructor: one
        # scalar multiplication per p q -> q p - i hbar rewrite
        if tracer.stack and tracer.stack[-1][0] == "weyl.construct":
            counters["weyl.rewrite_muls"] += 1
    elif layer in ("weyl.construct", "weyl.add", "weyl.mul"):
        built = args[0] if layer == "weyl.construct" else result
        counters["weyl.peak_terms"] = max(counters["weyl.peak_terms"], _size(built, "terms"))
    elif layer == "operad.partial_compose":
        counters["operad.partial_compose.entries_out"] += _size(result, "entries")


class Tracer:
    """Counters, self times and spans of one traced run, kept in memory."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.spans = []
        self.stack = []          # frames: [layer, child seconds, enclosing span id]
        self.op_id = None
        self.paused = False      # set while the benchmark checks a result
        self._next_span = 0
        self._patched = []       # (owner, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for name in dict.fromkeys(t[1] for t in TARGETS):
            try:
                importlib.import_module(name)
            except ModuleNotFoundError:
                pass
        modules = [m for name, m in sys.modules.items()
                   if name == "oplax" or name.startswith("oplax.")]
        for layer, module_name, owner_name, attrs, coarse in TARGETS:
            module = sys.modules.get(module_name)
            owner = module if owner_name is None else getattr(module, owner_name, None)
            if owner is None:
                continue
            for attr in attrs:
                original = owner.__dict__.get(attr) if owner_name else getattr(owner, attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(layer, original, coarse)
                holders = [owner] if owner_name else [m for m in modules
                                                      if getattr(m, attr, None) is original]
                for holder in holders:
                    self._patched.append((holder, attr, original))
                    setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def _wrap(self, layer: str, fn, coarse: bool):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            stack = tracer.stack
            enclosing = stack[-1][2] if stack else None
            span_id = tracer._new_span_id() if coarse else enclosing
            frame = [layer, 0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                tracer.self_s[layer] += elapsed - frame[1]
                tracer.calls[layer] += 1
                if stack:
                    stack[-1][1] += elapsed
                if coarse:
                    tracer.spans.append((tracer.op_id, span_id, enclosing, layer, start, end))
            _measure(tracer, layer, args, result)
            return result

        return traced

    def _new_span_id(self) -> int:
        self._next_span += 1
        return self._next_span

    # -- operations ----------------------------------------------------------

    @contextmanager
    def operation(self, op_id: int, name: str):
        """Root span of one benchmark operation; nested spans share its id."""
        self.op_id = op_id
        frame = ["bench", 0.0, self._new_span_id()]
        self.stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans.append((op_id, frame[2], None, name, start, end))
            self.op_id = None

    @contextmanager
    def pause(self):
        """Run benchmark-side work, such as a result check, untraced."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    # -- results ---------------------------------------------------------------

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counters": dict(self.counters), "spans": list(self.spans)}

    def merge(self, snap: dict, op_id: int) -> None:
        """Fold in the snapshot of a traced child process, as operation op_id."""
        for layer, n in snap["calls"].items():
            self.calls[layer] += n
        for layer, s in snap["self_s"].items():
            self.self_s[layer] += s
        for name, n in snap["counters"].items():
            if name == "weyl.peak_terms":
                self.counters[name] = max(self.counters[name], n)
            else:
                self.counters[name] += n
        offset = self._next_span
        for _, span_id, parent, layer, start, end in snap["spans"]:
            self.spans.append((op_id, span_id + offset,
                               None if parent is None else parent + offset,
                               layer, start, end))
            self._next_span = max(self._next_span, span_id + offset)

    def layer_metrics(self, passes: int) -> dict:
        """Per-pass calls and self seconds of every layer, and the counters."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls.get(layer, 0) / passes
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0) / passes
        for name in COUNTERS:
            value = self.counters.get(name, 0)
            out[name] = value if name == "weyl.peak_terms" else value / passes
        return out
