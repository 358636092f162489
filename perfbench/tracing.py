"""In-memory spans around the public functions of the reesgcd layers.

The tracer replaces each wrapped function at every place it can be looked
up: the attribute of every loaded ``reesgcd`` module that holds it (the
modules bind each other's names with ``from ... import``) and every class
attribute that holds it (``Polynomial.__rmul__`` is ``__mul__``).  Nothing
in the program's source changes; ``remove`` puts the originals back.

A span is ``(name, start, end, parent, op)``: perf_counter seconds, the
index of the enclosing span (-1 at top level) and the id of the operation
the span ran in.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# (module, attribute path, span name); the span name of groebner_basis
# gains the term order of the call.
TARGETS = (
    ("reesgcd.pipeline", "check_hypotheses", "pipeline.check_hypotheses"),
    ("reesgcd.pipeline", "gcd_iterations", "pipeline.gcd_iterations"),
    ("reesgcd.pipeline", "verify_main_theorem",
     "pipeline.verify_main_theorem"),
    ("reesgcd.pipeline", "verify_well_definedness",
     "pipeline.verify_well_definedness"),
    ("reesgcd.pipeline", "minimality_and_invariants",
     "pipeline.minimality_and_invariants"),
    ("reesgcd.pipeline", "optional_structural_checks",
     "pipeline.optional_structural_checks"),
    ("reesgcd.pipeline", "random_instance", "pipeline.random_instance"),
    ("reesgcd.ideals", "saturate", "ideals.saturate"),
    ("reesgcd.ideals", "colon_power_chain", "ideals.colon_power_chain"),
    ("reesgcd.ideals", "height_in_hypersurface",
     "ideals.height_in_hypersurface"),
    ("reesgcd.ideals", "height", "ideals.height"),
    ("reesgcd.ideals", "Ideal.contains", "ideals.Ideal.contains"),
    ("reesgcd.ideals", "Ideal.groebner", "ideals.Ideal.groebner"),
    ("reesgcd.groebner", "groebner_basis", "groebner.groebner_basis"),
    ("reesgcd.groebner", "normal_form", "groebner.normal_form"),
    ("reesgcd.matrices", "det", "matrices.det"),
    ("reesgcd.matrices", "minors", "matrices.minors"),
    ("reesgcd.matrices", "submaximal_pfaffians",
     "matrices.submaximal_pfaffians"),
    ("reesgcd.ring", "Polynomial.exact_div", "ring.Polynomial.exact_div"),
    ("reesgcd.ring", "Polynomial.__mul__", "ring.Polynomial.__mul__"),
)

# Span names reported as layer metrics; groebner.groebner_basis sums its
# per-order spans.
SPAN_METRICS = tuple(name for _, _, name in TARGETS[:14]) + (
    "groebner.groebner_basis.elim_aux",
    "groebner.groebner_basis.grevlex",
) + tuple(name for _, _, name in TARGETS[14:])

def _order_suffix(args, kwargs):
    order = args[1] if len(args) > 1 else kwargs.get("order")
    return "grevlex" if order is None else order.name.replace("-", "_")


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.spans = []
        self.op = "setup"
        self.zero_normal_forms = set()
        self.basis_len_max = 0
        self.basis_terms_max = 0
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name
            if name == "groebner.groebner_basis":
                label = name + "." + _order_suffix(args, kwargs)
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (label, start, end, parent, tracer.op)
            if name == "groebner.normal_form" and result.is_zero:
                tracer.zero_normal_forms.add(sid)
            elif name == "groebner.groebner_basis":
                tracer.basis_len_max = max(tracer.basis_len_max,
                                           len(result))
                tracer.basis_terms_max = max(
                    tracer.basis_terms_max, sum(len(g) for g in result))
            return result

        return traced

    def install(self):
        importlib.import_module("reesgcd.cli")
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == "reesgcd" or key.startswith("reesgcd.")]
        for module_name, path, name in TARGETS:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            traced = self._wrap(name, original)
            holders = [owner] if outer else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, value))
                        setattr(holder, key, traced)

    def remove(self):
        for holder, key, value in reversed(self._patches):
            setattr(holder, key, value)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def layer_metrics(self, passes):
        """Per-layer metrics: the set-up spans once, plus the spans of the
        traced operations averaged over ``passes`` complete passes."""
        totals = {name: [0.0, 0.0, 0.0] for name in SPAN_METRICS}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        has_gb_child = {parent for name, _, _, parent, _ in self.spans
                        if name.startswith("groebner.groebner_basis")}
        gb_spans = gb_cached = normal_forms = zero_forms = 0.0
        for sid, (name, start, end, parent, op) in enumerate(self.spans):
            weight = 1.0 if op == "setup" else 1.0 / passes
            keys = [name]
            if name.startswith("groebner.groebner_basis."):
                keys.append("groebner.groebner_basis")
            for key in keys:
                if key in totals:
                    acc = totals[key]
                    acc[0] += weight
                    acc[1] += weight * (end - start)
                    acc[2] += weight * (end - start - child_time[sid])
            if name == "ideals.Ideal.groebner":
                gb_spans += weight
                if sid not in has_gb_child:
                    gb_cached += weight
            elif name == "groebner.normal_form":
                normal_forms += weight
                if sid in self.zero_normal_forms:
                    zero_forms += weight
        metrics = {}
        for name in SPAN_METRICS:
            calls, total, own = totals[name]
            metrics[name + ".calls"] = (round(calls, 6), "count")
            metrics[name + ".s"] = (total, "s")
            metrics[name + ".self_s"] = (own, "s")
        metrics["ideals.Ideal.groebner.cached_ratio"] = (
            gb_cached / gb_spans if gb_spans else 0.0, "ratio")
        metrics["groebner.normal_form.zero_ratio"] = (
            zero_forms / normal_forms if normal_forms else 0.0,
            "ratio")
        metrics["groebner.basis_len.max"] = (self.basis_len_max, "count")
        metrics["groebner.basis_terms.max"] = (self.basis_terms_max,
                                               "count")
        return metrics

    def dump(self):
        """The spans as a JSON-ready document."""
        return {"fields": ["name", "start", "end", "parent", "op"],
                "spans": self.spans}
