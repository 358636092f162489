"""Workloads of the reesgcd benchmark: their inputs, operations and checks.

An operation is one thing a user waits for:

* ``run``: ``reesgcd run --json FILE``, the time to the equations;
* ``verify``: ``reesgcd verify --json FILE``, the time to a certified
  verdict;
* ``recheck``: load a saved ``run`` result and recheck it with
  ``verify_well_definedness`` and ``minimality_and_invariants``.

The CLI commands run in-process through ``reesgcd.cli.main``.  Every
operation starts from fresh program state: the instance is read again from
its file or dict, and the ring cache is emptied first, so each operation
meets ``PolyRing._cache`` and ``MonomialOrder._cache`` cold, as a new CLI
process does.

The expected answers come from the paper, not from the code under test:
every check passes on a hypothesis-passing instance, g_i has bidegree
(m-i, i(d-1)), there are d+m+2 generators, and on the golden instance
g_i = monic(x5^(3-i) * F^i).
"""

from __future__ import annotations

import contextlib
import io
import json
import os

from reesgcd import cli, matrices, pipeline
from reesgcd.ring import PolyRing, is_prime

D = 4
GOLDEN_F = "T1*T3*T5 - T2*T3^2 - T2^2*T5 - T4*T5^2"
FIRST_PRIME = 32003

# Instance seeds of each workload; the benchmark seed picks the prime.
WORKLOADS = {
    "run-m3": ("run", [(3, 0), (3, 1), (3, 2)]),
    "verify-m1": ("verify", ["golden", (1, 0), (1, 1), (1, 2)]),
    "recheck-m3": ("recheck", [(3, 1)]),
}

SECTIONS = {
    "run": ("hypotheses",),
    "verify": ("hypotheses", "main", "well_definedness", "minimality",
               "structural"),
    "recheck": ("well_definedness", "minimality"),
}


_PRIMES = [p for p in range(FIRST_PRIME, FIRST_PRIME + 2000) if is_prime(p)]


def bench_prime(seed):
    """The prime of the random instances: seed 0 gives the default 32003.

    Random instances keep their integer coefficients across primes, so
    every seed runs the same amount of algebra on different inputs.
    """
    return _PRIMES[seed % len(_PRIMES)]


class Expected:
    """What the paper predicts for one instance."""

    def __init__(self, d, m, gcds=None):
        self.d = d
        self.m = m
        self.gcds = gcds

    def failures(self, answer):
        """Reasons the answer disagrees with the prediction."""
        out = []
        if answer.get("error"):
            out.append(answer["error"])
            return out
        if answer["exit"] != 0 or answer["ok"] is not True:
            out.append("exit %s, ok %s" % (answer["exit"], answer["ok"]))
        for section in SECTIONS[answer["kind"]]:
            if section not in answer["sections"]:
                out.append("missing section %s" % section)
        for check, status in sorted(answer["statuses"].items()):
            if status != "pass":
                out.append("%s is %s" % (check, status))
        d, m = self.d, self.m
        wanted = [[m - i, i * (d - 1)] for i in range(1, m + 1)]
        if answer["bidegrees"] != wanted:
            out.append("bidegrees %s, expected %s"
                       % (answer["bidegrees"], wanted))
        if len(answer["generators"]) != d + m + 2:
            out.append("%d generators, expected %d"
                       % (len(answer["generators"]), d + m + 2))
        if self.gcds is not None and answer["gcds"] != self.gcds:
            out.append("golden gcds differ from monic(x5^(3-i)*F^i)")
        return out


def golden_gcds():
    ring = PolyRing(FIRST_PRIME, D)
    f = ring.parse(GOLDEN_F)
    x5 = ring.parse("x5")
    return [str((x5 ** (3 - i) * f ** i).monic()) for i in range(1, 4)]


class Op:
    """One operation on one instance, with its fresh inputs."""

    def __init__(self, kind, label, instance, path, expected, saved=None):
        self.kind = kind
        self.label = label
        self.instance = instance
        self.path = path
        self.expected = expected
        self.saved = saved


def make_op(kind, entry, prime, workdir):
    """One operation on ``"golden"`` or on the random instance ``(m, k)``,
    with its instance file written to ``workdir``."""
    if entry == "golden":
        inst = pipeline.builtin_example()
        label = "%s:golden" % kind
        expected = Expected(D, 3, golden_gcds())
    else:
        m, k = entry
        inst = pipeline.random_instance(D, m, prime, seed=k)
        label = "%s:m%d:k%d" % (kind, m, k)
        expected = Expected(D, m)
    saved = None
    if kind == "recheck":
        saved = pipeline.gcd_iterations(inst).to_dict()
    path = os.path.join(workdir, label.replace(":", "-") + ".json")
    with open(path, "w") as handle:
        json.dump(inst.to_dict(), handle)
    return Op(kind, label, inst.to_dict(), path, expected, saved)


def build_ops(workload, seed, workdir):
    """Generate the workload's instances and write their files."""
    kind, entries = WORKLOADS[workload]
    prime = bench_prime(seed)
    return [make_op(kind, entry, prime, workdir) for entry in entries]


def _load_trace(inst, saved):
    """An IterationTrace rebuilt from a saved ``run`` result."""
    ring = inst.ring
    gcds = [ring.parse(s) for s in saved["gcds"]]
    bilinear = [ring.parse(s) for s in saved["generators"][:inst.d + 1]]
    dual = matrices.jacobian_dual(inst.presentation)
    steps = []
    carried = inst.equation
    for i, gcd in enumerate(gcds, 1):
        if i == 1:
            mat = matrices.modified_jacobian_dual(inst.presentation,
                                                  inst.equation)
        else:
            mat = matrices.iteration_matrix(dual, carried)
        steps.append(pipeline.IterationStep(mat, gcd, gcd.bidegree()))
        carried = gcd
    return pipeline.IterationTrace(inst, dual, bilinear, steps)


def execute(op):
    """Run one operation; the raw result for ``answer``."""
    PolyRing._cache.clear()
    if op.kind == "recheck":
        inst = pipeline.InstanceSpec.from_dict(op.instance)
        trace = _load_trace(inst, op.saved)
        reports = {
            "well_definedness": pipeline.verify_well_definedness(inst,
                                                                 trace),
            "minimality": pipeline.minimality_and_invariants(trace),
        }
        doc = {key: rep.to_dict() for key, rep in reports.items()}
        doc["ok"] = all(rep.ok for rep in reports.values())
        doc["iterations"] = op.saved
        return 0, doc
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([op.kind, "--json", op.path])
    return code, json.loads(out.getvalue())


def answer(op, code, doc):
    """The parts of an operation's output the checks and comparisons use."""
    sections = [key for key in SECTIONS["verify"] if key in doc]
    statuses = {"%s/%s" % (key, check["id"]): check["status"]
                for key in sections for check in doc[key]["checks"]}
    iterations = doc.get("iterations", {})
    return {"kind": op.kind, "exit": code, "ok": doc.get("ok"),
            "sections": sections, "statuses": statuses,
            "gcds": iterations.get("gcds"),
            "bidegrees": iterations.get("bidegrees"),
            "generators": iterations.get("generators", [])}
