"""The recheck on the base ideal's one basis: the column-rule and
fiber-equation checks against their ideal-equality references
(welldefinedness_reference.py), also with one step's gcds replaced, and
the Groebner runs and reductions they save."""

import json
from collections import Counter

import pytest

from reesgcd import groebner, ideals, matrices, pipeline
from reesgcd.pipeline import (
    IterationStep,
    IterationTrace,
    builtin_example,
    gcd_iterations,
    minimality_and_invariants,
    random_instance,
    verify_well_definedness,
)

from welldefinedness_reference import (
    column_rule_report,
    fiber_equation_check,
)

CASES = ["golden"] + [(m, k) for m in (2, 3) for k in range(3)]

_INSTANCES = {}


def instance(case):
    """The golden instance or random d=4 instance (m, k), built once."""
    if case not in _INSTANCES:
        _INSTANCES[case] = builtin_example() if case == "golden" else \
            random_instance(4, case[0], seed=case[1])
    return _INSTANCES[case]


def fresh(inst):
    """A new instance of the spec of inst, which has not formed its
    Jacobian dual and lambda yet."""
    return inst.with_prime(inst.prime)


def outcomes(rep):
    return [(c.check_id, c.status, c.data) for c in rep.checks]


@pytest.fixture
def groebner_runs(monkeypatch):
    """Counts Groebner runs from the moment the fixture is requested."""
    runs = []
    original = ideals.groebner_basis

    def counted(gens, order=None, *args, **kwargs):
        runs.append(order)
        return original(gens, order, *args, **kwargs)

    monkeypatch.setattr(ideals, "groebner_basis", counted)
    return runs


def with_step_gcd(trace, i, gcd):
    """The trace with the gcd of step i replaced."""
    steps = list(trace.steps)
    steps[i - 1] = IterationStep(steps[i - 1].matrix, gcd, gcd.bidegree())
    return IterationTrace(trace.instance, trace.dual, trace.bilinear, steps)


@pytest.mark.parametrize("case", CASES, ids=str)
def test_matches_reference(case):
    inst = instance(case)
    first = gcd_iterations(inst)
    second = gcd_iterations(inst, rule="max")
    assert outcomes(verify_well_definedness(inst, first)) == \
        outcomes(column_rule_report(first, second))
    found = minimality_and_invariants(first).find("fiber-equation")
    assert (found.status, found.data) == fiber_equation_check(first)
    assert found.status == "pass"


@pytest.mark.parametrize("step", [1, 2, 3])
def test_perturbed_max_gcd_fails_like_reference(step, monkeypatch):
    inst = instance((3, 1))
    ring = inst.ring
    m, d = inst.degree, inst.d
    first = gcd_iterations(inst)
    # a form of the step's bidegree outside B_{step-1}
    form = ring.x(1) ** (m - step) * ring.T(1) ** (step * (d - 1))
    assert not first.partial_ideal(step - 1).contains(form)
    second = gcd_iterations(inst, rule="max")
    perturbed = with_step_gcd(second, step, second.gcds[step - 1] + form)

    def iterations(inst, rule="min"):
        return perturbed if rule == "max" else gcd_iterations(inst, rule)

    monkeypatch.setattr(pipeline, "gcd_iterations", iterations)
    rep = verify_well_definedness(inst, first)
    assert outcomes(rep) == outcomes(column_rule_report(first, perturbed))
    failed = rep.find("column-rule-step-%d" % step)
    assert failed.status == "fail"
    # the witness is a generator of one step ideal outside the other
    side, _, src = failed.witness.partition(": ")
    left, right = first.partial_ideal(step), perturbed.partial_ideal(step)
    outside, inside = (left, right) if side == "not in left ideal" \
        else (right, left)
    assert side in ("not in left ideal", "not in right ideal")
    assert ring.parse(src) in inside.gens
    assert not outside.contains(ring.parse(src))


def test_pure_t_term_takes_fallback_and_passes(groebner_runs):
    trace = gcd_iterations(builtin_example())
    last = trace.gcds[-1]
    # congruent to a multiple of the last gcd modulo the variables
    bilinear = (trace.bilinear[0] + last,) + trace.bilinear[1:]
    shifted = IterationTrace(trace.instance, trace.dual, bilinear,
                             trace.steps)
    found = minimality_and_invariants(shifted).find("fiber-equation")
    # one basis of the base ideal, one of (x) plus the last gcd
    assert len(groebner_runs) == 2
    assert (found.status, found.data) == fiber_equation_check(shifted)
    assert found.status == "pass"


def test_pure_t_term_outside_fails_with_witness():
    trace = gcd_iterations(builtin_example())
    ring = trace.ring
    form = trace.gcds[0] + ring.T(1) ** 5
    shifted = with_step_gcd(trace, 1, form)
    found = minimality_and_invariants(shifted).find("fiber-equation")
    assert (found.status, found.data) == fiber_equation_check(shifted)
    assert found.status == "fail"
    assert found.witness == \
        "not in the variables plus the fiber equation: %s" % form


def test_recheck_makes_one_groebner_run(request):
    inst = instance((3, 1))
    trace = gcd_iterations(inst)
    # counting starts once the instance and its hypothesis checks are done
    groebner_runs = request.getfixturevalue("groebner_runs")
    assert verify_well_definedness(inst, trace).ok
    assert minimality_and_invariants(trace).ok
    # the base ideal's grevlex basis, shared by both reports
    assert groebner_runs == [inst.ring.grevlex]


def rebuilt_from_json(inst, trace):
    """The trace as a recheck of a saved run rebuilds it: gcds and
    bilinear forms parsed from to_dict, step matrices formed again, and
    no row lambda carried over."""
    saved = json.loads(json.dumps(trace.to_dict()))
    ring = inst.ring
    gcds = [ring.parse(src) for src in saved["gcds"]]
    bilinear = [ring.parse(src)
                for src in saved["generators"][:inst.d + 1]]
    dual = matrices.jacobian_dual(inst.presentation)
    steps, carried = [], inst.equation
    for i, gcd in enumerate(gcds, 1):
        mat = (matrices.modified_jacobian_dual(inst.presentation,
                                               inst.equation) if i == 1
               else matrices.iteration_matrix(dual, carried))
        steps.append(IterationStep(mat, gcd, gcd.bidegree()))
        carried = gcd
    return IterationTrace(inst, dual, bilinear, steps)


def test_recheck_reduces_no_gcd_in_full(monkeypatch):
    """No gcd is reduced in full: each is top-reduced only to the nonzero
    lead term of its normal form, g_i by the column-rule check and again
    by minimality, g'_i by the column-rule check alone, and each step
    whose gcds differ makes one reduction to the end, of g'_i - c*g_i."""
    inst = instance((3, 1))
    ring = inst.ring
    trace = gcd_iterations(inst)
    rebuilt = rebuilt_from_json(inst, trace)
    assert rebuilt.gcds == trace.gcds
    second = gcd_iterations(inst, rule="max")
    # c is the ratio of the lead coefficients of the normal forms
    full = groebner.groebner_basis(trace.base_ideal.gens)
    differences = []
    for g, h in zip(trace.gcds, second.gcds):
        if g != h:
            a = groebner.normal_form(g, full).items()[0][1]
            b = groebner.normal_form(h, full).items()[0][1]
            differences.append(h - g.scale(b * pow(a, ring.p - 2, ring.p)))
    assert len(differences) == 2
    reduced, tops = [], []
    normal_form, normal_form_lead = groebner.normal_form, \
        groebner.normal_form_lead

    def counted(poly, *args, **kwargs):
        reduced.append(poly)
        return normal_form(poly, *args, **kwargs)

    def top_reduced(poly, basis, minus=None):
        lead = normal_form_lead(poly, basis, minus=minus)
        if minus is not None:
            c, g = minus
            poly = poly - g.scale(c)
        tops.append((poly, lead))
        return lead

    monkeypatch.setattr(groebner, "normal_form", counted)
    monkeypatch.setattr(pipeline, "normal_form", counted)
    monkeypatch.setattr(ideals, "normal_form_lead", top_reduced)
    assert verify_well_definedness(inst, rebuilt).ok
    assert minimality_and_invariants(rebuilt).ok
    gcds = set(trace.gcds + second.gcds)
    assert not gcds & set(reduced)
    top_gcds = Counter(f for f, _ in tops if f in gcds)
    # steps 1 and 2 differ; each of their gcds lies outside B_0
    (g1, g2, _), (h1, h2, _) = trace.gcds, second.gcds
    assert top_gcds == {g1: 2, g2: 2, h1: 1, h2: 1}
    assert all(not lead.is_zero for f, lead in tops if f in gcds)
    # the only other reductions of the base ideal run to zero
    assert [f for f, _ in tops if f not in gcds] == differences
    assert all(lead.is_zero for f, lead in tops if f not in gcds)


def standard_monomial(g, basis):
    """A monomial of the normal form of g below its lead: no lead of
    basis divides it, so it is its own normal form, outside the ideal."""
    exp, _ = groebner.normal_form(g, basis).items()[-1]
    return g.ring.monomial(exp)


def perturbations(trace, i):
    """The (min-rule gcd, max-rule gcd) replacements of step i, by what
    the comparison modulo B_0 must find, with g the min-rule gcd."""
    ring = trace.ring
    d, m = trace.instance.d, trace.instance.degree
    g = trace.gcds[i - 1]
    basis = groebner.groebner_basis(trace.base_ideal.gens)
    # members of B_0 of the step's bidegree (m-i, i(d-1))
    members = [ring.x(k) ** (m - i - 1) * ring.T(k) ** (i * (d - 1) - 1)
               * trace.bilinear[k - 1] for k in (1, 2)]
    q = standard_monomial(g, basis)
    assert not any(groebner.normal_form(f, basis).is_zero for f in (g, q))
    assert all(groebner.normal_form(f, basis).is_zero for f in members)
    lead = groebner.normal_form(g, basis).lead_exp()
    assert q.lead_exp() != lead
    assert groebner.normal_form(3 * g + q, basis).lead_exp() == lead
    return {
        "multiple-plus-member": (g, 3 * g + members[0]),
        "same-lead-non-member": (g, 3 * g + q),
        "different-lead": (g, q),
        "member-against-non-member": (g, members[0]),
        "non-member-against-member": (members[0], g),
        "both-members": (members[0], members[1]),
    }


PASSING = {"multiple-plus-member", "both-members"}
PERTURBED = [(case, i) for case in ["golden", (2, 0), (2, 1), (3, 1)]
             for i in range(1, (3 if case == "golden" else case[0]))]


@pytest.mark.parametrize("case, step", PERTURBED, ids=str)
def test_perturbed_pairs_match_reference(case, step, monkeypatch,
                                         groebner_runs):
    inst = instance(case)
    first = rebuilt_from_json(inst, gcd_iterations(inst))
    second = gcd_iterations(inst, rule="max")
    for kind, (g, h) in perturbations(first, step).items():
        left = with_step_gcd(first, step, g)
        right = with_step_gcd(second, step, h)
        monkeypatch.setattr(
            pipeline, "gcd_iterations",
            lambda inst, rule="min", right=right: right)
        del groebner_runs[:]
        rep = verify_well_definedness(inst, left)
        found = rep.find("column-rule-step-%d" % step)
        if kind in PASSING:
            # decided modulo B_0 alone, on its one truncated basis
            assert found.status == "pass", kind
            assert groebner_runs == [inst.ring.grevlex], kind
        else:
            assert found.status == "fail", kind
        assert outcomes(rep) == outcomes(column_rule_report(left, right)), \
            kind


@pytest.fixture
def dual_work(monkeypatch):
    """Counts the rule-independent work of a gcd run: det(B) and the
    d x d minors of B without column 1."""
    calls = []
    for name in ("det", "minors"):
        original = getattr(pipeline, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(pipeline, name, counted)
    return calls


@pytest.mark.parametrize("case", ["golden", (3, 1)], ids=str)
def test_rerun_takes_the_dual_minors_from_the_instance(case, dual_work):
    inst = fresh(instance(case))
    trace = gcd_iterations(inst)
    assert dual_work == ["minors", "det"]
    rerun = gcd_iterations(inst, rule="max")
    assert dual_work == ["minors", "det"]
    assert rerun.gcds == gcd_iterations(fresh(inst), rule="max").gcds
    del dual_work[:]
    verify_well_definedness(inst, trace)
    assert dual_work == []


def test_rebuilt_trace_of_a_fresh_instance_forms_the_dual_minors(
        dual_work):
    inst = instance((3, 1))
    trace = gcd_iterations(inst)
    other = fresh(inst)
    rebuilt = IterationTrace(other, trace.dual, trace.bilinear, trace.steps)
    del dual_work[:]
    assert outcomes(verify_well_definedness(other, rebuilt)) == \
        outcomes(verify_well_definedness(inst, trace))
    assert dual_work == ["minors", "det"]
