"""What the oracle keeps instead of recomputing: equal per-variable
quotients share one Ideal, and the candidate is compared once with a
colon power that has the saturation's basis.

The property tests compare intersections against one plain elimination
run, on random homogeneous ideals of the d=1 and d=2 rings at p=7 and
p=32003.
"""

import pytest

from reesgcd import ideals
from reesgcd.groebner import groebner_basis
from reesgcd.ideals import (
    Ideal,
    _eliminate_aux,
    colon,
    colon_power_chain,
    intersect,
    saturate,
    saturate_poly,
)
from reesgcd.pipeline import (
    IterationStep,
    IterationTrace,
    _difference_witness,
    builtin_example,
    gcd_iterations,
    random_instance,
    verify_main_theorem,
)
from reesgcd.ring import PolyRing

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given = hypothesis.given
settings = hypothesis.settings

from test_bayer import homogeneous_polys  # noqa: E402

RINGS = tuple(PolyRing.get(p, d) for p in (7, 32003) for d in (1, 2))
S = PolyRing.get(32003, 1)


def generator_lists(ring, max_size=3):
    return st.lists(
        st.integers(1, 3).flatmap(lambda k: homogeneous_polys(ring, k)),
        min_size=1, max_size=max_size)


@st.composite
def ideal_pairs(draw):
    ring = draw(st.sampled_from(RINGS))
    return ring, draw(generator_lists(ring)), draw(generator_lists(ring))


def plain_intersection(ring, a_gens, b_gens):
    """Reduced grevlex basis of (a) ∩ (b): one elimination run."""
    t = ring.aux
    gens = [t * g for g in a_gens] + [(ring.one - t) * h for h in b_gens]
    return _eliminate_aux(ring, gens, "reference")


def ideal(ring, *srcs):
    return Ideal(ring, [ring.parse(s) for s in srcs])


class TestIntersection:
    @settings(max_examples=60, deadline=None)
    @given(ideal_pairs(), st.randoms(use_true_random=False))
    def test_independent_of_argument_and_generator_order(self, problem,
                                                         rng):
        ring, a_gens, b_gens = problem
        expected = plain_intersection(ring, a_gens, b_gens)
        assert intersect(Ideal(ring, a_gens), Ideal(ring, b_gens)).gens \
            == expected
        assert intersect(Ideal(ring, b_gens), Ideal(ring, a_gens)).gens \
            == expected
        a_perm, b_perm = list(a_gens), list(b_gens)
        rng.shuffle(a_perm)
        rng.shuffle(b_perm)
        assert intersect(Ideal(ring, a_perm), Ideal(ring, b_perm)).gens \
            == expected
        # a first argument given by its reduced grevlex basis
        basis = groebner_basis(a_gens)
        assert intersect(Ideal(ring, basis, gb=basis),
                         Ideal(ring, b_perm)).gens == expected


class TestQuotients:
    def test_equal_quotients_share_one_ideal(self):
        a = ideal(S, "x1*x2^2", "x1^2*x2 - x1*T1^2")
        x1 = S.x(1)
        got = colon(a, x1)
        assert saturate_poly(a, x1) is got
        assert colon(a, S.parse("5*x1")) is got

    def test_different_quotients_differ(self):
        a = ideal(S, "x1^2*x2", "x1*x2^3 - T1^2*x2^2")
        x2 = S.x(2)
        assert colon(a, x2) is not saturate_poly(a, x2)
        assert not colon(a, x2).equals(saturate_poly(a, x2))


@pytest.fixture
def elimination_runs(monkeypatch):
    """Elimination-order Groebner runs from the moment it is requested."""
    runs = []
    original = ideals.groebner_basis

    def counted(gens, order=None, *args, **kwargs):
        if order is not None and order.name == "elim-aux":
            runs.append(len(gens))
        return original(gens, order, *args, **kwargs)

    monkeypatch.setattr(ideals, "groebner_basis", counted)
    return runs


class TestMainTheoremRuns:
    def test_m1_colon_step_reuses_the_saturation(self, elimination_runs):
        inst = random_instance(4, 1, seed=0)
        trace = gcd_iterations(inst)
        assert verify_main_theorem(inst, trace).ok
        # the d+1 = 5 saturations are one ideal, which is every colon as
        # well: each fold intersects it with itself, with no run
        assert len(elimination_runs) == 0
        base, variables = trace.base_ideal, inst.x_ideal()
        sat = saturate(base, variables)
        for x in variables.gens:
            assert colon(base, x) is saturate_poly(base, x)
            assert saturate_poly(base, x) is sat
        assert saturate(base, variables) is sat
        assert len(elimination_runs) == 0

    def test_golden_runs(self, elimination_runs):
        inst = builtin_example()
        assert verify_main_theorem(inst, gcd_iterations(inst)).ok
        # one in the saturation and one per colon step: in each fold the
        # quotients by x1..x4 are one ideal, met once with the larger
        # quotient by x5
        assert len(elimination_runs) == 4


def with_last_gcd(trace, gcd):
    """The trace with the gcd of its last step replaced."""
    steps = list(trace.steps)
    steps[-1] = IterationStep(steps[-1].matrix, gcd, gcd.bidegree())
    return IterationTrace(trace.instance, trace.dual, trace.bilinear, steps)


class TestCandidateComparedOnce:
    @pytest.mark.parametrize("case", ["golden", (1, 0), (2, 0)], ids=str)
    @pytest.mark.parametrize("perturbation", ["larger", "smaller"])
    def test_perturbed_candidate_fails_both_checks(self, case,
                                                   perturbation):
        inst = builtin_example() if case == "golden" else \
            random_instance(4, case[0], seed=case[1])
        ring, m, d = inst.ring, inst.degree, inst.d
        trace = gcd_iterations(inst)
        last = trace.gcds[-1]
        if perturbation == "larger":
            # a form of the last gcd's bidegree outside the saturation
            gcd = last + ring.T(1) ** (m * (d - 1))
        else:
            gcd = ring.x(1) * last
        perturbed = with_last_gcd(trace, gcd)
        rep = verify_main_theorem(inst, perturbed)

        # each identity compared on its own, as by two equals calls
        candidate = perturbed.defining_ideal
        base, variables = perturbed.base_ideal, inst.x_ideal()
        targets = {
            "saturation-identity": saturate(base, variables),
            "colon-power-identity": colon_power_chain(base, variables,
                                                      m)[-1],
        }
        for check_id, target in targets.items():
            assert not candidate.equals(target)
            found = rep.find(check_id)
            assert found.status == "fail"
            assert found.witness == _difference_witness(candidate, target)
            assert found.witness

    @pytest.mark.parametrize("case, top", [("golden", "T1^9"),
                                           ((1, 0), "T1^3"),
                                           ((2, 0), "T1^6")], ids=str)
    def test_enlarged_candidate_fails_on_the_right_in_one_run(
            self, case, top, monkeypatch):
        # the verdict's run, on the saturation's divided elements, is the
        # candidate's only one: the witness comes from the saturation's
        # own basis
        inst = builtin_example() if case == "golden" else \
            random_instance(4, case[0], seed=case[1])
        ring, m, d = inst.ring, inst.degree, inst.d
        trace = gcd_iterations(inst)
        enlarged = Ideal(ring, trace.generators()
                         + (ring.T(1) ** (m * (d - 1)),))
        trace._partials[m] = enlarged  # the trace's candidate
        runs = []
        original = ideals.groebner_basis

        def counted(gens, order=None, *args, **kwargs):
            if tuple(gens) == enlarged.gens:
                runs.append(kwargs.get("within"))
            return original(gens, order, *args, **kwargs)

        monkeypatch.setattr(ideals, "groebner_basis", counted)
        rep = verify_main_theorem(inst, trace)
        for check_id in ("saturation-identity", "colon-power-identity"):
            assert rep.find(check_id).witness == \
                "not in right ideal: %s" % top
        assert len(runs) == 1 and runs[0] is not None
