"""What the oracle keeps instead of recomputing: equal per-variable
quotients share one Ideal, intersections are kept on their first argument
by the generators of the second, an elimination run whose first
inputs are a reduced basis reduces no pair among them, and the candidate
is compared once with a colon power that has the saturation's basis.

The property tests compare against runs without the memos or the
known-basis criterion, on random homogeneous ideals of the d=1 and d=2
rings at p=7 and p=32003.
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
    """Reduced grevlex basis of (a) ∩ (b): one elimination run, no memo
    and no known-basis criterion."""
    t = ring.aux
    gens = [t * g for g in a_gens] + [(ring.one - t) * h for h in b_gens]
    return _eliminate_aux(ring, gens, "reference")


def ideal(ring, *srcs):
    return Ideal(ring, [ring.parse(s) for s in srcs])


class TestKnownBasis:
    @settings(max_examples=60, deadline=None)
    @given(ideal_pairs())
    def test_grevlex_prefix(self, problem):
        ring, a_gens, extra = problem
        prefix = list(groebner_basis(a_gens))
        gens = prefix + extra
        assert groebner_basis(gens, known=len(prefix)) == \
            groebner_basis(gens)

    @settings(max_examples=60, deadline=None)
    @given(ideal_pairs())
    def test_elimination_prefix(self, problem):
        """The intersection's case: t times a reduced grevlex basis leads
        an elimination run."""
        ring, a_gens, b_gens = problem
        t = ring.aux
        prefix = [t * g for g in groebner_basis(a_gens)]
        gens = prefix + [(ring.one - t) * h for h in b_gens]
        assert groebner_basis(gens, ring.elim_aux, known=len(prefix)) == \
            groebner_basis(gens, ring.elim_aux)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_prefix_changed_on_admission_is_not_trusted(self, data):
        """A prefix entry that reduces against an earlier one shows the
        prefix is no reduced basis, and every pair is reduced."""
        ring = data.draw(st.sampled_from(RINGS))
        f = data.draw(homogeneous_polys(ring, 2))
        v = data.draw(homogeneous_polys(ring, 1).map(
            lambda g: ring.term(1, g.lead_exp())))
        lower = data.draw(homogeneous_polys(ring, 2))
        rest = data.draw(generator_lists(ring))
        # the lead of f*v + lower is lead(f)*v, divisible by lead(f)
        gens = [f, f * v + lower] + rest
        assert groebner_basis(gens, known=2) == groebner_basis(gens)

    def test_zero_or_overlong_prefix_is_not_trusted(self):
        a, b = S.parse("x1^2 - x2*T1"), S.parse("x1*x2 - T1^2")
        plain = groebner_basis([a, b])
        assert groebner_basis([a, S.zero, b], known=2) == plain
        assert groebner_basis([a, b], known=3) == plain


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
        # a basis first takes the known-basis criterion
        basis = groebner_basis(a_gens)
        assert intersect(Ideal(ring, basis, gb=basis),
                         Ideal(ring, b_perm)).gens == expected

    def test_kept_per_generators_of_the_second_argument(self):
        a = ideal(S, "x1")
        first = intersect(a, ideal(S, "x2"))
        second = intersect(a, ideal(S, "x1 + x2"))
        assert [str(g) for g in first.gens] == ["x1*x2"]
        assert [str(g) for g in second.gens] == ["x1^2 + x1*x2"]
        assert intersect(a, ideal(S, "x2")) is first
        assert intersect(ideal(S, "x1"), ideal(S, "x2")) is not first

    def test_known_only_for_a_basis(self, monkeypatch):
        # x1^2 - x2*T1 and x1*x2 - T1^2: interreduced, but no basis
        a = ideal(S, "x1^2 - x2*T1", "x1*x2 - T1^2")
        b = ideal(S, "x2^3", "T1")
        expected = plain_intersection(S, a.gens, b.gens)
        claims = []
        original = ideals.groebner_basis

        def recorded(gens, order=None, *args, known=0, **kwargs):
            claims.append(known)
            return original(gens, order, *args, known=known, **kwargs)

        monkeypatch.setattr(ideals, "groebner_basis", recorded)
        meet = intersect(a, b)
        assert meet.gens == expected
        assert claims == [0]
        intersect(meet, ideal(S, "x1 + T2"))
        assert claims == [0, len(meet.gens)]


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
