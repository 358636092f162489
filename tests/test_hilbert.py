"""Groebner runs driven by a bigraded Hilbert series.

The numerator of groebner.hilbert_numerator against brute-force counts of
standard monomials; driven runs against plain ones under grevlex and every
revlex_last order; the criterion firing on the Bayer runs of a base
ideal; the inputs a driven run refuses, and the final check tripped by a
target that belongs to a larger ideal.
"""

from itertools import product
from math import comb

import pytest

from reesgcd import groebner, ideals
from reesgcd.groebner import groebner_basis, hilbert_numerator
from reesgcd.ideals import colon, intersect, saturate_poly
from reesgcd.pipeline import builtin_example, gcd_iterations, random_instance
from reesgcd.ring import PolyRing

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given = hypothesis.given
settings = hypothesis.settings

RINGS = tuple(PolyRing.get(p, d) for p in (7, 32003) for d in (1, 2))


def hilbert_value(num, a, b, n):
    """dim_(a, b) of the series num / ((1 - s)^n (1 - u)^n)."""
    return sum(c * comb(a - i + n - 1, n - 1) * comb(b - j + n - 1, n - 1)
               for (i, j), c in num.items() if i <= a and j <= b)


def block_exponents(n, degree):
    """Every exponent vector of n variables of total degree degree."""
    return [e for e in product(range(degree + 1), repeat=n)
            if sum(e) == degree]


def standard_count(ring, gens, a, b):
    """Monomials of bidegree (a, b) divisible by no generator."""
    n = ring.n
    count = 0
    for ex in block_exponents(n, a):
        for et in block_exponents(n, b):
            mono = ex + et
            if not any(all(g <= m for g, m in zip(gen, mono))
                       for gen in gens):
                count += 1
    return count


@st.composite
def monomial_ideals(draw):
    ring = draw(st.sampled_from(RINGS))
    width = 2 * ring.n
    gens = draw(st.lists(st.tuples(*[st.integers(0, 3)] * width),
                         min_size=0, max_size=5))
    return ring, gens


def bihomogeneous_polys(ring, max_degree=2):
    """Nonzero t-free polynomials whose terms share one bidegree."""
    n = ring.n

    def terms(bidegree):
        a, b = bidegree
        monomials = st.tuples(st.sampled_from(block_exponents(n, a)),
                              st.sampled_from(block_exponents(n, b))).map(
            lambda pair: pair[0] + pair[1] + (0,))
        return st.dictionaries(monomials, st.integers(1, ring.p - 1),
                               min_size=1, max_size=4)

    bidegrees = st.tuples(st.integers(0, max_degree),
                          st.integers(0, max_degree)).filter(any)
    return bidegrees.flatmap(terms).map(ring.from_dict).filter(bool)


@st.composite
def bihomogeneous_ideals(draw):
    ring = draw(st.sampled_from(RINGS))
    gens = draw(st.lists(bihomogeneous_polys(ring), min_size=1,
                         max_size=4))
    return ring, gens


def graded_orders(ring):
    return [ring.grevlex] + [ring.revlex_last(slot)
                             for slot in range(ring.nvars)]


def lead_monomials(basis, order):
    """The lead monomials of basis under order."""
    return [g.ring.monomial(g.lead_exp(order)) for g in basis]


def base_ideal(case):
    inst = builtin_example() if case == "golden" else \
        random_instance(4, 1, seed=0)
    return gcd_iterations(inst).base_ideal


class TestNumerator:
    @settings(max_examples=80, deadline=None)
    @given(monomial_ideals())
    def test_matches_standard_monomial_counts(self, problem):
        ring, gens = problem
        polys = [ring.monomial(g + (0,)) for g in gens]
        num = hilbert_numerator(polys)
        for a in range(5):
            for b in range(5):
                assert hilbert_value(num, a, b, ring.n) == \
                    standard_count(ring, gens, a, b), (a, b)

    def test_zero_and_unit_ideal(self):
        ring = RINGS[0]
        assert hilbert_numerator(()) == {(0, 0): 1}
        assert hilbert_numerator((ring.one,)) == {}

    def test_coprime_leads_give_the_product(self):
        # (x1^2, T2^3): (1 - s^2)(1 - u^3)
        ring = RINGS[1]
        gens = [ring.parse("x1^2"), ring.parse("T2^3")]
        assert hilbert_numerator(gens) == {(0, 0): 1, (2, 0): -1,
                                           (0, 3): -1, (2, 3): 1}

    @pytest.mark.parametrize("case", ["golden", "m1k0"])
    def test_the_same_under_every_order(self, case):
        base = base_ideal(case)
        ring = base.ring
        first, *rest = [
            hilbert_numerator(lead_monomials(
                groebner_basis(base.gens, order), order))
            for order in graded_orders(ring)]
        assert all(num == first for num in rest)

    def test_refuses_leads_with_t(self):
        ring = RINGS[0]
        with pytest.raises(ValueError):
            hilbert_numerator([ring.aux * ring.x(1)])


class TestDrivenEqualsPlain:
    @settings(max_examples=40, deadline=None)
    @given(bihomogeneous_ideals())
    def test_random_bihomogeneous_ideals(self, problem):
        ring, gens = problem
        num = hilbert_numerator(groebner_basis(gens))
        for order in graded_orders(ring):
            assert groebner_basis(gens, order, hilbert=num) == \
                groebner_basis(gens, order)

    @pytest.mark.parametrize("case", ["golden", "m1k0"])
    def test_base_ideal(self, case):
        base = base_ideal(case)
        ring = base.ring
        first = ring.revlex_last(0)
        num = hilbert_numerator(lead_monomials(
            groebner_basis(base.gens, first), first))
        for order in graded_orders(ring):
            assert groebner_basis(base.gens, order, hilbert=num) == \
                groebner_basis(base.gens, order)


def count_reduced_pairs(monkeypatch):
    """Patch the reduction kernel to count the S-pairs it reduces."""
    counted = {"pairs": 0}
    original = groebner._reduce_terms

    def counting(terms, basis, mod, guard, shifted=()):
        if shifted:
            counted["pairs"] += 1
        return original(terms, basis, mod, guard, shifted)

    monkeypatch.setattr(groebner, "_reduce_terms", counting)
    return counted


def record_targets(monkeypatch):
    """Patch the runs of the ideal layer to record their hilbert targets."""
    calls = []
    original = ideals.groebner_basis

    def recording(gens, order=None, **kwargs):
        calls.append(kwargs.get("hilbert"))
        return original(gens, order, **kwargs)

    monkeypatch.setattr(ideals, "groebner_basis", recording)
    return calls


class TestCriterionFires:
    def test_bayer_runs_2_to_5_reduce_at_most_half_the_pairs(
            self, monkeypatch):
        base = base_ideal("m1k0")
        ring = base.ring
        first = ring.revlex_last(0)
        num = hilbert_numerator(lead_monomials(
            groebner_basis(base.gens, first), first))
        counted = count_reduced_pairs(monkeypatch)
        for slot in range(1, 5):
            groebner_basis(base.gens, ring.revlex_last(slot))
        plain = counted["pairs"]
        counted["pairs"] = 0
        for slot in range(1, 5):
            groebner_basis(base.gens, ring.revlex_last(slot), hilbert=num)
        assert 0 < 2 * counted["pairs"] <= plain

    def test_an_admitted_element_settles_its_bidegree(self):
        # target (x1, x2) in k[x1, x2, T1, T2]: after x1 the lead ideal
        # lacks one form of bidegree (1, 0), after x2 none
        ring = RINGS[2]
        x1, x2 = (ring.pack(e) for e in ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0)))
        driver = groebner._HilbertDriver(
            ring, hilbert_numerator([ring.x(1), ring.x(2)]))
        driver.admit(x1, [])
        assert not driver.settled(x2)
        driver.admit(x2, [x1])
        assert driver.settled(x2)
        driver.check(ring.grevlex)

    def test_ideal_drives_every_run_after_its_first(self, monkeypatch):
        # asked for a revlex-last basis first, the base ideal makes its
        # grevlex basis, whose series drives every revlex-last run
        base = base_ideal("golden")
        ring = base.ring
        calls = record_targets(monkeypatch)
        orders = [ring.revlex_last(slot) for slot in ring.x_slots]
        for order in orders:
            base.groebner(order)
        assert list(base._bases) == [ring.grevlex] + orders
        target = hilbert_numerator(base.groebner())
        assert calls == [None] + [target] * 5

    def test_intersection_basis_drives_the_first_revlex_run(
            self, monkeypatch):
        base = base_ideal("golden")
        ring = base.ring
        # on golden base : x1^inf and base : x5 are incomparable, so they
        # meet in a new ideal known only by its grevlex basis
        left = saturate_poly(base, ring.x(1))
        right = colon(base, ring.x(5))
        step = intersect(left, right)
        assert not step.equals(left) and not step.equals(right)
        calls = record_targets(monkeypatch)
        step.groebner(ring.revlex_last(0))
        assert calls == [hilbert_numerator(step.groebner())]


class TestRefusals:
    def setup_method(self):
        self.ring = RINGS[1]
        r = self.ring
        self.gens = [r.parse("x1*T1 - x2*T2"), r.parse("x1^2*T2")]
        self.num = hilbert_numerator(groebner_basis(self.gens))

    def test_non_bihomogeneous_input(self):
        r = self.ring
        with pytest.raises(ValueError):
            groebner_basis(self.gens + [r.parse("x1^2 - T1^2")],
                           hilbert=self.num)

    def test_input_with_t(self):
        r = self.ring
        with pytest.raises(ValueError):
            groebner_basis(self.gens + [r.aux * r.x(1)], hilbert=self.num)

    def test_elimination_order(self):
        with pytest.raises(ValueError):
            groebner_basis(self.gens, self.ring.elim_aux, hilbert=self.num)

    def test_truncated_run(self):
        with pytest.raises(ValueError):
            groebner_basis(self.gens, within=(3, 3), hilbert=self.num)

    def test_target_of_a_larger_ideal_trips_the_final_check(self):
        r = self.ring
        larger = hilbert_numerator(groebner_basis(
            self.gens + [r.parse("x2^2*T1")]))
        with pytest.raises(AssertionError, match="Hilbert series"):
            groebner_basis(self.gens, hilbert=larger)

    @pytest.mark.parametrize("case", ["golden", "m1k0"])
    def test_larger_target_on_the_base_ideal(self, case):
        base = base_ideal(case)
        ring = base.ring
        bigger = list(base.gens) + [ring.x(1) * ring.T(1) ** 2]
        larger = hilbert_numerator(groebner_basis(bigger))
        with pytest.raises(AssertionError, match="Hilbert series"):
            groebner_basis(base.gens, ring.revlex_last(1), hilbert=larger)
