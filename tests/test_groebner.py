"""Groebner engine: hand-checked bases, normal forms, budgets, and
graded runs that return their reduced basis with no closing pass."""

import json
import os
import random

import pytest

from reesgcd.ring import PolyRing
from reesgcd.ideals import Ideal
from reesgcd.matrices import PolyMatrix, submaximal_pfaffians
from reesgcd.pipeline import builtin_example, gcd_iterations
from reesgcd import groebner
from reesgcd.groebner import (
    groebner_basis, normal_form, spolynomial, is_groebner, BudgetExceeded,
    hilbert_numerator, interreduce,
)

from elimination_reference import reduce_basis
from order_reference import BlockOrder

R = PolyRing.get(32003, 4)

PRESENTATION_ROWS = [
    ["0", "x1", "x2", "0", "x4"],
    ["-x1", "0", "x4", "0", "x3"],
    ["-x2", "-x4", "0", "x1", "x5"],
    ["0", "0", "-x1", "0", "x2"],
    ["-x4", "-x3", "-x5", "-x2", "0"],
]


def presented_forms(ring, rows):
    """[T1..Tn] . presentation as a list of bilinear forms."""
    presentation = PolyMatrix.from_rows(ring, rows)
    n = ring.n
    return [sum((ring.T(i + 1) * presentation.at(i, j) for i in range(n)),
                ring.zero) for j in range(n)]


class TestBasics:
    def test_zero_and_unit(self):
        assert groebner_basis([R.zero]) == ()
        assert groebner_basis([]) == ()
        gb = groebner_basis([R.x(1), R.x(1) + 1])
        assert gb == (R.one,)

    def test_principal(self):
        f = R.parse("2*x1^2 - 2*T1")
        gb = groebner_basis([f])
        assert gb == (f.monic(),)

    def test_two_variable_elimination_shape(self):
        # x := x1, T := T1 with the x-block eliminated first acts like a
        # lexicographic order on two variables
        ring = PolyRing.get(32003, 0)
        x, y = ring.x(1), ring.T(1)
        elim_x = BlockOrder("elim-x", [list(ring.x_slots),
                                       list(ring.t_slots) + [ring.aux_slot]],
                            ring.nvars)
        gb = groebner_basis([x * x - 1, x * y - 1], elim_x)
        assert set(gb) == {x - y, y * y - 1}

    def test_idempotent_under_reduction(self):
        gb = groebner_basis([R.parse("x1*x2 - T1"), R.parse("x2^2 - T2")])
        assert groebner_basis(list(gb)) == gb

    def test_input_order_irrelevant(self):
        gens = [R.parse("x1*T2 - x3"), R.parse("x2^2 - x1*x3"),
                R.parse("x3*T1 - x2")]
        gb = groebner_basis(gens)
        rng = random.Random(2)
        for _ in range(4):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert groebner_basis(shuffled) == gb

    def test_determinism(self):
        gens = [R.parse("x1^2*T1 - x2"), R.parse("x2*T2 - x1")]
        assert groebner_basis(gens) == groebner_basis(gens)


class TestNormalForm:
    def test_members_reduce_to_zero(self):
        ells = presented_forms(R, PRESENTATION_ROWS)
        gb = groebner_basis(ells)
        for ell in ells:
            assert normal_form(ell, gb).is_zero
        combo = ells[0] * R.T(3) - ells[4] * R.x(2)
        assert normal_form(combo, gb).is_zero

    def test_nonmember(self):
        gb = groebner_basis([R.x(i) for i in range(1, 6)])
        assert normal_form(R.one, gb) == R.one
        assert normal_form(R.T(1) + R.x(1), gb) == R.T(1)

    def test_zero_input(self):
        assert normal_form(R.zero, [R.x(1)]).is_zero


class TestSPolynomial:
    def test_classic_cancellation(self):
        f = R.parse("x1^2 - 1")
        g = R.parse("x1*x2 - 1")
        # x2*f - x1*g: the degree-3 lead terms cancel
        assert spolynomial(f, g) == R.parse("x1 - x2")

    def test_groebner_recognizer(self):
        f = R.parse("x1^2 - 1")
        g = R.parse("x1*x2 - 1")
        assert not is_groebner([f, g])
        assert is_groebner(list(groebner_basis([f, g])))


class TestGrevlexResults:
    def test_terms_are_the_rekeyed_conversion(self):
        """Grevlex results keep the terms the run left; they equal the
        grevlex rekeying and sort that results under any other order
        take."""
        key = R.grevlex.key

        def rekeyed(g):
            return tuple(sorted(((key(e), e, c) for _, e, c in g.terms),
                                reverse=True))

        forms = presented_forms(R, PRESENTATION_ROWS) + [R.parse("x5^3")]
        basis = groebner_basis(forms)
        probe = R.parse("x1^3*T2 - 7*x5^2*x2*T1 + x4^2*x3*T5 + 3*T4^4")
        results = list(basis) + [
            normal_form(probe, basis), normal_form(probe * forms[0], basis),
            spolynomial(basis[-1], basis[-2])]
        assert any(len(g) > 1 for g in results)
        for g in results:
            assert g.terms == rekeyed(g)
        revlex = R.revlex_last(4)
        for g in groebner_basis(forms, revlex):
            assert g.terms == rekeyed(g)


class TestEliminationProperty:
    def test_aux_free_leads_are_aux_free(self):
        t = R.aux
        gens = [t * R.x(1) - 1, R.x(1) * R.x(2)]
        gb = groebner_basis(gens, R.elim_aux)
        aux = R.aux_slot
        for g in gb:
            if g.lead_exp()[aux] == 0:
                assert all(e[aux] == 0 for e, _ in g.items())
        eliminated = [g for g in gb if g.lead_exp()[aux] == 0]
        assert [g for g in eliminated] == [R.x(2)]


class TestBudget:
    def test_basis_cap(self):
        ells = presented_forms(R, PRESENTATION_ROWS)
        with pytest.raises(BudgetExceeded):
            groebner_basis(ells, max_basis=2)

    def test_degree_cap(self):
        gens = [R.parse("x1^3 - T1*x2^2"), R.parse("x2^3*T2 - x1*T1^2")]
        with pytest.raises(BudgetExceeded):
            groebner_basis(gens, max_degree=2)

    @pytest.mark.parametrize("order,srcs,top", [
        # an S-pair of the two quadrics admits a cubic
        ("grevlex", ["x1^2 - x2*x3", "x1*x2 - x3^2"], 3),
        ("revlex-last-x3", ["x1^2 - x2*x3", "x1*x2 - x3^2"], 3),
        # the degree-12 term of the largest admitted element is no lead
        ("elim-aux", ["x1^3 - T1*x2^2", "x2^3*T2 - x1*T1^2",
                      "t*x2 - x3^3"], 12),
    ])
    def test_degree_cap_admits_the_cap_and_not_one_more(self, order, srcs,
                                                         top):
        order = {"grevlex": R.grevlex, "revlex-last-x3": R.revlex_last(2),
                 "elim-aux": R.elim_aux}[order]
        gens = [R.parse(src) for src in srcs]
        assert groebner_basis(gens, order, max_degree=top) == \
            groebner_basis(gens, order)
        with pytest.raises(BudgetExceeded,
                           match=r"^degree cap %d exceeded \(%s\)$"
                                 % (top - 1, order.name)):
            groebner_basis(gens, order, max_degree=top - 1)

    def test_message_names_the_order(self):
        ells = presented_forms(R, PRESENTATION_ROWS)
        order = R.revlex_last(2)
        with pytest.raises(BudgetExceeded,
                           match=r"^basis size cap 2 exceeded "
                                 r"\(revlex-last-x3\)$"):
            groebner_basis(ells, order, max_basis=2)
        gens = [R.parse("x1^3 - T1*x2^2"), R.parse("x2^3*T2 - x1*T1^2")]
        with pytest.raises(BudgetExceeded,
                           match=r"^degree cap 2 exceeded \(elim-aux\)$"):
            groebner_basis(gens, R.elim_aux, max_degree=2)


def random_bihomogeneous(rng, ring, bidegree, size=3):
    """A nonzero t-free polynomial of the given bidegree, at most size
    terms."""
    while True:
        coeffs = {}
        for _ in range(size):
            exp = [0] * ring.nvars
            for _ in range(bidegree[0]):
                exp[rng.choice(ring.x_slots)] += 1
            for _ in range(bidegree[1]):
                exp[rng.choice(ring.t_slots)] += 1
            coeffs[tuple(exp)] = rng.randrange(1, ring.p)
        f = ring.from_dict(coeffs)
        if not f.is_zero:
            return f


def lowest_listed_last(rng, ring):
    """Shuffled bihomogeneous generators of larger degree, one of them a
    multiple of a generator g of smaller degree, with g listed last."""
    low = rng.choice([(1, 0), (0, 1), (1, 1)])
    g = random_bihomogeneous(rng, ring, low)
    higher = [random_bihomogeneous(rng, ring,
                                   (low[0] + rng.randint(0, 1), low[1] + 1))
              for _ in range(rng.randint(1, 4))]
    higher.append(random_bihomogeneous(rng, ring, (1, 0), size=1) * g)
    rng.shuffle(higher)
    return higher + [g]


TIGHT_RING = PolyRing.get(7, 1)


class TestTightAdmission:
    """Homogeneous input under a graded order: inputs and S-pairs come
    off in nondecreasing degree, so every admitted element keeps its lead
    in the reduced basis, and the run fits a basis cap of exactly the
    reduced basis's length."""

    @pytest.mark.parametrize("truncated", [False, True])
    @pytest.mark.parametrize("slot", [None] + list(range(TIGHT_RING.nvars)))
    def test_fits_the_reduced_basis_and_not_one_less(self, slot, truncated):
        ring = TIGHT_RING
        order = ring.grevlex if slot is None else ring.revlex_last(slot)
        rng = random.Random(slot)
        for _ in range(12):
            gens = lowest_listed_last(rng, ring)
            within = None
            if truncated:
                within = tuple(max(g.bidegree()[k] for g in gens)
                               for k in (0, 1))
            gb = groebner_basis(gens, order, within=within)
            assert groebner_basis(gens, order, max_basis=len(gb),
                                  within=within) == gb
            with pytest.raises(BudgetExceeded):
                groebner_basis(gens, order, max_basis=len(gb) - 1,
                               within=within)


def count_closing_passes(monkeypatch):
    """Patch the closing interreduction of a run to count its calls."""
    counted = {"passes": 0}
    original = groebner._autoreduce

    def counting(basis_terms, mod, guard):
        counted["passes"] += 1
        return original(basis_terms, mod, guard)

    monkeypatch.setattr(groebner, "_autoreduce", counting)
    return counted


REDUCED_RINGS = (PolyRing.get(7, 1), PolyRing.get(32003, 1),
                 PolyRing.get(7, 2))


class TestReducedAsAdmitted:
    """Homogeneous input under a graded order: an admitted lead rewrites
    the earlier elements of its degree that hold it, so the run returns
    its reduced basis with no closing pass; other input still takes
    it."""

    def test_homogeneous_runs_return_their_reduced_basis(self,
                                                         monkeypatch):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        counted = count_closing_passes(monkeypatch)

        def run(gens, order, **kwargs):
            before = counted["passes"]
            gb = groebner_basis(gens, order, **kwargs)
            assert counted["passes"] == before
            return gb

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(st.randoms(use_true_random=False))
        def check(rng):
            ring = rng.choice(REDUCED_RINGS)
            gens = [random_bihomogeneous(
                rng, ring, rng.choice([(1, 0), (0, 1), (1, 1), (2, 0),
                                       (0, 2), (2, 1)]),
                size=rng.randint(1, 4)) for _ in range(rng.randint(1, 4))]
            num = hilbert_numerator(run(gens, ring.grevlex))
            box = (rng.randint(0, 3), rng.randint(0, 3))
            for slot in [None] + list(range(ring.nvars)):
                order = ring.grevlex if slot is None else \
                    ring.revlex_last(slot)
                plain = run(gens, order)
                for gb in (plain, run(gens, order, hilbert=num)):
                    assert gb == plain
                    assert interreduce(gb, order) == gb
                    assert is_groebner(gb, order)
                truncated = run(gens, order, within=box)
                assert interreduce(truncated, order) == truncated
                assert truncated == tuple(
                    g for g in plain if g.x_degree() <= box[0]
                    and g.t_degree() <= box[1])
        check()

    def test_inhomogeneous_input_takes_the_closing_pass(self, monkeypatch):
        counted = count_closing_passes(monkeypatch)
        gens = [R.parse("x1^3 - x2*T1"), R.parse("x1*x2 - x3"),
                R.parse("x2^2 - T1")]
        gb = groebner_basis(gens)
        assert counted["passes"] == 1
        assert interreduce(gb) == gb
        assert is_groebner(gb)
        assert all(normal_form(g, gb).is_zero for g in gens)


class TestReduceBasis:
    def test_strips_redundant_and_normalizes(self):
        gb = list(groebner_basis([R.parse("x1^2 - T1"), R.x(2)]))
        padded = gb + [gb[0].scale(7), (gb[0] * R.x(3))]
        assert reduce_basis(padded) == tuple(gb)


def test_golden_bases_match_recorded():
    """Reduced bases of the golden instance, string for string, as the
    merge-based reduction kernel computed them (tests/golden_bases.json)."""
    path = os.path.join(os.path.dirname(__file__), "golden_bases.json")
    with open(path) as fh:
        recorded = json.load(fh)
    inst = builtin_example()
    ring = inst.ring
    trace = gcd_iterations(inst)
    t = ring.aux
    intersection = [t * g for g in trace.base_ideal.gens]
    intersection.append((ring.one - t) * ring.x(1))
    computed = {
        "pfaffians_grevlex": groebner_basis(
            submaximal_pfaffians(inst.presentation)),
        "base_cap_x1_elim_aux": groebner_basis(intersection,
                                               ring.elim_aux),
        "defining_ideal_grevlex": Ideal(
            ring, trace.defining_ideal.gens).groebner(),
    }
    assert {name: [str(g) for g in gb] for name, gb in computed.items()} \
        == {name: recorded[name] for name in computed}
