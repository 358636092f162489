"""Ideal operations against small hand-computed cases and a brute oracle."""

import json
import os
import random
from itertools import combinations_with_replacement

import pytest

from reesgcd.ring import PolyRing
from reesgcd.matrices import PolyMatrix, minors, submaximal_pfaffians
from reesgcd.ideals import (
    Ideal,
    colon,
    colon_power_chain,
    dimension,
    height,
    height_in_hypersurface,
    intersect,
    saturate,
    saturate_poly,
)
from reesgcd.pipeline import builtin_example, gcd_iterations, random_instance

from elimination_reference import (
    _colon_by_elimination,
    _saturate_by_elimination,
)

# tiny ambient ring: variables x1, x2, T1, T2 plus the helper slot
S = PolyRing.get(32003, 1)
R = PolyRing.get(32003, 4)

PRESENTATION_ROWS = [
    ["0", "x1", "x2", "0", "x4"],
    ["-x1", "0", "x4", "0", "x3"],
    ["-x2", "-x4", "0", "x1", "x5"],
    ["0", "0", "-x1", "0", "x2"],
    ["-x4", "-x3", "-x5", "-x2", "0"],
]


def ideal(ring, *srcs):
    return Ideal(ring, [ring.parse(s) for s in srcs])


class TestIntersection:
    def test_principal_monomials(self):
        got = intersect(ideal(S, "x1"), ideal(S, "x2"))
        assert got.equals(ideal(S, "x1*x2"))

    def test_idempotent(self):
        a = ideal(S, "x1^2", "x1*x2")
        assert intersect(a, a).equals(a)

    def test_monomial_mixed(self):
        a = ideal(S, "x1^2", "x1*x2")
        got = intersect(a, ideal(S, "x2"))
        assert got.equals(ideal(S, "x1*x2"))

    def test_commutative(self):
        a = ideal(S, "x1^2 - x2", "x1*x2")
        b = ideal(S, "x2^2", "x1 + x2")
        assert intersect(a, b).equals(intersect(b, a))

    def test_associative_fold(self):
        a = ideal(S, "x1")
        b = ideal(S, "x2")
        c = ideal(S, "x1 + x2")
        left = intersect(intersect(a, b), c)
        assert left.equals(intersect(a, intersect(b, c)))
        assert left.equals(ideal(S, "x1^2*x2 + x1*x2^2"))

    def test_zero_absorbs(self):
        a = ideal(S, "x1")
        assert intersect(a, Ideal(S, ())).is_zero

    def test_result_carries_groebner_basis(self):
        got = intersect(ideal(S, "x1"), ideal(S, "x2"))
        assert S.grevlex in got._bases
        assert got.contains(S.parse("x1*x2^3"))

    def test_rejects_helper_variable_input(self):
        with pytest.raises(ValueError):
            intersect(Ideal(S, [S.aux]), ideal(S, "x1"))


class TestColon:
    def test_principal(self):
        got = colon(ideal(S, "x1^2"), S.parse("x1"))
        assert got.equals(ideal(S, "x1"))

    def test_colon_by_nondivisor_keeps_ideal(self):
        a = ideal(S, "x1")
        assert colon(a, S.parse("x2")).equals(a)

    def test_colon_to_unit(self):
        got = colon(ideal(S, "x1"), S.parse("x1"))
        assert got.contains(S.one)
        ref = _colon_by_elimination(ideal(S, "x1"), S.parse("x1^2"))
        assert ref.contains(S.one)

    def test_colon_ideal(self):
        a = ideal(S, "x1^2", "x1*x2")
        b = ideal(S, "x1", "x2")
        [got] = colon_power_chain(a, b, 1)
        assert got.equals(ideal(S, "x1"))

    def test_colon_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            colon(ideal(S, "x1"), S.zero)
        with pytest.raises(ZeroDivisionError):
            colon_power_chain(ideal(S, "x1"), Ideal(S, ()), 1)

    def test_chain_stabilizes(self):
        a = ideal(S, "x1^2", "x1*x2")
        b = ideal(S, "x1", "x2")
        chain = colon_power_chain(a, b, 3)
        assert len(chain) == 3
        expected = ideal(S, "x1")
        for step in chain:
            assert step.equals(expected)
        assert colon_power_chain(a, b, 0) == []

    def test_membership_definition(self):
        # h is in a : b exactly when h*b is inside a, spot-checked
        a = ideal(S, "x1^2", "x1*x2")
        b = ideal(S, "x1", "x2")
        [q] = colon_power_chain(a, b, 1)
        rng = random.Random(7)
        names = ["x1", "x2", "T1"]
        for _ in range(25):
            h = S.zero
            for _ in range(3):
                c = rng.randrange(-3, 4)
                e1, e2 = rng.randrange(3), rng.randrange(3)
                h = h + S.poly(c) * S.x(1) ** e1 * S.x(2) ** e2
            inside = all(a.contains(h * g) for g in b.gens)
            assert q.contains(h) == inside, str(h)
        assert names  # silence lint on unused helper data


class TestSaturation:
    def test_single_polynomial(self):
        a = ideal(S, "x1^2*x2", "x1*x2^3")
        got = saturate_poly(a, S.parse("x2"))
        assert got.equals(ideal(S, "x1"))

    def test_ideal_saturation(self):
        a = ideal(S, "x1^2", "x1*x2")
        b = ideal(S, "x1", "x2")
        assert saturate(a, b).equals(ideal(S, "x1"))

    def test_matches_stabilized_colon_power(self):
        a = ideal(S, "x1^3", "x1^2*x2", "x1*x2^2")
        b = ideal(S, "x1", "x2")
        sat = saturate(a, b)
        assert sat.equals(colon_power_chain(a, b, 3)[-1])
        assert sat.equals(ideal(S, "x1"))

    def test_strictness_below_stabilization(self):
        # x1*x2^2 enters only at the second colon step
        a = ideal(S, "x1^3", "x1^2*x2^2")
        b = ideal(S, "x1", "x2")
        first, second = colon_power_chain(a, b, 2)
        assert not first.equals(second)
        assert second.contains(S.parse("x1^2"))
        assert not first.contains(S.parse("x1^2"))

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            saturate_poly(ideal(S, "x1"), S.zero)
        with pytest.raises(ZeroDivisionError):
            saturate(ideal(S, "x1"), Ideal(S, ()))


# (divisor, generators, colon, saturation): a divisor that is not a
# variable, or an inhomogeneous ideal, with the answers by hand
OTHER_INPUT = [
    ("x1^2", ("x1^3", "x1*x2"), ("x1", "x2"), ("1",)),
    ("x1 + x2", ("x1^3", "x1*x2"), ("x1^2", "x1*x2"), ("x1",)),
    ("x1", ("x1^3 - x2", "x1*x2"), ("x2", "x1^3"), ("1",)),
]


class TestEliminationReference:
    """The elimination routes the tests compare Bayer's route against,
    on input outside that route."""

    @pytest.mark.parametrize("divisor, gens, colon_gens, sat_gens",
                             OTHER_INPUT)
    def test_other_input_by_hand(self, divisor, gens, colon_gens, sat_gens):
        a = ideal(S, *gens)
        f = S.parse(divisor)
        assert _colon_by_elimination(a, f).equals(ideal(S, *colon_gens))
        assert _saturate_by_elimination(a, f).equals(ideal(S, *sat_gens))

    def test_colon_by_a_square_is_two_colons(self):
        a = ideal(S, "x1^3*x2", "x1*x2^2 - T1*x1^2", "x2^4")
        x1 = S.x(1)
        assert _colon_by_elimination(a, x1 ** 2).equals(
            colon(colon(a, x1), x1))


class TestBayerRoute:
    def test_colon_and_saturation_share_one_run(self):
        a = ideal(S, "x1^2*x2", "x1*x2^3 - T1^2*x2^2")
        x2 = S.x(2)
        first = a.groebner(order=S.revlex_last(1))
        saturate_poly(a, x2)
        colon(a, x2)
        assert list(a._bases) == [S.revlex_last(1)]
        assert a.groebner(order=S.revlex_last(1)) is first

    def test_scalar_multiple_of_a_variable(self):
        a = ideal(S, "x1^2*x2", "x1*x2^3")
        got = colon(a, S.parse("3*x2"))
        assert S.revlex_last(1) in a._bases
        assert got.equals(ideal(S, "x1^2", "x1*x2^2"))

    @pytest.mark.parametrize("divisor, gens",
                             [case[:2] for case in OTHER_INPUT])
    def test_other_input_rejected(self, divisor, gens):
        a = ideal(S, *gens)
        f = S.parse(divisor)
        for op in (colon, saturate_poly):
            with pytest.raises(ValueError):
                op(a, f)
        assert not a._bases

    def test_errors_unchanged(self):
        a = ideal(S, "x1^2")
        with_t = Ideal(S, [S.aux * S.x(1)])
        for op in (colon, saturate_poly):
            with pytest.raises(ZeroDivisionError):
                op(a, S.zero)
            with pytest.raises(ValueError):
                op(with_t, S.x(1))
        with pytest.raises(ValueError):
            colon(a, S.aux)

    @pytest.mark.parametrize("ring", [S, R], ids=repr)
    def test_revlex_last_built_once_per_slot(self, ring):
        for slot in range(ring.aux_slot):
            order = ring.revlex_last(slot)
            assert ring.revlex_last(slot) is order
            assert order.name == "revlex-last-" + ring.names[slot]
        with pytest.raises(IndexError):
            ring.revlex_last(ring.nvars)


def brute_monomial_dimension(supports, nvars):
    """Max independent set of variables via min hitting set recursion."""

    def min_hit(rest):
        if not rest:
            return 0
        first = min(rest, key=len)
        best = len(range(nvars))
        for v in first:
            best = min(best,
                       1 + min_hit([s for s in rest if v not in s]))
        return best

    return nvars - min_hit([s for s in supports if s])


class TestDimension:
    def test_full_variable_ideal_is_zero_dimensional(self):
        gens = [R.x(i) for i in range(1, 6)]
        assert dimension(Ideal(R, gens), R.x_slots) == 0
        assert height(Ideal(R, gens), R.x_slots) == 5

    def test_zero_ideal(self):
        assert dimension(Ideal(R, ()), R.x_slots) == 5

    def test_unit_ideal(self):
        assert dimension(Ideal(S, [S.one]), S.x_slots) == -1
        with pytest.raises(ValueError):
            height(Ideal(S, [S.one]), S.x_slots)

    def test_hypersurface_drops_dimension_by_one(self):
        assert dimension(Ideal(R, [R.parse("x1^2 - x2*x3")]),
                         R.x_slots) == 4

    def test_ambient_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dimension(Ideal(S, [S.T(1)]), S.x_slots)

    def test_monomial_ideals_against_brute_force(self):
        rng = random.Random(2026)
        slots = list(R.x_slots)
        checked = 0
        for _ in range(40):
            gens = []
            for _ in range(rng.randrange(1, 6)):
                exp = [0] * R.nvars
                for v in rng.sample(slots, rng.randrange(1, 4)):
                    exp[v] = rng.randrange(1, 3)
                gens.append(R.from_dict({tuple(exp): 1}))
            idl = Ideal(R, gens)
            supports = [g.support() for g in idl.gens]
            want = brute_monomial_dimension(supports, len(slots))
            assert dimension(idl, slots) == want
            checked += 1
        assert checked == 40

    def test_binomial_curve(self):
        # twisted-cubic-style relations in four of the five variables
        gens = [R.parse("x1*x3 - x2^2"), R.parse("x2*x4 - x3^2"),
                R.parse("x1*x4 - x2*x3")]
        assert dimension(Ideal(R, gens), R.x_slots[:4]) == 2
        assert dimension(Ideal(R, gens), R.x_slots) == 3


class TestHeightsOfMinorIdeals:
    def setup_method(self):
        self.lift = PolyMatrix.from_rows(R, PRESENTATION_ROWS)
        self.f = R.x(5) ** 3

    def ht(self, gens):
        return height_in_hypersurface(Ideal(R, gens), self.f, R.x_slots)

    def test_submaximal_pfaffians(self):
        assert self.ht(submaximal_pfaffians(self.lift)) == 3

    def test_minor_heights(self):
        assert self.ht(minors(self.lift, 2)) == 4
        assert self.ht(minors(self.lift, 3)) == 3
        assert self.ht(minors(self.lift, 4)) == 3

    def test_height_monotone_in_minor_size(self):
        hts = [self.ht(minors(self.lift, k)) for k in (2, 3, 4)]
        assert hts[0] >= hts[1] >= hts[2]

    def test_rejects_zero_hypersurface(self):
        with pytest.raises(ValueError):
            height_in_hypersurface(ideal(R, "x1"), R.zero, R.x_slots)

    @pytest.mark.parametrize("d", [4, 6])
    def test_every_form_of_a_degree_has_height_d(self, d):
        # the value check_hypotheses records, with no run, for a minor
        # size whose minors span every form of their degree: (x)^k modulo
        # f, a form in (x)
        ring = PolyRing.get(32003, d)
        for k in (1, 2, 3):
            forms = []
            for slots in combinations_with_replacement(ring.x_slots, k):
                exp = [0] * ring.nvars
                for slot in slots:
                    exp[slot] += 1
                forms.append(ring.monomial(exp))
            for degree in (1, 2, 3):
                f = ring.x(1) ** degree - ring.x(2) * ring.x(d + 1) ** (
                    degree - 1)
                assert height_in_hypersurface(
                    Ideal(ring, forms), f, ring.x_slots) == d


class TestMembership:
    def test_contains_and_equals(self):
        a = ideal(S, "x1^2 - x2", "x2^2")
        assert a.contains(S.parse("x1^4"))
        assert not a.contains(S.parse("x1"))
        assert a.contains(S.zero)
        b = ideal(S, "x2 - x1^2", "x2^2 + x1^2*x2")
        assert a.equals(b)
        assert not a.equals(ideal(S, "x1"))

    def test_contains_ideal(self):
        big = ideal(S, "x1", "x2")
        small = ideal(S, "x1*x2", "x1^2 + x2^2")
        assert big.contains_ideal(small)
        assert not small.contains_ideal(big)

    def test_duplicate_and_zero_generators_dropped(self):
        a = Ideal(S, [S.parse("x1"), S.zero, S.parse("x1"), S.x(1)])
        assert a.gens == (S.x(1),)


@pytest.mark.parametrize("label, make", [
    ("golden", builtin_example),
    ("random_d4_m1_seed0", lambda: random_instance(4, 1, 32003, seed=0)),
])
def test_oracle_bases_match_recorded(label, make):
    """Reduced grevlex bases of the saturation and of every colon power of
    the base ideal, string for string, as the elimination route computed
    them (tests/golden_bases.json)."""
    path = os.path.join(os.path.dirname(__file__), "golden_bases.json")
    with open(path) as fh:
        recorded = json.load(fh)
    inst = make()
    base = gcd_iterations(inst).base_ideal
    variables = inst.x_ideal()
    computed = {label + "_saturation_grevlex": saturate(base, variables)}
    chain = colon_power_chain(base, variables, inst.degree)
    for i, step in enumerate(chain, 1):
        computed["%s_colon_power_%d_grevlex" % (label, i)] = step
    assert {name: [str(g) for g in idl.gens]
            for name, idl in computed.items()} \
        == {name: recorded[name] for name in computed}
