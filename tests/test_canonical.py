"""Canonical Bayer quotients: a colon or saturation by a variable is kept
under its reduced grevlex basis, made by a run driven by the Hilbert series
that Bayer's quotient list gives, so equal quotients are one Ideal, and an
ideal meets itself by identity, without an elimination run.  A quotient
the ideal already holds is recognized, with no run, only by the list that
formed it or by containment and an equal series together.

The property tests run on random homogeneous and bihomogeneous ideals of
the d=1 and d=2 rings at p=7 and p=32003, against plain Groebner runs on
quotient lists formed here from the definition.
"""

import pytest

from reesgcd import ideals
from reesgcd.groebner import (
    groebner_basis,
    hilbert_numerator,
    interreduce,
    normal_form,
)
from reesgcd.ideals import Ideal, colon, intersect, saturate, saturate_poly
from reesgcd.pipeline import (
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


def bihomogeneous_polys(ring, slots_x, slots_t, a, b):
    """Nonzero polynomials of bidegree (a, b) over the given x and T
    slots."""
    def exponent(parts):
        exp = [0] * ring.nvars
        for slot in parts[0] + parts[1]:
            exp[slot] += 1
        return tuple(exp)

    monomials = st.tuples(
        st.lists(st.sampled_from(slots_x), min_size=a, max_size=a)
        if a else st.just([]),
        st.lists(st.sampled_from(slots_t), min_size=b, max_size=b)
        if b else st.just([])).map(exponent)
    coeffs = st.integers(1, ring.p - 1)
    return st.dictionaries(monomials, coeffs, min_size=1,
                           max_size=4).map(ring.from_dict).filter(bool)


@st.composite
def problems(draw):
    """A homogeneous ideal, bigraded or not, and a variable slot."""
    ring = draw(st.sampled_from(RINGS))
    if draw(st.booleans()):
        degree = st.integers(1, 3).flatmap(
            lambda k: homogeneous_polys(ring, k))
    else:
        degree = st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(
            any).flatmap(lambda ab: bihomogeneous_polys(
                ring, ring.x_slots, ring.t_slots, *ab))
    gens = draw(st.lists(degree, min_size=1, max_size=3))
    slot = draw(st.sampled_from(ring.x_slots + ring.t_slots))
    return Ideal(ring, gens), slot


def quotient_list(a, slot, whole_power):
    """Bayer's quotient list from the definition: the basis with slot
    last, each element divided by the least power of the variable over
    its terms, or by the variable once where it divides."""
    ring = a.ring
    x = ring.variable(slot)
    out = []
    for g in groebner_basis(a.gens, ring.revlex_last(slot)):
        v = min(e[slot] for e, _ in g.items())
        if not whole_power:
            v = min(v, 1)
        out.append(g.exact_div(x ** v))
    return tuple(out)


@st.composite
def products_by_two_variables(draw):
    """a = b*(x1, x2) for b bigraded in the other variables: a : x1 and
    a : x2, and both saturations, are b, from four quotient lists."""
    ring = draw(st.sampled_from(RINGS))
    other_x = [s for s in ring.x_slots if s > 1]
    bidegrees = st.tuples(st.integers(0, 1 if other_x else 0),
                          st.integers(1, 2))
    b = draw(st.lists(bidegrees.flatmap(lambda ab: bihomogeneous_polys(
        ring, other_x, ring.t_slots, *ab)), min_size=1, max_size=3))
    x1, x2 = ring.x(1), ring.x(2)
    return ring, b, Ideal(ring, [x * g for g in b for x in (x1, x2)])


def elimination_runs(monkeypatch):
    runs = []
    original = ideals.groebner_basis

    def counted(gens, order=None, *args, **kwargs):
        if order is not None and order.name == "elim-aux":
            runs.append(len(gens))
        return original(gens, order, *args, **kwargs)

    monkeypatch.setattr(ideals, "groebner_basis", counted)
    return runs


class TestCanonicalBasis:
    @settings(max_examples=60, deadline=None)
    @given(problems(), st.booleans())
    def test_plain_run_on_the_quotient_list(self, problem, whole_power):
        a, slot = problem
        x = a.ring.variable(slot)
        got = saturate_poly(a, x) if whole_power else colon(a, x)
        quots = quotient_list(a, slot, whole_power)
        basis = groebner_basis(quots)
        assert got.gens == basis
        assert got.groebner() == got.gens
        assert got._division[1] == quots
        if ideals._bigraded_box(quots) is not None:
            assert got._hilbert == hilbert_numerator(basis)

    @settings(max_examples=40, deadline=None)
    @given(products_by_two_variables())
    def test_equal_quotients_are_one_ideal(self, problem):
        ring, b, a = problem
        x1, x2 = ring.x(1), ring.x(2)
        got = colon(a, x1)
        assert got.gens == groebner_basis(b)
        assert colon(a, x2) is got
        assert saturate_poly(a, x1) is got
        assert saturate_poly(a, x2) is got
        assert saturate(a, Ideal(ring, [x1, x2])) is got

    @settings(max_examples=40, deadline=None)
    @given(products_by_two_variables())
    def test_driven_run_rejects_a_larger_target(self, problem):
        ring, b, a = problem
        quots = colon(a, ring.x(1))._division[1]
        extra = ring.x(1) * ring.x(2)
        larger = groebner_basis(list(quots) + [extra])
        assert not normal_form(extra, groebner_basis(quots)).is_zero
        with pytest.raises(AssertionError, match="Hilbert series"):
            groebner_basis(quots, hilbert=hilbert_numerator(larger))


class TestSelfIntersection:
    @settings(max_examples=60, deadline=None)
    @given(problems(), st.randoms(use_true_random=False))
    def test_equal_bases_meet_in_the_reduced_basis(self, problem, rng):
        # two objects with one basis are not compared: each meeting is
        # one elimination run, whose output is that basis
        a, _ = problem
        ring = a.ring
        basis = groebner_basis(a.gens)
        scaled = [g.scale(2) for g in a.gens]
        rng.shuffle(scaled)
        left = Ideal(ring, scaled, gb=basis)
        right = Ideal(ring, a.gens, gb=basis)
        with pytest.MonkeyPatch.context() as mp:
            runs = elimination_runs(mp)
            meet = intersect(left, right)
            assert intersect(meet, Ideal(ring, basis, gb=basis)) is meet
            assert len(runs) == 2
        assert meet.gens == basis
        assert meet.groebner() == basis
        assert intersect(Ideal(ring, basis, gb=basis), right).gens == basis

    @settings(max_examples=60, deadline=None)
    @given(problems(), st.booleans())
    def test_an_ideal_meets_itself_by_identity(self, problem, whole_power):
        a, slot = problem
        ring = a.ring
        x = ring.variable(slot)
        q = saturate_poly(a, x) if whole_power else colon(a, x)
        with pytest.MonkeyPatch.context() as mp:
            runs = elimination_runs(mp)
            for ideal in (a, Ideal(ring, a.gens), q, Ideal(ring, ())):
                assert intersect(ideal, ideal) is ideal
            assert runs == []

    @settings(max_examples=40, deadline=None)
    @given(problems())
    def test_unknown_bases_take_the_run(self, problem):
        a, _ = problem
        ring = a.ring
        with pytest.MonkeyPatch.context() as mp:
            runs = elimination_runs(mp)
            meet = intersect(Ideal(ring, a.gens), Ideal(ring, a.gens))
            assert len(runs) == 1
        assert meet.gens == groebner_basis(a.gens)


@st.composite
def swapped_products(draw):
    """a = (x1*f, x2*g) for f, g in the T variables of one bidegree: the
    swap of x1 and x2 takes a : x1 = (f, x2*g) to a : x2 = (x1*f, g),
    so the two have one Hilbert series, and are one ideal only when f
    and g are."""
    ring = draw(st.sampled_from(RINGS))
    b = draw(st.integers(1, 2))
    f, g = draw(st.lists(bihomogeneous_polys(ring, [], ring.t_slots, 0, b),
                         min_size=2, max_size=2))
    return Ideal(ring, [ring.x(1) * f, ring.x(2) * g])


@st.composite
def quotient_sequences(draw):
    """An ideal, from problems(), products_by_two_variables() or
    swapped_products(), and a list of (slot, whole_power) colons and
    saturations of it."""
    source = draw(st.integers(0, 2))
    if source == 0:
        a, _ = draw(problems())
    elif source == 1:
        _, _, a = draw(products_by_two_variables())
    else:
        a = draw(swapped_products())
    ring = a.ring
    steps = draw(st.lists(st.tuples(
        st.sampled_from(ring.x_slots + ring.t_slots), st.booleans()),
        min_size=2, max_size=6))
    return a, steps


def recorded_runs(monkeypatch):
    """The order names of the Groebner runs of ideals from now on, and
    "interreduce <order name>" for each basis interreduced from a list
    known to be a Groebner basis."""
    runs = []
    original = ideals.groebner_basis
    original_interreduce = ideals.interreduce

    def counted(gens, order=None, *args, **kwargs):
        runs.append("grevlex" if order is None else order.name)
        return original(gens, order, *args, **kwargs)

    def counted_interreduce(basis, order=None):
        runs.append("interreduce " + ("grevlex" if order is None
                                      else order.name))
        return original_interreduce(basis, order)

    monkeypatch.setattr(ideals, "groebner_basis", counted)
    monkeypatch.setattr(ideals, "interreduce", counted_interreduce)
    return runs


class TestHeldQuotients:
    @settings(max_examples=60, deadline=None)
    @given(quotient_sequences())
    def test_several_quotients_of_one_ideal(self, problem):
        a, steps = problem
        got = []
        for slot, whole_power in steps:
            x = a.ring.variable(slot)
            q = saturate_poly(a, x) if whole_power else colon(a, x)
            assert q.gens == groebner_basis(
                quotient_list(a, slot, whole_power))
            got.append(q)
        # only a bigraded list has the series a held quotient is found by
        bigraded = [q for q in got
                    if ideals._bigraded_box(q._division[1]) is not None]
        for p in bigraded:
            for q in bigraded:
                assert (p is q) == (p.gens == q.gens)

    @pytest.mark.parametrize("ring", RINGS, ids=repr)
    def test_equal_series_without_containment_is_a_new_quotient(
            self, ring, monkeypatch):
        x1, x2, t1, t2 = ring.x(1), ring.x(2), ring.T(1), ring.T(2)
        a = Ideal(ring, [x1 * t1, x2 * t2])
        first = colon(a, x1)
        runs = recorded_runs(monkeypatch)
        second = colon(a, x2)
        assert first._hilbert == second._hilbert
        assert not first.contains(t2)
        assert second is not first
        assert second.gens == groebner_basis([x1 * t1, t2])
        # a held miss is the driven run, here on a list that is a grevlex
        # basis already: its grevlex leads have the series of its revlex
        # leads
        assert runs == ["revlex-last-x2", "grevlex"]
        assert second.gens == interreduce(second._division[1])

    @pytest.mark.parametrize("ring", RINGS, ids=repr)
    def test_containment_with_another_series_is_a_new_quotient(
            self, ring, monkeypatch):
        x1, x2 = ring.x(1), ring.x(2)
        a = Ideal(ring, [x1 ** 2, x1 * x2])
        first = colon(a, x1)
        runs = recorded_runs(monkeypatch)
        second = colon(a, x2)
        assert first._hilbert != second._hilbert
        assert first.contains_ideal(second)
        assert second is not first
        assert second.gens == (x1,)
        # a held miss is the driven run, here on the list (x1^2, x1),
        # which is a grevlex basis already
        assert runs == ["revlex-last-x2", "grevlex"]
        assert second.gens == interreduce(second._division[1])

    @pytest.mark.parametrize("ring", RINGS, ids=repr)
    def test_held_quotient_makes_no_run(self, ring, monkeypatch):
        x1, x2, t1 = ring.x(1), ring.x(2), ring.T(1)
        a = Ideal(ring, [x1 * t1, x2 * t1])
        first = colon(a, x1)
        runs = recorded_runs(monkeypatch)
        assert colon(a, x2) is first
        assert saturate_poly(a, x2) is first
        assert "grevlex" not in runs

    @settings(max_examples=60, deadline=None)
    @given(problems(), st.booleans())
    def test_a_repeated_quotient_is_the_held_object(self, problem,
                                                    whole_power):
        a, slot = problem
        x = a.ring.variable(slot)
        quotient = saturate_poly if whole_power else colon
        first = quotient(a, x)
        with pytest.MonkeyPatch.context() as mp:
            runs = recorded_runs(mp)
            assert quotient(a, x) is first
            assert quotient(a, x.scale(3)) is first
            assert runs == []

    @pytest.mark.parametrize("ring", RINGS, ids=repr)
    @pytest.mark.parametrize("srcs, bigraded", [
        (("x1*T1", "x2*T1"), True),
        (("x1*x2^2", "x1^2*x2 - x1*T1^2"), False)],
        ids=["bigraded", "not-bigraded"])
    def test_repeated_quotients_by_one_variable(self, ring, srcs,
                                                bigraded, monkeypatch):
        # without a series the held quotient is found by its Bayer list
        a = Ideal(ring, [ring.parse(src) for src in srcs])
        x1 = ring.x(1)
        first = colon(a, x1)
        assert (first._hilbert is not None) == bigraded
        runs = recorded_runs(monkeypatch)
        assert colon(a, x1) is first
        assert saturate_poly(a, x1) is first
        assert runs == []

    @settings(max_examples=60, deadline=None)
    @given(quotient_sequences())
    def test_driven_run_on_a_series_matched_list(self, problem):
        # a list whose grevlex leads have its revlex leads' series is a
        # grevlex basis: the run admits only what its reduction keeps
        a, steps = problem
        for slot, whole_power in steps:
            x = a.ring.variable(slot)
            q = saturate_poly(a, x) if whole_power else colon(a, x)
            quots = q._division[1]
            if (q._hilbert is None
                    or hilbert_numerator(quots) != q._hilbert):
                continue
            reduced = interreduce(quots)
            assert q.gens == reduced
            assert groebner_basis(quots, hilbert=q._hilbert,
                                  max_basis=len(reduced)) == reduced


def divisions(monkeypatch):
    """(quotient, Bayer list) for every _divide_out call from now on: the
    quotient it returns and the list of its dividend's basis under the
    order with the variable last, formed here from the definition."""
    out = []
    original = ideals._divide_out

    def recording(a, slot, whole_power):
        q = original(a, slot, whole_power)
        x = a.ring.variable(slot)
        quots = []
        for g in a.groebner(a.ring.revlex_last(slot)):
            v = min(e[slot] for e, _ in g.items())
            quots.append(g.exact_div(x ** (v if whole_power else min(v, 1))))
        out.append((q, quots))
        return q

    monkeypatch.setattr(ideals, "_divide_out", recording)
    return out


class TestHeldQuotientSoundness:
    """A held quotient is taken for a Bayer list only when it holds the
    list's divided elements; its series alone never decides."""

    def test_a_series_match_lacking_a_divided_element_is_refused(self):
        # golden base : x5 divides one element of the base's basis, which
        # base : x1^inf lacks; given the series of base : x5, that held
        # quotient must still not be taken for it
        base = gcd_iterations(builtin_example()).base_ideal
        ring = base.ring
        x1, x5 = ring.x(1), ring.x(5)
        want = colon(Ideal(ring, base.gens), x5)
        _, quots, divided = want._division
        a = Ideal(ring, base.gens)
        held = saturate_poly(a, x1)
        held._hilbert = want._hilbert
        assert len(divided) == 1 and not held.contains(divided[0])
        undivided = [g for g in quots if g not in divided]
        assert next(held.outside(undivided), None) is None
        assert ideals._held_quotient(a, quots, divided, want._hilbert) is None
        got = colon(a, x5)
        assert got is not held and got.gens == want.gens

    @pytest.mark.parametrize("m, seed", [(0, 0)] + [
        (m, seed) for m in (1, 2, 3) for seed in (0, 1, 2)],
        ids=lambda v: str(v))
    def test_every_quotient_is_the_ideal_of_its_list(self, m, seed,
                                                     monkeypatch):
        inst = (builtin_example() if m == 0
                else random_instance(4, m, seed=seed))
        trace = gcd_iterations(inst)
        records = divisions(monkeypatch)
        assert verify_main_theorem(inst, trace).ok
        assert records
        for q, quots in records:
            assert next(q.outside(quots), None) is None
            listed = Ideal(q.ring, quots)
            assert next(listed.outside(q.gens), None) is None


@st.composite
def containers(draw):
    """A quotient q of an ideal a, from problems(), and an ideal J: some
    or all of a's generators, some of q's divided elements and up to two
    polynomials of the kind a's generators are."""
    a, slot = draw(problems())
    ring = a.ring
    x = ring.variable(slot)
    q = saturate_poly(a, x) if draw(st.booleans()) else colon(a, x)
    _, _, divided = q._division
    if draw(st.booleans()):
        kept = list(a.gens)
    else:
        kept = [g for g in a.gens if draw(st.booleans())]
    kept += [g for g in divided if draw(st.booleans())]
    variables = st.sampled_from(ring.x_slots + ring.t_slots).map(
        ring.variable)
    for _ in range(draw(st.integers(0, 2))):
        f, g = draw(st.lists(st.sampled_from(a.gens), min_size=2,
                             max_size=2))
        kept.append(f * draw(variables) + g * draw(variables))
    return q, Ideal(ring, kept)


class TestQuotientRecord:
    """A quotient remembers its division: the generators of its dividend,
    its divided elements and Bayer's list under each order it was
    formed in."""

    @settings(max_examples=150, deadline=None)
    @given(containers())
    def test_containment_agrees_with_every_generator(self, problem):
        q, j = problem
        plain = groebner_basis(j.gens)
        expected = all(normal_form(g, plain).is_zero for g in q.gens)
        assert j.contains_ideal(q) == expected

    @settings(max_examples=60, deadline=None)
    @given(quotient_sequences())
    def test_kept_lists_interreduce_to_the_basis(self, problem):
        a, steps = problem
        for slot, whole_power in steps:
            x = a.ring.variable(slot)
            q = saturate_poly(a, x) if whole_power else colon(a, x)
            for order, quots in list(q._bayer.items()):
                basis = groebner_basis(q.gens, order)
                assert interreduce(quots, order) == basis
                assert q.groebner(order) == basis
                assert order not in q._bayer

    def test_divided_elements_decide_the_main_theorem(self):
        inst = random_instance(4, 1, seed=0)
        trace = gcd_iterations(inst)
        base = trace.base_ideal
        sat = saturate(base, inst.x_ideal())
        dividend, quots, divided = sat._division
        assert dividend == base.gens
        assert set(divided) <= set(quots)
        assert len(divided) == 1 and divided[0].bidegree() == (0, 3)
        assert trace.defining_ideal.contains_ideal(sat)

    @settings(max_examples=40, deadline=None)
    @given(problems(), st.booleans())
    def test_nested_intersection_returns_its_first_argument(
            self, problem, whole_power):
        a, slot = problem
        ring = a.ring
        x = ring.variable(slot)
        q = saturate_poly(a, x) if whole_power else colon(a, x)
        record = q._division
        larger = Ideal(ring, q.gens + (x,))
        with pytest.MonkeyPatch.context() as mp:
            runs = elimination_runs(mp)
            assert intersect(q, larger) is q
            assert len(runs) == 1
        assert q._division is record


def main_theorem_runs(inst, monkeypatch):
    """Grevlex, revlex-last and elimination runs of one
    verify_main_theorem call."""
    trace = gcd_iterations(inst)
    runs = recorded_runs(monkeypatch)
    assert verify_main_theorem(inst, trace).ok
    return (runs.count("grevlex"),
            sum(r.startswith("revlex-last") for r in runs),
            runs.count("elim-aux"))


class TestMainTheoremRuns:
    def test_golden(self, monkeypatch):
        # the base ideal's grevlex run drives its revlex-last runs; 12 of
        # 21 grevlex runs of quotients would rediscover a held quotient,
        # and 4 of the 9 left run on lists that are grevlex bases already;
        # 8 of 15 revlex-last runs would recompute a kept Bayer list
        assert main_theorem_runs(builtin_example(), monkeypatch) == (10, 7,
                                                                     4)

    def test_random_m1(self, monkeypatch):
        # the d+1 quotients of the base ideal are one ideal
        inst = random_instance(4, 1, seed=0)
        assert main_theorem_runs(inst, monkeypatch) == (3, 5, 0)

    def test_random_m2k2(self, monkeypatch):
        # the only random d=4 instance whose main theorem eliminates: its
        # intersections are of nested ideals
        inst = random_instance(4, 2, seed=2)
        assert main_theorem_runs(inst, monkeypatch) == (8, 6, 3)
