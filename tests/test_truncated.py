"""Membership by bidegree: Groebner runs truncated at a bidegree box.

For bihomogeneous generators, groebner_basis(..., within=box) must be the
full reduced basis restricted to the box, string for string, and give the
same normal forms on every bihomogeneous polynomial inside the box.
Ideal.basis_for takes that route only for bihomogeneous, t-free
generators and queries; Ideal.outside sizes it once for a batch of
queries and yields the non-members in order.  Top reduction
(normal_form_lead, on the reduction_entries of a basis) must give the
lead term of the normal form on either basis, and Ideal.proportional
the verdict of comparing full normal forms up to a scalar.  The
property tests draw bigraded ideals of the d=1 and d=2 rings at p=7 and
p=32003.
"""

import pytest

from reesgcd import groebner
from reesgcd.groebner import (
    BudgetExceeded,
    groebner_basis,
    normal_form,
    normal_form_lead,
    reduction_entries,
)
from reesgcd.ideals import Ideal
from reesgcd.pipeline import (
    gcd_iterations,
    random_instance,
    verify_well_definedness,
)
from reesgcd.ring import PolyRing

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given = hypothesis.given
settings = hypothesis.settings

RINGS = tuple(PolyRing.get(p, d) for p in (7, 32003) for d in (1, 2))


def bihomogeneous_polys(ring, x_deg, t_deg):
    """Nonzero t-free polynomials of bidegree (x_deg, t_deg)."""

    def exponent(parts):
        xs, ts = parts
        exp = [0] * ring.nvars
        for slot in xs + ts:
            exp[slot] += 1
        return tuple(exp)

    monomials = st.tuples(
        st.lists(st.sampled_from(ring.x_slots), min_size=x_deg,
                 max_size=x_deg),
        st.lists(st.sampled_from(ring.t_slots), min_size=t_deg,
                 max_size=t_deg)).map(exponent)
    coeffs = st.integers(1, ring.p - 1)
    return st.dictionaries(monomials, coeffs, min_size=1,
                           max_size=4).map(ring.from_dict).filter(bool)


def bidegrees(top=2):
    return st.tuples(st.integers(0, top), st.integers(0, top)).filter(any)


def bigraded_lists(ring, max_size=4):
    return st.lists(bidegrees().flatmap(
        lambda bd: bihomogeneous_polys(ring, *bd)),
        min_size=1, max_size=max_size)


@st.composite
def problems(draw):
    """A bigraded generator list, a box and a query inside the box."""
    ring = draw(st.sampled_from(RINGS))
    gens = draw(bigraded_lists(ring))
    box = draw(st.tuples(st.integers(0, 3), st.integers(0, 3)))
    query = draw(st.tuples(st.integers(0, box[0]), st.integers(0, box[1]))
                 .filter(any).flatmap(
                     lambda bd: bihomogeneous_polys(ring, *bd))) \
        if any(box) else ring.one
    return ring, gens, box, query


def in_box(g, box):
    bd = g.bidegree()
    return bd[0] <= box[0] and bd[1] <= box[1]


def strings(basis):
    return [str(g) for g in basis]


class TestWithin:
    @settings(max_examples=80, deadline=None)
    @given(problems())
    def test_is_full_basis_restricted_to_box(self, problem):
        _, gens, box, _ = problem
        full = groebner_basis(gens)
        assert strings(groebner_basis(gens, within=box)) == \
            strings(g for g in full if in_box(g, box))

    @settings(max_examples=80, deadline=None)
    @given(problems())
    def test_normal_forms_agree_inside_box(self, problem):
        ring, gens, box, query = problem
        truncated = groebner_basis(gens, within=box)
        full = groebner_basis(gens)
        assert normal_form(query, truncated) == normal_form(query, full)
        ideal = Ideal(ring, gens)
        assert ideal.contains(query) == normal_form(query, full).is_zero
        assert ring.grevlex not in ideal._bases

    def test_rejects_input_that_is_not_bihomogeneous(self):
        ring = RINGS[0]
        with pytest.raises(ValueError):
            groebner_basis([ring.parse("x1*T1 + x2")], within=(2, 2))

    def test_nothing_inside_the_box(self):
        ring = RINGS[0]
        assert groebner_basis([ring.parse("x1^2*T1")], within=(1, 1)) == ()


class TestFallback:
    """Anything not bigraded and t-free is answered on the full basis."""

    @settings(max_examples=40, deadline=None)
    @given(problems(), st.integers(0, 3))
    def test_generator_not_bihomogeneous(self, problem, which):
        ring, gens, _, query = problem
        gens = list(gens)
        gens[which % len(gens)] += ring.x(1) ** 4
        self._assert_full(Ideal(ring, gens), query)

    @settings(max_examples=40, deadline=None)
    @given(problems())
    def test_query_not_bihomogeneous(self, problem):
        ring, gens, _, query = problem
        self._assert_full(Ideal(ring, gens), query + ring.T(1) ** 4)

    @settings(max_examples=40, deadline=None)
    @given(problems())
    def test_t_in_query(self, problem):
        ring, gens, _, query = problem
        self._assert_full(Ideal(ring, gens), query * ring.aux)

    @settings(max_examples=40, deadline=None)
    @given(problems())
    def test_t_in_generator(self, problem):
        ring, gens, _, query = problem
        self._assert_full(Ideal(ring, list(gens) + [ring.aux * gens[0]]),
                          query)

    @staticmethod
    def _assert_full(ideal, query):
        full = groebner_basis(ideal.gens)
        assert ideal.basis_for([query]) == full
        assert ideal._bases[ideal.ring.grevlex] == full
        assert ideal._truncated is None
        assert ideal.contains(query) == normal_form(query, full).is_zero


@pytest.fixture
def runs(monkeypatch):
    """The box of every Groebner run the ideals module makes, None for a
    full run."""
    boxes = []
    original = groebner.groebner_basis

    def counted(gens, order=None, *args, **kwargs):
        boxes.append(kwargs.get("within"))
        return original(gens, order, *args, **kwargs)

    monkeypatch.setattr("reesgcd.ideals.groebner_basis", counted)
    return boxes


class TestIdealBox:
    def test_box_grows_to_the_join_and_full_basis_wins(self):
        ring = RINGS[1]
        ideal = Ideal(ring, [ring.parse("x1*T1 - x2*T2"),
                             ring.parse("x1*T2"), ring.parse("x2^3")])
        first = ideal.basis_for([ring.parse("x1*T1^2")])
        assert ideal._truncated == ((1, 2), first)
        assert ideal.basis_for([ring.parse("x2*T2")]) is first
        joined = ideal.basis_for([ring.parse("x1^2*T1")])
        assert ideal._truncated == ((2, 2), joined)
        full = ideal.groebner()
        assert ideal.basis_for([ring.parse("x1*T1")]) is full

    def test_contains_ideal_sizes_the_box_once(self, runs):
        ring = RINGS[1]
        ideal = Ideal(ring, [ring.parse("x1*T1 - x2*T2"),
                             ring.parse("x1*T2")])
        other = Ideal(ring, [ring.parse("x2*T2^2"), ring.parse("x1^2*T1"),
                             ring.parse("x2^2")])
        assert not ideal.contains_ideal(other)
        assert runs == [(2, 2)]

    def test_outside_yields_the_non_members_in_order(self, runs):
        ring = RINGS[1]
        ideal = Ideal(ring, [ring.parse("x1*T1 - x2*T2"),
                             ring.parse("x1*T2")])
        queries = [ring.parse(q) for q in ("x2^2", "x2*T2^2", "x2*T1",
                                           "x1^2*T1", "x1*x2")]
        assert [str(g) for g in ideal.outside(queries)] == \
            ["x2^2", "x2*T1", "x1*x2"]
        assert runs == [(2, 2)]

    def test_entries_are_built_once_per_basis(self, monkeypatch):
        ring = RINGS[1]
        built = []

        def counted(basis, ring):
            built.append(basis)
            return reduction_entries(basis, ring)

        monkeypatch.setattr("reesgcd.ideals.reduction_entries", counted)
        ideal = Ideal(ring, [ring.parse("x1*T1 - x2*T2"),
                             ring.parse("x1*T2")])
        queries = [ring.parse(q) for q in ("x2^2", "x2*T2^2", "x2*T1",
                                           "x1^2*T1", "x1*x2")]
        list(ideal.outside(queries))
        pairs = [(ring.parse("x1*T1"), ring.parse("3*x2*T2")),
                 (ring.parse("x2^2"), ring.parse("2*x2^2"))]
        assert list(ideal.proportional(pairs)) == [True, True]
        assert built == [ideal._truncated[1]]
        assert ideal.contains(ring.parse("x1*x2*T2^3"))
        full = ideal.groebner()
        assert not ideal.contains(ring.parse("x1^3"))
        assert built == [built[0], ideal._truncated[1], full]

    def test_outside_of_zeros_makes_no_run(self, runs):
        # basis_for has no box for them and would run on the full basis
        ring = RINGS[1]
        ideal = Ideal(ring, [ring.parse("x1*T1 - x2*T2")])
        assert list(ideal.outside([ring.zero, ring.zero])) == []
        assert runs == []

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_outside_is_the_nonzero_normal_forms(self, data):
        ring = data.draw(st.sampled_from(RINGS))
        gens = data.draw(bigraded_lists(ring))
        queries = data.draw(bigraded_lists(ring, max_size=6)) + [ring.zero]
        full = groebner_basis(gens)
        assert list(Ideal(ring, gens).outside(queries)) == \
            [q for q in queries if not normal_form(q, full).is_zero]


def lead_term(form):
    """The (exponent, coefficient) of the lead term, or None for zero."""
    return form.items()[0] if form else None


class TestNormalFormLead:
    """Top reduction against the truncated and the full basis: the lead
    term of the normal form, and membership, from the first term no lead
    divides."""

    @settings(max_examples=80, deadline=None)
    @given(problems(), st.data())
    def test_is_the_lead_term_of_the_normal_form(self, problem, data):
        ring, gens, box, query = problem
        other = data.draw(bihomogeneous_polys(ring, *query.bidegree()))
        c = data.draw(st.integers(0, ring.p - 1))
        for basis in (groebner_basis(gens, within=box),
                      groebner_basis(gens)):
            entries = reduction_entries(basis, ring)
            lead = normal_form_lead(query, entries)
            form = normal_form(query, basis)
            assert lead.is_zero == form.is_zero
            assert lead_term(lead) == lead_term(form)
            assert len(lead) <= 1
            # minus = (c, g) reduces query - c*g without forming it
            lead = normal_form_lead(query, entries, minus=(c, other))
            assert lead_term(lead) == \
                lead_term(normal_form(query - other.scale(c), basis))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_proportional_compares_normal_forms(self, data):
        ring = data.draw(st.sampled_from(RINGS))
        gens = data.draw(bigraded_lists(ring))
        bd = data.draw(bidegrees())
        g = data.draw(bihomogeneous_polys(ring, *bd))
        # h is c*g plus a member, or plus a random form, of bidegree bd
        shift = ring.zero
        for f in gens:
            fx, ft = f.bidegree()
            if fx <= bd[0] and ft <= bd[1]:
                shift += f * ring.x(1) ** (bd[0] - fx) * \
                    ring.T(1) ** (bd[1] - ft)
        if data.draw(st.booleans()):
            shift = data.draw(bihomogeneous_polys(ring, *bd))
        h = g.scale(data.draw(st.integers(0, ring.p - 1))) + shift
        pairs = [(g, h), (h, g), (g, g), (g, ring.zero), (shift, shift)]
        full = groebner_basis(gens)

        def reference(a, b):
            a, b = normal_form(a, full), normal_form(b, full)
            return a.monic() == b.monic()

        assert list(Ideal(ring, gens).proportional(pairs)) == \
            [reference(a, b) for a, b in pairs]


class TestGeneratorOrder:
    @settings(max_examples=60, deadline=None)
    @given(problems(), st.data())
    def test_output_does_not_depend_on_order(self, problem, data):
        _, gens, box, _ = problem
        shuffled = data.draw(st.permutations(gens))
        assert groebner_basis(shuffled) == groebner_basis(gens)
        assert groebner_basis(shuffled, within=box) == \
            groebner_basis(gens, within=box)


def test_truncated_membership_obeys_the_basis_cap(monkeypatch):
    """On random d=4, m=3, k=1 two steps' gcds differ between the rules,
    so the check needs the base ideal's basis truncated at (2, 9): 11
    elements, 21 in the full basis."""
    inst = random_instance(4, 3, seed=1)
    trace = gcd_iterations(inst)
    monkeypatch.setattr(groebner, "DEFAULT_MAX_BASIS", 10)
    with pytest.raises(BudgetExceeded, match=r"cap 10 .*\(grevlex\)"):
        verify_well_definedness(inst, trace)
    monkeypatch.setattr(groebner, "DEFAULT_MAX_BASIS", 11)
    assert verify_well_definedness(inst, gcd_iterations(inst)).ok
