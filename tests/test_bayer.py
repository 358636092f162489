"""Colon and saturation by a variable on Bayer's revlex route against the
elimination reference (elimination_reference.py), and the order that route
uses, as property tests."""

import pytest

from reesgcd.ideals import Ideal, colon, saturate_poly
from reesgcd.ring import PolyRing

from elimination_reference import (
    _colon_by_elimination,
    _saturate_by_elimination,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given = hypothesis.given
settings = hypothesis.settings

RINGS = (PolyRing.get(7, 1), PolyRing.get(32003, 1), PolyRing.get(32003, 2))


def t_free_slots(ring):
    return range(ring.aux_slot)


def homogeneous_polys(ring, degree):
    """Nonzero t-free polynomials whose terms all have total degree
    degree."""
    nslots = ring.aux_slot

    def exponent(parts):
        exp = [0] * ring.nvars
        for slot in parts:
            exp[slot] += 1
        return tuple(exp)

    monomials = st.lists(st.integers(0, nslots - 1), min_size=degree,
                         max_size=degree).map(exponent)
    coeffs = st.integers(1, ring.p - 1)
    return st.dictionaries(monomials, coeffs, min_size=1,
                           max_size=4).map(ring.from_dict).filter(bool)


@st.composite
def problems(draw):
    """A homogeneous ideal of mixed generator degrees and a variable."""
    ring = draw(st.sampled_from(RINGS))
    gens = draw(st.lists(
        st.integers(1, 3).flatmap(lambda k: homogeneous_polys(ring, k)),
        min_size=1, max_size=3))
    slot = draw(st.sampled_from(t_free_slots(ring)))
    return Ideal(ring, gens), slot


class TestAgainstElimination:
    @settings(max_examples=60, deadline=None)
    @given(problems())
    def test_colon(self, problem):
        a, slot = problem
        x = a.ring.variable(slot)
        got = colon(a, x)
        assert a.ring.revlex_last(slot) in a._bases
        assert got.equals(_colon_by_elimination(a, x))

    @settings(max_examples=60, deadline=None)
    @given(problems())
    def test_saturation(self, problem):
        a, slot = problem
        x = a.ring.variable(slot)
        got = saturate_poly(a, x)
        assert a.ring.revlex_last(slot) in a._bases
        assert got.equals(_saturate_by_elimination(a, x))


class TestRevlexLastOrder:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_additive_graded_and_slot_smallest(self, data):
        ring = data.draw(st.sampled_from(RINGS))
        slot = data.draw(st.sampled_from(t_free_slots(ring)))
        order = ring.revlex_last(slot)

        def key(exp):
            return order.key(ring.pack(exp))
        exps = st.tuples(*[st.integers(0, 3)] * ring.nvars)
        e1, e2 = data.draw(exps), data.draw(exps)
        product = tuple(a + b for a, b in zip(e1, e2))
        assert key(product) == key(e1) + key(e2)
        if sum(e1) != sum(e2):
            assert (key(e1) < key(e2)) == (sum(e1) < sum(e2))
        elif e1 != e2 and e1[slot] != e2[slot]:
            # equal degree: more of the moved variable is smaller
            assert (key(e1) < key(e2)) == (e1[slot] > e2[slot])
        for other in range(ring.nvars):
            if other != slot:
                assert key(ring.variable(slot).lead_exp()) < key(
                    ring.variable(other).lead_exp())
