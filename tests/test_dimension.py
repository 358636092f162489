"""Krull dimension and height from the Hilbert numerator against the
subset search of dimension_reference.

Random t-free ideals, homogeneous or not, over the ambients the program
uses (the x slots, the T slots, both, and the first d x slots), with the
zero and the unit ideal among them; an ideal whose basis involves t is
refused.
"""

import pytest

from reesgcd.ideals import Ideal, dimension, height
from reesgcd.ring import PolyRing

from dimension_reference import dimension_by_subsets

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given = hypothesis.given
settings = hypothesis.settings

RINGS = tuple(PolyRing.get(p, d) for p in (7, 32003) for d in (1, 2, 3))


def ambients(ring):
    return (ring.x_slots, ring.t_slots, ring.x_slots + ring.t_slots,
            ring.x_slots[:ring.d])


def exponents(ring, slots, degree):
    """Exponent tuples over slots, of total degree degree when it is
    given and of total degree 1 to 3 otherwise."""
    degrees = st.integers(1, 3) if degree is None else st.just(degree)

    def pack(chosen):
        exp = [0] * ring.nvars
        for slot in chosen:
            exp[slot] += 1
        return tuple(exp)
    return degrees.flatmap(lambda k: st.lists(
        st.sampled_from(slots), min_size=k, max_size=k)).map(pack)


@st.composite
def ideals(draw):
    """(ring, ambient, generators): t-free generators supported in the
    ambient, all homogeneous or drawn freely, possibly none or a unit."""
    ring = draw(st.sampled_from(RINGS))
    ambient = draw(st.sampled_from(ambients(ring)))
    homogeneous = draw(st.booleans())
    gens = []
    for _ in range(draw(st.integers(0, 4))):
        degree = draw(st.integers(1, 3)) if homogeneous else None
        terms = draw(st.dictionaries(exponents(ring, ambient, degree),
                                     st.integers(1, ring.p - 1),
                                     min_size=1, max_size=3))
        gens.append(ring.from_dict(terms))
    if draw(st.sampled_from((False,) * 9 + (True,))):
        gens.append(ring.const(draw(st.integers(1, ring.p - 1))))
    return ring, ambient, gens


class TestAgainstSubsetSearch:
    @settings(max_examples=150, deadline=None)
    @given(ideals())
    def test_dimension_and_height(self, problem):
        ring, ambient, gens = problem
        want = dimension_by_subsets(Ideal(ring, gens), ambient)
        ideal = Ideal(ring, gens)
        assert dimension(ideal, ambient) == want
        if want < 0:
            with pytest.raises(ValueError):
                height(ideal, ambient)
        else:
            assert height(ideal, ambient) == len(ambient) - want

    @pytest.mark.parametrize("ring", RINGS, ids=repr)
    def test_zero_and_unit_ideal(self, ring):
        for ambient in ambients(ring):
            for gens, want in (((), len(ambient)), ((ring.one,), -1)):
                ideal = Ideal(ring, gens)
                assert dimension(ideal, ambient) == want
                assert dimension_by_subsets(ideal, ambient) == want


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_ideal_involving_t_is_refused(ring):
    ambient = ring.x_slots + (ring.aux_slot,)
    for gens in ([ring.aux], [ring.aux * ring.x(1) - ring.x(ring.n)]):
        with pytest.raises(ValueError):
            dimension(Ideal(ring, gens), ambient)
