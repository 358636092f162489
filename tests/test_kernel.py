"""The heap-and-dict reduction kernel against the merge-based references."""

import pytest

from reesgcd.groebner import normal_form, spolynomial
from reesgcd.ring import PolyRing

import merge_reference as ref

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given = hypothesis.given
settings = hypothesis.settings

# p = 7 makes coefficient cancellation during reduction frequent
RINGS = (PolyRing.get(7, 1), PolyRing.get(32003, 1))
ORDERS = ("grevlex", "elim_aux")


def polys(ring, min_terms=0, max_terms=5, max_exp=2):
    exps = st.tuples(*[st.integers(0, max_exp)] * ring.nvars)
    coeffs = st.integers(1, ring.p - 1)
    return st.dictionaries(exps, coeffs, min_size=min_terms,
                           max_size=max_terms).map(ring.from_dict)


def nonzero_polys(ring):
    return polys(ring, min_terms=1)


@st.composite
def division_problems(draw):
    ring = draw(st.sampled_from(RINGS))
    order = getattr(ring, draw(st.sampled_from(ORDERS)))
    f = draw(polys(ring, max_terms=8))
    basis = draw(st.lists(nonzero_polys(ring), min_size=1, max_size=3))
    return f, basis, order


@st.composite
def factor_pairs(draw):
    ring = draw(st.sampled_from(RINGS))
    return draw(polys(ring)), draw(nonzero_polys(ring))


@st.composite
def spair_problems(draw):
    ring = draw(st.sampled_from(RINGS))
    order = getattr(ring, draw(st.sampled_from(ORDERS)))
    return draw(nonzero_polys(ring)), draw(nonzero_polys(ring)), order


class TestAgainstMergeReference:
    @settings(max_examples=150, deadline=None)
    @given(division_problems())
    def test_normal_form(self, problem):
        f, basis, order = problem
        assert normal_form(f, basis, order) == ref.normal_form(
            f, basis, order)

    @settings(max_examples=150, deadline=None)
    @given(factor_pairs())
    def test_exact_div_of_product(self, pair):
        a, b = pair
        assert (a * b).exact_div(b) == a

    @settings(max_examples=150, deadline=None)
    @given(factor_pairs())
    def test_exact_div_matches_reference(self, pair):
        a, b = pair
        assert a.exact_div(b) == ref.exact_div(a, b)

    @settings(max_examples=100, deadline=None)
    @given(factor_pairs(), st.integers(1, 6))
    def test_not_divisible_gives_none(self, pair, c):
        # a*b + c with b nonconstant: a quotient q would make the nonzero
        # constant c equal to (q - a) * b, of positive degree or zero
        a, b = pair
        hypothesis.assume(sum(b.lead_exp()) > 0)
        assert (a * b + c).exact_div(b) is None

    @settings(max_examples=150, deadline=None)
    @given(spair_problems())
    def test_spolynomial(self, problem):
        f, g, order = problem
        assert spolynomial(f, g, order) == ref.spolynomial(f, g, order)

