"""The heap-and-dict accumulator against the merge-based references.

Division (normal forms, S-polynomials, exact division) is compared with
the routines in merge_reference; products and sums of products with a
sum, merged term list by term list, of one factor shifted by each term of
the other.
"""

import pytest

from reesgcd.groebner import normal_form, spolynomial
from reesgcd.ring import Polynomial, PolyRing

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


def operands(ring):
    # single-term factors take the shift fast path of Polynomial.__mul__
    return st.one_of(polys(ring), polys(ring, max_terms=1))


def reference_dot(ring, products):
    """Sum of c * a * b: b shifted by each term of a, merged one by one."""
    mod = ring.p
    terms = ()
    for c, a, b in products:
        for k, e, co in a.terms:
            terms = ref._merge(terms, ref._shift(b.terms, k, e, c * co, mod),
                               mod)
    return Polynomial(ring, terms)


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
def operand_pairs(draw):
    ring = draw(st.sampled_from(RINGS))
    return draw(operands(ring)), draw(operands(ring))


@st.composite
def product_lists(draw):
    """(ring, [(c, a, b), ...]) with c negative, zero or at least p, and
    some products followed by a second one that cancels them."""
    ring = draw(st.sampled_from(RINGS))
    scalars = st.integers(-2 * ring.p, 2 * ring.p)
    products = []
    for c, a, b in draw(st.lists(
            st.tuples(scalars, operands(ring), operands(ring)),
            max_size=4)):
        products.append((c, a, b))
        if draw(st.booleans()):
            products.append((ring.p - c, b, a))
    return ring, products


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

    @settings(max_examples=150, deadline=None)
    @given(operand_pairs())
    def test_product(self, pair):
        a, b = pair
        assert a * b == reference_dot(a.ring, [(1, a, b)])

    @settings(max_examples=150, deadline=None)
    @given(product_lists())
    def test_dot(self, problem):
        ring, products = problem
        assert ring.dot(products) == reference_dot(ring, products)

