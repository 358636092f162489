"""The dict accumulator, with and without its heap, and the packed
exponents against their references.

Division (normal forms, S-polynomials, exact division) is compared with
the routines in merge_reference; products and sums of products with a
sum, merged term list by term list, of one factor shifted by each term of
the other, and with a plain dict of the products of all term pairs, past
EXP_MAX too; sums and differences with one merge, and exact division by
one term too, where any term that is not divisible must fail it.  The
packed exponent operations (pack and unpack, mask divisibility, lcm,
coprimality, order keys, overflow detection and the bidegree reader) are
compared with their definitions on exponent tuples, and the bisection
that finds a key in a term tuple with a linear scan.  Zero operands, a zero
column, empty span lists and truncated runs with nothing inside the box
take the general code, which must give zero or empty results.
"""

import pytest

from reesgcd import groebner
from reesgcd.groebner import (
    _divides, groebner_basis, hilbert_numerator, normal_form, spolynomial,
)
from reesgcd.ring import (
    EXP_MAX, ZERO_BIDEGREE, ExponentOverflow, PolyRing, _lcm, partial_column,
)

import merge_reference as ref
from order_reference import order_key

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given = hypothesis.given
settings = hypothesis.settings

# p = 7 makes coefficient cancellation during reduction frequent
RINGS = (PolyRing.get(7, 1), PolyRing.get(32003, 1))
ORDERS = ("grevlex", "elim_aux")
# exponent layouts of every width the program uses, d=4 the paper's
PACKED_RINGS = tuple(PolyRing.get(32003, d) for d in (1, 2, 4, 6))


def polys(ring, min_terms=0, max_terms=5, max_exp=2):
    exps = st.tuples(*[st.integers(0, max_exp)] * ring.nvars)
    coeffs = st.integers(1, ring.p - 1)
    return st.dictionaries(exps, coeffs, min_size=min_terms,
                           max_size=max_terms).map(ring.from_dict)


def nonzero_polys(ring):
    return polys(ring, min_terms=1)


def operands(ring):
    # single-term factors: a product by one term is one PolyRing.dot too
    return st.one_of(polys(ring), polys(ring, max_terms=1))


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
def bigraded_polys(draw, ring):
    """Terms of one (x, T) bidegree, each times a random power of t."""
    n = ring.n
    x_deg, t_deg = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    coeffs = {}
    for _ in range(draw(st.integers(1, 4))):
        exp = [0] * ring.nvars
        for slot in draw(st.lists(st.integers(0, n - 1), min_size=x_deg,
                                  max_size=x_deg)):
            exp[slot] += 1
        for slot in draw(st.lists(st.integers(n, 2 * n - 1),
                                  min_size=t_deg, max_size=t_deg)):
            exp[slot] += 1
        exp[ring.aux_slot] = draw(st.integers(0, 2))
        coeffs[tuple(exp)] = draw(st.integers(1, ring.p - 1))
    return ring.from_dict(coeffs)


@st.composite
def degree_problems(draw):
    """Polynomials with and without t, bihomogeneous or not."""
    ring = draw(st.sampled_from(PACKED_RINGS))
    return draw(st.one_of(polys(ring), bigraded_polys(ring),
                          polys(ring).map(lambda f: f * ring.aux)))


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

    @settings(max_examples=100, deadline=None)
    @given(division_problems(), st.lists(st.integers(0, 4), min_size=1,
                                         max_size=12))
    def test_normal_forms_on_one_memo(self, problem, picks):
        # one entry list serves every reduction, its memo filled by the
        # first ones: sums of the dividend's multiples revisit exponents
        f, basis, order = problem
        ring = f.ring
        entries = groebner._entries(basis, order, ring.p)
        polys = [f * ring.x(1) ** k + f for k in picks] + [f]
        for g in polys + polys:
            got = groebner._reduce_terms(groebner._to_terms(g, order),
                                         entries, ring.p, ring.guard)
            assert groebner._to_poly(ring, got, order) == ref.normal_form(
                g, basis, order)
        assert entries.memo or f.is_zero

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
        assert a * b == ref.dot(a.ring, [(1, a, b)])

    @settings(max_examples=150, deadline=None)
    @given(product_lists())
    def test_dot(self, problem):
        ring, products = problem
        assert ring.dot(products) == ref.dot(ring, products)

    @settings(max_examples=150, deadline=None)
    @given(operand_pairs(), st.sampled_from(("b", "a", "-a", "0")))
    def test_sum_and_difference(self, pair, other):
        # b drawn, or a itself, its negative or zero, so that terms cancel
        a, b = pair
        b = {"b": b, "a": a, "-a": -a, "0": a.ring.zero}[other]
        assert a + b == ref.add(a, b)
        assert a - b == ref.add(a, b, -1)


def dict_of_products(ring, products):
    """Sum of c * a * b from every pair of terms, added into a dict keyed
    by the exponent tuple; from_dict reduces mod p, drops what vanishes,
    sorts in term order and raises ExponentOverflow on a surviving
    exponent past EXP_MAX."""
    acc = {}
    for c, a, b in products:
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                acc[e] = acc.get(e, 0) + c * ca * cb
    return ring.from_dict(acc)


@st.composite
def overflowing_product_lists(draw):
    """(ring, products) whose first product shifts one slot to about
    EXP_MAX, past it or not, with a scalar that may vanish mod p, about
    half of the time a second product that cancels the first, and maybe
    one more product of small exponents."""
    ring = draw(st.sampled_from(RINGS))
    slot = draw(st.integers(0, ring.nvars - 1))
    h1 = draw(st.integers(0, EXP_MAX - 2))
    h2 = max(0, min(EXP_MAX - 2, EXP_MAX - h1 + draw(st.integers(-3, 2))))
    unit = [0] * ring.nvars
    unit[slot] = h1
    a = draw(nonzero_polys(ring)) * ring.monomial(unit)
    unit[slot] = h2
    b = draw(nonzero_polys(ring)) * ring.monomial(unit)
    c = draw(st.sampled_from((1, -1, 0, ring.p, 2 * ring.p + 3)))
    products = [(c, a, b)]
    if draw(st.booleans()):
        products.append((ring.p - c, b, a))
    if draw(st.booleans()):
        products.append((1, draw(operands(ring)), draw(operands(ring))))
    return ring, products


@st.composite
def one_term_divisions(draw):
    """(f, divisor): any f and a one-term divisor, a scaled variable,
    x_i^v, T1 or a constant."""
    ring = draw(st.sampled_from(RINGS))
    kind = draw(st.sampled_from(("variable", "x^v", "T1", "constant")))
    c = draw(st.integers(1, ring.p - 1))
    if kind == "variable":
        divisor = ring.variable(draw(st.integers(0, ring.nvars - 1))).scale(c)
    elif kind == "x^v":
        divisor = ring.x(draw(st.integers(1, ring.n))) ** draw(
            st.integers(1, 3))
    elif kind == "T1":
        divisor = ring.T(1)
    else:
        divisor = ring.const(c)
    return draw(polys(ring, max_terms=6)), divisor


class TestHeapFreePaths:
    @settings(max_examples=150, deadline=None)
    @given(product_lists())
    def test_dot_matches_a_dict_of_products(self, problem):
        ring, products = problem
        assert ring.dot(products) == dict_of_products(ring, products)

    @settings(max_examples=200, deadline=None)
    @given(overflowing_product_lists())
    def test_dot_overflows_only_on_a_surviving_term(self, problem):
        ring, products = problem
        try:
            expected = dict_of_products(ring, products)
        except ExponentOverflow:
            with pytest.raises(ExponentOverflow):
                ring.dot(products)
        else:
            assert ring.dot(products) == expected

    @settings(max_examples=200, deadline=None)
    @given(one_term_divisions())
    def test_one_term_exact_div_matches_the_reference(self, problem):
        f, divisor = problem
        assert (f * divisor).exact_div(divisor) == f
        assert f.exact_div(divisor) == ref.exact_div(f, divisor)

    @settings(max_examples=150, deadline=None)
    @given(one_term_divisions(), st.integers(1, 6))
    def test_one_term_exact_div_checks_every_term(self, problem, c):
        # f * divisor + c: every term divisible but the last, a constant
        f, divisor = problem
        hypothesis.assume(not f.is_zero and sum(divisor.lead_exp()) > 0)
        assert (f * divisor + c).exact_div(divisor) is None



# small exponents and the ones at the top of the field
field_values = st.one_of(st.integers(0, 3), st.integers(0, EXP_MAX),
                         st.sampled_from((EXP_MAX - 1, EXP_MAX)))


def exponent_tuples(ring, values=field_values):
    return st.tuples(*[values] * ring.nvars)


# fields on both sides of every power of two the bidegree reader's
# digit-sum shortcut may take as its bound, and fields up to EXP_MAX
reader_values = st.one_of(field_values, st.sampled_from(
    [v for j in range(8, 16) for v in ((1 << j) - 1, 1 << j)
     if v <= EXP_MAX]))


@st.composite
def tuple_pairs(draw):
    """(ring, a, b) with b a multiple of a about half of the time."""
    ring = draw(st.sampled_from(PACKED_RINGS))
    a = draw(exponent_tuples(ring))
    b = draw(exponent_tuples(ring))
    if draw(st.booleans()):
        b = tuple(min(x + y, EXP_MAX) if x + y <= EXP_MAX else x
                  for x, y in zip(a, b))
    return ring, a, b


def all_orders(ring):
    return ((ring.grevlex, ring.elim_aux)
            + tuple(ring.revlex_last(slot) for slot in range(ring.nvars)))


class TestPackedExponents:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_pack_unpack_round_trip(self, data):
        ring = data.draw(st.sampled_from(PACKED_RINGS))
        exp = data.draw(exponent_tuples(ring))
        packed = ring.pack(exp)
        assert ring.unpack(packed) == exp
        assert not packed & ring.guard
        assert ring.monomial(exp).lead_exp() == exp

    @settings(max_examples=300, deadline=None)
    @given(tuple_pairs())
    def test_divides_lcm_and_coprime(self, problem):
        ring, a, b = problem
        pa, pb = ring.pack(a), ring.pack(b)
        guard = ring.guard
        assert _divides(pa, pb, guard) == all(
            x <= y for x, y in zip(a, b))
        lcm = _lcm(pa, pb, guard)
        assert ring.unpack(lcm) == tuple(max(x, y) for x, y in zip(a, b))
        assert lcm == _lcm(pb, pa, guard)
        # the lcm is the sum exactly for coprime monomials
        assert (lcm == pa + pb) == all(not (x and y) for x, y in zip(a, b))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_keys_are_the_weighted_sums(self, data):
        ring = data.draw(st.sampled_from(PACKED_RINGS))
        exp = data.draw(exponent_tuples(ring))
        packed = ring.pack(exp)
        for order in all_orders(ring):
            assert order.key(packed) == order_key(ring, order, exp)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_bidegree_of_sums_the_x_and_T_fields(self, data):
        ring = data.draw(st.sampled_from(PACKED_RINGS))
        exp = data.draw(exponent_tuples(ring, reader_values))
        n = ring.n
        assert ring.bidegree_of(ring.pack(exp)) == (sum(exp[:n]),
                                                    sum(exp[n:2 * n]))
        assert ring.degree_of(ring.pack(exp)) == sum(exp)

    def test_bidegree_of_past_the_digit_sum_bound(self):
        # the x-fields sum to 2^16 - 1, which the shortcut would read as 0
        ring = PolyRing.get(32003, 4)
        exp = (EXP_MAX, EXP_MAX, 1, 0, 0, 3, 0, 0, 0, 0, 5)
        assert ring.bidegree_of(ring.pack(exp)) == (2 * EXP_MAX + 1, 3)
        assert ring.monomial(exp).bidegree() == (2 * EXP_MAX + 1, 3)
        f = ring.monomial(exp) + ring.monomial((0,) * 10 + (1,))
        assert f.bidegree() is None
        assert (f.x_degree(), f.t_degree()) == (2 * EXP_MAX + 1, 3)
        # all fields sum to 2^16 - 1, which a plain digit sum reads as 0
        exp = (EXP_MAX, EXP_MAX, 0, 0, 0, 0, 0, 0, 0, 0, 1)
        assert ring.degree_of(ring.pack(exp)) == 2 * EXP_MAX + 1
        # every x and T field within the bidegree bound, t past it
        exp = (4095,) * 10 + (EXP_MAX,)
        assert ring.degree_of(ring.pack(exp)) == 40950 + EXP_MAX

    @settings(max_examples=300, deadline=None)
    @given(degree_problems())
    # first and last terms share a degree in x and T, the middle one not
    @hypothesis.example(PACKED_RINGS[0].parse("x1^2*t^2 + x1^3 + x1^2"))
    def test_polynomial_degrees_match_the_tuple_definitions(self, f):
        n = f.ring.n
        degs = [(sum(e[:n]), sum(e[n:2 * n])) for e, _ in f.items()]
        if f.is_zero:
            assert f.bidegree() is ZERO_BIDEGREE
        elif len(set(degs)) == 1:
            assert f.bidegree() == degs[0]
        else:
            assert f.bidegree() is None
        assert f.x_degree() == max((x for x, _ in degs), default=-1)
        assert f.t_degree() == max((t for _, t in degs), default=-1)
        assert f.is_homogeneous() == (len({x + t for x, t in degs}) <= 1)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_overflow_detected_at_the_field_limit(self, data):
        ring = data.draw(st.sampled_from(PACKED_RINGS))
        slot = data.draw(st.integers(0, ring.nvars - 1))
        a = data.draw(st.integers(1, EXP_MAX))
        b = data.draw(st.sampled_from((EXP_MAX - a, EXP_MAX + 1 - a)))
        rest = data.draw(st.tuples(*[st.integers(0, 3)] * ring.nvars))
        fa = ring.monomial(rest[:slot] + (a,) + rest[slot + 1:])
        fb = ring.monomial(tuple(b if i == slot else 0
                                 for i in range(ring.nvars)))
        # the shift path of __mul__, then the accumulator of dot
        products = (lambda: fa * fb, lambda: (fa + 1) * (fb + 1))
        for product in products:
            if a + b > EXP_MAX:
                with pytest.raises(ExponentOverflow):
                    product()
            else:
                assert product().lead_exp()[slot] == a + b
        over = [0] * ring.nvars
        over[slot] = EXP_MAX + 1
        with pytest.raises(ExponentOverflow):
            ring.pack(over)
        with pytest.raises(ExponentOverflow):
            ring.parse("%s^%d" % (ring.names[slot], EXP_MAX + 1))


class TestZeroOnTheGeneralPath:
    """Zero operands, a zero column and empty generator lists: the general
    code returns the zero polynomial, zero rows and empty lists."""

    ring = PolyRing.get(32003, 4)

    def test_products_with_zero(self):
        r = self.ring
        one_term = r.parse("3*x1*T2")
        many_terms = r.parse("x1*T1 - x2*T2 + 3*x3^2")
        for f in (one_term, many_terms, r.zero):
            for product in (r.zero * f, f * r.zero):
                assert product == r.zero
                assert product.terms == ()

    def test_zero_exact_div_a_many_term_divisor(self):
        r = self.ring
        q = r.zero.exact_div(r.parse("x1*T1 - x2*T2 + 3*x3^2"))
        assert q == r.zero and q.terms == ()

    def test_zero_splits_into_a_zero_column_under_the_max_rule(self):
        r = self.ring
        assert partial_column(r.zero, "max") == [r.zero] * r.n

    def test_span_of_no_forms(self):
        r = self.ring
        assert r.span_basis([]) == []
        assert r.span_basis([r.zero, r.zero]) == []

    def test_truncated_run_with_every_generator_outside_the_box(self):
        r = self.ring
        gens = [r.parse("x1^2*T1"), r.parse("x2*T1^2 - x3*T2^2")]
        assert groebner_basis(gens, within=(1, 1)) == ()

    def test_hilbert_refused_on_a_truncated_run_with_nothing_inside(self):
        r = self.ring
        gens = [r.parse("x1^2*T1"), r.parse("x2*T1^2 - x3*T2^2")]
        num = hilbert_numerator(groebner_basis(gens))
        with pytest.raises(ValueError):
            groebner_basis(gens, within=(1, 1), hilbert=num)


def linear_find(terms, key):
    return next((i for i, term in enumerate(terms) if term[0] == key), -1)


class TestFind:
    """groebner._find, which places an admitted lead in an earlier tail,
    against a linear scan over strictly decreasing keys."""

    @settings(max_examples=200, deadline=None)
    @given(st.sets(st.integers(0, 60), max_size=12), st.integers(-1, 61))
    def test_matches_a_linear_scan(self, keys, other):
        terms = tuple((k, k, 1) for k in sorted(keys, reverse=True))
        present = [k for k, _, _ in terms]
        low, high = min(keys, default=0), max(keys, default=0)
        # the first, a middle and the last place; absent above, between
        # and below; with no keys (an empty tail) every probe is absent
        probes = [present[:1], present[len(present) // 2:][:1],
                  present[-1:], [high + 1],
                  [k for k in range(low, high) if k not in keys][:1],
                  [low - 1], [other]]
        for key in sum(probes, []):
            assert groebner._find(terms, key) == linear_find(terms, key)
