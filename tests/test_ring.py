"""Ring layer: parsing, arithmetic, bidegrees, column splitting, orders."""

import json
import random

import pytest

from reesgcd.cli import main
from reesgcd.pipeline import builtin_example
from reesgcd.ring import (
    EXP_MAX, ExponentOverflow, PolyRing, ParseError,
    ZERO_BIDEGREE, partial_column, is_prime,
)

from order_reference import order_key

R = PolyRing.get(32003, 4)

FIBER_SRC = "T1*T3*T5 - T2*T3^2 - T2^2*T5 - T4*T5^2"


def mul_naive(a, b, p):
    """Dict-of-exponents product, independent of the library arithmetic."""
    acc = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            acc[e] = (acc.get(e, 0) + ca * cb) % p
    return {e: c for e, c in acc.items() if c}


def add_naive(a, b, p, sign=1):
    """Dict-of-exponents a + sign * b."""
    acc = dict(a.items())
    for e, c in b.items():
        acc[e] = (acc.get(e, 0) + sign * c) % p
    return {e: c for e, c in acc.items() if c}


def as_dict(f):
    return dict(f.items())


def random_poly(rng, ring, nterms=5, maxdeg=3, slots=None):
    if slots is None:
        slots = range(ring.nvars - 1)
    acc = {}
    for _ in range(nterms):
        exp = [0] * ring.nvars
        for _ in range(rng.randint(0, maxdeg)):
            exp[rng.choice(list(slots))] += 1
        acc[tuple(exp)] = rng.randint(1, ring.p - 1)
    return ring.from_dict(acc)


class TestParse:
    def test_monomial(self):
        assert R.parse("x5^3") == R.x(5) ** 3

    def test_zero_literal(self):
        assert R.parse("0").is_zero

    def test_four_term_cubic(self):
        w = R.parse(FIBER_SRC)
        expected = (R.T(1) * R.T(3) * R.T(5) - R.T(2) * R.T(3) ** 2
                    - R.T(2) ** 2 * R.T(5) - R.T(4) * R.T(5) ** 2)
        assert w == expected
        assert len(w) == 4

    def test_whitespace_and_signs(self):
        assert R.parse(" -2*x1 +  3*T2 ") == R.const(-2) * R.x(1) + 3 * R.T(2)
        assert R.parse("x1 - x1").is_zero

    def test_coefficient_products_and_repeats(self):
        assert R.parse("2*3*x1*x1") == R.const(6) * R.x(1) ** 2

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            R.parse("x1 + y2")

    def test_malformed_exponent(self):
        with pytest.raises(ParseError):
            R.parse("x1^")
        with pytest.raises(ParseError):
            R.parse("x1^x2")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            R.parse("")
        with pytest.raises(ParseError):
            R.parse("   ")

    @pytest.mark.parametrize("src, message, pos", [
        ("-", "dangling sign", 0),
        ("x1 +", "dangling sign", 3),
        ("x1*", "dangling '*'", 2),
        ("2*x1 * ", "dangling '*'", 5),
        ("x1^", "malformed exponent", 2),
        ("x1^x2", "malformed exponent", 3),
        ("x1 ^ -2", "malformed exponent", 5),
        ("2^3", "exponent allowed only on a variable", 1),
        ("x1*^2", "exponent allowed only on a variable", 3),
        ("x1^2^3", "unexpected token '^'", 4),
        ("x1 + y2", "unknown variable 'y2'", 5),
        ("x1*x10", "unknown variable 'x10'", 3),
        ("2 3", "unexpected token '3'", 2),
        ("x1 x2", "unexpected token 'x2'", 3),
        ("x1 + $", "unexpected token '$'", 5),
        ("", "empty input", 0),
    ])
    def test_error_offset_names_the_offending_token(self, src, message,
                                                    pos):
        with pytest.raises(ParseError) as exc:
            R.parse(src)
        assert exc.value.pos == pos
        assert str(exc.value) == "%s (at offset %d)" % (message, pos)

    @pytest.mark.parametrize("src, message", [
        ("x1^32768", "exponent 32768 of x1 exceeds 32767"),
        ("x1^20000*x1^20000", "exponent 40000 of x1 exceeds 32767"),
        # a third factor would carry into the field of x2 unchecked
        ("x1^30000*x1^30000*x1^30000",
         "exponent 90000 of x1 exceeds 32767"),
        ("x2*T1^40000*x1^40000", "exponent 40000 of x1 exceeds 32767"),
        ("x1 + x1^65536", "exponent 65536 of x1 exceeds 32767"),
    ])
    def test_exponent_past_the_field(self, src, message):
        with pytest.raises(ExponentOverflow) as exc:
            R.parse(src)
        assert str(exc.value) == message

    def test_boundary_exponents(self):
        assert R.parse("x1^32767") == R.x(1) ** EXP_MAX
        assert R.parse("x1^16384*x1^16383*T5^32767") == \
            R.x(1) ** EXP_MAX * R.T(5) ** EXP_MAX
        # a term whose coefficient vanishes mod p is never packed
        assert R.parse("x1^40000 - x1^40000").is_zero
        assert R.parse("%d*x1^40000" % R.p).is_zero

    def test_number_too_long_for_int(self):
        with pytest.raises(ExponentOverflow) as exc:
            R.parse("x2 + x1^" + "9" * 5000)
        assert str(exc.value) == \
            "exponent of x1 with 5000 digits exceeds 32767"
        with pytest.raises(ParseError) as exc:
            R.parse("x2 - " + "9" * 5000 + "*x1")
        assert exc.value.pos == 5
        assert "coefficient of 5000 digits" in str(exc.value)

    def test_leading_zeros_do_not_count_toward_the_length(self):
        zeros = "0" * 5000
        assert R.parse("x1^" + zeros + "7") == R.x(1) ** 7
        assert R.parse(zeros + "3*x1") == 3 * R.x(1)

    def test_roundtrip_fixed(self):
        for src in ("0", "1", "-1", "x5^3", FIBER_SRC,
                    "3*x1^2*T2 - x2*T1 + 5", "x1*T1*t - 7"):
            f = R.parse(src)
            assert R.parse(str(f)) == f

    def test_roundtrip_random(self):
        rng = random.Random(7)
        for _ in range(200):
            f = random_poly(rng, R)
            assert R.parse(str(f)) == f


class TestArithmetic:
    def test_additive_identity(self):
        f = R.parse("x1*T2 - 4")
        assert f + R.zero == f
        assert f - f == R.zero

    def test_difference_of_squares(self):
        x1, x2 = R.x(1), R.x(2)
        assert (x1 + x2) * (x1 - x2) == x1 ** 2 - x2 ** 2

    def test_product_against_naive(self):
        w = R.parse(FIBER_SRC)
        g1 = R.x(5) ** 2 * w
        assert as_dict(g1 * w) == mul_naive(g1, w, R.p)

    def test_random_ring_axioms(self):
        rng = random.Random(11)
        for _ in range(50):
            a = random_poly(rng, R)
            b = random_poly(rng, R)
            c = random_poly(rng, R)
            assert a * b == b * a
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            assert as_dict(a * b) == mul_naive(a, b, R.p)
            assert as_dict(a + b) == add_naive(a, b, R.p)
            assert as_dict(a - b) == add_naive(a, b, R.p, -1)
            assert (a - b) + b == a and a - a == R.zero

    def test_pow(self):
        f = R.parse("x1 + T1")
        assert f ** 0 == R.one
        assert f ** 3 == f * f * f

    def test_incompatible_rings(self):
        other = PolyRing.get(65537, 4)
        with pytest.raises(ValueError):
            R.x(1) + other.x(1)


class TestExactDiv:
    def test_divide_out_variable(self):
        w = R.parse(FIBER_SRC)
        assert (R.T(1) * w).exact_div(R.T(1)) == w

    def test_not_divisible(self):
        assert (R.x(1) ** 2).exact_div(R.x(2)) is None
        assert (R.x(1) + R.x(2)).exact_div(R.x(1)) is None

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            R.one.exact_div(R.zero)

    def test_zero_dividend(self):
        assert R.zero.exact_div(R.x(1)) == R.zero

    def test_random_products(self):
        rng = random.Random(13)
        for _ in range(60):
            a = random_poly(rng, R, nterms=4)
            b = random_poly(rng, R, nterms=4)
            if b.is_zero:
                continue
            assert (a * b).exact_div(b) == a


class TestBidegree:
    def test_mixed_generator(self):
        w = R.parse(FIBER_SRC)
        assert (R.x(5) ** 2 * w).bidegree() == (2, 3)

    def test_pure_t(self):
        w = R.parse(FIBER_SRC)
        assert (w ** 3).bidegree() == (0, 9)

    def test_not_bihomogeneous(self):
        assert (R.x(1) + R.T(1)).bidegree() is None

    def test_zero_marker(self):
        assert R.zero.bidegree() is ZERO_BIDEGREE

    def test_aux_ignored(self):
        assert (R.aux * R.x(1)).bidegree() == (1, 0)

    def test_terms_read_once(self, monkeypatch):
        f = R.x(1) * R.parse(FIBER_SRC)
        reads = []
        original = PolyRing.bidegree_of

        def counted(ring, exp):
            reads.append(exp)
            return original(ring, exp)

        monkeypatch.setattr(PolyRing, "bidegree_of", counted)
        assert (f.x_degree(), f.t_degree(), f.bidegree()) == (1, 3, (1, 3))
        assert f.bidegree() == (1, 3)
        assert len(reads) == len(f)


class TestPartialColumn:
    def test_pure_power(self):
        col = partial_column(R.parse("x5^3"))
        assert col == [R.zero, R.zero, R.zero, R.zero, R.x(5) ** 2]

    def test_single_variable(self):
        col = partial_column(R.x(1))
        assert col == [R.one, R.zero, R.zero, R.zero, R.zero]

    def test_min_rule_assignment(self):
        col = partial_column(R.parse("x1*x2 + x2^2"))
        assert col == [R.x(2), R.x(2), R.zero, R.zero, R.zero]

    def test_max_rule_assignment(self):
        col = partial_column(R.parse("x1*x2 + x2^2"), rule="max")
        assert col == [R.zero, R.x(1) + R.x(2), R.zero, R.zero, R.zero]

    def test_zero_polynomial(self):
        assert partial_column(R.zero) == [R.zero] * 5

    def test_rejects_t_only(self):
        with pytest.raises(ValueError):
            partial_column(R.T(1) ** 2)

    def test_rejects_non_bihomogeneous(self):
        with pytest.raises(ValueError):
            partial_column(R.x(1) + R.x(2) ** 2)

    def test_reassembly_both_rules(self):
        rng = random.Random(17)
        xs = [R.x(i) for i in range(1, 6)]
        exercised = 0
        for _ in range(40):
            tdeg = rng.randint(0, 3)
            f = R.zero
            for i in range(5):
                part = R.x(rng.randint(1, 5))
                for _ in range(tdeg):
                    part = part * R.T(rng.randint(1, 5))
                f = f + xs[i] * part.scale(rng.randint(1, R.p - 1))
            if f.is_zero:
                continue
            exercised += 1
            for rule in ("min", "max"):
                col = partial_column(f, rule)
                assert sum((xs[i] * col[i] for i in range(5)), R.zero) == f
                a, b = f.bidegree()
                for entry in col:
                    if not entry.is_zero:
                        assert entry.bidegree() == (a - 1, b)
        assert exercised > 5


class TestOrders:
    def test_terms_strictly_decreasing(self):
        rng = random.Random(19)
        for _ in range(50):
            f = random_poly(rng, R)
            keys = [k for k, _, _ in f.terms]
            assert keys == sorted(keys, reverse=True)
            assert len(set(keys)) == len(keys)

    def test_grevlex_classic(self):
        # between equal-degree monomials, grevlex prefers the one with the
        # smaller exponent on the last variable
        y2 = R.T(2) ** 2
        xz = R.T(1) * R.T(3)
        key = R.grevlex.key
        assert key(R.pack(y2.lead_exp())) > key(R.pack(xz.lead_exp()))

    def test_lead_of_cubic(self):
        # all four terms of W have T-degree 3; T2*T3^2 wins under grevlex
        w = R.parse(FIBER_SRC)
        assert w.lead_exp() == (R.T(2) * R.T(3) ** 2).lead_exp()
        assert w.items()[0][1] == R.p - 1

    def test_multiplicative_compatibility(self):
        rng = random.Random(23)
        slots = list(range(R.nvars))
        for order in (R.grevlex, R.elim_aux):
            for _ in range(200):
                def mono():
                    e = [0] * R.nvars
                    for _ in range(rng.randint(0, 5)):
                        e[rng.choice(slots)] += 1
                    return tuple(e)
                a, b, c = mono(), mono(), mono()
                def key(e):
                    return order.key(R.pack(e))
                ka, kb = key(a), key(b)
                ac = tuple(x + y for x, y in zip(a, c))
                bc = tuple(x + y for x, y in zip(b, c))
                if ka > kb:
                    assert key(ac) > key(bc)
                elif ka == kb:
                    assert a == b

    def test_elimination_blocks(self):
        key = R.elim_aux.key
        big = R.aux.terms[0][1]
        small = (R.x(1) ** 9 * R.T(5) ** 9).terms[0][1]
        assert key(big) > key(small)


def grevlex_rank(e, seq):
    """Graded reverse-lexicographic rank of the exponent tuple e, the
    variables ranked by seq, its last the smallest: the larger tuple is
    the larger monomial."""
    return (sum(e[v] for v in seq),) + tuple(-e[v] for v in reversed(seq))


def reference_ranks(ring):
    """(order, rank of exponent tuples) for each of the ring's own orders,
    the ranks compared as tuples, independent of any key."""
    slots = list(range(ring.nvars))
    out = [(ring.grevlex, lambda e: grevlex_rank(e, slots)),
           (ring.elim_aux,
            lambda e: (e[ring.aux_slot],) + grevlex_rank(e, slots[:-1]))]
    for slot in slots:
        seq = [v for v in slots if v != slot] + [slot]
        out.append((ring.revlex_last(slot),
                    lambda e, seq=seq: grevlex_rank(e, seq)))
    return out


# fields on both sides of every power of two from 2^8, among them 4096,
# past which degree_of unpacks at d=4, and up to EXP_MAX
KEY_FIELDS = ([0, 1, 2, 3, EXP_MAX - 1, EXP_MAX]
              + [v for j in range(8, 15) for v in ((1 << j) - 1, 1 << j)])


class TestOrderKeys:
    RINGS = [PolyRing.get(32003, d) for d in (0, 2, 4, 6)]

    @staticmethod
    def exponent(rng, ring):
        return tuple(rng.choice(KEY_FIELDS) if rng.random() < 0.5
                     else rng.randint(0, 4) for _ in range(ring.nvars))

    def test_key_comparison_is_the_order(self):
        rng = random.Random(41)
        for ring in self.RINGS:
            for order, rank in reference_ranks(ring):
                for _ in range(150):
                    a = self.exponent(rng, ring)
                    b = list(a)
                    if rng.random() < 0.5:
                        # one unit moved between two fields: same degree
                        i, j = rng.sample(range(ring.nvars), 2)
                        if b[i] and b[j] < EXP_MAX:
                            b[i] -= 1
                            b[j] += 1
                    else:
                        b = self.exponent(rng, ring)
                    b = tuple(b)
                    ka, kb = order.key(ring.pack(a)), order.key(ring.pack(b))
                    assert (ka > kb) == (rank(a) > rank(b)), (order, a, b)
                    assert (ka == kb) == (a == b)

    def test_keys_add_under_multiplication(self):
        rng = random.Random(43)
        for ring in self.RINGS:
            for order, _ in reference_ranks(ring):
                for _ in range(100):
                    a = self.exponent(rng, ring)
                    b = tuple(rng.randint(0, EXP_MAX - x) if rng.random() < 0.3
                              else min(rng.randint(0, 3), EXP_MAX - x)
                              for x in a)
                    pa, pb = ring.pack(a), ring.pack(b)
                    assert (order.key(pa + pb)
                            == order.key(pa) + order.key(pb))

    def test_the_closed_forms(self):
        # each key is its order's weighted sum, and grevlex, elim_aux and
        # revlex_last are the formulas the ring module states
        rng = random.Random(47)
        for ring in self.RINGS:
            s = 16 * ring.aux_slot
            for order, _ in reference_ranks(ring):
                for _ in range(50):
                    e = self.exponent(rng, ring)
                    assert (order.key(ring.pack(e))
                            == order_key(ring, order, e))
            for _ in range(50):
                # revlex_last(slot): the grevlex key of e with field slot
                # moved to the top and the fields above it one field down
                e = self.exponent(rng, ring)
                for slot in range(ring.nvars):
                    moved = e[:slot] + e[slot + 1:] + (e[slot],)
                    assert (ring.revlex_last(slot).key(ring.pack(e))
                            == ring.grevlex.key(ring.pack(moved)))
                e = ring.pack(e)
                assert ring.grevlex.key(e) == (
                    (ring.degree_of(e) << (16 * ring.nvars)) - e)
                rest = e & ((1 << s) - 1)
                assert ring.elim_aux.key(e) == (
                    (e >> s) * ((1 << (s + 32)) - (1 << (s + 16)))
                    + (ring.degree_of(rest) << s) - rest)


def ring_state(ring):
    """Every slot of ring, its containers copied."""
    state = {}
    for name in PolyRing.__slots__:
        value = getattr(ring, name)
        state[name] = (value.copy() if isinstance(value, (dict, list, set))
                       else value)
    return state


def test_shared_ring_is_not_changed_after_construction(tmp_path, capsys):
    shared = PolyRing.get(32003, 4)
    before = ring_state(shared)
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(builtin_example().to_dict()))
    assert main(["verify", str(path)]) == 0
    capsys.readouterr()
    assert ring_state(shared) == before
    # a ring no run has touched builds every order with itself
    fresh = PolyRing(32003, 4)
    before = ring_state(fresh)
    other = PolyRing.get(65537, 4)
    for ring in (shared, fresh):
        orders = [ring.revlex_last(slot) for slot in range(ring.nvars)]
        for slot, order in enumerate(orders):
            assert ring.revlex_last(slot) is order
            assert ring.is_graded(order)
        assert ring.is_graded(ring.grevlex)
        assert not ring.is_graded(ring.elim_aux)
        assert not ring.is_graded(other.grevlex)
        for slot in (-1, ring.nvars):
            with pytest.raises(IndexError):
                ring.revlex_last(slot)
    assert ring_state(fresh) == before


def test_is_prime():
    assert is_prime(2) and is_prime(32003) and is_prime(65537)
    assert not is_prime(1) and not is_prime(32001)
    # a strong pseudoprime to the 12 prime bases 2..37
    assert not is_prime(318665857834031151167461)
    assert is_prime(3317044064679887385961813)   # the largest below the bound
    with pytest.raises(ValueError, match="3317044064679887385961981"):
        is_prime(3317044064679887385961981)
    with pytest.raises(ValueError):
        PolyRing(32001, 4)
