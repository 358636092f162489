"""Acceptance gate: one test per shipping criterion.

Each test prints a single PASS line on success (visible with -s; pytest
itself reports one pass/fail line per criterion under -v) and asserts
exact symbolic equality throughout; there are no tolerances to tune.
"""

import random
import time

import pytest

from reesgcd.ring import PolyRing
from reesgcd.matrices import (
    PolyMatrix,
    delete_column,
    delete_row,
    det,
    is_alternating,
    jacobian_dual,
    pfaffian,
)
from reesgcd.groebner import is_groebner
from reesgcd.ideals import Ideal, colon_power_chain, dimension, saturate
from reesgcd.pipeline import (
    GOLDEN_MATRIX,
    InstanceSpec,
    builtin_example,
    check_hypotheses,
    gcd_iterations,
    minimality_and_invariants,
    random_instance,
    verify_main_theorem,
    verify_well_definedness,
)

FIBER_SRC = "T1*T3*T5 - T2*T3^2 - T2^2*T5 - T4*T5^2"

GOLDEN_DUAL_ROWS = [
    ["-T2", "T1", "-T4", "T3", "0"],
    ["-T3", "0", "T1", "-T5", "T4"],
    ["0", "-T5", "0", "0", "T2"],
    ["-T5", "-T3", "T2", "0", "T1"],
    ["0", "0", "-T5", "0", "T3"],
]


@pytest.fixture(scope="module")
def golden():
    return builtin_example()


@pytest.fixture(scope="module")
def golden_trace(golden):
    return gcd_iterations(golden)


def _fiber(ring):
    return ring.parse(FIBER_SRC).monic()


def _statuses(report):
    return {c.check_id: c.status for c in report.checks}


def _recheck_factorization(trace):
    """Re-derive every column minor of every step matrix and compare
    against the signed factorization law and the vanishing law."""
    ring = trace.ring
    d = trace.instance.d
    m = trace.instance.degree
    for i, step in enumerate(trace.steps, 1):
        assert not step.gcd.is_zero
        assert tuple(step.bidegree) == (m - i, i * (d - 1))
        raw = det(delete_column(step.matrix, 1))
        g_raw = raw.exact_div(ring.T(1))
        assert g_raw is not None
        assert g_raw.monic() == step.gcd
        for j in range(2, d + 2):
            expected = ring.T(j) * g_raw
            if j % 2 == 0:
                expected = -expected
            assert det(delete_column(step.matrix, j)) == expected
        assert det(delete_column(step.matrix, d + 2)).is_zero


def test_criterion_1_golden_reproduction(golden, golden_trace):
    """The worked instance yields the three known gcds and the known
    Jacobian dual, entry for entry, in under five seconds."""
    start = time.perf_counter()
    trace = gcd_iterations(golden)
    dual = jacobian_dual(golden.presentation)
    elapsed = time.perf_counter() - start

    ring = golden.ring
    fiber = _fiber(ring)
    x5 = ring.x(5)
    assert trace.gcds[0] == (x5 ** 2 * fiber).monic()
    assert trace.gcds[1] == (x5 * fiber ** 2).monic()
    assert trace.gcds[2] == (fiber ** 3).monic()
    assert dual == PolyMatrix.from_rows(ring, GOLDEN_DUAL_ROWS)
    assert elapsed < 5.0
    print("criterion 1: PASS (golden gcds and dual, %.2fs)" % elapsed)


def test_criterion_2_saturation_oracle(golden, golden_trace):
    """The assembled ideal equals the saturation and the third colon
    power of the base ideal, and the second colon power is strictly
    smaller."""
    base = golden_trace.base_ideal
    candidate = golden_trace.defining_ideal
    variables = golden.x_ideal()

    sat = saturate(base, variables)
    assert candidate.equals(sat)
    chain = colon_power_chain(base, variables, 3)
    assert candidate.equals(chain[2])
    assert not candidate.equals(chain[1])
    print("criterion 2: PASS (saturation and colon-power identities)")


def test_criterion_3_counting_formulas(golden_trace):
    """Nine minimal generators, top T-degree nine, and one pure-T
    generator of T-degree nine."""
    report = minimality_and_invariants(golden_trace)
    assert report.ok
    assert report.find("generator-minimality").data["generators"] == 9
    assert report.find("relation-type").data["relation_type"] == 9

    gens = [g for g in golden_trace.generators() if not g.is_zero]
    pure = [g for g in gens if g.x_degree() == 0]
    assert len(pure) == 1
    assert pure[0].t_degree() == 9
    print("criterion 3: PASS (9 generators, relation type 9)")


def test_criterion_4_degree_law_property_suite():
    """On 21 seeded random hypothesis-passing instances with d = 4 and
    m in {1, 2, 3}: every gcd is nonzero with bidegree (m-i, i(d-1)),
    and every column deletion of every step matrix obeys the signed
    factorization and vanishing laws, within a minute per instance."""
    count = 0
    for m in (1, 2, 3):
        for seed in range(7):
            inst = random_instance(4, m, seed=seed)
            start = time.perf_counter()
            trace = gcd_iterations(inst)
            _recheck_factorization(trace)
            assert time.perf_counter() - start < 60.0
            count += 1
    assert count >= 20
    print("criterion 4: PASS (%d random instances)" % count)


def test_criterion_5_well_definedness(golden, golden_trace):
    """Both column splitting rules produce the same partial ideals at
    every step, on the worked instance and on five random ones."""
    assert verify_well_definedness(golden, golden_trace).ok
    checked = 1
    for d, m, seed in ((4, 1, 0), (4, 1, 1), (4, 2, 0), (4, 2, 1),
                       (4, 2, 2)):
        inst = random_instance(d, m, seed=seed)
        assert verify_well_definedness(inst, gcd_iterations(inst)).ok
        checked += 1
    assert checked >= 6
    print("criterion 5: PASS (%d instances, both rules)" % checked)


def test_criterion_6_degree_one_recovery(golden):
    """With the equation x5 the single iteration's gcd divides every
    maximal minor of the reduced dual with pairwise coprime quotients,
    so it is the gcd of those minors up to a unit."""
    inst = InstanceSpec(golden.prime, 4, GOLDEN_MATRIX, "x5")
    assert check_hypotheses(inst).ok
    trace = gcd_iterations(inst)
    assert len(trace.gcds) == 1
    gcd1 = trace.gcds[0]
    assert gcd1 == _fiber(inst.ring)

    reduced = delete_row(trace.dual, 5)
    quotients = []
    for j in range(1, 6):
        minor = det(delete_column(reduced, j))
        quotient = minor.exact_div(gcd1)
        assert quotient is not None
        quotients.append(quotient.monic())
    # quotients are the five T-variables: coprime, so nothing larger
    # than gcd1 divides all the minors
    assert quotients == [inst.ring.T(j) for j in range(1, 6)]
    print("criterion 6: PASS (degree-one gcd matches reduced dual)")


def _random_linear(rng, ring):
    while True:
        acc = {}
        for slot in ring.x_slots:
            c = rng.randint(-3, 3)
            if c:
                exp = [0] * ring.nvars
                exp[slot] = 1
                acc[tuple(exp)] = c
        if acc:
            return ring.from_dict(acc)


def _brute_monomial_dimension(supports, nslots):
    """Largest coordinate subspace avoiding every generator support,
    by exhaustive search over variable subsets."""
    from itertools import combinations
    for size in range(nslots, -1, -1):
        for keep in combinations(range(nslots), size):
            kept = set(keep)
            if all(support - kept for support in supports):
                return size
    return 0


def test_criterion_7_algebra_kernel_properties():
    """Pfaffian squared equals the determinant; the Cramer-style
    memberships hold on random 4x3 systems; produced reduced bases pass
    the Buchberger self-test; monomial dimension matches brute force."""
    ring = PolyRing.get(32003, 4)
    rng = random.Random(2026)

    # pfaffian^2 = det on random linear alternating matrices
    for size in (2, 4, 6):
        for _ in range(3):
            rows = [[ring.zero] * size for _ in range(size)]
            for i in range(size):
                for j in range(i + 1, size):
                    entry = _random_linear(rng, ring)
                    rows[i][j] = entry
                    rows[j][i] = -entry
            mat = PolyMatrix.from_rows(ring, rows)
            assert is_alternating(mat)
            assert pfaffian(mat) ** 2 == det(mat)

    # Cramer memberships: a_t*m_k - (-1)^(t-k) a_k*m_t lies in (a.M)
    for _ in range(3):
        vector = [_random_linear(rng, ring) for _ in range(4)]
        system = PolyMatrix.from_rows(
            ring, [[_random_linear(rng, ring) for _ in range(3)]
                   for _ in range(4)])
        products = []
        for j in range(3):
            acc = ring.zero
            for t in range(4):
                acc = acc + vector[t] * system.at(t, j)
            products.append(acc)
        product_ideal = Ideal(ring, products)
        row_minors = [det(delete_row(system, t + 1)) for t in range(4)]
        for t in range(4):
            for k in range(t + 1, 4):
                sign = -1 if (t + k) % 2 else 1
                member = (vector[t] * row_minors[k]
                          - sign * vector[k] * row_minors[t])
                assert product_ideal.contains(member)

    # Buchberger self-test on bases this package actually produces
    golden = builtin_example()
    trace = gcd_iterations(golden)
    assert is_groebner(trace.defining_ideal.groebner())
    sat = saturate(trace.base_ideal, golden.x_ideal())
    assert is_groebner(sat.groebner())

    # monomial dimension against exhaustive subset search
    small = PolyRing.get(32003, 2)
    slots = list(small.x_slots) + list(small.t_slots)
    for _ in range(10):
        monomials = []
        for _ in range(rng.randint(1, 5)):
            exp = [0] * small.nvars
            for slot in rng.sample(slots, rng.randint(1, 3)):
                exp[slot] = rng.randint(1, 2)
            monomials.append(small.from_dict({tuple(exp): 1}))
        ideal = Ideal(small, monomials)
        supports = [set(g.support()) for g in ideal.gens]
        got = dimension(ideal, slots)
        want = _brute_monomial_dimension(
            [{slots.index(s) for s in sup} for sup in supports],
            len(slots))
        assert got == want
    print("criterion 7: PASS (kernel property suite)")


def test_criterion_8_double_prime_consistency(golden, golden_trace):
    """The golden computations reproduce identically modulo 32003 and
    65537: same gcd strings, same dual, same counts, same verdicts."""
    other = builtin_example(65537)
    other_trace = gcd_iterations(other)

    assert [str(g) for g in golden_trace.gcds] == \
        [str(g) for g in other_trace.gcds]
    assert [str(golden_trace.dual.at(i, j)) for i in range(5)
            for j in range(5)] == \
        [str(other_trace.dual.at(i, j)) for i in range(5)
         for j in range(5)]
    assert golden_trace.to_dict() == other_trace.to_dict()

    assert _statuses(check_hypotheses(golden)) == \
        _statuses(check_hypotheses(other))
    assert _statuses(verify_main_theorem(golden, golden_trace)) == \
        _statuses(verify_main_theorem(other, other_trace))
    assert _statuses(verify_well_definedness(other, other_trace)) == \
        _statuses(verify_well_definedness(golden, golden_trace))

    mine = minimality_and_invariants(golden_trace)
    theirs = minimality_and_invariants(other_trace)
    assert _statuses(mine) == _statuses(theirs)
    assert mine.find("fiber-equation").data == \
        theirs.find("fiber-equation").data

    # degree-one recovery agrees string for string as well
    for p in (32003, 65537):
        inst = InstanceSpec(p, 4, GOLDEN_MATRIX, "x5")
        trace = gcd_iterations(inst)
        reduced = delete_row(trace.dual, 5)
        quotients = [det(delete_column(reduced, j)).exact_div(
            trace.gcds[0]).monic() for j in range(1, 6)]
        assert [str(q) for q in quotients] == [
            "T1", "T2", "T3", "T4", "T5"]
    print("criterion 8: PASS (verdicts identical at both primes)")
