"""Heights the structural checks read off checked identities: the same
reports as the minor-ideal route (structural_reference.py), the height of
the minors of B against min(d+1, ht(lambda)), the Pfaffian square law
against all minors, its guards on A . p and on its column of minors, and
the matrices whose Pfaffians all vanish, one checked lambda per instance
(its guards on a fresh instance, its second prime forming its own), the
reduced gcd read off lambda, product containment asking the target only
about the products the reduced-Cramer containment rejects, failing and
passing, and the route through changed coordinates."""

import random
import re

import pytest

from reesgcd import ideals, pipeline
from reesgcd.ideals import Ideal, height
from reesgcd.matrices import PolyMatrix, jacobian_dual, submaximal_pfaffians
from reesgcd.pipeline import (
    IterationError,
    builtin_example,
    gcd_iterations,
    optional_structural_checks,
    random_instance,
    verify_well_definedness,
)
from reesgcd.ring import PolyRing

import structural_reference
from structural_reference import (
    dual_minor_height_by_minors,
    reduction_usable_by_minors,
    square_law_by_all_minors,
    structural_checks_by_minors,
)

PRIMES = (32003, 65537)
CASES = ["golden"] + [(m, k) for m in (1, 2, 3) for k in range(3)]

_INSTANCES = {}


def instance(prime, case):
    """The golden or random d=4 instance (m, k) modulo prime, built once."""
    if (prime, case) not in _INSTANCES:
        _INSTANCES[prime, case] = builtin_example(prime) \
            if case == "golden" else \
            random_instance(4, case[0], p=prime, seed=case[1])
    return _INSTANCES[prime, case]


def fresh(inst):
    """A new instance of the spec of inst, which has not formed its
    Jacobian dual and lambda yet."""
    return inst.with_prime(inst.prime)


def lam(inst):
    """The instance's checked row lambda."""
    return pipeline._fixed_part(inst)[2]


@pytest.mark.parametrize("case", CASES, ids=str)
@pytest.mark.parametrize("prime", PRIMES)
def test_matches_minor_reference(prime, case):
    inst = instance(prime, case)
    report = optional_structural_checks(inst)
    assert report.to_dict() == structural_checks_by_minors(inst).to_dict()


@pytest.mark.parametrize("case", CASES, ids=str)
def test_dual_minor_height_is_min_of_lambda_height(case):
    # V((T)(lambda)) = V(T) u V(lambda)
    inst = instance(32003, case)
    ring = inst.ring
    lam_height = height(Ideal(ring, lam(inst)), ring.t_slots)
    assert dual_minor_height_by_minors(jacobian_dual(inst.presentation)) \
        == min(inst.d + 1, lam_height)


@pytest.mark.parametrize("case", ["golden", (1, 0), (2, 1)], ids=str)
def test_reduction_usable_matches_reference_in_new_coordinates(case):
    inst = instance(32003, case)
    ring = inst.ring
    d = inst.d
    rng = random.Random("reference:%s" % (case,))
    mats = [inst.presentation] + [
        pipeline._substitute_linear(
            inst.presentation,
            pipeline._random_invertible(rng, ring, d + 1))
        for _ in range(2)]
    # x1 <-> x5 on golden drops the reduced Pfaffian height to 2
    swap = [ring.x(5), ring.x(2), ring.x(3), ring.x(4), ring.x(1)]
    mats.append(pipeline._substitute_linear(inst.presentation, swap))
    verdicts = [pipeline._reduction_usable(mat, d) for mat in mats]
    assert verdicts == [reduction_usable_by_minors(mat, d) for mat in mats]


def linear_form(rng, ring, slots):
    return ring.dot((rng.randrange(1, ring.p), ring.one, ring.x(v))
                    for v in slots)


def alternating(ring, entry):
    """The alternating matrix with entry(i, j) above the diagonal."""
    size = ring.n
    rows = [[ring.zero] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            rows[i][j] = entry(i, j)
            rows[j][i] = -rows[i][j]
    return PolyMatrix.from_rows(ring, rows)


def degenerate_matrices():
    """d=4 alternating matrices of linear forms where few variables or a
    zero row decide: entries in x1..x3 keep the reduced Pfaffians at
    height 3 but span 3 < 4 forms; entries in x1, x2 or a zero row lower
    the Pfaffian height."""
    ring = PolyRing.get(32003, 4)
    rng = random.Random("degenerate")
    return [
        alternating(ring, lambda i, j: linear_form(rng, ring, (1, 2, 3))),
        alternating(ring, lambda i, j: linear_form(rng, ring, (1, 2))),
        alternating(ring, lambda i, j: linear_form(rng, ring, (1, 2, 5))),
        alternating(ring, lambda i, j: ring.zero if i == 0 else
                    linear_form(rng, ring, range(1, 6))),
        alternating(ring, lambda i, j: linear_form(rng, ring, range(1, 6))),
    ]


def test_reduction_usable_matches_reference_on_degenerate_matrices():
    mats = degenerate_matrices()
    verdicts = [pipeline._reduction_usable(mat, 4) for mat in mats]
    assert verdicts == [reduction_usable_by_minors(mat, 4) for mat in mats]
    assert verdicts == [False] * 4 + [True]


def test_span_of_reduced_entries_decides_in_three_variables():
    ring = PolyRing.get(32003, 4)
    reduced = degenerate_matrices()[0]
    pfs = submaximal_pfaffians(reduced)
    assert height(Ideal(ring, pfs), ring.x_slots[:4]) == 3
    assert len(ring.span_basis(reduced.entries)) == 3


def d6_matrices():
    """A generic d=6 alternating matrix of linear forms, and one whose
    x5, x6 sit in the first row only: it has rank 2 on x1 = ... = x4 = 0,
    so its 4 x 4 Pfaffians have height 4 < 5 while the submaximal ones
    keep height 3 and the entries span all six forms."""
    ring = PolyRing.get(32003, 6)
    rng = random.Random("d6")
    generic = alternating(ring, lambda i, j: linear_form(rng, ring,
                                                         range(1, 8)))
    low = alternating(ring, lambda i, j: linear_form(
        rng, ring, (1, 2, 3, 4, 5, 6) if i == 0 else (1, 2, 3, 4)))
    return generic, low


def test_principal_pfaffians_decide_at_d6():
    generic, low = d6_matrices()
    assert pipeline._reduction_usable(generic, 6)
    assert reduction_usable_by_minors(generic, 6)
    assert not pipeline._reduction_usable(low, 6)
    assert not reduction_usable_by_minors(low, 6)


def test_principal_pfaffians_check_cayley(monkeypatch):
    generic, _ = d6_matrices()
    ring = generic.ring
    reduced = pipeline._substitute_linear(
        generic, [ring.x(k) for k in range(1, 7)] + [ring.zero])
    rows = (1, 2, 4, 6)
    target = PolyMatrix.from_rows(
        ring, [[reduced.at(i, j) for j in rows] for i in rows])
    original = pipeline.pfaffian

    def perturbed(mat):
        pf = original(mat)
        return pf + ring.x(1) ** 2 if mat.entries == target.entries else pf

    monkeypatch.setattr(pipeline, "pfaffian", perturbed)
    with pytest.raises(IterationError,
                       match="Cayley: det = Pf\\^2 fails on the principal "
                             "submatrix of rows and columns 2,3,5,7$"):
        pipeline._reduction_usable(generic, 6)


def perturbed_minors(monkeypatch, k, delta):
    """pipeline.minors with delta added to the minor without row k+1 of
    a (d+1) x d matrix, the (d-k)-th of its d x d minors: the entry of
    row k+1 in the column of minors that the square law or lambda uses."""
    original = pipeline.minors

    def perturbed(mat, size):
        out = original(mat, size)
        if mat.rows == mat.cols + 1:
            out[mat.cols - k] = out[mat.cols - k] + delta(mat.ring)
        return out

    monkeypatch.setattr(pipeline, "minors", perturbed)


def golden_reduced():
    """The golden presentation without x5 and its signed Pfaffians."""
    mat = builtin_example().presentation
    ring = mat.ring
    reduced = pipeline._substitute_linear(
        mat, [ring.x(k) for k in range(1, 5)] + [ring.zero])
    return reduced, submaximal_pfaffians(reduced)


@pytest.mark.parametrize("k,j", [(0, 0), (0, 1), (3, 2), (4, 4)])
def test_perturbed_reduced_minor_trips_the_square_law(k, j, monkeypatch):
    # the instance holds lambda, so only the reduced matrix's minors are
    # formed under the patch; the square law forms the column without
    # the first index j0 with p_j0 != 0, and x_{j+1}^4 moves its row k
    inst = builtin_example()
    gcd_iterations(inst)
    _, pfs = golden_reduced()
    j0 = next(i for i, p in enumerate(pfs) if not p.is_zero)
    perturbed_minors(monkeypatch, k, lambda ring: ring.x(j + 1) ** 4)
    with pytest.raises(IterationError,
                       match="square law: adj = p . p\\^t fails at the "
                             "minor without row %d and column %d$"
                             % (k + 1, j0 + 1)):
        optional_structural_checks(inst)


@pytest.mark.parametrize("k", [0, 2, 4])
def test_square_law_checks_the_kernel(k):
    # x1^2 added to p_k moves A . p by x1^2 times column k of A
    reduced, pfs = golden_reduced()
    ring = reduced.ring
    row = next(i for i in range(5) if not reduced.at(i, k).is_zero)
    pfs[k] = pfs[k] + ring.x(1) ** 2
    with pytest.raises(IterationError,
                       match="square law: A . p is nonzero at row %d$"
                             % (row + 1)):
        pipeline._check_square_law(reduced, pfs)


def rank_two_matrices():
    """d=4 alternating matrices of rank at most 2, whose submaximal
    Pfaffians all vanish: zero, one nonzero row and column, and
    u . w^t - w . u^t for columns u, w of linear forms."""
    ring = PolyRing.get(32003, 4)
    rng = random.Random("rank two")
    u = [linear_form(rng, ring, range(1, 6)) for _ in range(5)]
    w = [linear_form(rng, ring, range(1, 6)) for _ in range(5)]
    return [
        alternating(ring, lambda i, j: ring.zero),
        alternating(ring, lambda i, j: ring.x(j) if i == 0 else ring.zero),
        alternating(ring, lambda i, j: u[i] * w[j] - w[i] * u[j]),
    ]


def test_square_law_holds_where_the_pfaffians_vanish():
    # rank < d: adj = 0 = p . p^t, with no special case for p = 0
    for mat in rank_two_matrices():
        pfs = submaximal_pfaffians(mat)
        assert all(p.is_zero for p in pfs)
        pipeline._check_square_law(mat, pfs)
        square_law_by_all_minors(mat, pfs)


@pytest.mark.parametrize("case", CASES, ids=str)
def test_square_law_agrees_with_all_minors(case):
    # in the given coordinates, with the last variable dropped
    mat = instance(32003, case).presentation
    ring = mat.ring
    reduced = pipeline._substitute_linear(
        mat, [ring.x(k) for k in range(1, 5)] + [ring.zero])
    pfs = submaximal_pfaffians(reduced)
    pipeline._check_square_law(reduced, pfs)
    square_law_by_all_minors(reduced, pfs)


def counted_adjugate_rows(monkeypatch):
    """pipeline._adjugate_row recording the ring of every dual it takes."""
    rings = []
    original = pipeline._adjugate_row

    def counted(dual):
        rings.append(dual.ring)
        return original(dual)

    monkeypatch.setattr(pipeline, "_adjugate_row", counted)
    return rings


@pytest.mark.parametrize("case", ["golden", (1, 2), (3, 0)], ids=str)
def test_lambda_is_formed_once_per_instance(case, monkeypatch):
    # the iteration, its rerun under the max rule and the structural
    # checks at the given coordinates read one lambda; the report is the
    # one a structural check that forms lambda itself gives
    inst = fresh(instance(32003, case))
    first = optional_structural_checks(fresh(inst)).to_dict()
    rings = counted_adjugate_rows(monkeypatch)
    trace = gcd_iterations(inst)
    verify_well_definedness(inst, trace)
    got = optional_structural_checks(inst)
    assert got.find("reduced-cramer-containment").data["attempt"] == 0
    assert got.to_dict() == first
    assert rings == [inst.ring]


def test_second_prime_forms_and_checks_its_own_lambda(monkeypatch):
    inst = builtin_example()
    gcd_iterations(inst)
    want = lam(builtin_example(65537))
    other = inst.with_prime(65537)
    rings = counted_adjugate_rows(monkeypatch)
    assert lam(other) == want
    assert rings == [other.ring]
    assert [g.ring for g in lam(inst)] == [inst.ring] * 5
    perturbed_minors(monkeypatch, 1, lambda ring: ring.x(1) ** 3)
    with pytest.raises(IterationError,
                       match="minor of B without row 2 and column 1 is "
                             "not divisible by T1"):
        gcd_iterations(inst.with_prime(65537))


@pytest.mark.parametrize("k,j", [(0, 1), (2, 4)])
def test_fresh_instance_checks_the_adjugate_law(k, j, monkeypatch):
    # lambda_k moves by +-T_{j+1}^3, caught by the lambda . B recheck at
    # the first nonzero entry of row k of B
    inst = builtin_example()
    dual = jacobian_dual(inst.presentation)
    column = next(i for i in range(5) if not dual.at(k, i).is_zero) + 1
    perturbed_minors(monkeypatch, k,
                     lambda ring: ring.T(1) * ring.T(j + 1) ** 3)
    with pytest.raises(IterationError,
                       match="adjugate: lambda . B is nonzero at column "
                             "%d$" % column):
        optional_structural_checks(inst)


def test_fresh_instance_checks_t1_divisibility(monkeypatch):
    perturbed_minors(monkeypatch, 1, lambda ring: ring.x(1) ** 3)
    with pytest.raises(IterationError,
                       match="minor of B without row 2 and column 1 is "
                             "not divisible by T1"):
        optional_structural_checks(builtin_example())


def test_fresh_instance_checks_the_full_dual_minor(monkeypatch):
    monkeypatch.setattr(pipeline, "det", lambda mat: mat.ring.one)
    with pytest.raises(IterationError,
                       match="full-dual minor does not vanish"):
        optional_structural_checks(builtin_example())


def asked_outside(monkeypatch):
    """Ideal.outside recording, one pair per call and in order, the
    generators of the ideal asked and the polys it is asked about."""
    asked = []
    original = Ideal.outside

    def recorded(self, polys):
        polys = list(polys)
        asked.append((self.gens, polys))
        return original(self, polys)

    monkeypatch.setattr(Ideal, "outside", recorded)
    return asked


def groebner_runs(monkeypatch):
    """ideals.groebner_basis recording the generators of every run."""
    runs = []
    original = ideals.groebner_basis

    def recorded(gens, *args, **kwargs):
        runs.append(tuple(gens))
        return original(gens, *args, **kwargs)

    monkeypatch.setattr(ideals, "groebner_basis", recorded)
    return runs


def target_gens(inst, dual):
    """Generators of the target (x_{d+1}) + (full forms) of product
    containment, for the Jacobian dual at the chosen coordinates."""
    ring = inst.ring
    return Ideal(ring, [ring.x(inst.d + 1)]
                 + list(pipeline._column_forms(dual))).gens


@pytest.mark.parametrize("case", CASES, ids=str)
def test_reduced_gcd_from_the_one_minor_without_column_1(case,
                                                         monkeypatch):
    # the reference divides the maximal minor of the reduced dual without
    # column 1 by T1; at the given coordinates that minor is M[d][0] =
    # T1 lambda_{d+1}, so the check forms no minor of its own, only one
    # column of the reduced presentation per square law.  A passing
    # reduced-Cramer containment asks the d products x_i g_red (i <= d)
    # of the ideal of reduced forms, and the target about nothing: it
    # makes no Groebner run of the target
    inst = instance(32003, case)
    trace = gcd_iterations(inst)
    formed = []
    original = pipeline.minors
    square_law = pipeline._check_square_law

    def recorded(mat, k):
        formed.append((mat.rows, mat.cols, k))
        return original(mat, k)

    def counted(mat, pfs):
        formed.append("square law")
        return square_law(mat, pfs)

    monkeypatch.setattr(pipeline, "minors", recorded)
    monkeypatch.setattr(pipeline, "_check_square_law", counted)
    asked = asked_outside(monkeypatch)
    runs = groebner_runs(monkeypatch)
    got = optional_structural_checks(inst)
    monkeypatch.undo()
    assert got.to_dict() == structural_checks_by_minors(inst).to_dict()
    assert got.find("reduced-cramer-containment").status == "pass"
    assert got.find("product-containment").status == "pass"
    assert got.find("reduced-cramer-containment").data["attempt"] == 0
    d = inst.d
    assert formed == ["square law", (d + 1, d, d)]
    gcd = lam(inst)[d].monic()
    target = target_gens(inst, trace.dual)
    assert [polys for _, polys in asked[-2:]] == \
        [[inst.ring.x(i) * gcd for i in range(1, d + 1)], []]
    assert asked[-1][0] == target
    assert asked[-2][0] != target
    assert target not in runs


@pytest.mark.parametrize("case,j", [("golden", 1), ("golden", 4),
                                    ((1, 0), 2), ((2, 1), 5)], ids=str)
def test_product_containment_names_the_first_product_outside(
        case, j, monkeypatch):
    # the reduced gcd is moved by T_j^(d-1): in the instance's lambda for
    # the check, in the maximal minor of the reduced dual without column 1
    # (T1 lambda_{d+1}) for the reference.  It fails the reduced-Cramer
    # containment, and the target is asked exactly about the products
    # that check rejected: every other x_i g_red lies in the ideal of
    # reduced forms, which lies in the target, and x_{d+1} g_red lies in
    # (x_{d+1})
    inst = instance(32003, case)
    trace = gcd_iterations(inst)
    ring = inst.ring
    d = inst.d
    delta = ring.T(j) ** (d - 1)
    dual, forms, moved_lam = pipeline._fixed_part(inst)
    moved_lam = list(moved_lam)
    moved_lam[d] = moved_lam[d] + delta
    monkeypatch.setattr(inst, "_fixed", (dual, forms, moved_lam))
    original = structural_reference.minors

    def moved(mat, size):
        out = original(mat, size)
        if (mat.rows, mat.cols, size) == (d, d + 1, d):
            out[-1] = out[-1] + ring.T(1) * delta
        return out

    monkeypatch.setattr(structural_reference, "minors", moved)
    asked = asked_outside(monkeypatch)
    got = optional_structural_checks(inst)
    gcd = moved_lam[d].monic()
    (reduced, retained), (target, products) = asked[-2:]
    assert retained == [ring.x(i) * gcd for i in range(1, d + 1)]
    assert target == target_gens(inst, trace.dual)
    rejected = [g for g in retained if not Ideal(ring, reduced).contains(g)]
    assert rejected and products == rejected
    want = structural_checks_by_minors(inst)
    for check in ("reduced-cramer-containment", "product-containment"):
        assert got.find(check).to_dict() == want.find(check).to_dict()
    got = got.find("product-containment")
    assert got.status == "fail"
    assert re.fullmatch("fails for x[1-%d] times %s"
                        % (d, re.escape(str(gcd))), got.witness)


@pytest.mark.parametrize("case", ["golden", (1, 0)], ids=str)
def test_product_containment_decides_by_its_own_membership(case,
                                                           monkeypatch):
    # an empty ideal of reduced forms rejects every x_i g_red, i <= d, so
    # the reduced-Cramer containment fails at x1; the target still holds
    # them all, and product containment passes on its own membership
    # tests of those d products
    inst = instance(32003, case)
    trace = gcd_iterations(inst)
    ring = inst.ring
    d = inst.d
    original = pipeline.delete_row

    def emptied(mat, k):
        reduced = original(mat, k)
        return PolyMatrix(ring, reduced.rows, reduced.cols,
                          [ring.zero] * len(reduced.entries))

    monkeypatch.setattr(pipeline, "delete_row", emptied)
    asked = asked_outside(monkeypatch)
    got = optional_structural_checks(inst)
    gcd = lam(inst)[d].monic()
    products = [ring.x(i) * gcd for i in range(1, d + 1)]
    assert asked[-1] == (target_gens(inst, trace.dual), products)
    assert [(got.find(check).status, got.find(check).witness)
            for check in ("reduced-cramer-containment",
                          "product-containment")] == \
        [("fail", "fails for x1"), ("pass", "")]


@pytest.mark.parametrize("case", ["golden", (2, 0)], ids=str)
def test_changed_coordinates_match_the_reference(case, monkeypatch):
    # refusing the given coordinates sends both routes to attempt 1; the
    # check then forms its own lambda from the dual there
    inst = instance(32003, case)

    def refusing(usable):
        def patched(mat, d):
            return mat != inst.presentation and usable(mat, d)
        return patched

    monkeypatch.setattr(pipeline, "_reduction_usable",
                        refusing(pipeline._reduction_usable))
    monkeypatch.setattr(structural_reference, "reduction_usable_by_minors",
                        refusing(structural_reference
                                 .reduction_usable_by_minors))
    got = optional_structural_checks(inst).to_dict()
    assert got == structural_checks_by_minors(inst).to_dict()
    data = got["checks"][1]["data"]
    assert data["attempt"] == 1
    assert data["reduced_gcd"] != str(lam(inst)[inst.d].monic())
