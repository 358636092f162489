"""The gcd iteration from the adjugate of the Jacobian dual: the same
traces and the same lambda as the step-minor route
(step_minor_reference.py), lambda against the minors of Bareiss
elimination (bareiss_reference.py), an independent route, the once-per-run
guards on B . [T]^t, the division by T1 and lambda . B, and a dual of rank
below d."""

import pytest

from reesgcd import pipeline
from reesgcd.matrices import (
    PolyMatrix,
    delete_column,
    delete_row,
    jacobian_dual,
    minors,
)
from reesgcd.pipeline import (
    GOLDEN_EQUATION,
    GOLDEN_MATRIX,
    InstanceSpec,
    IterationError,
    builtin_example,
    gcd_iterations,
    optional_structural_checks,
    random_instance,
)

import bareiss_reference as bareiss
from step_minor_reference import (
    adjugate_row_by_all_minors,
    gcd_iterations_by_step_minors,
)
from structural_reference import structural_checks_by_minors

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


@pytest.mark.parametrize("rule", ["min", "max"])
@pytest.mark.parametrize("case", CASES, ids=str)
@pytest.mark.parametrize("prime", PRIMES)
def test_matches_step_minor_reference(prime, case, rule):
    inst = instance(prime, case)
    trace = gcd_iterations(inst, rule)
    reference = gcd_iterations_by_step_minors(inst, rule)
    assert trace.gcds == reference.gcds
    assert [s.bidegree for s in trace.steps] == \
        [s.bidegree for s in reference.steps]
    assert [s.matrix for s in trace.steps] == \
        [s.matrix for s in reference.steps]
    assert trace.to_dict() == reference.to_dict()


@pytest.mark.parametrize("case", ["golden", (2, 1)], ids=str)
def test_lambda_spans_the_bareiss_adjugate(case):
    # adj(B)[j][k] = (-1)^(j+k) M[k][j] = T_{j+1} lambda_k, by Bareiss
    inst = instance(32003, case)
    ring = inst.ring
    trace = gcd_iterations(inst)
    lam = trace._fixed
    n = inst.d + 1
    for k in range(n):
        for j in range(n):
            minor = bareiss.det(
                delete_row(delete_column(trace.dual, j + 1), k + 1))
            adj = minor if (j + k) % 2 == 0 else -minor
            assert adj == ring.T(j + 1) * lam[k]


def perturbed_minors(monkeypatch, k, delta):
    """pipeline.minors with delta added to the minor without row k+1 of
    a (d+1) x d matrix, the (d-k)-th of its d x d minors: for B without
    column 1 the minor that gives lambda_k."""
    original = pipeline.minors

    def perturbed(mat, size):
        out = original(mat, size)
        out[mat.cols - k] = out[mat.cols - k] + delta(mat.ring)
        return out

    monkeypatch.setattr(pipeline, "minors", perturbed)


def first_column_of_row(mat, k):
    """1-based index of the first nonzero entry in row k of mat."""
    return next(j for j in range(mat.cols) if not mat.at(k, j).is_zero) + 1


@pytest.mark.parametrize("k,j", [(0, 1), (1, 3), (2, 2), (4, 4)])
def test_perturbed_minor_trips_the_guard(k, j, monkeypatch):
    # a multiple of T1 passes the division: lambda_k moves by +-T_{j+1}^3,
    # so lambda . B moves by that times row k of B, and only the
    # lambda . B recheck sees it
    inst = builtin_example()
    column = first_column_of_row(jacobian_dual(inst.presentation), k)
    perturbed_minors(monkeypatch, k,
                     lambda ring: ring.T(1) * ring.T(j + 1) ** 3)
    with pytest.raises(IterationError,
                       match="adjugate: lambda . B is nonzero at column "
                             "%d$" % column):
        gcd_iterations(inst)


@pytest.mark.parametrize("k", [0, 3])
def test_minor_not_divisible_by_t1_trips_the_guard(k, monkeypatch):
    perturbed_minors(monkeypatch, k, lambda ring: ring.x(1) ** 3)
    with pytest.raises(IterationError,
                       match="minor of B without row %d and column 1 is "
                             "not divisible by T1" % (k + 1)):
        gcd_iterations(builtin_example())


@pytest.mark.parametrize("k,j", [(0, 0), (2, 3), (4, 1)])
def test_dual_entry_off_the_kernel_trips_the_guard(k, j, monkeypatch):
    # T1 added to B[k][j] moves row k of B . [T]^t by T1 T_{j+1}
    original = pipeline.jacobian_dual

    def perturbed(alt):
        dual = original(alt)
        entries = list(dual.entries)
        entries[k * dual.cols + j] += dual.ring.T(1)
        return PolyMatrix(dual.ring, dual.rows, dual.cols, entries)

    monkeypatch.setattr(pipeline, "jacobian_dual", perturbed)
    with pytest.raises(IterationError,
                       match="adjugate: B . \\[T\\]\\^t is nonzero at row "
                             "%d$" % (k + 1)):
        gcd_iterations(builtin_example())


@pytest.mark.parametrize("case", CASES, ids=str)
@pytest.mark.parametrize("prime", PRIMES)
def test_lambda_matches_the_all_minors_route(prime, case):
    dual = jacobian_dual(instance(prime, case).presentation)
    assert pipeline._adjugate_row(dual) == adjugate_row_by_all_minors(dual)


def rank_deficient_instance():
    """Golden with row and column 3 zeroed: T3 leaves B and column 3 of
    B vanishes, so rank B < d and every d x d minor of B vanishes."""
    rows = [list(r) for r in GOLDEN_MATRIX]
    for k in range(5):
        rows[2][k] = rows[k][2] = "0"
    return InstanceSpec(32003, 4, rows, GOLDEN_EQUATION)


def test_rank_deficient_dual_gives_zero_lambda():
    inst = rank_deficient_instance()
    dual = jacobian_dual(inst.presentation)
    assert all(m.is_zero for m in minors(dual, 4))
    lam = pipeline._adjugate_row(dual)
    assert lam == adjugate_row_by_all_minors(dual) == [inst.ring.zero] * 5
    trace = gcd_iterations(inst)
    assert trace.to_dict() == gcd_iterations_by_step_minors(inst).to_dict()
    assert optional_structural_checks(trace).to_dict() == \
        structural_checks_by_minors(inst).to_dict()
