"""The gcd iteration from the adjugate of the Jacobian dual: the same
traces as the step-minor route (step_minor_reference.py), lambda against
Bareiss minors, and the once-per-run guard on the factorization law."""

import pytest

from reesgcd import pipeline
from reesgcd.matrices import delete_column, delete_row, det
from reesgcd.pipeline import (
    IterationError,
    builtin_example,
    gcd_iterations,
    random_instance,
)

from step_minor_reference import gcd_iterations_by_step_minors

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
            minor = det(delete_row(delete_column(trace.dual, j + 1), k + 1))
            adj = minor if (j + k) % 2 == 0 else -minor
            assert adj == ring.T(j + 1) * lam[k]


def perturbed_minors(monkeypatch, k, j, delta):
    """pipeline.deletion_minors with delta added to entry M[k][j]."""
    original = pipeline.deletion_minors

    def perturbed(mat):
        fixed = original(mat)
        fixed[k][j] = fixed[k][j] + delta(mat.ring)
        return fixed

    monkeypatch.setattr(pipeline, "deletion_minors", perturbed)


@pytest.mark.parametrize("k,j", [(0, 1), (1, 3), (2, 2), (4, 4)])
def test_perturbed_minor_trips_the_guard(k, j, monkeypatch):
    # a T-multiple keeps the entry's T1-divisibility out of play
    perturbed_minors(monkeypatch, k, j, lambda ring: ring.T(1) ** 4)
    with pytest.raises(IterationError,
                       match="factorization fails at the minor of B "
                             "without row %d and column %d$"
                             % (k + 1, j + 1)):
        gcd_iterations(builtin_example())


@pytest.mark.parametrize("k", [0, 3])
def test_minor_not_divisible_by_t1_trips_the_guard(k, monkeypatch):
    perturbed_minors(monkeypatch, k, 0, lambda ring: ring.x(1) ** 3)
    with pytest.raises(IterationError,
                       match="minor of B without row %d and column 1 is "
                             "not divisible by T1" % (k + 1)):
        gcd_iterations(builtin_example())
