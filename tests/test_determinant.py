"""matrices.det, the top level of the Laplace pass of matrices.minors,
against Bareiss elimination (bareiss_reference.py) as a property test,
and the guard that det divides nothing while gcd_iterations still calls
it once per run."""

import random

import pytest

from reesgcd import pipeline
from reesgcd.matrices import PolyMatrix, det, jacobian_dual
from reesgcd.pipeline import builtin_example, gcd_iterations, random_instance
from reesgcd.ring import Polynomial, PolyRing

import bareiss_reference as bareiss

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given = hypothesis.given
settings = hypothesis.settings

# p = 7 makes cancellation, hence singular matrices, frequent
RINGS = (PolyRing.get(7, 2), PolyRing.get(32003, 4))


def entries(ring, max_terms, max_exp, min_terms=0):
    """Sums of min_terms to max_terms terms in the x- and T-variables
    with exponents up to max_exp: of mixed bidegree, nonlinear, or
    zero."""
    slots = st.sampled_from(ring.x_slots + ring.t_slots)

    def exponent(powers):
        exp = [0] * ring.nvars
        for slot, e in powers:
            exp[slot] += e
        return tuple(exp)

    monomials = st.lists(st.tuples(slots, st.integers(1, max_exp)),
                         max_size=2).map(exponent)
    return st.dictionaries(monomials, st.integers(1, ring.p - 1),
                           min_size=min_terms,
                           max_size=max_terms).map(ring.from_dict)


@st.composite
def square_matrices(draw):
    """An n x n matrix, n = 0..6, maybe with a zero column, a zero (1,1)
    entry over a nonzero one below it (a Bareiss row swap), or built as a
    product U . V through fewer than n columns, hence singular.  Larger
    sizes take sparser entries so that Bareiss stays cheap."""
    ring = draw(st.sampled_from(RINGS))
    n = draw(st.integers(0, 6))
    max_terms = 3 if n <= 4 else 2
    if n >= 2 and draw(st.booleans()):
        r = draw(st.integers(1, n - 1))
        small = entries(ring, 1, 1)
        u = [[draw(small) for _ in range(r)] for _ in range(n)]
        v = [[draw(small) for _ in range(n)] for _ in range(r)]
        rows = [[ring.dot((1, u[i][k], v[k][j]) for k in range(r))
                 for j in range(n)] for i in range(n)]
    else:
        cell = st.one_of(st.just(ring.zero), entries(ring, max_terms, 2, 1))
        rows = [[draw(cell) for _ in range(n)] for _ in range(n)]
    if n and draw(st.booleans()):
        column = draw(st.integers(0, n - 1))
        for row in rows:
            row[column] = ring.zero
    if n >= 2 and draw(st.booleans()):
        rows[0][0] = ring.zero
        rows[1][0] = draw(entries(ring, 1, 2, 1))
    return PolyMatrix(ring, n, n, [e for row in rows for e in row])


@settings(max_examples=150, deadline=None)
@given(square_matrices())
def test_laplace_det_matches_bareiss(m):
    assert det(m) == bareiss.det(m)


def test_det_divides_nothing_and_runs_once_per_gcd_run(monkeypatch):
    divisions = []
    exact_div = Polynomial.exact_div

    def counted_div(self, divisor):
        divisions.append(divisor)
        return exact_div(self, divisor)

    monkeypatch.setattr(Polynomial, "exact_div", counted_div)
    golden = builtin_example()
    ring = golden.ring
    rng = random.Random(5)
    full = PolyMatrix(ring, 5, 5, [
        ring.dot((rng.randint(1, 9), ring.one, ring.variable(slot))
                 for slot in rng.sample(range(2 * ring.n), 3))
        for _ in range(25)])
    assert det(jacobian_dual(golden.presentation)).is_zero
    assert not det(full).is_zero
    assert divisions == []

    dets = []

    def counted_det(mat):
        dets.append(mat)
        return det(mat)

    monkeypatch.setattr(pipeline, "det", counted_det)
    for inst in (golden, random_instance(4, 3, seed=1)):
        del dets[:]
        trace = gcd_iterations(inst)
        assert [d.entries for d in dets] == [trace.dual.entries]
