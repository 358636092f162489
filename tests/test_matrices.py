"""Matrix layer: determinants, Pfaffians, Jacobian duals, deletions."""

import random
from itertools import combinations

import pytest

from reesgcd.ring import PolyRing
from reesgcd.matrices import (
    PolyMatrix, delete_row, delete_column, det,
    is_alternating, pfaffian, submaximal_pfaffians, minors,
    jacobian_dual, modified_jacobian_dual, iteration_matrix,
)

import bareiss_reference as bareiss
from step_minor_reference import deletion_minors

R = PolyRing.get(32003, 4)

PRESENTATION_ROWS = [
    ["0", "x1", "x2", "0", "x4"],
    ["-x1", "0", "x4", "0", "x3"],
    ["-x2", "-x4", "0", "x1", "x5"],
    ["0", "0", "-x1", "0", "x2"],
    ["-x4", "-x3", "-x5", "-x2", "0"],
]

B_ROWS = [
    ["-T2", "T1", "-T4", "T3", "0"],
    ["-T3", "0", "T1", "-T5", "T4"],
    ["0", "-T5", "0", "0", "T2"],
    ["-T5", "-T3", "T2", "0", "T1"],
    ["0", "0", "-T5", "0", "T3"],
]

FIBER_SRC = "T1*T3*T5 - T2*T3^2 - T2^2*T5 - T4*T5^2"


def presentation():
    return PolyMatrix.from_rows(R, PRESENTATION_ROWS)


def monic_equal(a, b):
    return a.monic() == b.monic()


def random_alternating(rng, ring, size, maxdeg=1, nterms=2):
    rows = [[ring.zero] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            acc = {}
            for _ in range(nterms):
                exp = [0] * ring.nvars
                for _ in range(rng.randint(0, maxdeg)):
                    exp[rng.randrange(ring.nvars - 1)] += 1
                acc[tuple(exp)] = rng.randint(0, ring.p - 1)
            e = ring.from_dict(acc)
            rows[i][j] = e
            rows[j][i] = -e
    return PolyMatrix.from_rows(ring, rows)


def random_entry(rng, ring):
    """Zero, constant or linear, with at most two terms."""
    acc = {}
    for _ in range(2):
        exp = [0] * ring.nvars
        for _ in range(rng.randint(0, 1)):
            exp[rng.randrange(ring.nvars - 1)] += 1
        acc[tuple(exp)] = rng.randint(0, 6)
    return ring.from_dict(acc)


def random_linear_alternating(rng, ring):
    n = ring.n
    rows = [[ring.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e = ring.zero
            for k in range(1, n + 1):
                e = e + ring.x(k).scale(rng.randint(0, 4))
            rows[i][j] = e
            rows[j][i] = -e
    return PolyMatrix.from_rows(ring, rows)


class TestDeletion:
    def test_literal_deletion(self):
        ident = PolyMatrix.from_rows(R, [["1", "0"], ["0", "1"]])
        dropped = delete_column(ident, 1)
        assert dropped.rows == 2 and dropped.cols == 1
        assert dropped.column(0) == [R.zero, R.one]

    def test_delete_last_row(self):
        b = PolyMatrix.from_rows(R, B_ROWS)
        bp = delete_row(b, 5)
        assert bp.rows == 4 and bp.cols == 5
        assert bp.to_rows() == b.to_rows()[:4]

    def test_one_by_one_to_empty(self):
        m = PolyMatrix.from_rows(R, [["x1"]])
        empty = delete_row(delete_column(m, 1), 1)
        assert empty.rows == 0 and empty.cols == 0
        assert det(empty) == R.one

    def test_out_of_range(self):
        m = PolyMatrix.from_rows(R, [["x1"]])
        with pytest.raises(IndexError):
            delete_row(m, 0)
        with pytest.raises(IndexError):
            delete_column(m, 2)


class TestDet:
    def test_identity(self):
        ident = PolyMatrix.from_rows(
            R, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
        assert det(ident) == R.one

    def test_jacobian_dual_is_singular(self):
        assert det(PolyMatrix.from_rows(R, B_ROWS)).is_zero

    def test_swap_changes_sign(self):
        m = PolyMatrix.from_rows(R, [["0", "x1"], ["x2", "0"]])
        assert det(m) == -(R.x(1) * R.x(2))

    def test_nonsquare_rejected(self):
        m = PolyMatrix.from_rows(R, [["x1", "x2"]])
        with pytest.raises(ValueError):
            det(m)

    def test_bareiss_matches_cofactor(self):
        # the Laplace determinant against Bareiss elimination
        rng = random.Random(3)
        for size in (2, 3, 4, 5):
            for _ in range(6):
                m = PolyMatrix.from_rows(
                    R, [[random_entry(rng, R) for _ in range(size)]
                        for _ in range(size)])
                assert det(m) == bareiss.det(m)

    def test_zero_column_is_singular(self):
        m = PolyMatrix.from_rows(
            R, [["0", "x1", "x2"], ["0", "x2", "x3"], ["0", "x3", "x4"]])
        assert det(m).is_zero


class TestPfaffian:
    def test_two_by_two(self):
        a = R.parse("x1 + 3*T2")
        m = PolyMatrix.from_rows(R, [[R.zero, a], [-a, R.zero]])
        assert pfaffian(m) == a

    def test_four_by_four_formula(self):
        a12, a13, a14 = R.x(1), R.x(2), R.x(3)
        a23, a24, a34 = R.x(4), R.x(5), R.T(1)
        z = R.zero
        m = PolyMatrix.from_rows(R, [
            [z, a12, a13, a14],
            [-a12, z, a23, a24],
            [-a13, -a23, z, a34],
            [-a14, -a24, -a34, z],
        ])
        assert pfaffian(m) == a12 * a34 - a13 * a24 + a14 * a23

    def test_empty_and_odd(self):
        empty = PolyMatrix(R, 0, 0, [])
        assert pfaffian(empty) == R.one
        one = PolyMatrix.from_rows(R, [["0"]])
        with pytest.raises(ValueError):
            pfaffian(one)

    def test_rejects_non_alternating(self):
        m = PolyMatrix.from_rows(R, [["0", "x1"], ["x1", "0"]])
        with pytest.raises(ValueError):
            pfaffian(m)

    def test_square_is_determinant(self):
        rng = random.Random(5)
        for size in (2, 4, 6):
            for _ in range(4):
                m = random_alternating(rng, R, size)
                pf = pfaffian(m)
                assert pf * pf == det(m)

    def test_example_corner(self):
        # deleting row and column 5 of the 5x5 instance leaves a 4x4
        # alternating matrix whose Pfaffian collapses to x1^2
        corner = delete_row(delete_column(presentation(), 5), 5)
        assert pfaffian(corner) == R.x(1) ** 2


class TestSubmaximalPfaffians:
    def test_example_generators(self):
        gens = submaximal_pfaffians(presentation())
        assert len(gens) == 5
        assert all(g.bidegree() == (2, 0) for g in gens)
        assert gens[4] == R.x(1) ** 2

    def test_presentation_identity(self):
        # presentation times the column of signed Pfaffians vanishes
        rng = random.Random(9)
        for _ in range(5):
            m = random_linear_alternating(rng, R)
            gens = submaximal_pfaffians(m)
            for i in range(m.rows):
                total = R.zero
                for j in range(m.cols):
                    total = total + m.at(i, j) * gens[j]
                assert total.is_zero

    def test_zero_row_gives_zero_entry(self):
        rows = [[str(e) for e in row] for row in PRESENTATION_ROWS]
        for j in range(5):
            rows[2][j] = "0"
            rows[j][2] = "0"
        degenerate = PolyMatrix.from_rows(R, rows)
        gens = submaximal_pfaffians(degenerate)
        assert any(g.is_zero for g in gens)

    def test_even_size_rejected(self):
        m = PolyMatrix.from_rows(R, [["0", "x1"], ["-x1", "0"]])
        with pytest.raises(ValueError):
            submaximal_pfaffians(m)


class TestJacobianDual:
    def test_example_entry_for_entry(self):
        assert jacobian_dual(presentation()) == PolyMatrix.from_rows(R, B_ROWS)

    def test_small_derived_case(self):
        ring = PolyRing.get(32003, 2)
        m = PolyMatrix.from_rows(ring, [
            ["0", "x1", "x2"],
            ["-x1", "0", "x1"],
            ["-x2", "-x1", "0"],
        ])
        b = jacobian_dual(m)
        expected = PolyMatrix.from_rows(ring, [
            ["-T2", "T1 - T3", "T2"],
            ["-T3", "0", "T1"],
            ["0", "0", "0"],
        ])
        assert b == expected

    def test_defining_identity(self):
        rng = random.Random(21)
        for _ in range(5):
            m = random_linear_alternating(rng, R)
            b = jacobian_dual(m)
            xs = [R.x(i) for i in range(1, 6)]
            ts = [R.T(i) for i in range(1, 6)]
            for j in range(5):
                lhs = sum((xs[k] * b.at(k, j) for k in range(5)), R.zero)
                rhs = sum((ts[i] * m.at(i, j) for i in range(5)), R.zero)
                assert lhs == rhs
            # alternating source kills the T-vector on the right
            for k in range(5):
                total = sum((b.at(k, j) * ts[j] for j in range(5)), R.zero)
                assert total.is_zero

    def test_rejects_nonlinear(self):
        m = PolyMatrix.from_rows(R, [[
            "0", "x1^2", "0", "0", "0"],
            ["-x1^2", "0", "0", "0", "0"],
            ["0", "0", "0", "0", "0"],
            ["0", "0", "0", "0", "0"],
            ["0", "0", "0", "0", "0"]])
        with pytest.raises(ValueError):
            jacobian_dual(m)


class TestModifiedJacobianDual:
    def test_example_shape_and_last_column(self):
        b1 = modified_jacobian_dual(presentation(), R.parse("x5^3"))
        assert b1.rows == 5 and b1.cols == 6
        assert b1.column(5) == [R.zero] * 4 + [R.x(5) ** 2]
        for j in range(5):
            assert b1.column(j) == PolyMatrix.from_rows(R, B_ROWS).column(j)

    def test_linear_f_unit_column(self):
        b1 = modified_jacobian_dual(presentation(), R.x(5))
        assert b1.column(5) == [R.zero] * 4 + [R.one]

    def test_square_f(self):
        b1 = modified_jacobian_dual(presentation(), R.x(1) ** 2)
        assert b1.column(5) == [R.x(1)] + [R.zero] * 4

    def test_rejects_bad_f(self):
        with pytest.raises(ValueError):
            modified_jacobian_dual(presentation(), R.zero)
        with pytest.raises(ValueError):
            modified_jacobian_dual(presentation(), R.T(1))
        with pytest.raises(ValueError):
            modified_jacobian_dual(presentation(), R.one + R.x(1))

    def test_iteration_matrix_factorization(self):
        # column 1 of [B | split(x5^2 W)] against T1 recovers the gcd in
        # x-degree: det factors as T_j times a fixed polynomial
        w = R.parse(FIBER_SRC)
        g1 = R.x(5) ** 2 * w
        b2 = iteration_matrix(jacobian_dual(presentation()), g1)
        minor1 = det(delete_column(b2, 1))
        g2 = minor1.exact_div(R.T(1))
        assert g2 is not None
        assert monic_equal(g2, R.x(5) * w * w)


class TestMinors:
    def test_count_and_membership(self):
        out = minors(presentation(), 2)
        assert len(out) == 100
        assert R.x(1) ** 2 in [m.monic() for m in out if not m.is_zero]

        # every size against Bareiss on each submatrix, in lexicographic
        # order, on nonsquare matrices with zero entries and a zero row
        rng = random.Random(11)
        for nrows in (4, 5):
            rows = [[random_entry(rng, R) for _ in range(6)]
                    for _ in range(nrows)]
            rows[rng.randrange(nrows)] = [R.zero] * 6
            m = PolyMatrix.from_rows(R, rows)
            for k in range(nrows + 1):
                expected = [
                    bareiss.det(PolyMatrix(R, k, k, [m.at(i, j) for i in rs
                                             for j in cs]))
                    for rs in combinations(range(nrows), k)
                    for cs in combinations(range(6), k)]
                assert minors(m, k) == expected
        with pytest.raises(ValueError):
            minors(m, 6)

        # the d x d minors the iteration factors through adj(B)
        duals = [PolyMatrix.from_rows(R, B_ROWS),
                 jacobian_dual(random_linear_alternating(rng, R))]
        for b in duals:
            fixed = deletion_minors(b)
            for k in range(5):
                for j in range(5):
                    assert fixed[k][j] == bareiss.det(
                        delete_row(delete_column(b, j + 1), k + 1))

    def test_alternating_flag(self):
        assert is_alternating(presentation())
        assert not is_alternating(PolyMatrix.from_rows(R, [["x1"]]))
