"""Fraction-free Bareiss elimination, the determinant that matrices.det
computed before it became the top level of the Laplace pass of
matrices.minors.  It shares no code with that pass but PolyRing.dot and
Polynomial.exact_div, so the tests compare determinants and minors
against it as an independent route."""


def det(m):
    """Determinant by fraction-free Bareiss elimination.

    Row swaps repair zero pivots; a pivot column with no nonzero entry
    certifies a singular matrix, so the answer is 0 with no further
    elimination.  Each step's a*pivot - b*c is one PolyRing.dot call, and
    every interior division is exact.  The empty 0x0 matrix has
    determinant 1.
    """
    if m.rows != m.cols:
        raise ValueError("determinant of a nonsquare matrix")
    n = m.rows
    ring = m.ring
    if n == 0:
        return ring.one
    if n == 1:
        return m.at(0, 0)
    a = [m.row(i) for i in range(n)]
    sign = 1
    prev = ring.one
    for k in range(n - 1):
        if a[k][k].is_zero:
            for i in range(k + 1, n):
                if not a[i][k].is_zero:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return ring.zero
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = ring.dot(((1, a[i][j], pivot),
                                (-1, a[i][k], a[k][j])))
                q = num.exact_div(prev)
                if q is None:
                    raise ArithmeticError("inexact division in elimination")
                a[i][j] = q
            a[i][k] = ring.zero
        prev = pivot
    result = a[n - 1][n - 1]
    return result if sign == 1 else -result
