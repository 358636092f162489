"""Matrices over a polynomial ring: minors, Pfaffians, Jacobian duals.

Row and column deletion take 1-based indices so that signs and labels line
up with the T-variable bookkeeping used throughout the pipeline: deleting
column j of an iteration matrix pairs with the variable T_j and the sign
(-1)^(j+1).
"""

from __future__ import annotations

from itertools import combinations

from .ring import partial_column


class PolyMatrix:
    """Immutable rows x cols matrix of Polynomial entries."""

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring, rows, cols, entries):
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.entries = tuple(entries)

    @classmethod
    def from_rows(cls, ring, rows):
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat = []
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for entry in row:
                flat.append(ring.poly(entry))
        return cls(ring, nrows, ncols, flat)

    def at(self, i, j):
        """Entry in row i, column j, 0-based."""
        return self.entries[i * self.cols + j]

    def row(self, i):
        return list(self.entries[i * self.cols:(i + 1) * self.cols])

    def column(self, j):
        return [self.entries[i * self.cols + j] for i in range(self.rows)]

    def to_rows(self):
        return [self.row(i) for i in range(self.rows)]

    def append_column(self, col):
        if len(col) != self.rows:
            raise ValueError("column length mismatch")
        flat = []
        for i in range(self.rows):
            flat.extend(self.row(i))
            flat.append(self.ring.poly(col[i]))
        return PolyMatrix(self.ring, self.rows, self.cols + 1, flat)

    def __eq__(self, other):
        if isinstance(other, PolyMatrix):
            return (self.rows == other.rows and self.cols == other.cols
                    and self.entries == other.entries)
        return NotImplemented

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return "PolyMatrix(%dx%d over %r)" % (self.rows, self.cols,
                                              self.ring)


def delete_row(m, i):
    """m without row i, 1-based."""
    if not 1 <= i <= m.rows:
        raise IndexError("row index out of range: %d" % i)
    rows = m.to_rows()
    del rows[i - 1]
    flat = [e for row in rows for e in row]
    return PolyMatrix(m.ring, m.rows - 1, m.cols, flat)


def delete_column(m, j):
    """m without column j, 1-based."""
    if not 1 <= j <= m.cols:
        raise IndexError("column index out of range: %d" % j)
    flat = []
    for i in range(m.rows):
        row = m.row(i)
        del row[j - 1]
        flat.extend(row)
    return PolyMatrix(m.ring, m.rows, m.cols - 1, flat)


def det(m):
    """Determinant as the top level of the Laplace pass of minors():
    n 2^(n-1) products of an entry with a smaller minor and no division.
    The empty 0x0 matrix has determinant 1.

    The pipeline uses it as a guard, not as a proof: det(B) = 0 for the
    Jacobian dual B already follows from B . [T]^t = 0, which the
    pipeline checks with d+1 sums of products, and Cayley's identity
    compares it with the Pfaffian recursion, a route of its own.  So a
    division-free pass over the existing kernel is enough.
    """
    if m.rows != m.cols:
        raise ValueError("determinant of a nonsquare matrix")
    return minors(m, m.rows)[0]


def is_alternating(m):
    """Square, zero diagonal, and m[j][i] == -m[i][j]."""
    if m.rows != m.cols:
        return False
    for i in range(m.rows):
        if not m.at(i, i).is_zero:
            return False
        for j in range(i + 1, m.cols):
            if m.at(j, i) != -m.at(i, j):
                return False
    return True


def has_linear_x_entries(m):
    """Every entry zero or bihomogeneous of bidegree (1, 0)."""
    for e in m.entries:
        if not e.is_zero and e.bidegree() != (1, 0):
            return False
    return True


def pfaffian(m):
    """Pfaffian of an alternating matrix of even size.

    Expansion along the first row: Pf(A) = sum_j (-1)^j a_1j Pf(A_1j)
    where A_1j deletes rows and columns 1 and j.  Pf of the 0x0 matrix
    is 1; odd sizes are rejected.
    """
    if not is_alternating(m):
        raise ValueError("pfaffian of a non-alternating matrix")
    if m.rows % 2 == 1:
        raise ValueError("pfaffian undefined for odd size %d" % m.rows)
    ring = m.ring

    def pf(idx):
        if not idx:
            return ring.one
        row = [m.at(idx[0], i) for i in idx]
        return ring.dot(((-1) ** (pos + 1), row[pos],
                         pf(idx[1:pos] + idx[pos + 1:]))
                        for pos in range(1, len(idx)) if row[pos])

    return pf(tuple(range(m.rows)))


def submaximal_pfaffians(m):
    """Signed Pfaffians [(-1)^(i+1) Pf(m minus row/col i)] for i = 1..n.

    For an alternating (d+1) x (d+1) matrix with d even these are the
    generators of the associated Gorenstein ideal, ordered so that the
    matrix presents them: m times the column of signed Pfaffians is zero.
    """
    if not is_alternating(m):
        raise ValueError("expected an alternating matrix")
    if m.rows % 2 == 0:
        raise ValueError("submaximal pfaffians need odd matrix size")
    out = []
    for i in range(1, m.rows + 1):
        p = pfaffian(delete_row(delete_column(m, i), i))
        out.append(p if i % 2 == 1 else -p)
    return out


def _laplace_levels(m, top, pairs, fetch):
    """The levels of minors of sizes 0..top, each a dict from (rows, cols)
    to its minor, built bottom-up: pairs(j) lists the size-j pairs to
    form, each a Laplace expansion along the first row of its row subset,
    and fetch(smaller, rows, cols) returns (sign, minor) of a pair one
    size smaller from that level's dict."""
    ring = m.ring
    smaller = {((), ()): ring.one}
    yield smaller
    for j in range(1, top + 1):
        level = {}
        for rows, cols in pairs(j):
            first, rest = rows[0], rows[1:]
            products = []
            for pos, c in enumerate(cols):
                sign, minor = fetch(smaller, rest, cols[:pos] + cols[pos + 1:])
                products.append(((-1) ** pos * sign, m.at(first, c), minor))
            level[rows, cols] = ring.dot(products)
        yield level
        smaller = level


def minors(m, k):
    """All k x k minors, rows and columns in lexicographic order.

    Each minor is a Laplace expansion along the first row of its row
    subset, over the minors one size smaller on the remaining rows.  These
    are built bottom-up, one size at a time, keeping only the previous
    size: the j x j minors a k x k expansion reaches are those whose rows
    all lie at or past index k - j.
    """
    if k < 0 or k > min(m.rows, m.cols):
        raise ValueError("minor size out of range")

    def pairs(j):
        return [(rows, cols)
                for rows in combinations(range(k - j, m.rows), j)
                for cols in combinations(range(m.cols), j)]

    def fetch(smaller, rows, cols):
        return 1, smaller[rows, cols]

    for level in _laplace_levels(m, k, pairs, fetch):
        pass
    return list(level.values())


def alternating_minors(m, top):
    """The minors of sizes 1..top of an alternating matrix, one list per
    size (index size - 1), each holding the minors whose row subset is at
    most its column subset, in lexicographic order of (rows, cols).

    m^t = -m gives minor(C, R) = (-1)^j minor(R, C) at size j, so the
    dropped minors are the kept ones up to sign, each after its kept
    transpose in the order of minors(m, j).  All sizes come from one
    bottom-up pass that forms each kept minor once, as a Laplace expansion
    along its first row over the smaller kept minors or their transposes.
    """
    if not is_alternating(m):
        raise ValueError("expected an alternating matrix")
    if top < 0 or top > m.rows:
        raise ValueError("minor size out of range")

    def pairs(j):
        subsets = list(combinations(range(m.rows), j))
        return [(rows, cols) for i, rows in enumerate(subsets)
                for cols in subsets[i:]]

    def fetch(smaller, rows, cols):
        if rows <= cols:
            return 1, smaller[rows, cols]
        return (-1) ** len(rows), smaller[cols, rows]

    levels = _laplace_levels(m, top, pairs, fetch)
    next(levels)
    return [list(level.values()) for level in levels]


def jacobian_dual(alt):
    """B with [x1..x{d+1}] . B == [T1..T{d+1}] . alt, entries linear in T.

    alt must have entries that are linear forms in the x-variables; the
    coefficient of x_k in the j-th entry of [T] . alt lands in B[k][j], so
    B is unique with linear T-entries and B . [T]^t == 0 whenever alt is
    alternating.
    """
    ring = alt.ring
    n = ring.n
    if alt.rows != n or alt.cols != n:
        raise ValueError("expected a %dx%d matrix" % (n, n))
    if not has_linear_x_entries(alt):
        raise ValueError("entries must be linear forms in x1..x%d" % n)
    # B[k][j] sums c * T_{i+1} over the terms c * x_{k+1} of alt[i][j]
    ts = [ring.T(i) for i in range(1, n + 1)]
    flat = [ring.dot((c, ring.one, ts[i]) for i in range(n)
                     for e, c in alt.at(i, j).items() if e[k])
            for k in range(n) for j in range(n)]
    return PolyMatrix(ring, n, n, flat)


def modified_jacobian_dual(alt, f, rule="min"):
    """[B(alt) | C] where [x1..x{d+1}] . C == f.

    f must be x-homogeneous of degree >= 1 (no T part); the splitting rule
    for the extra column is 'min' or 'max' as in partial_column.
    """
    if f.is_zero:
        raise ValueError("f must be nonzero")
    bd = f.bidegree()
    if bd is None or bd[1] != 0 or bd[0] < 1:
        raise ValueError("f must be x-homogeneous of positive degree")
    return jacobian_dual(alt).append_column(partial_column(f, rule))


def iteration_matrix(dual, g, rule="min"):
    """[B(alt) | C] with [x1..x{d+1}] . C == g, for a bihomogeneous g."""
    return dual.append_column(partial_column(g, rule))
