"""The gcd iteration by step minors, the reference for the adjugate route
of pipeline.gcd_iterations.

Every step expands its maximal minors along the new column over the
d x d minors of the Jacobian dual B: it divides the minor without column
1 by T1 and compares the d other minors with the signed factorization
law, where the pipeline factors the minors of B once and forms one sum of
products per step.  adjugate_row_by_all_minors factors all (d+1)^2 minors
of B entry by entry, where pipeline._adjugate_row forms the d+1 without
column 1 and checks B . [T]^t = 0 and lambda . B = 0.
"""

from reesgcd.matrices import (
    det,
    iteration_matrix,
    jacobian_dual,
    minors,
)
from reesgcd.pipeline import (
    IterationError,
    IterationStep,
    IterationTrace,
    _column_form,
    _column_forms,
)
from reesgcd.ring import BiDegree


def deletion_minors(m):
    """M[k][j], the minor of square m without row k+1 and column j+1.

    These are the (n-1) x (n-1) minors of minors(m, n-1): the row subset
    that omits row k comes (n-1-k)-th in lexicographic order, and the
    same holds for columns.
    """
    if m.rows != m.cols:
        raise ValueError("deletion minors of a nonsquare matrix")
    n = m.rows
    flat = minors(m, n - 1)
    return [[flat[(n - 1 - k) * n + n - 1 - j] for j in range(n)]
            for k in range(n)]


def adjugate_row_by_all_minors(dual):
    """The row lambda with adj(B) = [T]^t . lambda for B = dual: det(B)
    must vanish, column 1 of the deletion minors gives lambda by exact
    division by T1, and every other minor is compared with its product."""
    ring = dual.ring
    d = dual.rows - 1
    if not det(dual).is_zero:
        raise IterationError("full-dual minor does not vanish")
    row = []
    for k, minors_k in enumerate(deletion_minors(dual)):
        signed = [m if (k + d) % 2 == 0 else -m for m in minors_k]
        lam = signed[0].exact_div(ring.T(1))
        if lam is None:
            raise IterationError(
                "adjugate: the minor of B without row %d and column 1 is "
                "not divisible by T1" % (k + 1))
        for j in range(2, d + 2):
            expected = ring.T(j) * lam
            if j % 2 == 0:
                expected = -expected
            if signed[j - 1] != expected:
                raise IterationError(
                    "adjugate: factorization fails at the minor of B "
                    "without row %d and column %d" % (k + 1, j))
        row.append(lam)
    return row


def gcd_iterations_by_step_minors(inst, rule="min"):
    """The trace of the m gcd iterations, every step from its minors."""
    ring = inst.ring
    d = inst.d
    m = inst.degree
    dual = jacobian_dual(inst.presentation)
    bilinear = _column_forms(dual)
    if not det(dual).is_zero:
        raise IterationError("full-dual minor does not vanish")
    fixed = deletion_minors(dual)
    tfirst = ring.T(1)

    def step_minor(column, j):
        """Minor of [B | column] without column j, 1 <= j <= d+1."""
        return ring.dot(((-1) ** (k + d), c, fixed[k][j - 1])
                        for k, c in enumerate(column))

    steps = []
    carried = inst.equation
    dead = False
    for i in range(1, m + 1):
        current = iteration_matrix(dual, carried, rule)
        if _column_form(current, d + 1) != carried:
            raise IterationError(
                "step %d: appended column does not reassemble its source"
                % i)
        if dead:
            steps.append(IterationStep(current, ring.zero, None))
            continue
        column = current.column(d + 1)
        raw = step_minor(column, 1)
        if raw.is_zero:
            for j in range(2, d + 2):
                if not step_minor(column, j).is_zero:
                    raise IterationError(
                        "step %d: minor 1 vanishes but minor %d does not"
                        % (i, j))
            steps.append(IterationStep(current, ring.zero, None))
            carried = ring.zero
            dead = True
            continue
        quotient = raw.exact_div(tfirst)
        if quotient is None:
            raise IterationError(
                "step %d: first minor is not divisible by T1" % i)
        for j in range(2, d + 2):
            expected = ring.T(j) * quotient
            if j % 2 == 0:
                expected = -expected
            if step_minor(column, j) != expected:
                raise IterationError(
                    "step %d: factorization fails at column %d" % (i, j))
        gcd_i = quotient.monic()
        bideg = gcd_i.bidegree()
        wanted = BiDegree(m - i, i * (d - 1))
        if bideg != wanted:
            raise IterationError(
                "step %d: bidegree %s, expected %s" % (i, bideg, wanted))
        steps.append(IterationStep(current, gcd_i, bideg))
        carried = gcd_i
    return IterationTrace(inst, dual, bilinear, steps)
