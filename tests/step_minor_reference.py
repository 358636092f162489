"""The gcd iteration by step minors, the reference for the adjugate route
of pipeline.gcd_iterations.

Every step expands its maximal minors along the new column over the
d x d minors of the Jacobian dual B: it divides the minor without column
1 by T1 and compares the d other minors with the signed factorization
law, where the pipeline factors the minors of B once and forms one sum of
products per step.
"""

from reesgcd.matrices import (
    deletion_minors,
    det,
    iteration_matrix,
    jacobian_dual,
)
from reesgcd.pipeline import (
    IterationError,
    IterationStep,
    IterationTrace,
    _column_form,
    _column_forms,
)
from reesgcd.ring import BiDegree


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
