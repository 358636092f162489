"""The structural checks by minor ideals, the reference for the heights
that pipeline.optional_structural_checks reads off checked identities.

Here the height of the size-d minors of the Jacobian dual B is computed
from their span, and _reduction_usable spans the size-d minors of the
reduced presentation and runs Groebner on them like every other size,
where the pipeline takes min(d+1, ht(lambda)) and the Pfaffian square law
instead.  square_law_by_all_minors checks adj = p . p^t on all (d+1)^2
minors, where the pipeline checks one column and A . p = 0.
"""

import random

from reesgcd.ideals import Ideal, height
from reesgcd.matrices import (
    delete_row,
    jacobian_dual,
    minors,
    submaximal_pfaffians,
)
from reesgcd.pipeline import (
    _COORDINATE_ATTEMPTS,
    IterationError,
    VerificationReport,
    _column_forms,
    _random_invertible,
    _status,
    _substitute_linear,
)

from step_minor_reference import deletion_minors


def _deduped_minors(mat, size):
    """A spanning set for the nonzero size x size minors."""
    return mat.ring.span_basis(minors(mat, size))


def square_law_by_all_minors(mat, pfs):
    """adj(mat) = p . p^t entry by entry: (-1)^(k+j) M[k][j] = p_k p_j
    for every deletion minor M; a mismatch raises IterationError naming
    the minor by the row and column it omits."""
    for k, minors_k in enumerate(deletion_minors(mat)):
        for j, minor in enumerate(minors_k):
            signed = minor if (k + j) % 2 == 0 else -minor
            if signed != pfs[k] * pfs[j]:
                raise IterationError(
                    "square law: adj = p . p^t fails at the minor without "
                    "row %d and column %d" % (k + 1, j + 1))


def dual_minor_height_by_minors(dual):
    """Height of the ideal of the d x d minors of B in the T-variables."""
    ring = dual.ring
    mins = _deduped_minors(dual, dual.rows - 1)
    return height(Ideal(ring, mins), ring.t_slots)


def reduction_usable_by_minors(mat, d):
    """_reduction_usable with a Groebner run on every minor size 2..d."""
    ring = mat.ring
    reduced = _substitute_linear(
        mat, [ring.x(k) for k in range(1, d + 1)] + [ring.zero])
    ambient = ring.x_slots[:d]
    pfs = submaximal_pfaffians(reduced)
    if height(Ideal(ring, pfs), ambient) < 3:
        return False
    for size in range(2, d + 1):
        mins = _deduped_minors(reduced, size)
        if height(Ideal(ring, mins), ambient) < d - size + 2:
            return False
    return True


def structural_checks_by_minors(inst):
    """The report of optional_structural_checks, every height by minors."""
    rep = VerificationReport()
    ring = inst.ring
    d = inst.d
    dual = jacobian_dual(inst.presentation)

    dual_height = dual_minor_height_by_minors(dual)
    rep.add("dual-minor-height",
            "size-d minors of the dual have height at least 2",
            _status(dual_height >= 2),
            "" if dual_height >= 2 else "height is %d" % dual_height,
            {"height": dual_height})

    claim_b = ("retained variables times the reduced gcd lie in the "
               "ideal of reduced bilinear forms")
    claim_c = ("variables times the reduced-gcd ideal land in the last "
               "variable plus the bilinear forms")

    rng = random.Random("coordinates:0")
    chosen = None
    for attempt in range(_COORDINATE_ATTEMPTS + 1):
        candidate = inst.presentation if attempt == 0 else \
            _substitute_linear(inst.presentation,
                               _random_invertible(rng, ring, d + 1))
        if reduction_usable_by_minors(candidate, d):
            chosen = (candidate, attempt)
            break
    if chosen is None:
        witness = ("no usable coordinates after %d attempts"
                   % (_COORDINATE_ATTEMPTS + 1))
        rep.add("reduced-cramer-containment", claim_b, "skip", witness)
        rep.add("product-containment", claim_c, "skip", witness)
        return rep

    mat, attempt = chosen
    full_dual = jacobian_dual(mat)
    reduced_dual = delete_row(full_dual, d + 1)
    raw = minors(reduced_dual, d)[-1]
    reduced_gcd = raw.exact_div(ring.T(1)) if not raw.is_zero else None
    if reduced_gcd is None:
        witness = "reduced gcd vanishes or is not divisible by T1"
        rep.add("reduced-cramer-containment", claim_b, "fail", witness)
        rep.add("product-containment", claim_c, "fail", witness)
        return rep
    reduced_gcd = reduced_gcd.monic()

    reduced_forms = _column_forms(reduced_dual)
    reduced_ideal = Ideal(ring, reduced_forms)
    missing = [k for k in range(1, d + 1)
               if not reduced_ideal.contains(ring.x(k) * reduced_gcd)]
    rep.add("reduced-cramer-containment", claim_b,
            _status(not missing),
            "fails for x%d" % missing[0] if missing else "",
            {"attempt": attempt, "reduced_gcd": str(reduced_gcd)})

    last_var = ring.x(d + 1)
    target = Ideal(ring, [last_var] + list(_column_forms(full_dual)))
    combined = list(reduced_forms) + [reduced_gcd, last_var]
    products = [(i, g, ring.x(i) * g)
                for i in range(1, d + 2) for g in combined]
    bad = next(((i, g) for i, g, p in products if not target.contains(p)),
               None)
    rep.add("product-containment", claim_c, _status(bad is None),
            "fails for x%d times %s" % (bad[0], bad[1]) if bad else "",
            {"attempt": attempt})
    return rep
