"""End-to-end driver for the gcd-iteration algorithm.

An instance consists of a prime p, an even parameter d >= 4, a lifted
alternating (d+1) x (d+1) presentation matrix with linear entries in
x1..x{d+1}, and a nonzero x-form f of degree m >= 1 cutting out the
hypersurface ring.  The driver checks the feasibility hypotheses, runs m
gcd iterations on the modified Jacobian dual, assembles the candidate
defining ideal, and certifies it against an independent Groebner oracle:
the candidate must equal both the saturation of the base ideal by the
variable ideal and its m-th colon power, with strictness one step below.

Every step matrix is the fixed Jacobian dual B plus one column C, so every
maximal minor of a step is an expansion along C over the d x d minors of
B.  Those factor once per run: adj(B) = [T]^t . lambda for one row lambda,
and each step's gcd is then one sum of products, sum_k C_k lambda_k.  Every
algebraic identity the algorithm relies on is re-verified at runtime.  One
rank-one lemma (_rank_one_adjugate) gives adj(M) = u . w from M . u = 0 and
row j0 of adj(M) equal to u_j0 w.  Once per run it takes M = B and u =
[T]^t, and lambda is row 1 divided exactly by T1; det(B) = 0 (one Laplace
pass) and lambda . B = 0 are guards.  At every step: the reassembly of the
appended column and the bidegree law.  The hypothesis check spans the
minors of the alternating presentation from one symmetric Laplace pass.
The structural checks read the height of the minors of B and the reduced
gcd off lambda, and the height of the size-d minors of the reduced
presentation off the square law adj = p . p^t of its Pfaffians, the same
lemma with u = p.  Product containment follows from the reduced-Cramer
containment.  A violation raises IterationError since it can only mean a
bug, not bad input.
"""

from __future__ import annotations

import random
from collections import namedtuple
from itertools import combinations
from math import comb

from .ring import DEFAULT_PRIME, BiDegree, PolyRing
from .matrices import (
    PolyMatrix,
    alternating_minors,
    delete_column,
    delete_row,
    det,
    has_linear_x_entries,
    is_alternating,
    iteration_matrix,
    jacobian_dual,
    minors,
    pfaffian,
    submaximal_pfaffians,
)
from .groebner import normal_form
from .ideals import (
    Ideal,
    colon_power_chain,
    height,
    height_in_hypersurface,
    saturate,
)


class IterationError(RuntimeError):
    """An identity the iteration depends on failed to hold."""


class InstanceRejected(RuntimeError):
    """Random sampling found no hypothesis-passing instance."""


# ---------------------------------------------------------------------
# reports

class CheckResult:
    """Outcome of a single named check."""

    __slots__ = ("check_id", "claim", "status", "witness", "data")

    def __init__(self, check_id, claim, status, witness="", data=None):
        if status not in ("pass", "fail", "skip"):
            raise ValueError("bad status %r" % status)
        if status == "fail" and not witness:
            raise ValueError("failed checks must carry a witness")
        self.check_id = check_id
        self.claim = claim
        self.status = status
        self.witness = witness
        self.data = dict(data) if data else {}

    @property
    def ok(self):
        return self.status != "fail"

    def to_dict(self):
        out = {"id": self.check_id, "claim": self.claim,
               "status": self.status}
        if self.witness:
            out["witness"] = self.witness
        if self.data:
            out["data"] = self.data
        return out

    def __repr__(self):
        return "CheckResult(%r, %s)" % (self.check_id, self.status)


class VerificationReport:
    """Ordered list of check results."""

    __slots__ = ("checks",)

    def __init__(self, checks=()):
        self.checks = list(checks)

    def add(self, check_id, claim, status, witness="", data=None):
        result = CheckResult(check_id, claim, status, witness, data)
        self.checks.append(result)
        return result

    def find(self, check_id):
        for c in self.checks:
            if c.check_id == check_id:
                return c
        raise KeyError(check_id)

    @property
    def ok(self):
        return all(c.status != "fail" for c in self.checks)

    def lines(self):
        out = []
        for c in self.checks:
            line = "[%s] %s: %s" % (c.status.upper(), c.check_id, c.claim)
            if c.witness:
                line += " -- " + c.witness
            out.append(line)
        return out

    def to_dict(self):
        return {"ok": self.ok, "checks": [c.to_dict() for c in self.checks]}


def _status(ok):
    return "pass" if ok else "fail"


# ---------------------------------------------------------------------
# instances

# Terms the last gcd may have.  It has bidegree (0, m(d-1)), so it has at
# most C(m(d-1)+d, d) terms, the monomials of that degree in T1..T{d+1};
# an instance whose bound passes the limit is refused before any work.
# The limit admits d=4 up to m=12, d=6 up to m=3, d=8 and d=10 at m=1
# only, and no larger d.
MAX_FIBER_TERMS = 10 ** 5


def _check_size(d, m):
    """ValueError, naming d, m, the bound and the limit, when the last
    gcd's term bound passes MAX_FIBER_TERMS.  Past d=64 the bound is not
    formed: it is at least C(2d-1, d) >= 2^(d-1)."""
    if d < 1:
        return
    if d > 64:
        bound, over = "at least 2^%d" % (d - 1), True
    else:
        bound = comb(m * (d - 1) + d, d)
        over = bound > MAX_FIBER_TERMS
    if over:
        raise ValueError(
            "instance too large: at d=%d, m=%d the last gcd may have "
            "C(m(d-1)+d, d) = %s terms, past the limit of %d"
            % (d, m, bound, MAX_FIBER_TERMS))


class InstanceSpec:
    """One problem instance, kept re-parseable from source strings.

    Matrix entries and the hypersurface equation are stored as canonical
    strings so the same instance can be re-read modulo a different prime.
    Construction validates shape, parseability, that the inputs only
    involve the x-variables, and the size bound of _check_size, before
    any matrix entry is parsed; the mathematical hypotheses are the
    business of check_hypotheses, which reports rather than raises.
    """

    __slots__ = ("prime", "d", "matrix_src", "equation_src", "ring",
                 "presentation", "equation", "degree")

    def __init__(self, prime, d, matrix_src, equation_src):
        if type(prime) is not int or type(d) is not int:
            raise ValueError("prime and d must be integers, got %r and %r"
                             % (prime, d))
        self.prime = prime
        self.d = d
        if self.d < 0:
            raise ValueError("d must be nonnegative")
        try:
            if not all(isinstance(row, (list, tuple)) for row in matrix_src):
                # a string row would split into letters, an object row
                # into its keys
                raise TypeError
            rows = tuple(tuple(str(e) for e in row) for row in matrix_src)
        except TypeError:  # psi or one of its rows is not a list
            rows = ()
        n = self.d + 1
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("matrix must be %d x %d" % (n, n))
        self.matrix_src = rows
        self.equation_src = str(equation_src)
        self.ring = PolyRing.get(self.prime, self.d)
        allowed = set(self.ring.x_slots)
        eq = self.ring.parse(self.equation_src)
        if not eq.support() <= allowed:
            raise ValueError("the equation must only use x-variables")
        bd = eq.bidegree()
        if eq.is_zero or not isinstance(bd, BiDegree) or bd.x < 1:
            raise ValueError(
                "the equation must be a nonzero x-form of degree at least 1")
        _check_size(self.d, bd.x)
        parsed = []
        for row in rows:
            out = []
            for src in row:
                entry = self.ring.parse(src)
                if not entry.support() <= allowed:
                    raise ValueError(
                        "matrix entries must only use x-variables: %r" % src)
                out.append(entry)
            parsed.append(out)
        self.presentation = PolyMatrix.from_rows(self.ring, parsed)
        self.equation = eq
        self.degree = bd.x

    @classmethod
    def from_dict(cls, data):
        try:
            d = data["d"]
            matrix_src = data["psi"]
            equation_src = data["f"]
        except (KeyError, TypeError) as exc:
            raise ValueError("instance needs keys d, psi, f: %s" % exc)
        prime = data.get("prime", DEFAULT_PRIME)
        return cls(prime, d, matrix_src, equation_src)

    def to_dict(self):
        return {"prime": self.prime, "d": self.d,
                "psi": [list(row) for row in self.matrix_src],
                "f": self.equation_src}

    def with_prime(self, prime):
        """The same instance re-read modulo another prime."""
        return InstanceSpec(prime, self.d, self.matrix_src,
                            self.equation_src)

    def x_ideal(self):
        return Ideal(self.ring,
                     [self.ring.x(i) for i in range(1, self.d + 2)])

    def __repr__(self):
        return "InstanceSpec(p=%d, d=%d, m=%d)" % (
            self.prime, self.d, self.degree)


GOLDEN_MATRIX = (
    ("0", "x1", "x2", "0", "x4"),
    ("-x1", "0", "x4", "0", "x3"),
    ("-x2", "-x4", "0", "x1", "x5"),
    ("0", "0", "-x1", "0", "x2"),
    ("-x4", "-x3", "-x5", "-x2", "0"),
)

GOLDEN_EQUATION = "x5^3"


def builtin_example(prime=DEFAULT_PRIME):
    """The worked d=4, degree-3 instance used throughout the test suite."""
    return InstanceSpec(prime, 4, GOLDEN_MATRIX, GOLDEN_EQUATION)


# ---------------------------------------------------------------------
# hypothesis checks

_HYPOTHESIS_CLAIMS = (
    ("even-dimension", "d is even and at least 4"),
    ("alternating-linear",
     "presentation matrix is alternating with linear x-entries"),
    ("variable-span", "matrix entries span every linear form"),
    ("pfaffian-height",
     "pfaffian ideal has height exactly 3 in the hypersurface ring"),
    ("minor-heights",
     "minor ideals clear their height lower bounds"),
    ("independent-pfaffians",
     "the d+1 pfaffian generators are linearly independent"),
)


def check_hypotheses(inst):
    """The six feasibility checks, gated so later ones only run on
    structurally meaningful input.  Failures are report entries.

    A minor size whose minors span every form of their degree k, the
    C(d+k, k) monomials, records height d with no Groebner run: their
    ideal is (x)^k, and f, a form of positive degree, lies in (x), so
    the height modulo f is d + 1 - 1.  The span itself stops at that
    rank (PolyRing.span_basis)."""
    rep = VerificationReport()
    d = inst.d
    ring = inst.ring
    mat = inst.presentation

    even_ok = d % 2 == 0 and d >= 4
    if d % 2:
        witness = "d must be even; got d = %d" % d
    elif d < 4:
        witness = "d must be at least 4; got d = %d" % d
    else:
        witness = ""
    rep.add(*_HYPOTHESIS_CLAIMS[0], _status(even_ok), witness, {"d": d})

    alt_ok = is_alternating(mat)
    lin_ok = has_linear_x_entries(mat)
    if not alt_ok:
        witness = "matrix is not alternating"
    elif not lin_ok:
        witness = "some entry is not a linear form in the x-variables"
    else:
        witness = ""
    rep.add(*_HYPOTHESIS_CLAIMS[1], _status(alt_ok and lin_ok), witness)

    if not (even_ok and alt_ok and lin_ok):
        for check_id, claim in _HYPOTHESIS_CLAIMS[2:]:
            rep.add(check_id, claim, "skip", "prerequisite check failed")
        return rep

    entries = [mat.at(i, j)
               for i in range(d + 1) for j in range(i + 1, d + 1)]
    span = len(ring.span_basis(entries))
    rep.add(*_HYPOTHESIS_CLAIMS[2], _status(span == d + 1),
            "" if span == d + 1 else
            "entries span only %d of %d linear forms" % (span, d + 1),
            {"span": span})

    pfs = submaximal_pfaffians(mat)
    pf_height = height_in_hypersurface(
        Ideal(ring, pfs), inst.equation, ring.x_slots)
    rep.add(*_HYPOTHESIS_CLAIMS[3], _status(pf_height == 3),
            "" if pf_height == 3 else
            "pfaffian ideal has height %d" % pf_height,
            {"height": pf_height})

    # mat^t = -mat: the minors with rows <= cols span each size
    levels = alternating_minors(mat, d)
    heights = {}
    minor_ok = True
    witness = ""
    for j in range(1, d):
        size = d + 1 - j
        mins = ring.span_basis(levels[size - 1])
        if len(mins) == comb(d + size, size):
            # every form of degree size: the ideal is (x)^size, whose
            # height is d modulo f, a form in (x)
            ht = d
        else:
            ht = height_in_hypersurface(
                Ideal(ring, mins), inst.equation, ring.x_slots)
        heights["size-%d" % size] = ht
        if ht < j + 1 and minor_ok:
            minor_ok = False
            witness = ("minors of size %d have height %d, need %d"
                       % (size, ht, j + 1))
    rep.add(*_HYPOTHESIS_CLAIMS[4], _status(minor_ok), witness, heights)

    pf_rank = len(ring.span_basis(pfs))
    rep.add(*_HYPOTHESIS_CLAIMS[5], _status(pf_rank == d + 1),
            "" if pf_rank == d + 1 else
            "pfaffians span a %d-dimensional space" % pf_rank,
            {"rank": pf_rank})
    return rep


# ---------------------------------------------------------------------
# the iteration

IterationStep = namedtuple("IterationStep", ["matrix", "gcd", "bidegree"])


class IterationTrace:
    """The produced matrices and gcds, plus the assembled ideals.

    partial_ideal(i) is the base ideal together with the first i gcds;
    index 0 is the base ideal itself and index m the candidate defining
    ideal.  Ideals are cached so repeated verification reuses Groebner
    bases.  A trace made by gcd_iterations also carries the row lambda
    with adj(dual) = [T]^t . lambda (fixed), checked by _adjugate_row, so
    that a rerun under the other column rule can take it from it; a trace
    rebuilt from saved output has none, and optional_structural_checks
    then forms it by the same checked route.
    """

    __slots__ = ("instance", "ring", "dual", "bilinear", "steps",
                 "_partials", "_fixed")

    def __init__(self, instance, dual, bilinear, steps, fixed=None):
        self.instance = instance
        self.ring = instance.ring
        self.dual = dual
        self.bilinear = tuple(bilinear)
        self.steps = tuple(steps)
        self._partials = {}
        self._fixed = fixed

    @property
    def gcds(self):
        return tuple(s.gcd for s in self.steps)

    def partial_ideal(self, i):
        if i not in self._partials:
            gens = self.bilinear + (self.instance.equation,) + self.gcds[:i]
            self._partials[i] = Ideal(self.ring, gens)
        return self._partials[i]

    @property
    def base_ideal(self):
        return self.partial_ideal(0)

    @property
    def defining_ideal(self):
        return self.partial_ideal(len(self.steps))

    def generators(self):
        """The d+m+2 candidate generators, zeros included."""
        return self.bilinear + (self.instance.equation,) + self.gcds

    def to_dict(self):
        """The gcds, their bidegrees and the nonzero generators as
        strings; each gcd is formatted once, for both lists."""
        gcds = [str(g) for g in self.gcds]
        fixed = self.bilinear + (self.instance.equation,)
        return {
            "gcds": gcds,
            "bidegrees": [list(s.bidegree) if s.bidegree else None
                          for s in self.steps],
            "generators": [str(g) for g in fixed if not g.is_zero]
            + [src for g, src in zip(self.gcds, gcds) if not g.is_zero],
        }


def _column_form(mat, j):
    """Entry j of [x1..x{rows}] times the matrix."""
    ring = mat.ring
    return ring.dot((1, ring.x(k + 1), mat.at(k, j))
                    for k in range(mat.rows))


def _column_forms(mat):
    """Entries of [x1..x{rows}] times the matrix, one per column."""
    return tuple(_column_form(mat, j) for j in range(mat.cols))


def _rank_one_adjugate(mat, u, j0, off_kernel):
    """Row j0 of adj(M) for the (d+1)-square M = mat, the signed minors
    (-1)^(k+j0) M[k][j0] without row k+1 and column j0+1, from one call
    to minors, once M . u = 0 holds (d+1 sums; a nonzero one raises
    IterationError, off_kernel naming its row).

    The lemma: if u != 0 and the caller proves the row equal to u_j0 w
    with u_j0 != 0, then adj(M) = u . w.  As u lies in the kernel of M,
    rank M <= d.  If rank M = d, adj(M) has rank 1 and M . adj(M) =
    det(M) I = 0 puts every column of adj(M) on u, so adj(M) = u . mu;
    its row j0 gives u_j0 mu = u_j0 w, so mu = w.  If rank M < d,
    adj(M) = 0, so u_j0 w = 0 and w = 0.
    """
    ring = mat.ring
    d = mat.rows - 1
    for k in range(d + 1):
        if not ring.dot((1, mat.at(k, j), u_j)
                        for j, u_j in enumerate(u)).is_zero:
            raise IterationError(off_kernel % (k + 1))
    # the minor without row k+1 comes (d-k)-th in lexicographic order
    column = minors(delete_column(mat, j0 + 1), d)
    return [column[d - k] if (k + j0) % 2 == 0 else -column[d - k]
            for k in range(d + 1)]


def _adjugate_row(dual):
    """The row lambda with adj(B) = [T]^t . lambda for the Jacobian dual
    B = dual: row 1 of adj(B) (_rank_one_adjugate, u = [T]^t) divided
    exactly by T1, which proves the lemma's hypothesis.  So a zero lambda
    (rank B < d) needs no special case, and by linearity in the appended
    column the minors of every step factor through lambda.  det(B) = 0
    (matrices.det, one Laplace pass with no division) and lambda . B = 0
    are implied, and rechecked as guards.  A failed check raises
    IterationError naming the row of B . [T]^t, the row of the minor
    whose division fails, or the column of lambda . B.
    """
    ring = dual.ring
    d = dual.rows - 1
    ts = [ring.T(j) for j in range(1, d + 2)]
    first = _rank_one_adjugate(dual, ts, 0,
                               "adjugate: B . [T]^t is nonzero at row %d")
    if not det(dual).is_zero:
        raise IterationError("full-dual minor does not vanish")
    row = []
    for k, minor in enumerate(first):
        lam = minor.exact_div(ts[0])
        if lam is None:
            raise IterationError(
                "adjugate: the minor of B without row %d and column 1 is "
                "not divisible by T1" % (k + 1))
        row.append(lam)
    for j in range(d + 1):
        if not ring.dot((1, lam_k, dual.at(k, j))
                        for k, lam_k in enumerate(row)).is_zero:
            raise IterationError(
                "adjugate: lambda . B is nonzero at column %d" % (j + 1))
    return row


def gcd_iterations(inst, rule="min", prior=None):
    """Run the m gcd iterations and return the trace.

    Every step matrix is [B | C]: the fixed Jacobian dual B plus one
    column C.  Expanding along C, the minor without column j <= d+1 is
    sum_k (-1)^(k+d) C_k M[k][j-1] over the d x d minors M of B, and the
    full-dual minor det(B) does not depend on the step.  Once per call
    _adjugate_row factors M as adj(B) = [T]^t . lambda from the d+1
    minors of B without column 1, and proves the factorization of all
    (d+1)^2 entries from B . [T]^t = 0 and lambda . B = 0; it also checks
    that det(B) vanishes, a guard that B . [T]^t = 0 already implies, by
    one Laplace pass (matrices.det).  By linearity in C every step's
    minor without column j is then s_j T_j sum_k C_k lambda_k, s_j = -1
    for even j, so step i takes g_i = monic(sum_k C_k lambda_k) and
    re-verifies the reassembly of its column and the bidegree (m-i,
    i(d-1)).  A vanishing sum means every maximal minor vanishes; the
    next step's column, split from the zero gcd, is then zero, so every
    later sum and gcd vanishes too.  B, its
    column forms and lambda do not depend on the rule; a prior trace of
    the same instance made by this function lends them, so a rerun under
    the other rule skips that work.
    """
    ring = inst.ring
    d = inst.d
    m = inst.degree
    if prior is not None and prior.instance is inst and \
            prior._fixed is not None:
        dual, bilinear, lam = prior.dual, prior.bilinear, prior._fixed
    else:
        dual = jacobian_dual(inst.presentation)
        bilinear = _column_forms(dual)
        lam = _adjugate_row(dual)

    steps = []
    carried = inst.equation
    for i in range(1, m + 1):
        current = iteration_matrix(dual, carried, rule)
        if _column_form(current, d + 1) != carried:
            raise IterationError(
                "step %d: appended column does not reassemble its source"
                % i)
        carried = ring.dot((1, c, lam_k) for c, lam_k
                           in zip(current.column(d + 1), lam)).monic()
        bideg = None
        if not carried.is_zero:
            bideg = carried.bidegree()
            wanted = BiDegree(m - i, i * (d - 1))
            if bideg != wanted:
                raise IterationError(
                    "step %d: bidegree %s, expected %s" % (i, bideg, wanted))
        steps.append(IterationStep(current, carried, bideg))
    return IterationTrace(inst, dual, bilinear, steps, lam)


# ---------------------------------------------------------------------
# oracle verification

def _difference_witness(a, b):
    """The comparison of two ideals: "" when they are equal, else the
    first generator of one outside the other, rendered as a string.

    Each side is decided by contains_ideal, which tests only the divided
    elements of a quotient; only a side that fails is scanned over all
    the generators for its witness (Ideal.outside), so a comparison that
    fails on the right side makes no run beyond its verdict."""
    for left, right, side in ((a, b, "left"), (b, a, "right")):
        if not left.contains_ideal(right):
            return "not in %s ideal: %s" % (side,
                                             next(left.outside(right.gens)))
    return ""


def verify_main_theorem(inst, trace):
    """Certify the assembled ideal against the saturation oracle.

    The candidate must equal the saturation of the base ideal by the
    variable ideal, equal its m-th colon power, and exceed the (m-1)-st
    colon power; all gcds must be nonzero.  The oracle never consults
    the gcds: each colon and saturation by a single x_i divides a
    grevlex basis with x_i moved last (Bayer's route, one run per x_i
    shared by the saturation and the first colon step), and the d+1
    per-variable results are intersected by eliminating t.  Equal
    quotients are one ideal under their reduced grevlex basis, and an
    ideal meets itself without a run, so where every quotient of a fold
    is the same ideal (on the random m = 1 instances of the tests, every
    fold) the fold makes no elimination run.  A quotient the ideal
    already holds is recognized by containment and an equal Hilbert
    series, with no grevlex run (ideals._divide_out).  A fold of nested
    ideals returns its smallest quotient, which remembers its division:
    the saturation is then a quotient of the base ideal, and the
    candidate, whose generators include the base ideal's, contains it
    exactly when it contains the elements that division divided (one on
    the random m = 1 instances, three on golden).  Each identity is one
    _difference_witness, which gives its verdict and witness in one
    pass.  The m-th colon power is compared with the candidate only when
    its generators, a reduced grevlex basis like the saturation's,
    differ from the saturation's; otherwise it takes that check's verdict
    and witness.
    """
    rep = VerificationReport()
    m = inst.degree
    variables = inst.x_ideal()
    base = trace.base_ideal
    candidate = trace.defining_ideal

    sat = saturate(base, variables)
    sat_witness = _difference_witness(candidate, sat)
    rep.add("saturation-identity",
            "assembled ideal equals the saturation of the base ideal",
            _status(not sat_witness), sat_witness,
            {"saturation_basis": len(sat.groebner())})

    chain = colon_power_chain(base, variables, m)
    # the same generators are the same ideal: nothing to compare again
    colon_witness = sat_witness
    if chain[-1].gens != sat.gens:
        colon_witness = _difference_witness(candidate, chain[-1])
    rep.add("colon-power-identity",
            "assembled ideal equals the m-th colon power of the base ideal",
            _status(not colon_witness), colon_witness)

    if m >= 2:
        strict = not chain[m - 2].equals(candidate)
        rep.add("colon-power-strictness",
                "the (m-1)-st colon power is strictly smaller",
                _status(strict),
                "" if strict else "colon powers m-1 and m agree")
    else:
        rep.add("colon-power-strictness",
                "the (m-1)-st colon power is strictly smaller",
                "pass", "vacuous at m = 1")

    zeros = [i + 1 for i, g in enumerate(trace.gcds) if g.is_zero]
    rep.add("nonvanishing-gcds", "every iteration gcd is nonzero",
            _status(not zeros),
            "vanished at steps %s" % zeros if zeros else "",
            {"steps": len(trace.gcds)})
    return rep


def verify_well_definedness(inst, trace):
    """Rerun trace, a run under the default column rule, with the
    alternate rule, on the Jacobian dual and minors of trace; the
    per-step ideals must agree even when the gcd representatives differ.

    Let B_i and B'_i be the step-i ideals under the two rules, and take
    a step whose gcds g and g' differ after B_{i-1} = B'_{i-1} has been
    shown.  If g' - c*g lies in B_{i-1} for some scalar c, nonzero
    unless g and g' both lie there, then B_i = B'_i; B_0 lies in B_{i-1},
    so normal forms modulo the base ideal's one grevlex basis that both
    vanish or are nonzero multiples of each other prove it.  By the
    bidegree law the test is also exact: g and g' have bidegree
    (m-i, i(d-1)), whose x-degree is below that of the equation and of
    every earlier gcd, so in that bidegree B_{i-1} agrees with B_0 and
    B_i is B_0 plus the multiples of g, and B_i = B'_i puts g' - c*g in
    B_0.  The base ideal answers for the differing pairs in step order
    (Ideal.proportional), on one basis truncated at the box of their
    bidegrees: it top-reduces each gcd to the lead term of its normal
    form, and keeps it, and reduces g' - c*g, c the ratio of the lead
    coefficients, to zero.  So no gcd is reduced in full, each
    differing step makes one full reduction, and the minimality check,
    which asks the base ideal about the same gcds, reduces none of them
    again.  Any other step falls back to comparing the two partial
    ideals, each on a Groebner basis of its own.
    """
    second = gcd_iterations(inst, rule="max", prior=trace)
    rep = VerificationReport()
    base = trace.base_ideal
    # B_{i-1} = B'_{i-1} is proven; at i = 1 by equal generators
    agreed = base.gens == second.base_ideal.gens
    pairs = [(g, h) for g, h in zip(trace.gcds, second.gcds) if g != h]
    # taken in step order while agreed holds; once false, agreed stays
    # false
    verdicts = base.proportional(pairs) if agreed else None
    for i in range(1, inst.degree + 1):
        g, h = trace.gcds[i - 1], second.gcds[i - 1]
        same = g == h
        equal = same or (agreed and next(verdicts))
        witness = ""
        if not equal:
            witness = _difference_witness(trace.partial_ideal(i),
                                          second.partial_ideal(i))
            equal = not witness
        if not same:
            agreed = equal
        rep.add("column-rule-step-%d" % i,
                "step %d ideals agree under both column rules" % i,
                _status(equal), witness, {"identical_gcd": same})
    return rep


def _trace_redundancies(trace):
    """Indices into trace.generators() of nonzero redundant generators.

    Every generator is bihomogeneous and multiplication only raises
    bidegrees componentwise, so a generator can only reduce against the
    generators of componentwise-smaller bidegree.  For the bilinear
    forms of bidegree (1, 1) that leaves the other bilinear forms, plus
    the T-multiples of the equation when m = 1: a span test.  The
    equation, of T-degree zero, and the final gcd, of x-degree zero,
    cannot reduce against anything.  The intermediate gcd of step i has
    strictly smaller x-degree than the equation and the earlier gcds
    and strictly smaller T-degree than the later ones, so only the
    bilinear forms remain, and membership there is one normal form
    against the base ideal, whose every generator beyond them is again
    ruled out by bidegree.  The intermediate gcds go to the base ideal in
    one outside call, on a basis truncated at their bidegree box, which
    top-reduces each only to the lead term of its normal form; after
    verify_well_definedness the base ideal holds that basis and the lead
    terms of the gcds it compared, so none is reduced twice.
    """
    ring = trace.ring
    inst = trace.instance
    m = inst.degree
    redundant = []

    bilinear = list(trace.bilinear)
    extras = []
    if m == 1:
        extras = [ring.T(k) * inst.equation
                  for k in range(1, inst.d + 2)]
    for i in range(len(bilinear)):
        if bilinear[i].is_zero:
            continue
        others = bilinear[:i] + bilinear[i + 1:] + extras
        basis = ring.span_basis(others)
        if normal_form(bilinear[i], basis).is_zero:
            redundant.append(i)

    gcds = trace.gcds[:-1]
    outside = set(trace.base_ideal.outside(gcds))
    redundant += [len(bilinear) + i for i, g in enumerate(gcds, 1)
                  if not g.is_zero and g not in outside]
    return redundant


def minimality_and_invariants(trace):
    """Nakayama-style minimality of the generator list plus the counting
    invariants: d+m+2 generators, top T-degree m(d-1), and a unique
    pure-T generator presenting the special fiber.

    The fiber equation presents the special fiber when (x) plus all
    generators equals (x) plus the last gcd.  The right side lies in the
    left, and a generator every term of which has positive x-degree lies
    in the monomial ideal (x); by the bidegree law that holds for every
    generator but the last, so no Groebner run is needed.  Only the
    generators with a pure-T term are tested for membership in (x) plus
    the last gcd, in one outside call, which stops at the first that is
    not a member.
    """
    rep = VerificationReport()
    inst = trace.instance
    ring = trace.ring
    d, m = inst.d, inst.degree
    all_gens = trace.generators()
    gens = [g for g in all_gens if not g.is_zero]
    expected = d + m + 2

    redundant = _trace_redundancies(trace)
    count_ok = len(gens) == expected and not redundant
    if len(gens) != expected:
        witness = "%d generators, expected %d" % (len(gens), expected)
    elif redundant:
        witness = "redundant: %s" % ", ".join(
            str(all_gens[i]) for i in redundant)
    else:
        witness = ""
    rep.add("generator-minimality",
            "the d+m+2 generators are irredundant",
            _status(count_ok), witness,
            {"generators": len(gens), "expected": expected})

    top = max(g.t_degree() for g in gens)
    rt_ok = top == m * (d - 1)
    rep.add("relation-type",
            "largest T-degree among generators is m(d-1)",
            _status(rt_ok),
            "" if rt_ok else "top T-degree %d, expected %d"
            % (top, m * (d - 1)),
            {"relation_type": top, "expected": m * (d - 1)})

    pure = [g for g in gens if g.x_degree() == 0]
    last = trace.gcds[-1] if trace.gcds else ring.zero
    fiber_ok = (len(pure) == 1 and pure[0] == last
                and last.t_degree() == m * (d - 1))
    if fiber_ok:
        # a generator without a term of x-degree 0 lies in (x); all the
        # terms of a bihomogeneous one share its kept x-degree
        n = ring.n
        stray = [g for g in gens if g != last and (
            g.x_degree() == 0 if g.bidegree() is not None
            else any(not any(e[:n]) for e, _ in g.items()))]
        xs = [ring.x(i) for i in range(1, d + 2)]
        outsider = next(Ideal(ring, xs + [last]).outside(stray), None)
        fiber_ok = outsider is None
        witness = "" if fiber_ok else \
            "not in the variables plus the fiber equation: %s" % outsider
    else:
        witness = "pure-T generators: %s" % [str(g) for g in pure]
    rep.add("fiber-equation",
            "the unique pure-T generator presents the special fiber",
            _status(fiber_ok), witness,
            {"fiber_equation": str(last), "degree": last.t_degree()})
    return rep


# ---------------------------------------------------------------------
# structural checks

def _substitute_linear(mat, images):
    """Apply the substitution x_k -> images[k - 1] of linear forms."""
    ring = mat.ring
    # x_k sits in slot k - 1
    entries = [ring.dot((c, ring.one, images[e.index(1)])
                        for e, c in entry.items())
               for entry in mat.entries]
    return PolyMatrix(ring, mat.rows, mat.cols, entries)


def _random_invertible(rng, ring, size):
    """Images x_k -> sum_j table[k][j] x_j of a random invertible linear
    substitution; the table is redrawn until the forms are independent."""
    while True:
        table = [[rng.randrange(ring.p) for _ in range(size)]
                 for _ in range(size)]
        images = [ring.dot((c, ring.one, ring.x(j))
                           for j, c in enumerate(row, 1) if c)
                  for row in table]
        if len(ring.span_basis(images)) == size:
            return images


def _check_square_law(mat, pfs):
    """adj(A) = p . p^t for an alternating matrix A = mat of odd size d+1
    and its signed submaximal Pfaffians p = pfs (Buchsbaum & Eisenbud,
    Amer. J. Math. 99, 1977): _rank_one_adjugate with u = p and j0 the
    first index with p_j0 != 0 (the first index if p = 0), whose row j0
    of adj(A) must be p_j0 p^t.  If p = 0, every principal d x d minor
    p_k^2 vanishes, so the even rank of A is below d and adj(A) = 0 =
    p . p^t; the checked row is then a guard.  A failed check raises
    IterationError naming the row of A . p, or the minor by the row and
    column it omits.
    """
    j0 = next((j for j, p_j in enumerate(pfs) if not p_j.is_zero), 0)
    row = _rank_one_adjugate(mat, pfs, j0,
                             "square law: A . p is nonzero at row %d")
    for k, signed in enumerate(row):
        if signed != pfs[k] * pfs[j0]:
            raise IterationError(
                "square law: adj = p . p^t fails at the minor without "
                "row %d and column %d" % (k + 1, j0 + 1))


def _principal_pfaffians(mat, size):
    """Pfaffians of the principal size x size submatrices of the
    alternating mat, each checked against Cayley's identity
    det(A_S) = Pf(A_S)^2, two routes: the Laplace pass of matrices.det
    and the Pfaffian recursion along the first row.  A mismatch raises
    IterationError naming the rows and columns S."""
    ring = mat.ring
    out = []
    for rows in combinations(range(mat.rows), size):
        sub = PolyMatrix.from_rows(
            ring, [[mat.at(i, j) for j in rows] for i in rows])
        pf = pfaffian(sub)
        if det(sub) != pf * pf:
            raise IterationError(
                "Cayley: det = Pf^2 fails on the principal submatrix of "
                "rows and columns %s" % ",".join(str(i + 1) for i in rows))
        out.append(pf)
    return out


def _reduction_usable(mat, d):
    """Height conditions qualifying coordinates for the reduced checks:
    dropping the last variable must keep the pfaffian ideal at height 3
    and every size-j minor ideal at height at least d - j + 2.

    An alternating matrix has even rank, so the minors of sizes 2k-1 and
    2k vanish where its principal 2k-Pfaffians do, and the three ideals
    share one height; the binding size is 2k-1.  So no minor ideal is
    formed.  Size 2 needs height d: the reduced entries, linear forms in
    d variables, must span all of them.  Sizes d-1 and d are the
    submaximal Pfaffians p, of height 3; for size d the square law
    adj = p . p^t is checked as well, from one column of minors
    (_check_square_law).  Each size 2k between takes the height of its
    principal Pfaffians, each checked against Cayley's identity, and
    needs d - 2k + 3.
    """
    ring = mat.ring
    reduced = _substitute_linear(
        mat, [ring.x(k) for k in range(1, d + 1)] + [ring.zero])
    ambient = ring.x_slots[:d]
    pfs = submaximal_pfaffians(reduced)
    if height(Ideal(ring, pfs), ambient) < 3:
        return False
    _check_square_law(reduced, pfs)
    entries = [reduced.at(i, j)
               for i in range(d + 1) for j in range(i + 1, d + 1)]
    if len(ring.span_basis(entries)) < d:
        return False
    for size in range(4, d, 2):
        principal = ring.span_basis(_principal_pfaffians(reduced, size))
        if height(Ideal(ring, principal), ambient) < d - size + 3:
            return False
    return True


# Random coordinate changes tried after the given coordinates.
_COORDINATE_ATTEMPTS = 8


def optional_structural_checks(trace):
    """Supporting facts the main argument leans on.

    (a) the size-d minors of the Jacobian dual B cut out a locus of
    codimension at least 2 in the T-variables; (b) after dropping the
    last x-variable (in the given coordinates or a random invertible
    change of them), the reduced gcd multiplies every retained variable
    into the ideal of reduced bilinear forms; (c) products of variables
    with the reduced-gcd ideal land in the last variable plus the
    bilinear forms.  If no usable coordinates are found the dependent
    checks are reported as skipped, not failed.

    For (a), adj(B) = [T]^t . lambda makes the size-d minors of B the
    products +-T_j lambda_k, so their ideal is (T)(lambda), whose zero
    set is V(T) u V(lambda): its height is min(d+1, ht(lambda)), one
    Groebner run on the d+1 entries of lambda.  The row comes from the
    trace when gcd_iterations made it; a trace rebuilt from saved output
    gets it by the same checked route (_adjugate_row).

    For (b), the reduced dual's minor without column 1 is M[d][0] =
    T1 lambda_{d+1}, so the reduced gcd is monic(lambda_{d+1}); a dual
    other than the trace's forms its own lambda.  (c) follows from (b):
    the target (x_{d+1}) + (full forms) holds x_{d+1} and each reduced
    form, its full form minus x_{d+1} B[d+1][j], so it holds x_i times
    either, x_{d+1} g_red, and each x_i g_red (i <= d) that (b) accepts.
    Only the products (b) rejects are asked of the target, none when (b)
    passes; the first outside it is the first of all d+1 products.
    """
    rep = VerificationReport()
    inst = trace.instance
    ring = inst.ring
    d = inst.d
    lam = trace._fixed
    if lam is None:
        lam = _adjugate_row(trace.dual)

    dual_height = min(d + 1, height(Ideal(ring, lam), ring.t_slots))
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
        if _reduction_usable(candidate, d):
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
    if full_dual != trace.dual:
        lam = _adjugate_row(full_dual)
    reduced_gcd = lam[d].monic()
    if reduced_gcd.is_zero:
        witness = "reduced gcd vanishes or is not divisible by T1"
        rep.add("reduced-cramer-containment", claim_b, "fail", witness)
        rep.add("product-containment", claim_c, "fail", witness)
        return rep

    reduced_forms = _column_forms(delete_row(full_dual, d + 1))
    retained = {ring.x(k) * reduced_gcd: k for k in range(1, d + 1)}
    rejected = list(Ideal(ring, reduced_forms).outside(retained))
    rep.add("reduced-cramer-containment", claim_b,
            _status(not rejected),
            "fails for x%d" % retained[rejected[0]] if rejected else "",
            {"attempt": attempt, "reduced_gcd": str(reduced_gcd)})

    target = Ideal(ring, [ring.x(d + 1)] + list(_column_forms(full_dual)))
    bad = next(target.outside(rejected), None)
    rep.add("product-containment", claim_c, _status(bad is None),
            "fails for x%d times %s" % (retained[bad], reduced_gcd)
            if bad else "",
            {"attempt": attempt})
    return rep


# ---------------------------------------------------------------------
# instance generation

def _random_linear(rng, ring):
    while True:
        coeffs = [rng.randint(-3, 3) for _ in ring.x_slots]
        if any(coeffs):
            return ring.dot((c, ring.one, ring.x(j))
                            for j, c in enumerate(coeffs, 1) if c)


def _random_form(rng, ring, degree):
    d = ring.d
    while True:
        acc = {}
        for _ in range(d + 1):
            exp = [0] * ring.nvars
            for _ in range(degree):
                exp[rng.choice(ring.x_slots)] += 1
            c = rng.randint(1, 4) * rng.choice((1, -1))
            key = tuple(exp)
            acc[key] = acc.get(key, 0) + c
        poly = ring.from_dict(acc)
        if not poly.is_zero:
            return poly


# Candidates drawn per seed before random sampling gives up.
_MAX_CANDIDATES = 60


def _one_random_instance(d, m, p, seed):
    if d % 2 or d < 4:
        raise ValueError("d must be an even integer of at least 4")
    if m < 1:
        raise ValueError("the equation degree must be at least 1")
    _check_size(d, m)
    rng = random.Random("instance:%d:%d:%d" % (d, m, seed))
    ring = PolyRing.get(p, d)
    for attempt in range(1, _MAX_CANDIDATES + 1):
        rows = [[ring.zero] * (d + 1) for _ in range(d + 1)]
        for i in range(d + 1):
            for j in range(i + 1, d + 1):
                entry = _random_linear(rng, ring)
                rows[i][j] = entry
                rows[j][i] = -entry
        equation = _random_form(rng, ring, m)
        inst = InstanceSpec(p, d,
                            [[str(e) for e in row] for row in rows],
                            str(equation))
        report = check_hypotheses(inst)
        if report.ok:
            return inst, attempt, report
    raise InstanceRejected(
        "no hypothesis-passing instance in %d attempts" % _MAX_CANDIDATES)


def random_instance(d, m, p=DEFAULT_PRIME, seed=0):
    """Rejection-sample a hypothesis-passing instance.

    Coefficients are drawn from a small symmetric range and the instance
    is stored as strings, so the same seed reproduces the same instance
    under any prime large enough to separate the coefficients.
    """
    return _one_random_instance(d, m, p, seed)[0]


def sample_random_instances(d, m, count, p=DEFAULT_PRIME, seed=0):
    """(instance, candidates tried, hypothesis report) triples for seeds
    seed..seed+count-1; the report is the accepted instance's, which a
    caller verifying the instance need not compute again."""
    return [_one_random_instance(d, m, p, seed + k)
            for k in range(count)]
