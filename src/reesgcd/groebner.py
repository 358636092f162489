"""Buchberger's algorithm with Gebauer-Moeller pair pruning.

Input generators and S-pairs are work items of one queue, processed by
increasing key under the active order: a generator's lead, a pair's lcm,
ties going to the generator (normal selection, Giovini, Mora, Niesi,
Robbiano & Traverso, "One sugar cube, please", ISSAC 1991).  Each item
is fully reduced against the current basis, and a nonzero remainder
joins it.  For homogeneous input under a graded order the items come
off in nondecreasing degree, so every admitted lead is a minimal
generator of the lead ideal, and the basis never grows past its reduced
length.  Such a run also interreduces as it admits: a new lead can divide
no term of lower degree, so it is at most a tail term of an earlier
element of its own degree, which is rewritten on the spot, and the run
ends with its reduced basis.  Other runs end with one pass that
minimalizes and tail-reduces.  The returned basis is reduced, monic,
and sorted by increasing lead monomial, hence unique for the ideal and
the order.  A configurable budget on basis size and degree turns runaway
computations into a hard BudgetExceeded error instead of an apparent
hang.  For input bihomogeneous in (x, T) a run can stop at a bidegree
box: it then keeps only the pairs whose lcm lies inside, enough for
normal forms of bidegree inside the box.  Given the bigraded Hilbert
series of its ideal, a run on t-free bihomogeneous input under a graded
order skips the S-pairs of every bidegree where its lead ideal is
already complete (Traverso, "Hilbert functions and the Buchberger
algorithm", J. Symb. Comp. 22, 1996); the series comes as the numerator
that hilbert_numerator reads off a basis.
The S-pairs wait in a heap keyed by (lcm key, later index, earlier index).

All reduction runs on the heap-and-dict accumulator of the ring module
(Monagan & Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007): the largest pending term is popped,
the first basis entry whose lead divides it contributes its shifted tail,
and the lead itself is never formed.  The entry list (_Entries) keeps a
memo from each exponent it has reduced to that first entry, so a run or
a membership basis scans for an exponent's reducer once, not once per
reduction: a run pops each of a few hundred exponents many times.  An
S-polynomial is never built as a term tuple: the two shifted tails of
its pair seed the accumulator and are reduced in the same pass.  The
loop yields the remainder's terms lazily, each once no basis lead
divides it, in decreasing order: normal_form, the one full normal form,
takes all of them, and normal_form_lead takes only the first, the
remainder's lead term, which top reduction alone finds (Cox, Little &
O'Shea, "Ideals, Varieties, and Algorithms", 2.3 and 2.6).  So a
polynomial outside the ideal is reduced only as far as its first
irreducible term.

Exponents are the ring's packed integers, so every monomial operation of
the run is integer arithmetic on them: a shift is an addition, "a divides
b" is (b - a) & guard == 0, lcms come from ring._lcm, and two leads are
coprime exactly when their lcm is their sum.
"""

from __future__ import annotations

from bisect import insort
from heapq import heapify, heappop
from math import comb

from .ring import (
    EXP_BITS,
    EXP_MAX,
    Polynomial,
    _accumulator,
    _add_shifted,
    _drain,
    _lcm,
    _pop_lead,
)

DEFAULT_MAX_BASIS = 20000
DEFAULT_MAX_DEGREE = 500


class BudgetExceeded(RuntimeError):
    """The basis size or degree cap was hit before completion.

    section names the report section whose run hit the cap, once a
    caller that knows it has set it.
    """

    section = None


def _divides(a, b, guard):
    """The packed exponent a divides b: b - a borrows in no field."""
    return not (b - a) & guard


def _rekey(terms, key):
    """The term tuple terms keyed by key, in decreasing order."""
    return tuple(sorted(((key(e), e, c) for _, e, c in terms), reverse=True))


def _to_terms(poly, order):
    grevlex = poly.ring.grevlex
    return poly.terms if order is grevlex else _rekey(poly.terms, order.key)


def _to_poly(ring, terms, order):
    grevlex = ring.grevlex
    return Polynomial(ring, terms if order is grevlex
                      else _rekey(terms, grevlex.key))


class _Entries(list):
    """Reduction entries (lead_key, lead_exp, inv_lead_coeff, tail),
    sorted by increasing lead_key, tail being the entry's terms after the
    lead, with a memo from each exponent reduced against them to its
    first dividing entry, False for none.

    A divisor's key never exceeds the key of the term it divides, so the
    scan that fills the memo stops early.  An entry whose tail is
    rewritten keeps its place and its lead, so the memo stays true; one
    that joins makes only the exponents its lead divides stale.
    """

    __slots__ = ("memo",)

    def __init__(self, entries=()):
        super().__init__(entries)
        self.memo = {}

    def admit(self, entry, guard):
        insort(self, entry)
        memo = self.memo
        le = entry[1]
        for e in [e for e in memo if not (e - le) & guard]:
            del memo[e]


def _remainder_terms(terms, basis, mod, guard, shifted=()):
    """The terms of the normal form of a term list against basis
    entries, yielded lazily in decreasing order.

    basis is a sequence of entries as _Entries holds them; the memo of
    an _Entries is read and filled, any other sequence is scanned afresh
    for each term.  shifted holds (tail, dkey, dexp, coeff) summands
    added to terms before reduction, as _add_shifted takes them.  Each
    term is yielded once no basis lead divides it, before any smaller
    pending term is reduced: the first is the normal form's lead, found
    by top reduction alone.
    """
    memo = basis.memo if isinstance(basis, _Entries) else {}
    acc, heap = _accumulator(terms)
    for part in shifted:
        _add_shifted(acc, heap, *part)
    while True:
        lead = _pop_lead(acc, heap, mod, guard)
        if lead is None:
            return
        k, e, c = lead
        hit = memo.get(e)
        if hit is None:
            hit = False
            for entry in basis:
                if entry[0] > k:
                    break
                if not (e - entry[1]) & guard:
                    hit = entry
                    break
            memo[e] = hit
        if hit:
            lk, le, linv, tail = hit
            _add_shifted(acc, heap, tail, k - lk, e - le, -(c * linv % mod))
        else:
            yield lead


def _reduce_terms(terms, basis, mod, guard, shifted=()):
    """Full normal form of a term list against basis entries: every term
    _remainder_terms yields."""
    return tuple(_remainder_terms(terms, basis, mod, guard, shifted))


def _monic_terms(terms, mod):
    lc = terms[0][2]
    if lc == 1:
        return terms
    inv = pow(lc, mod - 2, mod)
    return tuple((k, e, c * inv % mod) for k, e, c in terms)


def _spair_tails(f, g, keyf, guard):
    """The S-polynomial of basis entries f and g as two shifted tails.

    Both leads are scaled to the lcm with coefficient 1 and cancel, so
    only the tails enter the reduction, as summands of _reduce_terms.
    """
    kf, ef, invf, tailf = f
    kg, eg, invg, tailg = g
    lcm = _lcm(ef, eg, guard)
    klcm = keyf(lcm)
    return ((tailf, klcm - kf, lcm - ef, invf),
            (tailg, klcm - kg, lcm - eg, -invg))


def _update_pairs(pairs, lead, new, keyf, guard, inside=None):
    """Gebauer-Moeller update of the pair heap after appending element new.

    A pair is (lcm key, later index, earlier index, lcm).  A pair's leads
    are coprime exactly when their lcm is their sum.  A fresh pair whose
    lcm fails inside, when given, is dropped.
    """
    lm_new = lead[new]
    cand = [(_lcm(lead[i], lm_new, guard), i) for i in range(new)]
    kept_new = []
    ncand = len(cand)
    for pos in range(ncand):
        l1, i1 = cand[pos]
        if l1 == lead[i1] + lm_new:
            kept_new.append((l1, i1))
            continue
        dominated = False
        for pos2 in range(pos + 1, ncand):
            if not (l1 - cand[pos2][0]) & guard:
                dominated = True
                break
        if not dominated:
            for l2, _ in kept_new:
                if not (l1 - l2) & guard:
                    dominated = True
                    break
        if not dominated:
            kept_new.append((l1, i1))
    fresh = [(l, i) for l, i in kept_new if l != lead[i] + lm_new
             and (inside is None or inside(l))]
    out = []
    for lk, j, i, l in pairs:
        if ((l - lm_new) & guard or _lcm(lead[i], lm_new, guard) == l
                or _lcm(lead[j], lm_new, guard) == l):
            out.append((lk, j, i, l))
    for l, i in fresh:
        out.append((keyf(l), new, i, l))
    heapify(out)
    return out


def _inside_box(ring, box):
    """Predicate on packed exponents: the bidegree (x-degree, T-degree)
    lies componentwise within box; t has bidegree (0, 0)."""
    x_max, t_max = box
    read = ring.bidegree_of

    def inside(exp):
        x, t = read(exp)
        return x <= x_max and t <= t_max
    return inside


def _max_degree(terms, degree_of):
    return max(degree_of(e) for _, e, _ in terms)


def _basis_entry(terms, mod):
    """The reduction entry [lead_key, lead_exp, inv_lead_coeff, tail] of
    a term tuple; a list, so that a run can rewrite its tail."""
    lk, le, lc = terms[0]
    return [lk, le, pow(lc, mod - 2, mod), terms[1:]]


def _find(terms, key):
    """The index of the term of key in the term tuple terms, decreasing
    by key, found by bisection, or -1."""
    lo, hi = 0, len(terms)
    while lo < hi:
        mid = (lo + hi) >> 1
        k = terms[mid][0]
        if k > key:
            lo = mid + 1
        elif k < key:
            hi = mid
        else:
            return mid
    return -1


def _minus_multiple(terms, at, tail, mod, guard):
    """terms less c times the monic element whose lead is the monomial
    of terms[at] and whose tail is tail, c that term's coefficient.

    The lead cancels and the terms above it stay; the terms below it
    and c times tail, all smaller, merge in one accumulator with no
    heap, drained by one sort."""
    acc, _ = _accumulator(terms[at + 1:])
    _add_shifted(acc, None, tail, 0, 0, -terms[at][2])
    return terms[:at] + _drain(acc, mod, guard)


# A bidegree (a, b) is packed as a << _SPLIT | b, so that the bidegree of
# a product is the sum of the factors' bidegrees.
_SPLIT = 32
_LOW = (1 << _SPLIT) - 1


def _combine(num, other, shift, sign):
    """num + sign * s^a u^b * other for shift the packed (a, b)."""
    out = dict(num)
    for k, c in other.items():
        k += shift
        c = out.get(k, 0) + sign * c
        if c:
            out[k] = c
        else:
            out.pop(k, None)
    return out


def _minimal(exps, guard):
    """The minimal generators of the monomial ideal of packed exponents.

    A proper divisor of a packed exponent is a smaller integer, so
    divisors come first in increasing order."""
    kept = []
    for e in sorted(set(exps)):
        for h in kept:
            if not (e - h) & guard:
                break
        else:
            kept.append(e)
    return kept


def _numerator(exps, weight, guard, fields):
    """Bigraded numerator of the monomial ideal of packed exponents exps
    by Bigatti's pivot recursion (JPAA 119, 1997).

    Pairwise coprime generators u give prod (1 - w(u)), w the packed
    bidegree.  Otherwise the pivot p is the power of the variable that
    divides the most generators, at its least exponent there, and
    N(M) = N(M + (p)) + w(p) N(M : p): every generator holding the
    variable is a multiple of p, so M + (p) is p beside the rest, coprime
    to it, and M : p lowers that variable's exponent by p's.  fields
    holds the mask of each variable's field.
    """
    exps = _minimal(exps, guard)
    lcm = total = 0
    for e in exps:
        lcm = _lcm(lcm, e, guard)
        total += e
    if lcm == total:
        num = {0: 1}
        for e in exps:
            num = _combine(num, num, weight(e), -1)
        return num
    best = 0
    for mask in fields:
        count = 0
        low = mask
        for e in exps:
            f = e & mask
            if f:
                count += 1
                if f < low:
                    low = f
        if count > best:
            best, pivot, pmask = count, low, mask
    rest = [e for e in exps if not e & pmask]
    quotient = [e - pivot if e & pmask else e for e in exps]
    w = weight(pivot)
    num = _numerator(rest, weight, guard, fields)
    num = _combine(num, num, w, -1)
    return _combine(num, _numerator(quotient, weight, guard, fields), w, 1)


def _hilbert_value(num, bidegree, n):
    """dim_(a, b) of the module whose Hilbert series is num over
    (1 - s)^n (1 - u)^n, bidegree the packed (a, b)."""
    a, b = bidegree >> _SPLIT, bidegree & _LOW
    total = 0
    for k, c in num.items():
        i, j = k >> _SPLIT, k & _LOW
        if i <= a and j <= b:
            total += (c * comb(a - i + n - 1, n - 1)
                      * comb(b - j + n - 1, n - 1))
    return total


def _packed_bidegree(ring):
    read = ring.bidegree_of

    def weight(exp):
        a, b = read(exp)
        return a << _SPLIT | b
    return weight


def _fields(ring):
    return [EXP_MAX << (EXP_BITS * slot)
            for slot in ring.x_slots + ring.t_slots]


def hilbert_numerator(basis, order=None, by_degree=False):
    """Numerator N(s, u) of the bigraded Hilbert series of R/(leads),
    R = k[x, T], for the lead monomials under order of a t-free basis;
    t in basis raises ValueError.

    For a Groebner basis of a t-free bihomogeneous ideal I under order
    this is the numerator of the series of R/I, the same under every
    order: sum dim (R/I)_(a,b) s^a u^b = N(s, u) / ((1-s)^n (1-u)^n),
    n = d + 1.  Returned as a map (a, b) -> nonzero integer coefficient.

    by_degree gives the numerator N(z) of the series of R/(leads) in the
    total degree instead, sum dim (R/(leads))_k z^k = N(z) / (1-z)^(2n),
    as a map k -> nonzero coefficient: the same recursion, weighted by
    degree, with no bigrading to read.
    """
    basis = [g for g in basis if not g.is_zero]
    if not basis:
        return {0: 1} if by_degree else {(0, 0): 1}
    ring = basis[0].ring
    if any(g.involves(ring.aux_slot) for g in basis):
        raise ValueError("a Hilbert numerator needs a t-free basis")
    order = order or ring.grevlex
    if order is ring.grevlex:
        leads = [g.terms[0][1] for g in basis]
    else:
        key = order.key
        leads = [max((e for _, e, _ in g.terms), key=key) for g in basis]
    if by_degree:
        return _numerator(leads, ring.degree_of, ring.guard, _fields(ring))
    num = _numerator(leads, _packed_bidegree(ring), ring.guard,
                     _fields(ring))
    return {(k >> _SPLIT, k & _LOW): c for k, c in num.items()}


class _HilbertDriver:
    """The lead ideal's numerator during a run, against a target.

    admit keeps the numerator current as leads join:
    N(M + (u)) = N(M) - w(u) N(M : u), M : u generated by the
    lcm(g, u) - u of the earlier leads g.  settled tells whether the
    lead ideal is complete at the bidegree of a pair's lcm, where every
    S-pair reduces to zero; pairs and generators come off in
    nondecreasing degree, so a bidegree's deficit, once read, falls only
    by one for each element admitted in it.
    """

    __slots__ = ("target", "num", "deficit", "weight", "guard", "fields",
                 "n")

    def __init__(self, ring, hilbert):
        self.target = {a << _SPLIT | b: c for (a, b), c in hilbert.items()
                       if c}
        self.num = {0: 1}
        self.deficit = {}
        self.weight = _packed_bidegree(ring)
        self.guard = ring.guard
        self.fields = _fields(ring)
        self.n = ring.n

    def admit(self, lead, earlier):
        guard = self.guard
        quotient = [_lcm(g, lead, guard) - lead for g in earlier]
        w = self.weight(lead)
        self.num = _combine(self.num, _numerator(
            quotient, self.weight, guard, self.fields), w, -1)
        if w in self.deficit:
            self.deficit[w] -= 1

    def settled(self, lcm):
        w = self.weight(lcm)
        left = self.deficit.get(w)
        if left is None:
            left = self.deficit[w] = (_hilbert_value(self.num, w, self.n)
                                      - _hilbert_value(self.target, w,
                                                       self.n))
        return left == 0

    def check(self, order):
        if self.num != self.target:
            raise AssertionError(
                "Hilbert series of the leads differs from the target (%s)"
                % order.name)


def groebner_basis(gens, order=None, max_basis=None, max_degree=None,
                   within=None, hilbert=None):
    """Reduced monic Groebner basis of the ideal generated by gens.

    The output is a tuple of Polynomials sorted by increasing lead
    monomial under the active order; it is empty for the zero ideal and
    (1,) for the unit ideal.  Raises BudgetExceeded when the basis grows
    past max_basis elements or any basis element's total degree passes
    max_degree; its message names the cap and the term order of the run.

    The input generators are selected like pairs, by lead key: a stack
    of them, least lead key on top and the earlier input first among
    equals, is merged with the pair heap, keyed by (lcm key, later index,
    earlier index), each step taking the generator on top unless the
    pair on top of the heap has a smaller key.  On homogeneous input
    under a graded order every element admitted is then one of the
    reduced basis, so the run exceeds max_basis exactly when the reduced
    basis has more than max_basis elements.

    Such a run interreduces as it admits.  An item of degree k is
    reduced in full, so no lead divides a term of it; a lead of degree
    k divides no term of lower degree, and of degree k only itself.  So
    when a new element joins, the earlier elements of its degree whose
    tail holds its lead subtract their multiple of it, and every tail
    stays free of every lead: the run returns its basis as it stands.
    The closing pass (_autoreduce), which drops the elements whose lead
    is a multiple of another and tail-reduces the rest, runs only for
    runs under elim_aux, runs on input that is not homogeneous in the
    total degree, and interreduce.  Every reduction of a run reads the
    memo of its entry list from each exponent to its reducing entry (the
    first whose lead divides it, as the scan would pick); an admission
    drops only the exponents its lead divides, and a rewritten tail
    keeps its entry.

    within = (x_max, T_max) truncates the run at that bidegree box, for
    gens bihomogeneous in (x, T) (t has bidegree (0, 0)); a generator
    that is not raises ValueError.  Generators outside the box are
    dropped, and so is every S-pair whose lcm lies outside it.  S-pairs
    and reductions of bihomogeneous elements stay bihomogeneous and
    reduce only against elements of componentwise smaller bidegree, so
    the result is the reduced basis's elements inside the box, and
    normal forms on it are exact for every polynomial of bidegree in
    the box (degree-truncated Buchberger).  The budget caps apply as
    before.

    hilbert is the caller's claim that the numerator N(s, u) of the
    bigraded Hilbert series of the ideal is the given map (a, b) -> coeff,
    as hilbert_numerator returns it.  It needs t-free bihomogeneous gens,
    a graded order (grevlex or a revlex_last order) and no within;
    anything else raises ValueError.  Pairs and generators then come
    off in nondecreasing degree, and before a pair whose lcm has
    bidegree (a, b) is reduced, dim (R/LT(G))_(a,b) is compared with
    the series: where they agree LT(G) and LT(I) agree in that
    bidegree, the pair's S-polynomial reduces to zero, and it is
    dropped.  So the run admits
    exactly the elements of a plain run.  At the end the numerator of
    the leads must equal the claim, or AssertionError is raised.
    """
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return ()
    ring = gens[0].ring
    inside = None
    if within is not None:
        inside = _inside_box(ring, within)
        if any(g.bidegree() is None for g in gens):
            raise ValueError("a truncated run needs bihomogeneous input")
        gens = [g for g in gens if inside(g.terms[0][1])]
    order = order or ring.grevlex
    driver = None
    if hilbert is not None:
        if (within is not None or not ring.is_graded(order)
                or any(g.bidegree() is None
                       or g.involves(ring.aux_slot) for g in gens)):
            raise ValueError("a run driven by a Hilbert series needs t-free "
                             "bihomogeneous input under a graded order, "
                             "untruncated")
        driver = _HilbertDriver(ring, hilbert)
    mod, guard = ring.p, ring.guard
    keyf = order.key
    degree_of = ring.degree_of
    cap_size = max_basis if max_basis is not None else DEFAULT_MAX_BASIS
    cap_deg = max_degree if max_degree is not None else DEFAULT_MAX_DEGREE
    graded = ring.is_graded(order) and all(
        len({degree_of(e) for _, e, _ in g.terms}) == 1 for g in gens)

    # red holds the entries by increasing lead key, which no two share
    entries = []
    lead = []
    red = _Entries()
    pairs = []

    def admit(terms):
        terms = _monic_terms(terms, mod)
        if len(entries) >= cap_size:
            raise BudgetExceeded("basis size cap %d exceeded (%s)"
                                 % (cap_size, order.name))
        if _max_degree(terms, degree_of) > cap_deg:
            raise BudgetExceeded("degree cap %d exceeded (%s)"
                                 % (cap_deg, order.name))
        entry = _basis_entry(terms, mod)
        if graded:
            # only an earlier element of the same degree can hold a
            # multiple of the new lead, and then the lead itself
            k, deg = entry[0], degree_of(entry[1])
            for other in reversed(entries):
                if degree_of(other[1]) < deg:
                    break
                at = _find(other[3], k) if other[0] > k else -1
                if at >= 0:
                    other[3] = _minus_multiple(other[3], at, entry[3], mod,
                                               guard)
        entries.append(entry)
        if driver is not None:
            driver.admit(entry[1], lead)
        lead.append(entry[1])
        red.admit(entry, guard)
        return _update_pairs(pairs, lead, len(lead) - 1, keyf, guard, inside)

    # a stack of the inputs: the top has the least lead key, the earliest
    # input first among equal keys
    todo = [_to_terms(f, order) for f in reversed(gens)]
    todo.sort(key=lambda terms: terms[0][0], reverse=True)
    while todo or pairs:
        if todo and (not pairs or todo[-1][0][0] <= pairs[0][0]):
            h = _reduce_terms(todo.pop(), red, mod, guard)
        else:
            _, j, i, lcm = heappop(pairs)
            if driver is not None and driver.settled(lcm):
                continue
            h = _reduce_terms((), red, mod, guard,
                              _spair_tails(entries[i], entries[j], keyf,
                                           guard))
        if h:
            pairs = admit(h)

    if driver is not None:
        driver.check(order)
    basis = [((k, e, 1),) + tail for k, e, _, tail in red]
    if not graded:
        basis = _autoreduce(basis, mod, guard)
    return tuple(_to_poly(ring, terms, order) for terms in basis)


def interreduce(basis, order=None):
    """The reduced monic basis, as groebner_basis returns it, of the
    ideal of basis, which must be a Groebner basis under order.

    Elements whose lead another element's lead divides are dropped and
    the rest tail-reduced on one another; no S-pair is formed, so a
    basis that is not a Groebner basis gives a wrong answer."""
    basis = [g for g in basis if not g.is_zero]
    if not basis:
        return ()
    ring = basis[0].ring
    order = order or ring.grevlex
    return tuple(_to_poly(ring, terms, order) for terms in _autoreduce(
        [_to_terms(g, order) for g in basis], ring.p, ring.guard))


def _autoreduce(basis_terms, mod, guard):
    """Minimalize and tail-reduce a basis known to be a Groebner basis.

    A lead divides no smaller monomial, so no element's lead divides a
    term of its own tail's reduction: every tail reduces against all
    kept entries, its own among them, on one memo."""
    items = sorted(basis_terms, key=lambda t: t[0][0])
    kept = []
    for g in items:
        le = g[0][1]
        if not any(_divides(h[0][1], le, guard) for h in kept):
            kept.append(g)
    entries = _Entries(_basis_entry(g, mod) for g in kept)
    return [_monic_terms(g[:1] + _reduce_terms(g[1:], entries, mod, guard),
                         mod) for g in kept]


def _entries(basis, order, mod):
    """Reduction entries of the nonzero elements of basis under order,
    sorted by increasing lead key, with an empty memo."""
    return _Entries(sorted((_basis_entry(_to_terms(g, order), mod)
                            for g in basis if not g.is_zero),
                           key=lambda ent: ent[0]))


def normal_form(poly, basis, order=None):
    """Remainder of poly on full division by an ordered basis."""
    if poly.is_zero:
        return poly
    ring = poly.ring
    order = order or ring.grevlex
    mod = ring.p
    return _to_poly(ring, _reduce_terms(_to_terms(poly, order),
                                        _entries(basis, order, mod), mod,
                                        ring.guard), order)


def reduction_entries(basis, ring):
    """The reduction entries of a grevlex basis of ring, which
    normal_form_lead reduces against: built once, they serve any number
    of reductions."""
    return _entries(basis, ring.grevlex, ring.p)


def normal_form_lead(poly, entries, minus=None):
    """The lead term of the remainder of poly on full division by a
    grevlex basis, given by its reduction_entries, as a one-term
    Polynomial, or zero when poly reduces to zero.  With minus = (c, g)
    it is the remainder of poly - c*g, and c*g enters the reduction as a
    shifted summand, as an S-pair's tails do, so the difference is never
    formed.

    The reduction stops at the first term no basis lead divides: only
    a member is reduced to the end."""
    ring = poly.ring
    shifted = ()
    if minus is not None:
        c, g = minus
        shifted = ((g.terms, 0, 0, -c),)
    lead = next(_remainder_terms(poly.terms, entries, ring.p, ring.guard,
                                 shifted), None)
    return Polynomial(ring, () if lead is None else (lead,))


def spolynomial(f, g, order=None):
    """Monic-normalized S-polynomial of f and g."""
    ring = f.ring
    order = order or ring.grevlex
    mod = ring.p
    tails = _spair_tails(_basis_entry(_to_terms(f, order), mod),
                         _basis_entry(_to_terms(g, order), mod), order.key,
                         ring.guard)
    return _to_poly(ring, _reduce_terms((), (), mod, ring.guard, tails),
                    order)


def is_groebner(basis, order=None):
    """Every pairwise S-polynomial reduces to zero against the basis."""
    basis = [g for g in basis if not g.is_zero]
    if len(basis) <= 1:
        return True
    ring = basis[0].ring
    order = order or ring.grevlex
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if not normal_form(spolynomial(basis[i], basis[j], order),
                               basis, order).is_zero:
                return False
    return True
