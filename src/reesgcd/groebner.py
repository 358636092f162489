"""Buchberger's algorithm with Gebauer-Moeller pair pruning.

Pairs are processed by increasing lcm under the active order (normal
selection); every S-polynomial is fully reduced against the current
basis; the returned basis is reduced, monic, and sorted by increasing
lead monomial, hence unique for the ideal and the order.  A configurable
budget on basis size and degree turns runaway computations into a hard
BudgetExceeded error instead of an apparent hang.  For input bihomogeneous
in (x, T) a run can stop at a bidegree box: it then keeps only the pairs
whose lcm lies inside, enough for normal forms of bidegree inside the box.

All reduction runs on the heap-and-dict accumulator of the ring module
(Monagan & Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007): the largest pending term is popped,
the first basis entry whose lead divides it contributes its shifted tail,
and the lead itself is never formed.  An S-polynomial is never built as a
term tuple: the two shifted tails of its pair seed the accumulator and
are reduced in the same pass.

Exponents are the ring's packed integers, so every monomial operation of
the run is integer arithmetic on them: a shift is an addition, "a divides
b" is (b - a) & guard == 0, lcms come from ring._lcm, and two leads are
coprime exactly when their lcm is their sum.
"""

from __future__ import annotations

from .ring import Polynomial, _accumulator, _add_shifted, _lcm, _pop_lead

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


def _to_terms(poly, order):
    ring = poly.ring
    if order is ring.grevlex:
        return poly.terms
    key = order.key
    return tuple(sorted(((key(e), e, c) for _, e, c in poly.terms),
                        reverse=True))


def _to_poly(ring, terms):
    key = ring.grevlex.key
    return Polynomial(ring, tuple(
        sorted(((key(e), e, c) for _, e, c in terms), reverse=True)))


def _reduce_terms(terms, basis, mod, guard, shifted=()):
    """Full normal form of a term list against basis entries.

    basis entries are (lead_key, lead_exp, inv_lead_coeff, tail) sorted
    by increasing lead_key, tail being the entry's terms after the lead;
    a divisor's key never exceeds the key of the term it divides, so the
    scan stops early.  shifted holds (tail, dkey, dexp, coeff) summands
    added to terms before reduction, as _add_shifted takes them.
    """
    acc, heap = _accumulator(terms)
    for part in shifted:
        _add_shifted(acc, heap, *part)
    out = []
    while True:
        lead = _pop_lead(acc, heap, mod, guard)
        if lead is None:
            return tuple(out)
        k, e, c = lead
        for lk, le, linv, tail in basis:
            if lk > k:
                out.append(lead)
                break
            if not (e - le) & guard:
                _add_shifted(acc, heap, tail, k - lk, e - le,
                             -(c * linv % mod))
                break
        else:
            out.append(lead)


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
    """Gebauer-Moeller update of the pair set after appending element new.

    A pair's leads are coprime exactly when their lcm is their sum.  A
    fresh pair whose lcm fails inside, when given, is dropped.
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
    for lk, l, i, j in pairs:
        if ((l - lm_new) & guard or _lcm(lead[i], lm_new, guard) == l
                or _lcm(lead[j], lm_new, guard) == l):
            out.append((lk, l, i, j))
    for l, i in fresh:
        out.append((keyf(l), l, i, new))
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
    lk, le, lc = terms[0]
    return (lk, le, pow(lc, mod - 2, mod), terms[1:])


def _insert_sorted(basis, entry):
    lo, hi = 0, len(basis)
    k = entry[0]
    while lo < hi:
        mid = (lo + hi) // 2
        if basis[mid][0] < k:
            lo = mid + 1
        else:
            hi = mid
    basis.insert(lo, entry)


def groebner_basis(gens, order=None, max_basis=None, max_degree=None,
                   known=0, within=None):
    """Reduced monic Groebner basis of the ideal generated by gens.

    The output is a tuple of Polynomials sorted by increasing lead
    monomial under the active order; it is empty for the zero ideal and
    (1,) for the unit ideal.  Raises BudgetExceeded when the basis grows
    past max_basis elements or any basis element's total degree passes
    max_degree; its message names the cap and the term order of the run.

    known is the caller's claim that the first known gens form a reduced
    Groebner basis under order.  The S-polynomial of two of them then has
    a standard representation over them, which is all Buchberger's
    criterion asks of a pair (Becker & Weispfenning, Groebner Bases, GTM
    141, ch. 5), so their pairs still take part in the Gebauer-Moeller
    pruning but are never reduced.  The claim is checked as far as it
    is cheap: the first known gens must be nonzero and admitted
    unchanged, each fully reduced against the ones before it; otherwise
    every pair is reduced as usual.

    within = (x_max, T_max) truncates the run at that bidegree box, for
    gens bihomogeneous in (x, T) (t has bidegree (0, 0)); a generator
    that is not raises ValueError.  Generators outside the box are
    dropped, and so is every S-pair whose lcm lies outside it.  S-pairs
    and reductions of bihomogeneous elements stay bihomogeneous and
    reduce only against elements of componentwise smaller bidegree, so
    the result is the reduced basis's elements inside the box, and
    normal forms on it are exact for every polynomial of bidegree in
    the box (degree-truncated Buchberger).  The known claim stands only
    if no prefix generator is dropped.  The budget caps apply as before.
    """
    gens = list(gens)
    if known > len(gens) or not all(gens[:known]):
        known = 0
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return ()
    ring = gens[0].ring
    inside = None
    if within is not None:
        inside = _inside_box(ring, within)
        if any(g.bidegree() is None for g in gens):
            raise ValueError("a truncated run needs bihomogeneous input")
        kept = [inside(g.terms[0][1]) for g in gens]
        if not all(kept[:known]):
            known = 0
        gens = [g for g, keep in zip(gens, kept) if keep]
        if not gens:
            return ()
    order = order or ring.grevlex
    mod, guard = ring.p, ring.guard
    keyf = order.key
    cap_size = max_basis if max_basis is not None else DEFAULT_MAX_BASIS
    cap_deg = max_degree if max_degree is not None else DEFAULT_MAX_DEGREE

    G = []
    entries = []
    lead = []
    red = []
    pairs = []

    def admit(terms):
        terms = _monic_terms(terms, mod)
        if len(G) + 1 > cap_size:
            raise BudgetExceeded("basis size cap %d exceeded (%s)"
                                 % (cap_size, order.name))
        if _max_degree(terms, ring.degree_of) > cap_deg:
            raise BudgetExceeded("degree cap %d exceeded (%s)"
                                 % (cap_deg, order.name))
        G.append(terms)
        entries.append(_basis_entry(terms, mod))
        lead.append(terms[0][1])
        _insert_sorted(red, entries[-1])
        return _update_pairs(pairs, lead, len(G) - 1, keyf, guard, inside)

    for pos, f in enumerate(gens):
        terms = _to_terms(f, order)
        h = _reduce_terms(terms, red, mod, guard)
        if pos < known and h != terms:
            known = 0
        if h:
            pairs = admit(h)

    while pairs:
        best = 0
        bk = pairs[0]
        for pos in range(1, len(pairs)):
            cand = pairs[pos]
            if (cand[0], cand[3], cand[2]) < (bk[0], bk[3], bk[2]):
                best = pos
                bk = cand
        _, _, i, j = pairs.pop(best)
        if j < known:
            continue
        h = _reduce_terms((), red, mod, guard,
                          _spair_tails(entries[i], entries[j], keyf, guard))
        if h:
            pairs = admit(h)

    return tuple(_to_poly(ring, terms)
                 for terms in _autoreduce(G, mod, guard))


def _autoreduce(basis_terms, mod, guard):
    """Minimalize and tail-reduce a basis known to be a Groebner basis."""
    items = sorted(basis_terms, key=lambda t: t[0][0])
    kept = []
    for g in items:
        le = g[0][1]
        if not any(_divides(h[0][1], le, guard) for h in kept):
            kept.append(g)
    entries = [_basis_entry(g, mod) for g in kept]
    out = []
    for idx, g in enumerate(kept):
        others = entries[:idx] + entries[idx + 1:]
        out.append(_monic_terms(_reduce_terms(g, others, mod, guard), mod))
    return out


def normal_form(poly, basis, order=None):
    """Remainder of poly on full division by an ordered basis."""
    ring = poly.ring
    order = order or ring.grevlex
    if poly.is_zero:
        return poly
    mod = ring.p
    entries = sorted(
        (_basis_entry(_to_terms(g, order), mod)
         for g in basis if not g.is_zero),
        key=lambda ent: ent[0])
    h = _reduce_terms(_to_terms(poly, order), entries, mod, ring.guard)
    return _to_poly(ring, h)


def spolynomial(f, g, order=None):
    """Monic-normalized S-polynomial of f and g."""
    ring = f.ring
    order = order or ring.grevlex
    mod = ring.p
    tails = _spair_tails(_basis_entry(_to_terms(f, order), mod),
                         _basis_entry(_to_terms(g, order), mod), order.key,
                         ring.guard)
    return _to_poly(ring, _reduce_terms((), (), mod, ring.guard, tails))


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
