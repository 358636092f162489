"""Buchberger's algorithm with Gebauer-Moeller pair pruning.

Pairs are processed by increasing lcm under the active order (normal
selection); every S-polynomial is fully reduced against the current
basis; the returned basis is reduced, monic, and sorted by increasing
lead monomial, hence unique for the ideal and the order.  A configurable
budget on basis size and degree turns runaway computations into a hard
BudgetExceeded error instead of an apparent hang.

All reduction runs on the heap-and-dict accumulator of the ring module
(Monagan & Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007): the largest pending term is popped,
the first basis entry whose lead divides it contributes its shifted tail,
and the lead itself is never formed.  An S-polynomial is never built as a
term tuple: the two shifted tails of its pair seed the accumulator and
are reduced in the same pass.
"""

from __future__ import annotations

from operator import sub

from .ring import Polynomial, _accumulator, _add_shifted, _pop_lead

DEFAULT_MAX_BASIS = 20000
DEFAULT_MAX_DEGREE = 500


class BudgetExceeded(RuntimeError):
    """The basis size or degree cap was hit before completion."""


def _divides(a, b):
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _coprime(a, b):
    for x, y in zip(a, b):
        if x and y:
            return False
    return True


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


def _reduce_terms(terms, basis, mod, shifted=()):
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
        lead = _pop_lead(acc, heap, mod)
        if lead is None:
            return tuple(out)
        k, e, c = lead
        hit = None
        for ent in basis:
            if ent[0] > k:
                break
            le = ent[1]
            for a, b in zip(le, e):
                if a > b:
                    break
            else:
                hit = ent
                break
        if hit is None:
            out.append(lead)
        else:
            lk, le, linv, tail = hit
            _add_shifted(acc, heap, tail, k - lk, tuple(map(sub, e, le)),
                         -(c * linv % mod))


def _monic_terms(terms, mod):
    lc = terms[0][2]
    if lc == 1:
        return terms
    inv = pow(lc, mod - 2, mod)
    return tuple((k, e, c * inv % mod) for k, e, c in terms)


def _spair_tails(f, g, keyf):
    """The S-polynomial of basis entries f and g as two shifted tails.

    Both leads are scaled to the lcm with coefficient 1 and cancel, so
    only the tails enter the reduction, as summands of _reduce_terms.
    """
    kf, ef, invf, tailf = f
    kg, eg, invg, tailg = g
    lcm = tuple(max(a, b) for a, b in zip(ef, eg))
    klcm = keyf(lcm)
    return ((tailf, klcm - kf, tuple(map(sub, lcm, ef)), invf),
            (tailg, klcm - kg, tuple(map(sub, lcm, eg)), -invg))


def _update_pairs(pairs, lead, new, keyf):
    """Gebauer-Moeller update of the pair set after appending element new."""
    lm_new = lead[new]
    cand = []
    for i in range(new):
        cand.append((tuple(max(a, b) for a, b in zip(lead[i], lm_new)), i))
    kept_new = []
    ncand = len(cand)
    for pos in range(ncand):
        l1, i1 = cand[pos]
        if _coprime(lead[i1], lm_new):
            kept_new.append((l1, i1))
            continue
        dominated = False
        for pos2 in range(pos + 1, ncand):
            if _divides(cand[pos2][0], l1):
                dominated = True
                break
        if not dominated:
            for l2, _ in kept_new:
                if _divides(l2, l1):
                    dominated = True
                    break
        if not dominated:
            kept_new.append((l1, i1))
    fresh = [(l, i) for l, i in kept_new if not _coprime(lead[i], lm_new)]
    out = []
    for lk, l, i, j in pairs:
        if not _divides(lm_new, l):
            out.append((lk, l, i, j))
            continue
        if tuple(max(a, b) for a, b in zip(lead[i], lm_new)) == l:
            out.append((lk, l, i, j))
            continue
        if tuple(max(a, b) for a, b in zip(lead[j], lm_new)) == l:
            out.append((lk, l, i, j))
            continue
    for l, i in fresh:
        out.append((keyf(l), l, i, new))
    return out


def _max_degree(terms):
    return max(sum(e) for _, e, _ in terms)


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


def groebner_basis(gens, order=None, max_basis=None, max_degree=None):
    """Reduced monic Groebner basis of the ideal generated by gens.

    The output is a tuple of Polynomials sorted by increasing lead
    monomial under the active order; it is empty for the zero ideal and
    (1,) for the unit ideal.  Raises BudgetExceeded when the basis grows
    past max_basis elements or any basis element's total degree passes
    max_degree; its message names the cap and the term order of the run.
    """
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return ()
    ring = gens[0].ring
    order = order or ring.grevlex
    mod = ring.p
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
        if _max_degree(terms) > cap_deg:
            raise BudgetExceeded("degree cap %d exceeded (%s)"
                                 % (cap_deg, order.name))
        G.append(terms)
        entries.append(_basis_entry(terms, mod))
        lead.append(terms[0][1])
        _insert_sorted(red, entries[-1])
        return _update_pairs(pairs, lead, len(G) - 1, keyf)

    for f in gens:
        h = _reduce_terms(_to_terms(f, order), red, mod)
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
        h = _reduce_terms((), red, mod,
                          _spair_tails(entries[i], entries[j], keyf))
        if h:
            pairs = admit(h)

    return tuple(_to_poly(ring, terms)
                 for terms in _autoreduce(G, mod))


def _autoreduce(basis_terms, mod):
    """Minimalize and tail-reduce a basis known to be a Groebner basis."""
    items = sorted(basis_terms, key=lambda t: t[0][0])
    kept = []
    for g in items:
        le = g[0][1]
        redundant = False
        for h in kept:
            if _divides(h[0][1], le):
                redundant = True
                break
        if not redundant:
            kept.append(g)
    entries = [_basis_entry(g, mod) for g in kept]
    out = []
    for idx, g in enumerate(kept):
        others = entries[:idx] + entries[idx + 1:]
        out.append(_monic_terms(_reduce_terms(g, others, mod), mod))
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
    h = _reduce_terms(_to_terms(poly, order), entries, mod)
    return _to_poly(ring, h)


def spolynomial(f, g, order=None):
    """Monic-normalized S-polynomial of f and g."""
    ring = f.ring
    order = order or ring.grevlex
    mod = ring.p
    tails = _spair_tails(_basis_entry(_to_terms(f, order), mod),
                         _basis_entry(_to_terms(g, order), mod), order.key)
    return _to_poly(ring, _reduce_terms((), (), mod, tails))


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
