"""Merge-based division routines, kept as references for the tests.

These are the normal form, S-polynomial and exact division that the
heap-and-dict accumulator replaced.  Each reduction step re-merges the
whole remaining term tuple with the shifted reducer, which makes them
quadratic in the length of the remainder but short enough to check by
eye.  The tests compare the library against them term for term.
"""

from reesgcd.ring import Polynomial, _merge, _shift


def _to_terms(poly, order):
    key = order.key
    return tuple(sorted(((key(e), e, c) for _, e, c in poly.terms),
                        reverse=True))


def _to_poly(ring, terms):
    key = ring.grevlex.key
    return Polynomial(ring, tuple(
        sorted(((key(e), e, c) for _, e, c in terms), reverse=True)))


def reduce_terms(terms, basis, mod):
    """Full normal form of a term list against basis entries.

    basis entries are (lead_key, lead_exp, inv_lead_coeff, terms) sorted
    by increasing lead_key; the first entry whose lead divides the
    current lead term reduces it.
    """
    out = []
    work = terms
    while work:
        k, e, c = work[0]
        hit = None
        for ent in basis:
            if ent[0] > k:
                break
            if all(a <= b for a, b in zip(ent[1], e)):
                hit = ent
                break
        if hit is None:
            out.append(work[0])
            work = work[1:]
        else:
            lk, le, linv, g = hit
            dexp = tuple(a - b for a, b in zip(e, le))
            work = _merge(work, _shift(g, k - lk, dexp, -(c * linv), mod),
                          mod)
    return tuple(out)


def normal_form(poly, basis, order=None):
    """Remainder of poly on full division by basis, as groebner does it."""
    ring = poly.ring
    order = order or ring.grevlex
    mod = ring.p
    entries = []
    for g in basis:
        if g.is_zero:
            continue
        terms = _to_terms(g, order)
        lk, le, lc = terms[0]
        entries.append((lk, le, pow(lc, mod - 2, mod), terms))
    entries.sort(key=lambda ent: ent[0])
    return _to_poly(ring, reduce_terms(_to_terms(poly, order), entries, mod))


def spolynomial(f, g, order=None):
    """Monic-normalized S-polynomial by shifting both inputs and merging."""
    ring = f.ring
    order = order or ring.grevlex
    mod = ring.p
    keyf = order.key
    f, g = _to_terms(f, order), _to_terms(g, order)
    kf, ef, cf = f[0]
    kg, eg, cg = g[0]
    lcm = tuple(max(a, b) for a, b in zip(ef, eg))
    klcm = keyf(lcm)
    sf = _shift(f, klcm - kf, tuple(a - b for a, b in zip(lcm, ef)),
                pow(cf, mod - 2, mod), mod)
    sg = _shift(g, klcm - kg, tuple(a - b for a, b in zip(lcm, eg)),
                -pow(cg, mod - 2, mod), mod)
    return _to_poly(ring, _merge(sf, sg, mod))


def exact_div(a, b):
    """Quotient q with a == q * b, or None at the first remainder lead
    that the lead of b does not divide."""
    if b.is_zero:
        raise ZeroDivisionError("exact_div by zero polynomial")
    mod = a.ring.p
    dk, de, dc = b.terms[0]
    dinv = pow(dc, mod - 2, mod)
    q = []
    rem = a.terms
    while rem:
        k, e, c = rem[0]
        if any(x < y for x, y in zip(e, de)):
            return None
        qe = tuple(x - y for x, y in zip(e, de))
        qc = c * dinv % mod
        q.append((k - dk, qe, qc))
        rem = _merge(rem, _shift(b.terms, k - dk, qe, -qc, mod), mod)
    return Polynomial(a.ring, tuple(q))
