"""Merge-based division routines, kept as references for the tests.

These are the normal form, S-polynomial, exact division, sum of
products and sum or difference that the heap-and-dict accumulator
replaced.  Each reduction step re-merges the whole remaining term tuple
with the shifted reducer, which makes them quadratic in the length of
the remainder but short enough to check by eye.  The tests compare the library against them term
for term.

They work on their own terms (key, exponent tuple, coeff): exponents come
from the public tuple view Polynomial.items(), keys are the defining sums
sum_i e_i * weights[i] of the order (order_reference), and results go
back through PolyRing.from_dict, so nothing here depends on the packed
exponent layout of the ring module.
"""

from order_reference import order_key


def _to_terms(poly, order):
    ring = poly.ring
    return tuple(sorted(((order_key(ring, order, e), e, c)
                         for e, c in poly.items()), reverse=True))


def _to_poly(ring, terms):
    return ring.from_dict({e: c for _, e, c in terms})


def _merge(a, b, mod):
    """Sum of two term tuples sorted decreasing by key."""
    out = []
    ia = ib = 0
    while ia < len(a) and ib < len(b):
        ta, tb = a[ia], b[ib]
        if ta[0] > tb[0]:
            out.append(ta)
            ia += 1
        elif ta[0] < tb[0]:
            out.append(tb)
            ib += 1
        else:
            c = (ta[2] + tb[2]) % mod
            if c:
                out.append((ta[0], ta[1], c))
            ia += 1
            ib += 1
    return tuple(out) + a[ia:] + b[ib:]


def _shift(terms, dkey, dexp, c, mod):
    """terms multiplied by the monomial (dkey, dexp) and the scalar c."""
    c %= mod
    if c == 0:
        return ()
    return tuple((k + dkey, tuple(x + y for x, y in zip(e, dexp)),
                  co * c % mod) for k, e, co in terms)


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
    f, g = _to_terms(f, order), _to_terms(g, order)
    kf, ef, cf = f[0]
    kg, eg, cg = g[0]
    lcm = tuple(max(a, b) for a, b in zip(ef, eg))
    klcm = order_key(ring, order, lcm)
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
    ring = a.ring
    mod = ring.p
    bterms = _to_terms(b, ring.grevlex)
    dk, de, dc = bterms[0]
    dinv = pow(dc, mod - 2, mod)
    q = []
    rem = _to_terms(a, ring.grevlex)
    while rem:
        k, e, c = rem[0]
        if any(x < y for x, y in zip(e, de)):
            return None
        qe = tuple(x - y for x, y in zip(e, de))
        qc = c * dinv % mod
        q.append((k - dk, qe, qc))
        rem = _merge(rem, _shift(bterms, k - dk, qe, -qc, mod), mod)
    return _to_poly(ring, q)


def dot(ring, products):
    """Sum of c * a * b: b shifted by each term of a, merged one by one."""
    mod = ring.p
    terms = ()
    for c, a, b in products:
        bterms = _to_terms(b, ring.grevlex)
        for k, e, co in _to_terms(a, ring.grevlex):
            terms = _merge(terms, _shift(bterms, k, e, c * co, mod), mod)
    return _to_poly(ring, terms)


def add(a, b, sign=1):
    """a + sign * b by one merge of their term tuples."""
    ring = a.ring
    b_terms = _shift(_to_terms(b, ring.grevlex), 0, (0,) * ring.nvars,
                     sign, ring.p)
    return _to_poly(ring, _merge(_to_terms(a, ring.grevlex), b_terms,
                                 ring.p))
