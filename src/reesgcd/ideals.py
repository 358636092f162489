"""Ideal arithmetic built on the Groebner engine.

Colons and saturations by a single variable x of a homogeneous ideal take
Bayer's route (Bayer & Stillman, "A criterion for detecting m-regularity",
Invent. Math. 87, 1987): in the graded reverse-lexicographic order with x
moved last, x divides a homogeneous polynomial exactly when it divides
its lead, so dividing every element of that basis by x (colon) or by its
full power of x (saturation) yields a Groebner basis of the result.  No
helper variable is involved, and each Ideal keeps its reduced bases per
term order, so the colon and the saturation of one ideal by the same
variable share a single run.

Every other colon or saturation, and every intersection, eliminates the
helper variable t: intersections from t*I + (1-t)*J, colons by dividing
an intersection with a principal ideal, saturations from I + (t*f - 1).
Elimination outputs arrive as reduced grevlex bases of the eliminated
ideal, so downstream membership tests reuse them without recomputation.
Colons and saturations by an ideal intersect the per-generator results.

Krull dimension is the maximal number of variables supporting no lead
monomial of the ideal, found by exhaustive search over variable subsets;
with at most 2(d+1)+1 variables that search is exact and cheap.
"""

from __future__ import annotations

from itertools import combinations

from .groebner import groebner_basis, normal_form, reduce_basis


class Ideal:
    """Generator list with lazily cached reduced Groebner bases.

    order is the term order of membership tests; gb, if given, is the
    reduced basis under it.  Bases under other orders are computed on
    request and kept, one per order, for the life of the ideal.
    """

    __slots__ = ("ring", "gens", "order", "_bases")

    def __init__(self, ring, gens, order=None, gb=None):
        self.ring = ring
        seen = {}
        for g in gens:
            g = ring.poly(g)
            if not g.is_zero and g not in seen:
                seen[g] = None
        self.gens = tuple(seen)
        self.order = order or ring.grevlex
        self._bases = {} if gb is None else {self.order: gb}

    def groebner(self, max_basis=None, max_degree=None, order=None):
        """Reduced basis under order (default: the ideal's own order)."""
        order = order or self.order
        gb = self._bases.get(order)
        if gb is None:
            gb = groebner_basis(self.gens, order, max_basis=max_basis,
                                max_degree=max_degree)
            self._bases[order] = gb
        return gb

    @property
    def is_zero(self):
        return not self.gens

    def contains(self, poly):
        if poly.is_zero:
            return True
        return normal_form(poly, self.groebner(), self.order).is_zero

    def contains_ideal(self, other):
        return all(self.contains(g) for g in other.gens)

    def equals(self, other):
        """Mutual membership of generators."""
        return self.contains_ideal(other) and other.contains_ideal(self)

    def __repr__(self):
        return "Ideal(%d gens over %r)" % (len(self.gens), self.ring)


def _check_aux_free(ideal):
    aux = ideal.ring.aux_slot
    for g in ideal.gens:
        if any(e[aux] for _, e, _ in g.terms):
            raise ValueError(
                "elimination constructions need t-free input ideals")


def _eliminate_aux(ring, gens, tag):
    """Reduced grevlex basis of (gens) intersected with the t-free subring.

    The stored term order of a Polynomial is grevlex, so the lead under
    the elimination order has to be recomputed before deciding whether an
    element survives into the eliminated ideal.  On t-free monomials the
    elimination order restricts to grevlex, which makes the surviving
    subset a reduced grevlex basis.
    """
    gb = groebner_basis(gens, ring.elim_aux)
    aux = ring.aux_slot
    key = ring.elim_aux.key
    kept = []
    for g in gb:
        lead = max(g.terms, key=lambda term: key(term[1]))
        if lead[1][aux] == 0:
            if any(e[aux] for _, e, _ in g.terms):
                raise AssertionError(
                    "elimination property violated in %s" % tag)
            kept.append(g)
    return tuple(kept)


def intersect(a, b):
    """a ∩ b via elimination of t from t*a + (1-t)*b."""
    _check_aux_free(a)
    _check_aux_free(b)
    ring = a.ring
    if a.is_zero or b.is_zero:
        return Ideal(ring, ())
    t = ring.aux
    one_minus_t = ring.one - t
    gens = [t * g for g in a.gens] + [one_minus_t * h for h in b.gens]
    kept = _eliminate_aux(ring, gens, "intersection")
    return Ideal(ring, kept, gb=kept)


def intersect_all(ideals):
    out = ideals[0]
    for nxt in ideals[1:]:
        out = intersect(out, nxt)
    return out


def _bayer_slot(a, f):
    """Slot of the variable f when Bayer's route applies, else None.

    It applies when f is a nonzero scalar times a variable other than t
    and every generator of a is homogeneous in total degree.  Terms are
    sorted by a graded order, so a polynomial is homogeneous exactly when
    its first and last terms share a degree.
    """
    if len(f.terms) != 1:
        return None
    exp = f.terms[0][1]
    if sum(exp) != 1:
        return None
    slot = exp.index(1)
    if slot == a.ring.aux_slot:
        return None
    for g in a.gens:
        if sum(g.terms[0][1]) != sum(g.terms[-1][1]):
            return None
    return slot


def _divide_out(a, slot, whole_power):
    """Basis of a under the order with slot last, each element divided by
    its full power of that variable (whole_power) or by the variable once
    where it divides."""
    ring = a.ring
    x = ring.variable(slot)
    quots = []
    for g in a.groebner(order=ring.revlex_last(slot)):
        v = min(e[slot] for _, e, _ in g.terms)
        if v > 1 and not whole_power:
            v = 1
        quots.append(g.exact_div(x ** v) if v else g)
    return Ideal(ring, quots)


def _colon_by_elimination(a, f):
    """a : f = (a ∩ (f)) / f."""
    ring = a.ring
    inter = intersect(a, Ideal(ring, [f]))
    quots = []
    for g in inter.gens:
        q = g.exact_div(f)
        if q is None:
            raise AssertionError("intersection with (f) not divisible by f")
        quots.append(q)
    # quotients of a Groebner basis of a ∩ (f) form a Groebner basis of a : f
    gb = reduce_basis(quots)
    return Ideal(ring, gb, gb=gb)


def _saturate_by_elimination(a, f):
    """a : f^inf via elimination of t from a + (t*f - 1)."""
    ring = a.ring
    gens = list(a.gens) + [ring.aux * f - ring.one]
    kept = _eliminate_aux(ring, gens, "saturation")
    return Ideal(ring, kept, gb=kept)


def colon(a, f):
    """a : f for a single nonzero polynomial f."""
    f = a.ring.poly(f)
    if f.is_zero:
        raise ZeroDivisionError("colon by the zero polynomial")
    _check_aux_free(a)
    slot = _bayer_slot(a, f)
    if slot is None:
        return _colon_by_elimination(a, f)
    return _divide_out(a, slot, False)


def colon_ideal(a, b):
    """a : b as the intersection of the single-divisor colons."""
    if b.is_zero:
        raise ZeroDivisionError("colon by the zero ideal")
    return intersect_all([colon(a, f) for f in b.gens])


def colon_power_chain(a, b, k):
    """[a : b, a : b^2, ..., a : b^k] by iterated colon."""
    chain = []
    current = a
    for _ in range(k):
        current = colon_ideal(current, b)
        chain.append(current)
    return chain


def colon_power(a, b, k):
    """a : b^k."""
    if k < 0:
        raise ValueError("negative colon power")
    if k == 0:
        return a
    return colon_power_chain(a, b, k)[-1]


def saturate_poly(a, f):
    """a : f^inf for a single nonzero polynomial f."""
    _check_aux_free(a)
    f = a.ring.poly(f)
    if f.is_zero:
        raise ZeroDivisionError("saturation by the zero polynomial")
    slot = _bayer_slot(a, f)
    if slot is None:
        return _saturate_by_elimination(a, f)
    return _divide_out(a, slot, True)


def saturate(a, b):
    """a : b^inf as the intersection of the per-generator saturations."""
    if b.is_zero:
        raise ZeroDivisionError("saturation by the zero ideal")
    return intersect_all([saturate_poly(a, f) for f in b.gens])


def dimension(ideal, ambient):
    """Krull dimension of (polynomial ring over ambient slots) / ideal.

    ambient is an iterable of variable slots; every generator must be
    supported inside it.  The unit ideal gets the sentinel -1; the zero
    ideal has dimension len(ambient).
    """
    ambient = tuple(ambient)
    aset = set(ambient)
    for g in ideal.gens:
        if not g.support() <= aset:
            raise ValueError("generator leaves the ambient variable set")
    gb = ideal.groebner()
    if any(len(g) == 1 and sum(g.lead_exp()) == 0 for g in gb):
        return -1
    supports = []
    for g in gb:
        s = frozenset(slot for slot, e in enumerate(g.lead_exp()) if e)
        supports.append(s)
    # keep only inclusion-minimal supports; the others impose no extra
    # constraint on an independent set
    supports.sort(key=len)
    minimal = []
    for s in supports:
        if not any(m <= s for m in minimal):
            minimal.append(s)
    if not minimal:
        return len(ambient)
    for size in range(len(ambient), -1, -1):
        for sub in combinations(ambient, size):
            u = set(sub)
            if not any(s <= u for s in minimal):
                return size
    raise AssertionError("unreachable: empty subset is always independent")


def height(ideal, ambient):
    """Height of a proper ideal of a polynomial ring over ambient slots."""
    dim = dimension(ideal, ambient)
    if dim < 0:
        raise ValueError("height of the unit ideal is undefined")
    return len(ambient) - dim


def height_in_hypersurface(ideal, f, ambient):
    """Height of the image of ideal in k[ambient]/(f), f nonzero.

    The hypersurface ring is Cohen-Macaulay, so height is codimension:
    dim k[ambient]/(f) - dim k[ambient]/(ideal + f).
    """
    ring = ideal.ring
    if f.is_zero:
        raise ValueError("hypersurface equation must be nonzero")
    total = Ideal(ring, list(ideal.gens) + [f])
    quotient_dim = dimension(total, ambient)
    if quotient_dim < 0:
        raise ValueError("ideal is the unit ideal modulo f")
    return (len(tuple(ambient)) - 1) - quotient_dim
