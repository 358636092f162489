"""Ideal arithmetic built on the Groebner engine.

Colons and saturations are taken only of homogeneous, t-free ideals and
only by a single variable x other than t (or a nonzero scalar multiple of
one); any other input raises ValueError.  They follow Bayer's route
(Bayer & Stillman, "A criterion for detecting m-regularity", Invent.
Math. 87, 1987): in the graded reverse-lexicographic order with x moved
last, x divides a homogeneous polynomial exactly when it divides its
lead, so dividing every element of that basis by x (colon) or by its
full power of x (saturation) yields a Groebner basis of the result.  Each
Ideal keeps its reduced bases per term order, so the colon and the
saturation of one ideal by the same variable share a single run.
Colons and saturations by an ideal of variables intersect the
per-variable results.

Every quotient is kept under its reduced grevlex basis, its canonical
form.  The leads of Bayer's quotient list give the quotient's bigraded
Hilbert series.  An ideal keeps the quotients it formed, in order, and
one scan of them finds a quotient it already holds: one formed from the
same quotient list, or, for a bigraded list, one with the same series
that holds every element of the list, asked of it by lead terms as any
membership is (a member still reduces to zero).  That is the quotient,
and no run is made for it.  So a repeated colon or saturation is the
held object, and bigraded quotients that are the same ideal (by
different variables, or a colon and a saturation) are the same object,
whose generators are its basis.  Any other quotient is formed by the
grevlex run the series drives (Traverso, J. Symb. Comp. 22, 1996); the
run checks the series of its own leads against it at the end, and on a
list that is a grevlex basis already it admits only the elements its
reduced basis keeps.

A quotient remembers its division, in one record: the generators of its
dividend a, Bayer's quotient list and the divided elements.  The first
and the last decide containment: the undivided elements of the list lie
in a, so an ideal whose generators include a's contains the quotient
exactly when it contains the divided elements.  Each Bayer list that
lands on the quotient is its Groebner basis under the order it was
divided in, so the quotient's basis under that order is the list's
interreduction, with no run.

Intersections are the only elimination constructions: the helper
variable t is eliminated from t*I + (1-t)*J, and the output arrives as a
reduced grevlex basis of the intersection, so downstream membership tests
reuse it without recomputation.  An ideal meets itself by identity, with
no run; equal quotients are one object, so a fold of equal quotients (on
the random m = 1 instances of the tests, every fold) eliminates nothing.
An intersection whose elimination returns the first argument's own
generators is that argument, returned as it is, so a quotient keeps its
record through a fold of nested ideals.  The (1-t) block of a quotient
is the quotient list of its record: with its basis there, golden's
elimination runs grow past 33 basis elements.  The quotients live on the
Ideal objects of one verification, not in the module.

The d+1 runs of Bayer's route on one ideal, one per variable, share its
bigraded Hilbert series.  Once an ideal of t-free bihomogeneous
generators holds a full basis under any order (its first run, or the
basis an intersection hands over), it reads the series' numerator off
that basis once, and every later run under a graded order is driven by
it (groebner.groebner_basis, hilbert): the S-pairs of the bidegrees
where the run's lead ideal is complete are not reduced.  A quotient
starts with the numerator its quotient list gave.

Membership is decided on a grevlex basis.  The ideals of the problem are
bihomogeneous in (x, T), and for such an ideal and bihomogeneous queries
a basis truncated at the box of the queries' bidegrees gives the same
normal forms as the full one (groebner.groebner_basis, within): an Ideal
keeps one such basis, with its box, until its full basis is computed.
A generator or query that is not bihomogeneous, or holds t, takes the
full basis, so the grading never decides soundness.  Many polynomials
are asked about at once, on one basis sized for all (Ideal.outside,
Ideal.proportional).  Membership needs only the lead term of the normal
form, which top reduction finds (groebner.normal_form_lead): a
non-member is reduced only up to its first irreducible term.  The normal
form modulo any basis that covers the polynomial's bidegree, truncated
or full, is the unique one, so an Ideal keeps that lead term for every
polynomial it reduces, and a polynomial asked about twice is reduced
once.  Normal forms are also linear, so two polynomials g and h have
normal forms that both vanish or are nonzero multiples of each other
exactly when their kept lead terms both vanish, or share a monomial and
h - c*g reduces to zero for c the ratio of their coefficients.  A pair
then costs at most one reduction to the end, that of h - c*g, and
neither g nor h is reduced in full.

Krull dimension comes from the Hilbert numerator of the grevlex leads
in the total degree (groebner.hilbert_numerator, by_degree): the height
is the order to which it vanishes at 1.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate

from .groebner import (
    groebner_basis,
    hilbert_numerator,
    interreduce,
    normal_form_lead,
    reduction_entries,
)


class Ideal:
    """Generator list with lazily cached reduced Groebner bases.

    Membership tests run under grevlex; gb, if given, is the reduced
    grevlex basis.  Bases under other orders are computed on request and
    kept, one per order, for the life of the ideal.  So are the quotient
    ideals that _divide_out forms from its bases, in the order they were
    formed (_quotients).

    Beside them it keeps one grevlex basis truncated at a bidegree box,
    with the box (see basis_for): the membership basis of a bigraded
    ideal whose full basis nobody has asked for; and the numerator of
    its bigraded Hilbert series, read off its first full basis, which
    drives its later runs.  A quotient also keeps the record of the
    division that formed it (_division): the generators of its dividend;
    Bayer's quotient list, whose leads gave its numerator and which is
    the (1-t) block of the intersections it enters as second argument;
    and the elements that were divided, which contains_ideal tests in
    place of its generators.  And every Bayer list that landed on it, by
    order (_bayer), until groebner interreduces the one of the order it
    is asked for.  And the lead term of the normal form of every
    polynomial it has reduced, zero for a member (_leads), with the
    reduction entries of the last membership basis, built once for all
    of its reductions (_entries).
    """

    __slots__ = ("ring", "gens", "_bases", "_quotients", "_truncated",
                 "_hilbert", "_division", "_bayer", "_leads", "_entries")

    def __init__(self, ring, gens, gb=None):
        self.ring = ring
        seen = {}
        for g in gens:
            g = ring.poly(g)
            if not g.is_zero and g not in seen:
                seen[g] = None
        self.gens = tuple(seen)
        self._bases = {} if gb is None else {ring.grevlex: gb}
        self._quotients = []
        self._truncated = None
        self._hilbert = None
        self._division = None
        self._bayer = {}
        self._leads = {}
        self._entries = None

    def groebner(self, order=None):
        """Reduced basis under order (default: grevlex).

        A quotient holding a Bayer list of that order interreduces it.
        Otherwise every run after the first full basis of a bigraded
        ideal, under a graded order, is driven by the Hilbert series of
        that basis."""
        order = order or self.ring.grevlex
        gb = self._bases.get(order)
        if gb is None:
            bayer = self._bayer.pop(order, None)
            if bayer is not None:
                gb = interreduce(bayer, order)
            else:
                hilbert = None
                if self._bases and self.ring.is_graded(order):
                    hilbert = self._numerator()
                gb = groebner_basis(self.gens, order, hilbert=hilbert)
            self._bases[order] = gb
        return gb

    def _numerator(self):
        """The bigraded Hilbert numerator read off the first full basis,
        once, or None unless every generator is t-free and
        bihomogeneous."""
        if self._hilbert is None:
            self._hilbert = False
            if _bigraded_box(self.gens) is not None:
                order, basis = next(iter(self._bases.items()))
                self._hilbert = hilbert_numerator(basis, order)
        return None if self._hilbert is False else self._hilbert

    @property
    def is_zero(self):
        return not self.gens

    def basis_for(self, polys):
        """A grevlex basis giving the normal form modulo self of every
        polynomial in polys.

        The cached full basis when there is one.  Otherwise, when every
        generator and every nonzero query is bihomogeneous and t-free,
        the basis truncated at the box of the queries' bidegrees: the
        kept one if its box covers them, else a new run over the join of
        both boxes, which replaces it.  Anything else takes groebner(),
        so soundness never rests on the grading.
        """
        gb = self._bases.get(self.ring.grevlex)
        if gb is not None:
            return gb
        box = _bigraded_box(polys)
        if box is None or (self._truncated is None
                           and _bigraded_box(self.gens) is None):
            return self.groebner()
        if self._truncated is not None:
            have, basis = self._truncated
            if box[0] <= have[0] and box[1] <= have[1]:
                return basis
            box = (max(box[0], have[0]), max(box[1], have[1]))
        basis = groebner_basis(self.gens, self.ring.grevlex, within=box)
        self._truncated = (box, basis)
        return basis

    def _entries_for(self, polys):
        """The reduction entries of basis_for(polys), built once for each
        basis it hands out."""
        basis = self.basis_for(polys)
        if self._entries is None or self._entries[0] is not basis:
            self._entries = (basis, reduction_entries(basis, self.ring))
        return self._entries[1]

    def _lead(self, poly):
        """The lead term of the normal form of poly modulo self, zero for
        a member, kept for the life of the ideal: modulo any basis that
        covers poly's bidegree, truncated or full, it is the unique
        one."""
        if poly.is_zero:
            return poly
        lead = self._leads.get(poly)
        if lead is None:
            lead = normal_form_lead(poly, self._entries_for((poly,)))
            self._leads[poly] = lead
        return lead

    def contains(self, poly):
        return self._lead(poly).is_zero

    def outside(self, polys):
        """The nonzero polys that contains rejects, lazily and in order,
        on a membership basis sized once for all of them."""
        polys = [g for g in polys if not g.is_zero]
        if polys:
            self.basis_for(polys)
        return (g for g in polys if not self.contains(g))

    def proportional(self, pairs):
        """For each pair (g, h), lazily and in order, whether the normal
        forms of g and h modulo self both vanish or are nonzero multiples
        of each other, on a membership basis sized once for all pairs.

        Their kept lead terms decide unless both are nonzero with the
        same monomial.  Then, c the ratio of their coefficients, the
        normal forms are multiples exactly when h - c*g reduces to zero,
        since the normal form is linear.  That reduction runs on the
        basis that serves g and h: each term of h - c*g has the bidegree
        of a term of g or h, or the basis is the full one."""
        pairs = tuple(pairs)
        nonzero = [f for pair in pairs for f in pair if not f.is_zero]
        if nonzero:
            self.basis_for(nonzero)
        return (self._proportional(g, h) for g, h in pairs)

    def _proportional(self, g, h):
        a, b = self._lead(g), self._lead(h)
        if a.is_zero or b.is_zero:
            return a.is_zero and b.is_zero
        (exp_a, coeff_a), = a.items()
        (exp_b, coeff_b), = b.items()
        if exp_a != exp_b:
            return False
        p = self.ring.p
        c = coeff_b * pow(coeff_a, p - 2, p) % p
        return normal_form_lead(h, self._entries_for((g, h)),
                                minus=(c, g)).is_zero

    def contains_ideal(self, other):
        """Membership of every generator of other, on one basis sized
        for all of them (outside), stopping at the first non-member.

        A quotient other = a : x or a : x^inf is generated by the Bayer
        list of its first division, whose undivided elements are elements
        of a's basis.  So when every generator of a is one of self's,
        self contains other exactly when it contains the divided
        elements, and only they are tested.  The proof rests only on
        other being the ideal of that list, as _divide_out makes it, not
        on Bayer's theorem."""
        gens = other.gens
        if other._division is not None:
            dividend, _, divided = other._division
            if set(dividend) <= set(self.gens):
                gens = divided
        return next(self.outside(gens), None) is None

    def equals(self, other):
        """Mutual membership of generators."""
        return self.contains_ideal(other) and other.contains_ideal(self)

    def __repr__(self):
        return "Ideal(%d gens over %r)" % (len(self.gens), self.ring)


def _bigraded_box(polys):
    """The componentwise largest bidegree of the nonzero polys, or None
    unless there is one and every one is t-free and bihomogeneous."""
    box = None
    for g in polys:
        if g.is_zero:
            continue
        bd = g.bidegree()
        if bd is None or g.involves(g.ring.aux_slot):
            return None
        box = bd if box is None else (max(box[0], bd[0]),
                                      max(box[1], bd[1]))
    return box


def _check_aux_free(ideal):
    aux = ideal.ring.aux_slot
    for g in ideal.gens:
        if g.involves(aux):
            raise ValueError(
                "ideal operations need t-free input ideals")


def _eliminate_aux(ring, gens, tag):
    """Reduced grevlex basis of (gens) intersected with the t-free subring.

    The elimination order puts every monomial with t above every t-free
    one, so an element survives exactly when it is t-free, and the
    survivors lead the basis, which is sorted by increasing lead.  On
    t-free monomials the elimination order restricts to grevlex, which
    makes the surviving subset a reduced grevlex basis.
    """
    gb = groebner_basis(gens, ring.elim_aux)
    aux = ring.aux_slot
    kept = tuple(g for g in gb if not g.involves(aux))
    if gb[:len(kept)] != kept:
        raise AssertionError("elimination property violated in %s" % tag)
    return kept


def intersect(a, b):
    """a ∩ b, under its reduced grevlex basis.

    An ideal meets itself by identity: a is b returns a, with no
    elimination run.  Otherwise t is eliminated from t*a + (1-t)*b, the
    (1-t) block taken over b's quotient list when b is a quotient
    (_divide_out) and over its generators otherwise.  When the run
    returns a's own generators, a is contained in b and a itself is
    returned, with whatever it keeps (a quotient's record of its
    division among them).
    """
    _check_aux_free(a)
    _check_aux_free(b)
    if a is b:
        return a
    ring = a.ring
    if a.is_zero or b.is_zero:
        return Ideal(ring, ())
    t = ring.aux
    one_minus_t = ring.one - t
    block = b._division[1] if b._division else b.gens
    gens = [t * g for g in a.gens] + [one_minus_t * h for h in block]
    kept = _eliminate_aux(ring, gens, "intersection")
    return a if kept == a.gens else Ideal(ring, kept, gb=kept)


def _bayer_slot(a, f):
    """Slot of the variable f, when Bayer's route applies to a : f.

    f must be a nonzero scalar times a variable other than t and every
    generator of the t-free ideal a homogeneous in total degree;
    otherwise ValueError.
    """
    exp = f.lead_exp()
    if len(f) != 1 or sum(exp) != 1:
        raise ValueError("divisor must be a single variable, got %s" % f)
    slot = exp.index(1)
    if slot == a.ring.aux_slot:
        raise ValueError("divisor must not be the helper variable t")
    for g in a.gens:
        if not g.is_homogeneous():
            raise ValueError("ideal is not homogeneous: %s" % g)
    return slot


def _divide_out(a, slot, whole_power):
    """The quotient of a by the variable in slot, under its reduced
    grevlex basis, kept on a under its quotient list.

    Each element of a's basis under the order with slot last is divided
    by its full power of that variable (whole_power) or by the variable
    once where it divides.  By Bayer's theorem the quotients form a
    Groebner basis of the quotient ideal under that order, so their
    leads, each the element's lead less the removed power, give the
    ideal's bigraded Hilbert series.  A quotient a holds that is the
    ideal of the list (_held_quotient) is returned with no run.
    Otherwise the series drives the grevlex run that makes the canonical
    basis.  The quotient Ideal has that basis as its generators, the
    series as its numerator, and the record of this division: a's
    generators and the divided elements, for contains_ideal, with the
    quotient list between them, the (1-t) block of the intersections
    it enters.  Every list that lands on the quotient, by this
    division or a later one, is kept under its order until the
    quotient's basis under that order is asked for.

    Input that is not bihomogeneous has no series: it takes a plain run
    and makes a new quotient, which only its own list finds again.
    """
    ring = a.ring
    order = ring.revlex_last(slot)
    x = ring.variable(slot)
    quots = []
    leads = []
    divided = []
    for g in a.groebner(order=order):
        lead = list(g.lead_exp(order))
        v = lead[slot] if whole_power else min(lead[slot], 1)
        if v:
            lead[slot] -= v
            g = g.exact_div(x ** v)
            divided.append(g)
        quots.append(g)
        leads.append(ring.monomial(lead))
    quots = tuple(quots)
    hilbert = None
    if _bigraded_box(quots) is not None:
        hilbert = hilbert_numerator(leads)
    found = _held_quotient(a, quots, hilbert)
    if found is None:
        basis = groebner_basis(quots, ring.grevlex, hilbert=hilbert)
        found = Ideal(ring, basis, gb=basis)
        found._hilbert = hilbert
        found._division = (a.gens, quots, tuple(divided))
        a._quotients.append(found)
    if order not in found._bases:
        found._bayer.setdefault(order, quots)
    return found


def _held_quotient(a, quots, hilbert):
    """The quotient kept on a that is the ideal Q' of quots, or None.

    A kept quotient Q is Q' when it was formed from quots itself, or
    when quots is bigraded, the numerator hilbert of its leads equals
    Q's, and Q holds every element of quots, asked of Q by lead terms
    (Ideal.outside) on its reduced grevlex basis: a member still reduces
    to zero, and a non-member ends the test at its first irreducible
    term.  Each lead is the lead of an element of Q', so HF(R/Q') <=
    HF(R/(leads)) = HF(R/Q); Q' in Q gives HF(R/Q) <= HF(R/Q'); so the
    series agree, and with Q' in Q that makes Q' = Q.  Kept quotients
    are tried in the order they were made.
    """
    for held in a._quotients:
        if held._division[1] == quots or (
                hilbert is not None and held._hilbert == hilbert
                and next(held.outside(quots), None) is None):
            return held
    return None


def colon(a, f):
    """a : f for a homogeneous ideal a and a single variable f."""
    f = a.ring.poly(f)
    if f.is_zero:
        raise ZeroDivisionError("colon by the zero polynomial")
    _check_aux_free(a)
    return _divide_out(a, _bayer_slot(a, f), False)


def colon_power_chain(a, b, k):
    """[a : b, a : b^2, ..., a : b^k] by iterated colon, b generated by
    variables; each step intersects the colons by b's generators."""
    if b.is_zero:
        raise ZeroDivisionError("colon by the zero ideal")
    chain = []
    current = a
    for _ in range(k):
        current = reduce(intersect, [colon(current, f) for f in b.gens])
        chain.append(current)
    return chain


def saturate_poly(a, f):
    """a : f^inf for a homogeneous ideal a and a single variable f."""
    _check_aux_free(a)
    f = a.ring.poly(f)
    if f.is_zero:
        raise ZeroDivisionError("saturation by the zero polynomial")
    return _divide_out(a, _bayer_slot(a, f), True)


def saturate(a, b):
    """a : b^inf as the intersection of the per-generator saturations."""
    if b.is_zero:
        raise ZeroDivisionError("saturation by the zero ideal")
    return reduce(intersect, [saturate_poly(a, f) for f in b.gens])


def dimension(ideal, ambient):
    """Krull dimension of (polynomial ring over ambient slots) / ideal,
    for a t-free ideal; t in its basis raises ValueError.

    ambient is an iterable of variable slots; every generator must be
    supported inside it.  The unit ideal, whose numerator is zero, gets
    the sentinel -1; the zero ideal has dimension len(ambient).

    For R = k[x, T], dim R/I = dim R/in(I) under any term order (Cox,
    Little & O'Shea, "Ideals, Varieties, and Algorithms", ch. 9), and the
    Hilbert series N(z) / (1 - z)^n of R/in(I), N the numerator in the
    total degree that hilbert_numerator reads off the reduced grevlex
    basis and n the number of variables of R, has a pole of order
    dim R/in(I) at z = 1.  So the height of I is the order to which N(z)
    vanishes there; the variables outside ambient are free over I and
    leave it unchanged.
    """
    ambient = tuple(ambient)
    aset = set(ambient)
    for g in ideal.gens:
        if not g.support() <= aset:
            raise ValueError("generator leaves the ambient variable set")
    num = hilbert_numerator(ideal.groebner(), by_degree=True)
    if not num:
        return -1
    coeffs = [0] * (max(num) + 1)
    for k, c in num.items():
        coeffs[k] = c
    codim = 0
    # dividing by 1 - z takes prefix sums; the last one is N(1) = 0
    while not sum(coeffs):
        coeffs = list(accumulate(coeffs))[:-1]
        codim += 1
    return len(ambient) - codim


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
