"""Colon and saturation by eliminating the helper variable t, kept as
references for the tests.

The library computes colons and saturations only by a single variable,
on Bayer's revlex route.  These routes accept any nonzero divisor: a
colon divides the intersection a ∩ (f), itself an elimination run, by f;
a saturation eliminates t from a + (t*f - 1).  The tests compare the
library against them on random homogeneous ideals.
"""

from reesgcd.groebner import _autoreduce, _to_poly, _to_terms
from reesgcd.ideals import Ideal, _eliminate_aux, intersect


def reduce_basis(polys, order=None):
    """Reduced monic form of a set already known to be a Groebner basis."""
    polys = [g for g in polys if not g.is_zero]
    if not polys:
        return ()
    ring = polys[0].ring
    order = order or ring.grevlex
    terms = [_to_terms(g, order) for g in polys]
    return tuple(_to_poly(ring, t, order)
                 for t in _autoreduce(terms, ring.p, ring.guard))


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
