"""groebner_basis against sympy's Groebner bases over GF(p).

Both sides compute the reduced grevlex basis, which is unique once the
variable order is fixed, so the two must agree as sets of monic
polynomials.  The ring's grevlex ranks its slots x1 > ... > x{d+1} >
T1 > ... > T{d+1} > t; the first test pins that order against sympy's on
an ideal whose reduced basis changes when x1 and x2 trade places.
"""

import random

import pytest

from reesgcd.groebner import groebner_basis
from reesgcd.ring import PolyRing

sympy = pytest.importorskip("sympy")

RINGS = [(p, d) for p in (7, 32003) for d in (1, 2)]


def sympy_basis(ring, gens):
    """sympy's reduced grevlex basis of gens, as monic ring elements."""
    symbols = sympy.symbols(ring.names)
    polys = [sympy.Poly.from_dict(dict(g.items()), *symbols,
                                  modulus=ring.p) for g in gens]
    basis = sympy.groebner(polys, *symbols, modulus=ring.p,
                           order="grevlex")
    return {ring.from_dict({exp: int(c) % ring.p for exp, c in
                            sympy.Poly(e, *symbols, modulus=ring.p).terms()
                            }).monic()
            for e in basis.exprs}


def random_form(rng, ring, degree):
    """A form of the given total degree in all slots, 2 to 4 terms."""
    coeffs = {}
    for _ in range(rng.randint(2, 4)):
        exp = [0] * ring.nvars
        for _ in range(degree):
            exp[rng.randrange(ring.nvars)] += 1
        coeffs[tuple(exp)] = rng.randrange(1, ring.p)
    return ring.from_dict(coeffs)


def test_variable_order_pinned_by_hand():
    # x1 > x2: S(x1^2, x1*x2 + x2^2) reduces to x2^3, a third element;
    # with x2 > x1 the basis would be the two generators
    ring = PolyRing.get(7, 1)
    x1, x2 = ring.x(1), ring.x(2)
    gens = [x1 ** 2, x1 * x2 + x2 ** 2]
    expected = {x1 ** 2, x1 * x2 + x2 ** 2, x2 ** 3}
    assert set(groebner_basis(gens)) == expected
    assert sympy_basis(ring, gens) == expected


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("p,d", RINGS)
def test_random_homogeneous_ideals_agree(p, d, seed):
    ring = PolyRing.get(p, d)
    rng = random.Random("sympy:%d:%d:%d" % (p, d, seed))
    gens = [random_form(rng, ring, rng.randint(2, 3))
            for _ in range(rng.randint(3, 4))]
    ours = {g.monic() for g in groebner_basis(gens)}
    assert ours == sympy_basis(ring, gens)
