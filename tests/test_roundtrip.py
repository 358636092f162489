"""The output grammar re-parses bit-exactly: ring.parse(str(g)) == g for
random polynomials in every slot, t included, with exponents up to
EXP_MAX, in the rings of d = 1, 2, 4 over a small and a large prime."""

import pytest

from reesgcd.ring import EXP_MAX, PolyRing

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given = hypothesis.given

RINGS = tuple(PolyRing.get(p, d) for p in (7, 32003) for d in (1, 2, 4))


@st.composite
def ring_polys(draw):
    ring = draw(st.sampled_from(RINGS))
    exponent = st.one_of(st.integers(0, 3), st.integers(0, EXP_MAX))
    exps = st.tuples(*[exponent] * ring.nvars)
    coeffs = st.integers(1, ring.p - 1)
    return ring, ring.from_dict(draw(st.dictionaries(exps, coeffs,
                                                     max_size=6)))


@given(ring_polys())
def test_parse_inverts_str(case):
    ring, g = case
    assert ring.parse(str(g)) == g
