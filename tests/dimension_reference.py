"""Krull dimension by exhaustive search over variable subsets, kept as a
reference for the tests.

The dimension of S/I is that of S/in(I), and for a monomial ideal it is
the largest number of variables of which no lead monomial is a product:
the size of a largest subset of the ambient variables that contains the
support of no lead.  With at most 2(d+1)+1 variables the search is exact
and cheap.  The program reads the same number off the Hilbert numerator
of the leads (ideals.dimension), and the tests compare the two.
"""

from itertools import combinations


def dimension_by_subsets(ideal, ambient):
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
