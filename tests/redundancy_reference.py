"""Direct redundancy test, the reference for the graded shortcut of
pipeline.minimality_and_invariants."""

from reesgcd.ideals import Ideal


def redundant_generators(ring, gens):
    """Indices of generators contained in the ideal of the others.

    Direct membership tests, one Groebner run per generator; intended
    for small inputs.
    """
    gens = [ring.poly(g) for g in gens]
    out = []
    for i in range(len(gens)):
        others = gens[:i] + gens[i + 1:]
        if Ideal(ring, others).contains(gens[i]):
            out.append(i)
    return out
