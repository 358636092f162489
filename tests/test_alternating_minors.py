"""matrices.alternating_minors against minors() kept where the row subset
is at most the column subset, and the span bases the hypothesis check
takes from them, as property tests on random alternating matrices."""

from itertools import combinations

import pytest

from reesgcd.matrices import PolyMatrix, alternating_minors, minors
from reesgcd.ring import PolyRing

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given = hypothesis.given
settings = hypothesis.settings


def forms(ring, degree, max_terms):
    """Forms of the given degree in the x-variables with at most
    max_terms terms, zero included."""
    slots = list(ring.x_slots)

    def exponent(parts):
        exp = [0] * ring.nvars
        for slot in parts:
            exp[slot] += 1
        return tuple(exp)

    monomials = st.lists(st.sampled_from(slots), min_size=degree,
                         max_size=degree).map(exponent)
    terms = st.dictionaries(monomials, st.integers(1, ring.p - 1),
                            max_size=max_terms)
    return terms.map(ring.from_dict)


@st.composite
def alternating_matrices(draw):
    """(d, matrix): d in 2, 4, 6, linear or quadratic entries; at d=6 the
    entries are single terms or zero, which keeps all minor sizes cheap."""
    d = draw(st.sampled_from((2, 4, 6)))
    degree = draw(st.sampled_from((1, 2)))
    ring = PolyRing.get(32003, d)
    entry = forms(ring, degree, 1 if d == 6 else 3)
    size = d + 1
    rows = [[ring.zero] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            rows[i][j] = draw(entry)
            rows[j][i] = -rows[i][j]
    return d, PolyMatrix.from_rows(ring, rows)


@settings(max_examples=30, deadline=None)
@given(alternating_matrices())
def test_kept_minors_and_their_spans(case):
    d, mat = case
    ring = mat.ring
    levels = alternating_minors(mat, d)
    assert len(levels) == d
    for size, kept in enumerate(levels, 1):
        subsets = list(combinations(range(d + 1), size))
        pairs = [(rows, cols) for rows in subsets for cols in subsets]
        full = minors(mat, size)
        assert kept == [minor for (rows, cols), minor in zip(pairs, full)
                        if rows <= cols]
        assert ring.span_basis(kept) == ring.span_basis(full)


def test_rejects_non_alternating_and_bad_sizes():
    ring = PolyRing.get(32003, 2)
    x1 = ring.x(1)
    with pytest.raises(ValueError):
        alternating_minors(PolyMatrix.from_rows(ring, [[x1]]), 1)
    zero = PolyMatrix.from_rows(ring, [[ring.zero] * 3] * 3)
    assert alternating_minors(zero, 0) == []
    with pytest.raises(ValueError):
        alternating_minors(zero, 4)
