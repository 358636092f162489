"""The output grammar re-parses bit-exactly: ring.parse(str(g)) == g for
random polynomials in every slot, t included, with exponents up to
EXP_MAX, in the rings of d = 1, 2, 4 over a small and a large prime.
The one-pass parser agrees with the token walker of parse_reference.py
on random token strings, valid and invalid, and the gcds and generators
that ``run --json`` prints re-parse to the polynomials of the trace."""

import contextlib
import io
import json

import pytest

from reesgcd import cli, pipeline
from reesgcd.ring import EXP_MAX, ExponentOverflow, ParseError, PolyRing

import parse_reference

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


# Tokens of the grammar and tokens it rejects: names of the ring and
# others, numbers around the exponent bound and with leading zeros,
# operators, whitespace and stray characters.
NUMBERS = ("0", "1", "2", "7", "13", "007", "20000", "32767", "32768",
           "40000", "65536", "99999")
OTHER = ("y", "x0", "x10", "T", "_a", "x1x2", "+", "-", "*", "^", "$", ".")
SPACE = ("", " ", "  ", "\t", "\n")


@st.composite
def token_strings(draw):
    ring = draw(st.sampled_from(RINGS))
    token = st.sampled_from(ring.names + NUMBERS + OTHER)
    valid_factor = st.one_of(
        st.sampled_from(ring.names + NUMBERS),
        st.builds("{}^{}".format, st.sampled_from(ring.names),
                  st.sampled_from(NUMBERS)))
    # mostly well-formed sums of products, sometimes with a stray token
    # spliced in, sometimes loose tokens
    pieces = draw(st.lists(st.one_of(
        st.builds("*".join, st.lists(valid_factor, min_size=1,
                                     max_size=4)),
        token), max_size=6))
    ops = draw(st.lists(st.sampled_from(("+", "-", "*", " ", "")),
                        min_size=len(pieces), max_size=len(pieces)))
    spaces = draw(st.lists(st.sampled_from(SPACE), min_size=2 * len(pieces),
                           max_size=2 * len(pieces)))
    parts = []
    for i, (op, piece) in enumerate(zip(ops, pieces)):
        if i or op in "+-":
            parts.append(spaces[2 * i] + op + spaces[2 * i + 1])
        parts.append(piece)
    return ring, "".join(parts)


def outcome(parse, ring, src):
    try:
        return "ok", parse(ring, src)
    except ParseError:
        return ("parse error",)
    except ExponentOverflow as exc:
        return "overflow", str(exc)


@hypothesis.settings(max_examples=500)
@given(token_strings())
def test_agrees_with_the_token_walker(case):
    ring, src = case
    assert outcome(PolyRing.parse, ring, src) == \
        outcome(parse_reference.parse, ring, src)


@pytest.mark.parametrize("src", [
    "x1^32767", "x1^32768", "x1^20000*x1^20000",
    "x1^30000*x1^30000*x1^30000", "x1^40000 - x1^40000",
    "7*x1^40000", "x2*T1^40000*x1^40000",
    # like terms past the field merge, each coefficient counted once
    "2*x1^40000 + x1^40000*3", "-2*x1^40000 - x1^40000*5", "2 * x1 ^ 3 * 5 * x1 - t",
    " - x1^007*x1 + 3*t^2*t", "x1*", "2^3", "x1 x2", "2 3",
])
def test_agrees_with_the_token_walker_on_the_boundaries(src):
    for ring in RINGS:
        assert outcome(PolyRing.parse, ring, src) == \
            outcome(parse_reference.parse, ring, src)


@pytest.mark.parametrize("prime", [32003, 65537])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_run_json_reparses_to_the_trace(prime, k, tmp_path):
    inst = pipeline.random_instance(4, 3, prime, seed=k)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(inst.to_dict()))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["run", "--json", str(path)]) == 0
    doc = json.loads(out.getvalue())["iterations"]
    trace = pipeline.gcd_iterations(inst)
    ring = inst.ring
    assert [ring.parse(s) for s in doc["gcds"]] == list(trace.gcds)
    assert [ring.parse(s) for s in doc["generators"]] == \
        [g for g in trace.generators() if not g.is_zero]
