"""The token walker that parsed polynomials before the one-pass parser of
PolyRing.parse: it reads one token at a time, collects exponent lists and
builds the polynomial with PolyRing.from_dict.  It accepts the same
strings and builds the same polynomials; the tests compare the two."""

import re

from reesgcd.ring import ParseError

_TOKEN_RE = re.compile(r"\d+|[A-Za-z_][A-Za-z0-9_]*|[*^+\-]|\S")


def parse(ring, src):
    """Parse a signed sum of terms ``c*v1^e1*...*vk^ek`` in ring."""
    tokens = []
    for mo in _TOKEN_RE.finditer(src):
        tokens.append((mo.group(0), mo.start()))
    if not tokens:
        raise ParseError("empty input", 0)
    coeffs = {}
    i = 0
    ntok = len(tokens)
    while i < ntok:
        sign = 1
        tok, pos = tokens[i]
        if tok in "+-":
            if tok == "-":
                sign = -1
            i += 1
            if i >= ntok:
                raise ParseError("dangling sign", pos)
        coeff = sign
        exp = [0] * ring.nvars
        while True:
            tok, pos = tokens[i]
            if tok.isdigit():
                coeff *= int(tok)
                i += 1
            elif tok in ring.slot_of:
                slot = ring.slot_of[tok]
                i += 1
                e = 1
                if i < ntok and tokens[i][0] == "^":
                    i += 1
                    if i >= ntok or not tokens[i][0].isdigit():
                        raise ParseError("malformed exponent", pos)
                    e = int(tokens[i][0])
                    i += 1
                exp[slot] += e
            elif tok[0].isalpha() or tok[0] == "_":
                raise ParseError("unknown variable %r" % tok, pos)
            elif tok == "^":
                raise ParseError(
                    "exponent allowed only on a variable", pos)
            else:
                raise ParseError("unexpected token %r" % tok, pos)
            if i < ntok and tokens[i][0] == "*":
                i += 1
                if i >= ntok:
                    raise ParseError("dangling '*'", pos)
                continue
            break
        if i < ntok and tokens[i][0] not in "+-":
            raise ParseError(
                "unexpected token %r" % tokens[i][0], tokens[i][1])
        exp = tuple(exp)
        coeffs[exp] = coeffs.get(exp, 0) + coeff
    return ring.from_dict(coeffs)
