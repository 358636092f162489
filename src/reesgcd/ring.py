"""Sparse multivariate polynomial arithmetic over a prime field.

Every computation runs inside F_p[x1..x{d+1}, T1..T{d+1}, t].  The x-block
and the T-block carry the bigrading deg x_i = (1, 0), deg T_i = (0, 1);
the trailing variable t is reserved for elimination constructions and does
not count toward the bigrading.

A polynomial is an immutable tuple of terms (key, exp, coeff), sorted
strictly decreasing under graded reverse-lexicographic order on all
variables.  Coefficients are integers in [1, p); the zero polynomial is
the empty tuple.  A monomial order is an integer key of the exponent
that adds under multiplication, so the key of a product is the sum of
the factors' keys.  Each of the ring's orders (grevlex, revlex_last
of every slot, elim_aux) is built with the ring and defines its key as
a closed form of the packed exponent, sharing its 16-bit fields: the
grevlex key of exp is (total degree << 16*nvars) - exp, and a change of
term order costs a few integer operations per term.

The exponent exp is one packed integer (Monagan & Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007).  Variable slot i owns the EXP_BITS = 16 bits starting at bit 16*i;
the top bit of each field is a guard that stays clear, so an exponent is
at most EXP_MAX = 32767 and no field ever carries into the next.  Hence
the exponent of a product is the sum of the exponents, a divides b exactly
when b - a borrows in no field, i.e. (b - a) & guard == 0, and the lcm is
a field-wise maximum taken by a few mask operations (_lcm).  Exponent
tuples appear only at the edges: from_dict, term and formatting take or
print them, and Polynomial.items() and lead_exp() are the public tuple
view; PolyRing.bidegree_of and degree_of read the bidegree and the total
degree of a packed exponent.  Outside this module only the groebner
reduction loop reads term tuples.  An exponent past EXP_MAX raises
ExponentOverflow, whether it comes from input or from a product or shift
that would set a guard bit; it never wraps.

Parsing builds packed terms directly, in one pass.  A compiled grammar
over the ring's variable names checks the string term by term; each
term then starts from exponent 0, and a factor v^e adds e << 16*slot(v)
to it, from a table keyed by variable name, so no exponent tuple is
formed.  A factor that sets a guard bit sends its term to exponent
tuples, which report the overflow; like terms merge on the packed
exponent, each surviving term is keyed once by the grevlex key, and the
terms are sorted once.

One add loop (_add_shifted) puts shifted summands into an accumulator,
a dict from key to pending coefficient and exponent.  PolyRing.dot forms
+, -, products and sums of products, among them the Laplace expansions
of matrices.minors and matrices.det: it adds every shifted summand into
the dict and drains it once, with one sort, since a sum never needs its
largest pending term before the end, so no partial product or partial
sum is built.  Every product is one such call, a product by one term
among them; only a scaling (scale, negation) is a single pass instead.
Division (exact_div here, normal forms and S-pairs in groebner) also
keeps a max-heap of the pending keys: it pops the largest key, reduces
its coefficient mod p once and adds the reducer's shifted tail into the
dict.  Every tail key is below the popped one, so a popped key never
returns, and a division costs O(n log n) in the number of terms it
touches instead of re-merging the whole remainder at every step.
"""

from __future__ import annotations

import re
import struct
from collections import namedtuple
from heapq import heappop, heappush
from operator import mul

DEFAULT_PRIME = 32003

# Packed exponents: slot i owns bits [EXP_BITS*i, EXP_BITS*(i+1)), whose
# top bit is the guard.  PolyRing reads and writes the fields as unsigned
# 16-bit struct items, so EXP_BITS is fixed at 16.
EXP_BITS = 16
EXP_MAX = (1 << (EXP_BITS - 1)) - 1
# 2^EXP_BITS is 1 modulo this, so a packed block is its field sum modulo it
_DIGIT_SUM_MOD = (1 << EXP_BITS) - 1

# The first 13 prime bases decide primality exactly below _MR_BOUND
# (Sorenson & Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n):
    """Deterministic Miller-Rabin, exact for n < 3317044064679887385961981.

    Raises ValueError for a larger n, whose answer would not be exact.
    """
    if n >= _MR_BOUND:
        raise ValueError("modulus %d is too large: primality is decided "
                         "exactly only below %d" % (n, _MR_BOUND))
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    r, s = n - 1, 0
    while r % 2 == 0:
        r //= 2
        s += 1
    for a in _MR_BASES:
        y = pow(a, r, n)
        if y in (1, n - 1):
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


class MonomialOrder:
    """A total order on exponents, named, whose key(e) of a packed
    exponent e is an integer that compares as the order does and adds
    under monomial multiplication.

    The ring's orders are its subclasses, each key a closed form of the
    packed exponent in a few big-integer operations.  A key shares the
    exponent's 16-bit fields: the grevlex key (degree << 16*nvars) - e
    has the degree above every field, and minus each exponent in the
    field where e has it, so a larger degree wins and, at equal degree,
    the smaller exponent in the last slot that differs.  revlex_last
    moves one field to the top of e before it is subtracted, so its
    variable becomes the smallest, and elim_aux weighs e_t above all of
    the grevlex key of the rest.
    """

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return "MonomialOrder(%r)" % (self.name,)


class _Grevlex(MonomialOrder):
    """Graded reverse-lexicographic order on all of the ring's slots, the
    last one smallest: key(e) = (degree(e) << 16*nvars) - e.  The keys
    read the degree as PolyRing.degree_of does, its digit sum inlined."""

    __slots__ = ("_degree", "_wide", "_shift")

    def __init__(self, ring, name="grevlex"):
        super().__init__(name)
        self._degree = ring.degree_of
        self._wide = ring._wide_total
        self._shift = EXP_BITS * ring.nvars

    def key(self, exp):
        deg = self._degree(exp) if exp & self._wide else exp % _DIGIT_SUM_MOD
        return (deg << self._shift) - exp


class _RevlexLast(_Grevlex):
    """Grevlex with the variable in slot last moved to be the smallest:
    the grevlex key of e with field last moved to the top field and the
    fields above it one field down."""

    __slots__ = ("_low", "_high", "_field", "_lift")

    def __init__(self, ring, last):
        super().__init__(ring, "revlex-last-" + ring.names[last])
        top = EXP_BITS * (ring.nvars - 1)
        self._low = (1 << (EXP_BITS * last)) - 1
        self._high = ((1 << top) - 1) ^ self._low
        self._field = _DIGIT_SUM_MOD << (EXP_BITS * last)
        self._lift = top - EXP_BITS * last

    def key(self, exp):
        deg = self._degree(exp) if exp & self._wide else exp % _DIGIT_SUM_MOD
        moved = ((exp & self._low) | ((exp >> EXP_BITS) & self._high)
                 | ((exp & self._field) << self._lift))
        return (deg << self._shift) - moved


class _ElimAux(MonomialOrder):
    """t above every t-free monomial, grevlex on the rest:
    key(e) = e_t*((2^16 - 1) << 16*nvars) + (degree(rest) << 16*aux) - rest,
    rest being e without its t field, the top one.  The grevlex keys of
    two rests differ by less than (aux << 16) << 16*aux, below the t
    weight ((2^16 - 1) << 16) << 16*aux, so one more t outweighs any
    rest."""

    __slots__ = ("_degree", "_wide", "_shift", "_rest", "_t_weight")

    def __init__(self, ring):
        super().__init__("elim-aux")
        self._degree = ring.degree_of
        self._wide = ring._wide_total
        self._shift = EXP_BITS * ring.aux_slot
        self._rest = (1 << self._shift) - 1
        self._t_weight = _DIGIT_SUM_MOD << (EXP_BITS * ring.nvars)

    def key(self, exp):
        rest = exp & self._rest
        deg = (self._degree(rest) if rest & self._wide
               else rest % _DIGIT_SUM_MOD)
        return ((exp >> self._shift) * self._t_weight
                + (deg << self._shift) - rest)


BiDegree = namedtuple("BiDegree", ["x", "t"])

# Marker returned by Polynomial.bidegree() for the zero polynomial, which
# is bihomogeneous of every bidegree.
ZERO_BIDEGREE = object()


def _wide_mask(count, slots):
    """The bits at or above 2^k in each field of slots, for the largest k
    with count * 2^k <= 2^16 - 1."""
    k = (_DIGIT_SUM_MOD // count).bit_length() - 1
    return sum((_DIGIT_SUM_MOD + 1 - (1 << k)) << (EXP_BITS * slot)
               for slot in slots)


class ExponentOverflow(OverflowError):
    """An exponent past EXP_MAX, in input or in a product."""


class ParseError(ValueError):
    """Raised on malformed polynomial input; .pos is the source offset."""

    def __init__(self, message, pos):
        super().__init__("%s (at offset %d)" % (message, pos))
        self.pos = pos


_TOKEN_RE = re.compile(r"\d+|[A-Za-z_][A-Za-z0-9_]*|[*^+\-]|\S")


def _grammar(names):
    """The polynomial grammar over the variable names, whitespace allowed
    between tokens, as two patterns: one unsigned term, which fullmatch
    checks between two signs, and a whole sum, whose match is the
    longest valid prefix of a string.  A whole string is not checked at
    once, as a long one would grow the regex engine's backtracking
    stack by megabytes.  Only syntax that Python 3.10 has."""
    name = r"(?:%s)(?![A-Za-z0-9_])" % "|".join(names)
    factor = r"(?:\d+|%s(?:\s*\^\s*\d+)?)" % name
    term = r"%s(?:\s*\*\s*%s)*" % (factor, factor)
    return (re.compile(r"\s*%s\s*" % term),
            re.compile(r"\s*[+-]?\s*%s(?:\s*[+-]\s*%s)*\s*" % (term, term)))


def _number(digits, src):
    """int(digits) for a number of src.  Leading zeros do not count
    toward int()'s digit limit; past it, raises _long_number's error."""
    try:
        return int(digits)
    except ValueError:
        pass
    try:
        return int(digits.lstrip("0") or "0")
    except ValueError:
        raise _long_number(src) from None


def _long_number(src):
    """The error for the first number of src too long for int():
    ExponentOverflow naming the variable for an exponent, ParseError at
    its offset for a coefficient.  Leading zeros do not count toward the
    length."""
    tokens = [(mo.group(0), mo.start()) for mo in _TOKEN_RE.finditer(src)]
    for i, (tok, pos) in enumerate(tokens):
        digits = tok.lstrip("0")
        if not digits.isdigit():
            continue
        try:
            int(digits)
            continue
        except ValueError:
            pass
        if i >= 2 and tokens[i - 1][0] == "^":
            return ExponentOverflow(
                "exponent of %s with %d digits exceeds %d"
                % (tokens[i - 2][0], len(digits), EXP_MAX))
        return ParseError("coefficient of %d digits is too long"
                          % len(digits), pos)
    raise AssertionError("no number of the input is too long")


class PolyRing:
    """F_p[x1..x{d+1}, T1..T{d+1}, t] for a fixed prime p and integer d >= 0."""

    __slots__ = (
        "p", "d", "n", "nvars", "names", "slot_of", "x_slots", "t_slots",
        "aux_slot", "grevlex", "elim_aux", "zero", "one", "guard",
        "_half", "_revlex", "_fields", "_nbytes", "_block", "_wide",
        "_wide_total", "_term", "_grammar", "_factors",
    )

    _cache = {}

    def __init__(self, p=DEFAULT_PRIME, d=4):
        if not is_prime(p):
            raise ValueError("modulus %d is not prime" % p)
        if d < 0:
            raise ValueError("d must be nonnegative")
        self.p = p
        self.d = d
        n = d + 1
        self.n = n
        self.nvars = 2 * n + 1
        self.names = tuple(
            ["x%d" % i for i in range(1, n + 1)]
            + ["T%d" % i for i in range(1, n + 1)]
            + ["t"]
        )
        self.slot_of = {name: i for i, name in enumerate(self.names)}
        self.guard = sum(1 << (EXP_BITS * (slot + 1) - 1)
                         for slot in range(self.nvars))
        self._fields = struct.Struct("<%dH" % self.nvars)
        self._nbytes = self._fields.size
        # bidegree_of reads a block's field sum as the block mod 2^16 - 1,
        # and degree_of the whole exponent's: exact while the sum stays
        # below 2^16 - 1, which holds when every field summed is below 2^k
        # with (number of fields) * 2^k <= 2^16 - 1
        self._block = (1 << (EXP_BITS * n)) - 1
        self._wide = _wide_mask(n, range(2 * n))
        self._wide_total = _wide_mask(self.nvars, range(self.nvars))
        self.x_slots = tuple(range(n))
        self.t_slots = tuple(range(n, 2 * n))
        self.aux_slot = 2 * n
        self.grevlex = _Grevlex(self)
        self.elim_aux = _ElimAux(self)
        self._revlex = tuple(_RevlexLast(self, slot)
                             for slot in range(self.nvars))
        # parse looks up each variable's packed unit exponent by name,
        # which a power v^e adds e times to the exponent of its term
        self._term, self._grammar = _grammar(self.names)
        self._factors = {name: 1 << (EXP_BITS * slot)
                         for slot, name in enumerate(self.names)}
        self.zero = Polynomial(self, ())
        self.one = Polynomial(self, ((0, 0, 1),))
        self._half = p // 2

    @classmethod
    def get(cls, p=DEFAULT_PRIME, d=4):
        ring = cls._cache.get((p, d))
        if ring is None:
            ring = cls(p, d)
            cls._cache[(p, d)] = ring
        return ring

    def __repr__(self):
        return "PolyRing(p=%d, d=%d)" % (self.p, self.d)

    def compatible(self, other):
        return self.p == other.p and self.d == other.d

    def pack(self, exp):
        """The packed integer of an exponent sequence, one entry per slot.

        Raises ExponentOverflow on an entry past EXP_MAX and ValueError on
        a negative entry or a sequence of the wrong length.
        """
        exp = tuple(exp)
        if len(exp) != self.nvars:
            raise ValueError("exponent needs %d entries, got %d"
                             % (self.nvars, len(exp)))
        if not 0 <= min(exp) <= max(exp) <= EXP_MAX:
            if min(exp) < 0:
                raise ValueError("negative exponent in %r" % (exp,))
            slot = exp.index(max(exp))
            raise ExponentOverflow("exponent %d of %s exceeds %d"
                                   % (exp[slot], self.names[slot], EXP_MAX))
        return int.from_bytes(self._fields.pack(*exp), "little")

    def unpack(self, exp):
        """The exponent tuple, one entry per slot, of a packed exponent."""
        return self._fields.unpack(exp.to_bytes(self._nbytes, "little"))

    def bidegree_of(self, exp):
        """(x-degree, T-degree) of the packed exponent exp; t is ignored."""
        if exp & self._wide:
            fields = self.unpack(exp)
            n = self.n
            return sum(fields[:n]), sum(fields[n:2 * n])
        block = self._block
        return ((exp & block) % _DIGIT_SUM_MOD,
                ((exp >> (EXP_BITS * self.n)) & block) % _DIGIT_SUM_MOD)

    def degree_of(self, exp):
        """Total degree of the packed exponent exp, t included."""
        if exp & self._wide_total:
            return sum(self.unpack(exp))
        return exp % _DIGIT_SUM_MOD

    def term(self, coeff, exp):
        """coeff times the monomial of the exponent sequence exp."""
        c = coeff % self.p
        if c == 0:
            return self.zero
        exp = self.pack(exp)
        return Polynomial(self, ((self.grevlex.key(exp), exp, c),))

    def monomial(self, exp):
        return self.term(1, exp)

    def const(self, c):
        return self.term(c, (0,) * self.nvars)

    def variable(self, slot):
        exp = [0] * self.nvars
        exp[slot] = 1
        return self.monomial(exp)

    def x(self, i):
        """The variable x_i, 1-based, 1 <= i <= d+1."""
        if not 1 <= i <= self.n:
            raise IndexError("x index out of range: %d" % i)
        return self.variable(i - 1)

    def T(self, i):
        """The variable T_i, 1-based, 1 <= i <= d+1."""
        if not 1 <= i <= self.n:
            raise IndexError("T index out of range: %d" % i)
        return self.variable(self.n + i - 1)

    @property
    def aux(self):
        return self.variable(self.aux_slot)

    def revlex_last(self, slot):
        """Graded reverse-lexicographic order with slot moved last.

        The variable in slot becomes the smallest one; the other slots keep
        their grevlex sequence.  Built with the ring.
        """
        if not 0 <= slot < self.nvars:
            raise IndexError("slot out of range: %d" % slot)
        return self._revlex[slot]

    def is_graded(self, order):
        """Whether order compares total degree first: grevlex and every
        revlex_last order of this ring are, elim_aux is not."""
        return order is self.grevlex or order in self._revlex

    def from_dict(self, coeffs):
        """Polynomial from a map exponent tuple -> integer coefficient."""
        key = self.grevlex.key
        terms = []
        for exp, c in coeffs.items():
            c %= self.p
            if c:
                exp = self.pack(exp)
                terms.append((key(exp), exp, c))
        terms.sort(reverse=True)
        return Polynomial(self, tuple(terms))

    def poly(self, value):
        """Coerce a string, integer, or Polynomial into this ring."""
        if isinstance(value, Polynomial):
            if value.ring is self:
                return value
            if not self.compatible(value.ring):
                raise ValueError("polynomial from incompatible ring")
            return Polynomial(self, value.terms)
        if isinstance(value, int):
            return self.const(value)
        return self.parse(value)

    def parse(self, src):
        """Parse a signed sum of terms ``c*v1^e1*...*vk^ek``.

        Whitespace between tokens is insignificant; '^' takes a
        nonnegative integer exponent; unknown variable names are
        rejected.  The ring's grammar checks every term first, and a
        string it rejects raises ParseError at the first token that
        cannot continue it.  Each term's packed exponent then adds up
        factor by factor, like terms merge, each surviving term is keyed
        once, and the terms are sorted once.  An exponent past EXP_MAX
        raises ExponentOverflow with the variable's total exponent in its
        term, unless the term's merged coefficient vanishes mod p; a
        number too long for int() raises at once, as ParseError for a
        coefficient and ExponentOverflow for an exponent.
        """
        # valid when every piece between two signs is a term, but for a
        # blank one before a leading sign
        is_term = self._term.fullmatch
        lead, *rest = src.replace("-", "+").split("+")
        if not (all(map(is_term, rest))
                and (is_term(lead) or (rest and not lead.strip()))):
            raise self._syntax_error(src)
        factors, guard = self._factors, self.guard
        merged = {}
        wide = {}
        for term in "".join(src.split()).replace("-", "+-").split("+"):
            if not term:
                continue
            sign = 1
            if term[0] == "-":
                sign = -1
                term = term[1:]
            coeff, exp = sign, 0
            for factor in term.split("*"):
                unit = factors.get(factor)
                if unit is None:
                    name, _, e = factor.partition("^")
                    unit = factors.get(name)
                    if unit is None:
                        coeff *= _number(factor, src)
                        continue
                    e = _number(e, src)
                    if e > EXP_MAX:
                        exp |= guard
                        break
                    exp += e * unit
                else:
                    exp += unit
                if exp & guard:
                    break
            if exp & guard:
                # the fields may have carried: recount the term
                coeff, fields = self._term_fields(term, sign, src)
                wide[fields] = wide.get(fields, 0) + coeff
                continue
            merged[exp] = merged.get(exp, 0) + coeff
        for fields, coeff in wide.items():
            if coeff % self.p:
                self.pack(fields)
        mod, key = self.p, self.grevlex.key
        terms = []
        for exp, coeff in merged.items():
            coeff %= mod
            if coeff:
                terms.append((key(exp), exp, coeff))
        terms.sort(reverse=True)
        return Polynomial(self, tuple(terms))

    def _term_fields(self, term, sign, src):
        """Coefficient and exponent tuple of a term whose exponents pass
        EXP_MAX; sign is the term's sign."""
        coeff, fields = sign, [0] * self.nvars
        for factor in term.split("*"):
            name, _, e = factor.partition("^")
            slot = self.slot_of.get(name)
            if slot is None:
                coeff *= _number(factor, src)
            else:
                fields[slot] += _number(e, src) if e else 1
        return coeff, tuple(fields)

    def _syntax_error(self, src):
        """The ParseError of a string the grammar rejects, at the first
        token that cannot continue its longest valid prefix."""
        tokens = [(mo.group(0), mo.start())
                  for mo in _TOKEN_RE.finditer(src)]
        if not tokens:
            return ParseError("empty input", 0)
        valid = self._grammar.match(src)
        end = valid.end() if valid else 0
        i = next(k for k, (_, pos) in enumerate(tokens) if pos >= end)
        tok, pos = tokens[i]
        after = tokens[i + 1] if i + 1 < len(tokens) else None
        if tok == "^" and valid:
            before = tokens[i - 1][0]
            if before in self.slot_of:
                return ParseError("malformed exponent",
                                  after[1] if after else pos)
            if i >= 2 and tokens[i - 2][0] == "^":
                return ParseError("unexpected token '^'", pos)
            return ParseError("exponent allowed only on a variable", pos)
        if tok in ("+", "-") or (tok == "*" and valid):
            if after is None:
                return ParseError("dangling sign" if tok != "*"
                                  else "dangling '*'", pos)
            tok, pos = after
        elif valid:
            return ParseError("unexpected token %r" % tok, pos)
        # a factor was expected at tok
        if tok[0].isalpha() or tok[0] == "_":
            return ParseError("unknown variable %r" % tok, pos)
        if tok == "^":
            return ParseError("exponent allowed only on a variable", pos)
        return ParseError("unexpected token %r" % tok, pos)

    def format_exp(self, exp):
        """The packed exponent exp as a product of variable powers."""
        factors = []
        for slot, e in enumerate(self.unpack(exp)):
            if e == 1:
                factors.append(self.names[slot])
            elif e > 1:
                factors.append("%s^%d" % (self.names[slot], e))
        return "*".join(factors)

    def dot(self, products):
        """Sum of c * a * b over (int c, Polynomial a, Polynomial b).

        Every term of a adds c times b's terms, shifted by that term, into
        one dict from key to pending coefficient and exponent: no partial
        product or partial sum is built.  A sum never needs its largest
        pending term before the end, so the dict keeps no heap and is
        drained by one sort.  A term whose exponent passes EXP_MAX raises
        ExponentOverflow when its coefficient survives mod p.
        """
        acc = {}
        for c, a, b in products:
            terms = b.terms
            for k, e, co in a.terms:
                _add_shifted(acc, None, terms, k, e, c * co)
        return Polynomial(self, _drain(acc, self.p, self.guard))

    def span_basis(self, polys):
        """Row-reduce equal-degree forms to a basis of their linear span.

        The returned polynomials generate the same ideal with far fewer
        elements, which keeps the Groebner runs behind the height checks
        small even for dense input.  Each one is a form of polys reduced
        by the pivot rows before it, in turn, and made monic: its lead is
        its pivot, and it vanishes at every earlier pivot.

        The columns are the distinct monomials of polys, by decreasing
        key.  A row is reduced at the pivot columns only: its multiple
        of pivot row j is its entry at j's pivot less the multiples of
        the earlier pivot rows there, the only rows that do not vanish
        at that column.  The rest of the row, at the other columns, is
        then formed once.  The span stops once its rank equals the
        number of columns: every later form lies in it.
        """
        polys = [g for g in polys if not g.is_zero]
        # (key, exp) of every monomial, decreasing: the column order
        monomials = sorted({(k, e) for g in polys for k, e, _ in g.terms},
                           reverse=True)
        index = {e: i for i, (_, e) in enumerate(monomials)}
        p = self.p
        basis = []
        pivots = []
        free = list(range(len(monomials)))
        # at[q]: the pivot rows' entries at column q, up to q's own pivot
        at = [[] for _ in monomials]
        for g in polys:
            if not free:
                break
            row = [0] * len(monomials)
            for _, e, c in g.terms:
                row[index[e]] = c
            mults = []
            for q in pivots:
                mults.append((row[q] - sum(map(mul, mults, at[q]))) % p)
            rest = [(row[q] - sum(map(mul, mults, at[q]))) % p for q in free]
            lead = next((i for i, c in enumerate(rest) if c), None)
            if lead is None:
                continue
            inv = pow(rest[lead], p - 2, p)
            pivot = free.pop(lead)
            del rest[lead]
            rest = [c * inv % p for c in rest]
            pivots.append(pivot)
            for q, c in zip(free, rest):
                at[q].append(c)
            basis.append(Polynomial(self, (monomials[pivot] + (1,),) + tuple(
                monomials[q] + (c,) for q, c in zip(free, rest) if c)))
        return basis


def _scale(terms, c, mod):
    """terms multiplied by the scalar c modulo mod."""
    c %= mod
    if c == 0:
        return ()
    if c == 1:
        return terms
    return tuple((k, e, co * c % mod) for k, e, co in terms)


def _lcm(a, b, guard):
    """Field-wise maximum of the packed exponents a and b."""
    # (a | guard) - b borrows inside no field and leaves the guard bit of
    # exactly the fields with a_i >= b_i; spread those bits over the field
    ge = ((a | guard) - b) & guard
    mask = ge - (ge >> (EXP_BITS - 1))
    return b ^ ((a ^ b) & mask)


def _accumulator(terms):
    """Reduction accumulator holding the term tuple terms.

    Returns (acc, heap): acc maps key -> [coeff, exp], where coeff is not
    yet reduced mod p; heap holds the negated pending keys, so its top is
    the largest.  The negated keys of a decreasing term tuple are
    increasing, hence already a heap.
    """
    acc = {k: [c, e] for k, e, c in terms}
    return acc, [-k for k, _, _ in terms]


def _add_shifted(acc, heap, terms, dkey, dexp, c):
    """Add c times the monomial (dkey, dexp) times terms into (acc, heap);
    heap None keeps no heap, for a sum drained all at once.

    A shifted exponent may set a guard bit; its drain rejects it.
    """
    get = acc.get
    for k, e, co in terms:
        k += dkey
        slot = get(k)
        if slot is None:
            acc[k] = [co * c, e + dexp]
            if heap is not None:
                heappush(heap, -k)
        else:
            slot[0] += co * c


def _pop_lead(acc, heap, mod, guard):
    """Remove and return the largest nonzero pending term, or None.

    Raises ExponentOverflow on a term whose exponent set a guard bit.
    """
    while heap:
        k = -heappop(heap)
        c, e = acc.pop(k)
        c = _surviving(c, e, mod, guard)
        if c:
            return k, e, c
    return None


def _drain(acc, mod, guard):
    """The surviving terms of an accumulator kept with no heap, as a
    term tuple in decreasing order, by one sort."""
    out = []
    for k, (c, e) in acc.items():
        c = _surviving(c, e, mod, guard)
        if c:
            out.append((k, e, c))
    out.sort(reverse=True)
    return tuple(out)


def _surviving(c, e, mod, guard):
    """A pending coefficient c mod p, 0 if it vanishes.

    Both drains of the accumulator (_pop_lead and _drain) call it:
    a surviving term whose exponent set a guard bit raises
    ExponentOverflow, a vanishing one is dropped without a check.
    """
    c %= mod
    if c and e & guard:
        raise ExponentOverflow("a product exponent exceeds %d" % EXP_MAX)
    return c


class Polynomial:
    """Immutable element of a PolyRing.

    The bidegree is read off the terms on the first call of bidegree()
    and kept in the _bidegree slot, and the OR of the exponents, which
    tells the variables that occur, on the first involves() or support()
    call in _or; each slot stays unset until then."""

    __slots__ = ("ring", "terms", "_bidegree", "_or")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    # -- structure ---------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def lead_exp(self, order=None):
        """Exponent tuple of the lead term under order (default: grevlex,
        the order the terms are kept in)."""
        if not self.terms:
            raise ValueError("zero polynomial has no lead term")
        if order is None or order is self.ring.grevlex:
            return self.ring.unpack(self.terms[0][1])
        return self.ring.unpack(max((e for _, e, _ in self.terms),
                                    key=order.key))

    def items(self):
        """(exponent tuple, coefficient) of every term, in term order."""
        unpack = self.ring.unpack
        return tuple((unpack(e), c) for _, e, c in self.terms)

    def _used(self):
        """OR of the packed exponents of the terms: a field is nonzero
        exactly when its variable occurs.  Kept from the first call."""
        try:
            return self._or
        except AttributeError:
            pass
        used = 0
        for _, e, _ in self.terms:
            used |= e
        self._or = used
        return used

    def involves(self, slot):
        """Whether the variable in slot occurs in some term."""
        return bool(self._used() & (_DIGIT_SUM_MOD << (EXP_BITS * slot)))

    def support(self):
        """Set of variable slots appearing in some term."""
        return {slot for slot, x in enumerate(self.ring.unpack(self._used()))
                if x}

    def bidegree(self):
        """Common (x-degree, T-degree) of all terms.

        Returns ZERO_BIDEGREE for the zero polynomial and None when the
        terms do not share a single bidegree.  The helper variable t is
        ignored by the bigrading.  The terms are scanned once, on the
        first call.
        """
        try:
            return self._bidegree
        except AttributeError:
            pass
        if not self.terms:
            bd = ZERO_BIDEGREE
        else:
            read = self.ring.bidegree_of
            degs = {read(e) for _, e, _ in self.terms}
            bd = BiDegree(*degs.pop()) if len(degs) == 1 else None
        self._bidegree = bd
        return bd

    def x_degree(self):
        """Largest x-degree of a term, -1 for zero; the kept bidegree's
        when the polynomial is bihomogeneous."""
        bd = self.bidegree()
        if isinstance(bd, BiDegree):
            return bd.x
        read = self.ring.bidegree_of
        return max((read(e)[0] for _, e, _ in self.terms), default=-1)

    def t_degree(self):
        """Largest T-degree of a term, -1 for zero; the kept bidegree's
        when the polynomial is bihomogeneous."""
        bd = self.bidegree()
        if isinstance(bd, BiDegree):
            return bd.t
        read = self.ring.bidegree_of
        return max((read(e)[1] for _, e, _ in self.terms), default=-1)

    def is_homogeneous(self):
        """All terms share one degree in x and T together; t is ignored."""
        read = self.ring.bidegree_of
        return len({sum(read(e)) for _, e, _ in self.terms}) <= 1

    # -- arithmetic --------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (Polynomial, int)):
            return self.ring.poly(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        one = self.ring.one
        return self.ring.dot(((1, one, self), (1, one, other)))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, _scale(self.terms, -1, self.ring.p))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        one = self.ring.one
        return self.ring.dot(((1, one, self), (-1, one, other)))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.ring.dot(((1, self, other),))

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative exponent")
        result = self.ring.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def scale(self, c):
        return Polynomial(self.ring, _scale(self.terms, c, self.ring.p))

    def monic(self):
        """Scale so the grevlex lead coefficient is 1."""
        if not self.terms:
            return self
        lc = self.terms[0][2]
        if lc == 1:
            return self
        return self.scale(pow(lc, self.ring.p - 2, self.ring.p))

    def exact_div(self, divisor):
        """Quotient q with self == q * divisor, or None if no such q."""
        divisor = self._coerce(divisor)
        if divisor is NotImplemented:
            raise TypeError("cannot divide by %r" % (divisor,))
        if divisor.is_zero:
            raise ZeroDivisionError("exact_div by zero polynomial")
        mod, guard = self.ring.p, self.ring.guard
        dk, de, dc = divisor.terms[0]
        dtail = divisor.terms[1:]
        dinv = pow(dc, mod - 2, mod)
        acc, heap = _accumulator(self.terms)
        q = []
        while True:
            lead = _pop_lead(acc, heap, mod, guard)
            if lead is None:
                return Polynomial(self.ring, tuple(q))
            k, e, c = lead
            qe = e - de
            if qe & guard:
                return None
            qc = c * dinv % mod
            q.append((k - dk, qe, qc))
            _add_shifted(acc, heap, dtail, k - dk, qe, -qc)

    # -- comparison and display --------------------------------------

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return (self.ring.p == other.ring.p
                    and self.ring.d == other.ring.d
                    and self.terms == other.terms)
        return NotImplemented

    def __hash__(self):
        return hash((self.ring.p, self.ring.d, self.terms))

    def __str__(self):
        if not self.terms:
            return "0"
        ring = self.ring
        half = ring._half
        parts = []
        for k, e, c in self.terms:
            cc = c if c <= half else c - ring.p
            mono = ring.format_exp(e)
            mag = abs(cc)
            if mag != 1 or not mono:
                body = str(mag) if not mono else "%d*%s" % (mag, mono)
            else:
                body = mono
            if not parts:
                parts.append("-" + body if cc < 0 else body)
            else:
                parts.append(("- " if cc < 0 else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return "Polynomial(%s)" % (self,)


def partial_column(f, rule="min"):
    """Split f in (x1..x{d+1}) into a column C with [x1..x{d+1}] . C == f.

    Every term is divided by one x-variable it contains and assigned to
    that variable's row: rule 'min' picks the smallest-index x-variable of
    the term, rule 'max' the largest.  Requires f bihomogeneous with
    positive x-degree, or zero; the zero polynomial yields a zero column.
    Entries of the result drop the bidegree by exactly (1, 0).
    """
    if rule not in ("min", "max"):
        raise ValueError("unknown splitting rule %r" % (rule,))
    ring = f.ring
    n = ring.n
    if f.bidegree() is None:
        raise ValueError("cannot split a non-bihomogeneous polynomial")
    # row i takes the terms divisible by x_i, divided by it: key and
    # exponent drop by those of x_i, so each row stays sorted
    units = [ring.variable(slot).terms[0] for slot in ring.x_slots]
    rows = [[] for _ in range(n)]
    xrange = range(n) if rule == "min" else range(n - 1, -1, -1)
    for k, e, c in f.terms:
        for i in xrange:
            if e & (EXP_MAX << (EXP_BITS * i)):
                uk, ue, _ = units[i]
                rows[i].append((k - uk, e - ue, c))
                break
        else:
            raise ValueError(
                "polynomial is not in the ideal (x1..x%d)" % n)
    return [Polynomial(ring, tuple(r)) for r in rows]
