"""Monomial orders defined by weight vectors, kept as a reference for the
tests.

A block order lists variable slots by decreasing priority, block by
block, and compares graded reverse-lexicographically inside a block.
Its weight vector packs that comparison into one integer sum: in fields
of 16 bits, base B = 2^16, each block from the top has its degree in
one field and minus each of its exponents in the fields below it, so
key(e) = sum_i e_i * weights[i].  Integer comparison of keys is the
block order for every exponent whose fields are below B, of fewer than
B variables:

- in units of a block's lowest field, its part of the difference of two
  keys is T = sum_v (e_v - e'_v) * (B^n - B^i(v)), n the block's size
  and i(v) the field of v in it: a multiple of B - 1, zero exactly when
  the exponents agree on the block, and of the sign of their grevlex
  comparison there, since fields differ by less than B;
- a block of n variables below moves the key by at most n * (B - 1)/B
  of those units, so all blocks below together by less than B - 1 of
  them.

So a degree field below the top needs no more than its 16 bits.  The
ring keys its own orders by closed forms of the packed exponent, and
the tests compare each of them with its weighted sum here.
"""

from reesgcd.ring import EXP_BITS, EXP_MAX, MonomialOrder

_BASE = 1 << EXP_BITS


def block_weights(blocks, nslots):
    """Weight vector of the block order of blocks, lists of variable
    slots by decreasing priority, each graded reverse-lexicographic with
    respect to its slot sequence."""
    nfields = sum(len(b) + 1 for b in blocks)
    w = [0] * nslots
    pos = nfields
    for block in blocks:
        pos -= 1
        deg_w = _BASE ** pos
        for v in block:
            w[v] += deg_w
        for v in reversed(block):
            pos -= 1
            w[v] -= _BASE ** pos
    return w


class BlockOrder(MonomialOrder):
    """An order the ring does not own, keyed field by field by its weight
    vector: key(e) = sum_i e_i * weights[i] over the fields of the packed
    exponent e."""

    __slots__ = ("weights",)

    def __init__(self, name, blocks, nslots):
        super().__init__(name)
        self.weights = tuple(block_weights(blocks, nslots))

    def key(self, exp):
        k = 0
        for w in self.weights:
            k += (exp & EXP_MAX) * w
            exp >>= EXP_BITS
        return k


def order_key(ring, order, exp):
    """Key of an exponent tuple under grevlex, elim_aux or a revlex_last
    order of ring, found by the order's name: its defining weighted sum."""
    slots = list(range(ring.nvars))
    if order.name == "grevlex":
        blocks = [slots]
    elif order.name == "elim-aux":
        blocks = [[ring.aux_slot], slots[:-1]]
    else:
        last = ring.slot_of[order.name[len("revlex-last-"):]]
        blocks = [[v for v in slots if v != last] + [last]]
    return sum(e * w for e, w in zip(exp, block_weights(blocks, ring.nvars)))
