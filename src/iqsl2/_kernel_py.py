"""Pure-Python kernels for sparse Laurent term dicts.

A term dict maps (q-exponent, varsigma-exponent) pairs to nonzero ints.
These functions are the hot loops behind every coefficient operation.
All functions return fresh dicts and never mutate their arguments.

Large products go by Kronecker substitution (Harvey, J. Symbolic Comput.
2009). Both operands are shifted to touch exponent 0 in q and v, and their
q-exponents are divided by the stride s, the gcd of all q-exponent offsets
of both operands: the balanced qint and qbinom factors step by 2 in q, so
s is 2 for nearly every large product the verifier forms. The term
c*q^i*v^j goes to slot j*w + i/s, where w is the folded q-span of the
product plus one, so that no sum of q-exponents reaches the next v row.
The operands evaluated at q = 2^k are two ints; one big-integer product
carries the whole convolution, and the product's balanced base-2^k digits
are its coefficients. Each product coefficient is a sum of at most
min(len a, len b) term products, so its absolute value is at most
M = max|a| * max|b| * min(len a, len b). With k = bit_length(M) + 1 every
coefficient lies inside the digit range [-2^(k-1), 2^(k-1)), the digits
are exact and no check or fallback is needed.

k is rounded up to a machine word of 8, 16, 32 or 64 bits, so that C
writes and reads the digits: _words packs an operand as int.from_bytes of
its dense array of words, and memoryview(...).cast(typecode).tolist()
reads the product's. The words are signed, in two's complement. With the
offset H = 2^(k-1) * (1 + 2^k + 2^(2k) + ...) over the product's words,
flipping each word's top bit (XOR H) maps a digit c to c + 2^(k-1), which
lies in [0, 2^k): an operand is (U ^ H) - H for U its words read as one
unsigned int, and the product P is written out as the words of
(P + H) ^ H, where no carry crosses a slot. When no coefficient of either
operand is negative, every digit lies in [0, 2^(k-1)) and the offset is
0. _offset gives H, here and in _unpack. Above 64 bits, _pack and
_unpack take the slot dicts of _to_slots instead.

Smaller products, up to _SCHOOLBOOK_MAX term pairs len(a) * len(b), go by
dict convolution, whose per-call cost is lower. The crossover was chosen
on every kmul operand pair recorded on the four perfbench workloads,
replayed through both paths in groups by term pairs (best of 9 process
times, 2 cores, CPython 3.11). On laurent-identities, whose qint products
are small and sparse, the convolution wins up to 80 pairs (50 ms against
52 ms at 65-72 pairs, 32 ms against 34 ms at 73-80), the two tie at 81-96
(81 ms each) and Kronecker wins above (168 ms against 135 ms at 97-128).
comult-verify and mult-verify cross at the same place (comult-verify
3.4 ms against 3.8 ms at 65-72 pairs, 12.1 ms against 11.2 ms at 81-96).
Above 256 pairs, where most kmul time goes, Kronecker wins by 2.9-7x
(mult-verify 376 ms against 53 ms, laurent-identities 277 ms against
91 ms). The laurent-identities figures are for its operand mix from
before the qidentities suite formed each product once per side of an
identity, 59,431 products. That suite now decides its checks on int
images of its factors and calls kmul only to rerun a check whose images
differ, none when every check passes.

The slot layout at stride 1 (_to_slots, _from_slots) also serves the
schoolbook exact division in coeff, and the pack/unpack pair the
heuristic gcd in coeff and the cyclotomic products in cyclo; a univariate
polynomial {i: c} is a slot dict as it stands. _unpack reads the digits at
a word width k of 8, 16, 32 or 64 bits in C, as the words of (x + H) ^ H,
and above that with one shift per slot.
"""

from array import array
from itertools import compress, repeat
from math import gcd
from operator import sub
from sys import byteorder

BACKEND = "python"

# array typecode of a signed machine word, by its width in bits
_WORD = {8 * array(tc).itemsize: tc for tc in "bhiq"}

# largest len(a) * len(b) that kmul multiplies by dict convolution
_SCHOOLBOOK_MAX = 80


def kadd(a, b):
    """Termwise sum of two term dicts."""
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for k, c in b.items():
        v = out.get(k, 0) + c
        if v:
            out[k] = v
        elif k in out:
            del out[k]
    return out


def ksub(a, b):
    if not b:
        return dict(a)
    out = dict(a)
    for k, c in b.items():
        v = out.get(k, 0) - c
        if v:
            out[k] = v
        elif k in out:
            del out[k]
    return out


def kneg(a):
    return {k: -c for k, c in a.items()}


def kscale(a, n):
    """Multiply every coefficient by the int n."""
    if n == 0:
        return {}
    if n == 1:
        return dict(a)
    return {k: c * n for k, c in a.items()}


def kshift(a, di, dj, n):
    """Multiply by n * q^di * v^dj (n a nonzero int)."""
    return {(i + di, j + dj): c * n for (i, j), c in a.items()}


def _to_slots(t, mi, mj, w, s=1):
    """Slot dict {(j - mj)*w + (i - mi)/s: c} of the term dict t, whose
    exponents are at least (mi, mj), whose q-exponent offsets i - mi are
    multiples of the stride s, and whose folded q-span is below w."""
    return {(j - mj) * w + (i - mi) // s: c for (i, j), c in t.items()}


def _from_slots(t, w, mi, mj):
    """Inverse of _to_slots at stride 1: the term dict of the slot dict t."""
    return {(s % w + mi, s // w + mj): c for s, c in t.items()}


def _pack(t, k):
    """Value of the slot dict t at q = 2^k."""
    return sum([c << (k * s) for s, c in t.items()])


def _offset(k, n):
    """The offset H = 2^(k-1) * (1 + 2^k + ... + 2^((n-1)k)) of n k-bit
    words, k a multiple of 8: the word 2^(k-1) written n times."""
    return int.from_bytes((1 << (k - 1)).to_bytes(k // 8, byteorder) * n,
                          byteorder)


def _unpack(x, n, k):
    """The balanced base-2^k digits of the int x, each in [-2^(k-1), 2^(k-1)),
    as a slot dict; None when x needs more than n digits. At a word width
    k the digits are the words of (x + H) ^ H, read in C."""
    tc = _WORD.get(k)
    if tc is not None:
        h = _offset(k, n)
        x += h
        if x < 0 or x.bit_length() > n * k:
            return None
        y = (x ^ h).to_bytes(n * k // 8, byteorder)
        digits = memoryview(y).cast(tc).tolist()
        return dict(compress(enumerate(digits), digits))
    half = 1 << (k - 1)
    mask = (1 << k) - 1
    out = {}
    for s in range(n):
        c = x & mask
        x >>= k
        if c >= half:
            c -= mask + 1
            x += 1
        if c:
            out[s] = c
    return None if x else out


def _words(t, mi, mj, s, w, n, tc, h):
    """Value at q = 2^k of the term dict t in the slot layout of
    _to_slots(t, mi, mj, w, s), read in C from its n dense k-bit words of
    array typecode tc; every |c| < 2^(k-1). h is the offset H of at least
    n words, or 0 when no coefficient is negative."""
    words = [0] * n
    for (i, j), c in t.items():
        words[(j - mj) * w + (i - mi) // s] = c
    return (int.from_bytes(array(tc, words), byteorder) ^ h) - h


def kmul(a, b):
    """Product of two term dicts: the dict convolution for one-term
    operands and up to _SCHOOLBOOK_MAX term pairs, Kronecker substitution
    above (see the module docstring)."""
    if not a or not b:
        return {}
    if len(b) == 1:
        ((i2, j2), c2), = b.items()
        return {(i + i2, j + j2): c * c2 for (i, j), c in a.items()}
    if len(a) == 1:
        ((i1, j1), c1), = a.items()
        return {(i1 + i, j1 + j): c1 * c for (i, j), c in b.items()}
    if len(a) * len(b) > _SCHOOLBOOK_MAX:
        ia, ja = zip(*a)
        ib, jb = zip(*b)
        ai, aj, bi, bj = min(ia), min(ja), min(ib), min(jb)
        s = gcd(*map(sub, ia, repeat(ai)), *map(sub, ib, repeat(bi))) or 1
        w = (max(ia) - ai + max(ib) - bi) // s + 1
        ra, rb = max(ja) - aj, max(jb) - bj
        na = ra * w + (max(ia) - ai) // s + 1
        nb = rb * w + (max(ib) - bi) // s + 1
        n = na + nb - 1
        la, ha = min(a.values()), max(a.values())
        lb, hb = min(b.values()), max(b.values())
        m = max(ha, -la) * max(hb, -lb) * min(len(a), len(b))
        k = m.bit_length() + 1
        if k > 64:
            sa, sb = _to_slots(a, ai, aj, w, s), _to_slots(b, bi, bj, w, s)
            p = _unpack(_pack(sa, k) * _pack(sb, k), n, k)
            digits = list(map(p.get, range(n), repeat(0)))
        else:
            k = max(8, 1 << (k - 1).bit_length())
            tc = _WORD[k]
            h = 0
            if la < 0 or lb < 0:
                h = _offset(k, n)
            x = _words(a, ai, aj, s, w, na, tc, h)
            x *= _words(b, bi, bj, s, w, nb, tc, h)
            y = ((x + h) ^ h).to_bytes(n * k // 8, byteorder)
            digits = memoryview(y).cast(tc).tolist()
        mi, mj = ai + bi, aj + bj
        if not ra and not rb:
            keys = zip(range(mi, mi + s * n, s), repeat(mj))
        else:
            keys = ((mi + t % w * s, mj + t // w) for t in range(n))
        return dict(compress(zip(keys, digits), digits))
    if len(b) > len(a):
        a, b = b, a
    out = {}
    get = out.get
    items_b = list(b.items())
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in items_b:
            k = (i1 + i2, j1 + j2)
            v = get(k, 0) + c1 * c2
            if v:
                out[k] = v
            elif k in out:
                del out[k]
    return out
