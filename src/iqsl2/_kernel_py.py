"""Pure-Python kernels for sparse Laurent term dicts.

A term dict maps (q-exponent, varsigma-exponent) pairs to nonzero ints.
These functions are the hot loops behind every coefficient operation.
All functions return fresh dicts and never mutate their arguments.

Large products go by Kronecker substitution (Harvey, J. Symbolic Comput.
2009). Both operands are shifted to touch exponent 0 in q and v, and the
term c*q^i*v^j goes to slot j*w + i of a slot dict, where w is the q-span
of the product plus one, so that no sum of q-exponents reaches the next v
row. A slot dict evaluated at q = 2^k (_pack) is one int; one big-integer
product carries the whole convolution, and the product's balanced
base-2^k digits (_unpack) are its coefficients. Each product coefficient
is a sum of at most min(len a, len b) term products, so its absolute value
is at most M = max|a| * max|b| * min(len a, len b). With
k = bit_length(M) + 1 every coefficient lies inside the digit range
[-2^(k-1), 2^(k-1)), the digits are exact and no check or fallback is
needed (unlike the division in coeff, which must widen k).

Smaller products, up to _SCHOOLBOOK_MAX term pairs len(a) * len(b), go by
dict convolution, whose per-call cost is lower. The crossover was chosen
on every kmul operand pair recorded on the four perfbench workloads,
replayed through both paths in groups by term pairs (best of 9 process
times, 2 cores, CPython 3.11). The convolution wins up to about 96 term
pairs on laurent-identities, whose qint products are small and sparse
(66 ms against 73 ms at 81-96 pairs; convolution first throughout),
and up to about 128 on comult-verify and mult-verify (comult-verify
17 ms against 54 ms at 2-16 pairs). Kronecker wins above 128
(laurent-identities 121 ms against 94 ms at 129-160 pairs) and by
1.9-3.7x above 256 pairs, where most kmul time goes (table-emit 576 ms
against 157 ms, mult-verify 715 ms against 256 ms).

The slot layout (_to_slots, _from_slots) and the pack/unpack pair also
serve the Kronecker exact division and the heuristic gcd in coeff; a
univariate polynomial {i: c} is a slot dict as it stands.
"""

BACKEND = "python"

# largest len(a) * len(b) that kmul multiplies by dict convolution
_SCHOOLBOOK_MAX = 128


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


def _to_slots(t, mi, mj, w):
    """Slot dict {(j - mj)*w + i - mi: c} of the term dict t, whose
    exponents are at least (mi, mj) and whose q-span is below w."""
    return {(j - mj) * w + i - mi: c for (i, j), c in t.items()}


def _from_slots(t, w, mi, mj):
    """Inverse of _to_slots: the term dict of the slot dict t."""
    return {(s % w + mi, s // w + mj): c for s, c in t.items()}


def _pack(t, k):
    """Value of the slot dict t at q = 2^k."""
    return sum([c << (k * s) for s, c in t.items()])


def _unpack(x, n, k):
    """The balanced base-2^k digits of the int x, each in [-2^(k-1), 2^(k-1)),
    as a slot dict; None when x needs more than n digits."""
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
        w = max(ia) - ai + max(ib) - bi + 1
        m = max(map(abs, a.values())) * max(map(abs, b.values()))
        k = (m * min(len(a), len(b))).bit_length() + 1
        sa = _to_slots(a, ai, aj, w)
        sb = _to_slots(b, bi, bj, w)
        p = _unpack(_pack(sa, k) * _pack(sb, k), max(sa) + max(sb) + 1, k)
        return _from_slots(p, w, ai + bi, aj + bj)
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
