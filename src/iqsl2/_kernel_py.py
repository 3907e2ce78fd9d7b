"""Pure-Python kernels for sparse Laurent term dicts.

A term dict maps (q-exponent, varsigma-exponent) pairs to nonzero ints.
These functions are the hot loops behind every coefficient operation.
All functions return fresh dicts and never mutate their arguments.
"""

BACKEND = "python"


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


def kmul(a, b):
    """Convolution product of two term dicts."""
    if not a or not b:
        return {}
    if len(b) == 1:
        ((i2, j2), c2), = b.items()
        return {(i + i2, j + j2): c * c2 for (i, j), c in a.items()}
    if len(a) == 1:
        ((i1, j1), c1), = a.items()
        return {(i1 + i, j1 + j): c1 * c for (i, j), c in b.items()}
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
