"""Balanced quantum integers, factorials and binomials.

Conventions: [n] = (q^n - q^-n)/(q - q^-1), with [n] = -[-n] and [0] = 0.
The base-q^m variant replaces q by q^m and must see m != 0. The balanced
binomial [m choose n] = [m]!/([n]! [m-n]!) is a Laurent polynomial; out of
range n (n < 0 or n > m) gives 0 by convention, matching how vanishing terms
are dropped from the closed multiplication formulas.
"""

from functools import lru_cache

from .coeff import LaurentPoly
from .errors import NegativeInput, ZeroBase


@lru_cache(maxsize=None)
def qint(n):
    """Balanced quantum integer [n] as a LaurentPoly in q."""
    if n < 0:
        return -qint(-n)
    return LaurentPoly._raw({(n - 1 - 2 * i, 0): 1 for i in range(n)})


def qint_base(n, m):
    """[n] in base q^m, i.e. (q^{mn} - q^{-mn})/(q^m - q^{-m})."""
    if m == 0:
        raise ZeroBase("quantum integer base q^0")
    if n < 0:
        return -qint_base(-n, m)
    out = {}
    for i in range(n):
        e = m * (n - 1 - 2 * i)
        out[(e, 0)] = out.get((e, 0), 0) + 1
    return LaurentPoly._raw(out)


@lru_cache(maxsize=None)
def qfact(n):
    """Balanced quantum factorial [n]! = [1][2]...[n]."""
    if n < 0:
        raise NegativeInput("factorial of a negative integer")
    if n == 0:
        return LaurentPoly.one()
    return qfact(n - 1) * qint(n)


@lru_cache(maxsize=None)
def qbinom(m, n):
    """Balanced quantum binomial; 0 when n is out of 0..m."""
    if m < 0:
        raise NegativeInput("quantum binomial with negative top index")
    if n < 0 or n > m:
        return LaurentPoly.zero()
    n = min(n, m - n)
    if n == 0:
        return LaurentPoly.one()
    out = qbinom(m - 1, n - 1) * qint(m)
    q = out.exact_div(qint(n))
    assert q is not None, "quantum Pascal step must divide exactly"
    return q


# the cached functions themselves, which clear_caches empties: the module
# names may be rebound, for instance to a profiler's plain wrappers
_LRU_CACHED = (qint, qfact, qbinom)
