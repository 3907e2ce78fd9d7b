"""Coefficients as cyclotomic exponent vectors.

Every coefficient of the closed coproduct formulas, and every ratio of
the closed product formulas, has the shape
sign q^i varsigma^j prod_d Phi_d(q^2)^(e_d), with Phi_d the d-th cyclotomic
polynomial (Phi_1(x) = x - 1) and e_d of either sign. Such a coefficient is
stored as the vector (sign, i, j, {d: e_d}), sign = +-1 and every e_d != 0,
and zero as the int 0. Distinct Phi_d(x) are coprime irreducibles and none
vanishes at 0, so equal values have equal vectors. A product adds the
exponents (``vmul``). For k >= 1, [k] = q^(1-k) prod_{d | k, d > 1}
Phi_d(q^2) and [-k] = -[k], so a ratio of quantum integers is a vector by
counting (``qratio_vector``), and ``to_scalar`` writes a vector as a Scalar
in lowest terms with no gcd.

A sum (``vsum``) and the conversion of a term dict (``from_terms``) are
proved by evaluation at q = 2^k, the argument the ``coeff`` docstring makes
for GCDHEU. Write the sum of terms s_t q^(a_t) prod_d Phi_d^(e_(t,d)) as
q^A prod_d Phi_d^(E_d) N, with A and E_d the least exponents over the
terms, so that N is a polynomial in q. The coefficients of a product are at
most the product of the factors' 1-norms (||fg||_inf <= ||f||_1 ||g||_1),
so those of N are at most M = sum_t prod_d ||Phi_d||_1^(e_(t,d) - E_d).
Take k with 2^(k-1) > M and V = N(2^k). If V = 0, N is 0: its coefficients
are its balanced base-2^k digits. Otherwise strip 2^(k s) while it divides,
then each value Phi_d(4^k) while it divides, counting g_d. If +-1 is left
and 2^(k-1) > G = prod_d ||Phi_d||_1^(g_d), then N and +-q^s prod_d
Phi_d^(g_d) are polynomials with coefficients below 2^(k-1) and equal
values at 2^k, so they are equal. Any other outcome returns None: nothing
is guessed, and the caller decides with Scalars.
"""

from ._kernel_py import _pack, _unpack
from .coeff import Scalar
from .errors import DivisionByZero

_SC_ZERO = Scalar.zero()

# cyclotomic data keyed by d >= 2, filled on first use: Phi_d(x) as a
# univariate dict {i: c}, its 1-norm, and the divisors e > 1 of d; and the
# data of Phi_1(x) = x - 1
_CYCLOTOMIC_CACHE = {}
_PHI_1 = ({0: -1, 1: 1}, 2, ())


def _cyclotomic(d):
    """(Phi_d, ||Phi_d||_1, divisors e > 1 of d) for d >= 1.

    x^d - 1 is the product of Phi_e(x) over the divisors e of d, so Phi_d
    is its exact quotient by (x - 1) and by Phi_e for the divisors
    1 < e < d. The division runs on values at x = 2^k, k = d + 1: a factor
    of x^d - 1 has degree below d, so by Mignotte's bound its coefficients
    are below 2^(d-1) ||x^d - 1||_2 < 2^(k-1), and the balanced base-2^k
    digits of the quotient are its coefficients.
    """
    if d == 1:
        return _PHI_1
    r = _CYCLOTOMIC_CACHE.get(d)
    if r is None:
        k = d + 1
        divs = tuple(e for e in range(2, d + 1) if d % e == 0)
        val = ((1 << (k * d)) - 1) // ((1 << k) - 1)
        for e in divs[:-1]:
            val //= _pack(_cyclotomic(e)[0], k)
        phi = _unpack(val, d, k)
        r = (phi, sum(map(abs, phi.values())), divs)
        _CYCLOTOMIC_CACHE[d] = r
    return r


def _cyclotomic_product(exps):
    """prod Phi_d(x)^e over the (d, e) pairs of ``exps`` (e > 0), as {i: c}.

    One big-integer product of the values at x = 2^k, with pow for repeated
    factors. The coefficients of a product are at most the product of the
    factors' 1-norms (||fg||_inf <= ||fg||_1 <= ||f||_1 ||g||_1), so with
    k = bit_length(prod ||Phi_d||_1^e) + 1 the balanced base-2^k digits of
    the value are the coefficients. Up to 64 bits k is rounded up to a
    machine word, so that the values come from the memo of ``_phi_value``
    and ``_unpack`` reads the digits as words.
    """
    norm = 1
    deg = 0
    for d, e in exps:
        phi, n1, _ = _cyclotomic(d)
        norm *= n1 ** e
        deg += max(phi) * e
    k = norm.bit_length() + 1
    val = 1
    if k <= 64:
        k = max(8, 1 << (k - 1).bit_length())
        for d, e in exps:
            val *= pow(_phi_value(d, k // 2), e)
    else:
        for d, e in exps:
            val *= pow(_pack(_cyclotomic(d)[0], k), e)
    return _unpack(val, deg + 1, k)


def qratio_vector(nums, dens, l=0):
    """The vector of (q varsigma)^l times ``qratio(nums, dens)``.

    e_d counts the numerator indices that d divides minus the denominator
    indices that d divides, the q-shift sums 1 - |k| over the numerator
    minus the same sum over the denominator, each negative index flips the
    sign, and zero indices cancel as in ``qratio``.
    """
    net = {}
    negative = 0
    for ks, c in ((nums, 1), (dens, -1)):
        for k in ks:
            if k < 0:
                negative += 1
                k = -k
            net[k] = net.get(k, 0) + c
    zeros = net.pop(0, 0)
    if zeros < 0:
        raise DivisionByZero("vanishing quantum integer in a denominator")
    if zeros:
        return 0
    sign = -1 if negative % 2 else 1
    shift = l
    exps = {}
    for k, c in net.items():
        if c and k > 1:
            shift += c * (1 - k)
            for d in _cyclotomic(k)[2]:
                exps[d] = exps.get(d, 0) + c
    return sign, shift, l, {d: e for d, e in exps.items() if e}


def to_scalar(x):
    """The Scalar of the vector x (or 0), built in lowest terms with no gcd."""
    if not x:
        return _SC_ZERO
    sign, shift, l, exps = x
    num = [(d, e) for d, e in exps.items() if e > 0]
    den = [(d, -e) for d, e in exps.items() if e < 0]
    n = {(2 * i + shift, l): sign * c
         for i, c in _cyclotomic_product(num).items()}
    d = {(2 * i, 0): c for i, c in _cyclotomic_product(den).items()}
    return Scalar._make(n, d, cancel=False)


def qratio(nums, dens):
    """Product of quantum integers over ``nums`` divided by the product over
    ``dens``, the arguments being lists of integer indices.

    Indices common to both lists cancel multiset-wise, by absolute value
    with the sign of [-k] = -[k] kept apart. Cancelling by index keeps a
    removable 0/0 exact: a 0 appearing on both sides drops out as the pair
    it is. After cancellation a remaining 0 numerator index gives the zero
    Scalar, and a remaining 0 denominator index is a genuine division by
    zero. The rest is counted in cyclotomic factors (``qratio_vector``), so
    the result is built in lowest terms and no gcd runs.
    """
    return to_scalar(qratio_vector(nums, dens))


def vmul(x, y):
    """The product of the nonzero vectors x and y."""
    s1, i1, j1, e1 = x
    s2, i2, j2, e2 = y
    exps = dict(e1)
    for d, e in e2.items():
        e += exps.get(d, 0)
        if e:
            exps[d] = e
        else:
            del exps[d]
    return s1 * s2, i1 + i2, j1 + j2, exps


def vinv(x):
    """The inverse of the nonzero vector x."""
    sign, i, j, exps = x
    return sign, -i, -j, {d: -e for d, e in exps.items()}


# Phi_d(4^k), the value of Phi_d(q^2) at q = 2^k, keyed by (d, k);
# _cyclotomic_product reads Phi_d(2^w) at a word width w as (d, w/2)
_PHI_VALUES = {}


def _phi_value(d, k):
    v = _PHI_VALUES.get((d, k))
    if v is None:
        v = _PHI_VALUES[d, k] = _pack(_cyclotomic(d)[0], 2 * k)
    return v


def _width(bound):
    """The least k with 2^(k-1) > bound, rounded up to a multiple of 16 so
    that the values Phi_d(4^k) are shared between evaluations."""
    return -(-(bound.bit_length() + 1) // 16) * 16


def _prove(value_at, bound, shift, j, exps, ds):
    """The vector q^shift varsigma^j prod_d Phi_d(q^2)^(exps_d) N, or 0, or
    None (see the module docstring), for a polynomial N in q with
    coefficients of at most ``bound`` and values ``value_at(k)`` = N(2^k),
    stripping Phi_d for d in ``ds``. When +-1 is left but the stripped
    factors need wider digits, N is evaluated once more at a wider k.
    """
    k = _width(bound)
    for _ in range(2):
        val = value_at(k)
        if not val:
            return 0
        s = ((val & -val).bit_length() - 1) // k
        val >>= k * s
        found = {}
        norm = 1
        for d in ds:
            if val in (1, -1):
                break
            p = _phi_value(d, k)
            while not val % p:
                val //= p
                found[d] = found.get(d, 0) + 1
                norm *= _cyclotomic(d)[1]
        if val not in (1, -1):
            return None
        if norm.bit_length() < k:
            return vmul((val, shift + s, j, exps), (1, 0, 0, found))
        k = _width(max(bound, norm))
    return None


def from_terms(t, dmax):
    """The vector of the nonzero term dict t with factors Phi_d, d <= dmax;
    None when t is not proved to be of that shape."""
    j = next(iter(t))[1]
    if any(jj != j for _, jj in t):
        return None
    lo = min(i for i, _ in t)
    poly = {i - lo: c for (i, _), c in t.items()}
    return _prove(lambda k: _pack(poly, k), max(map(abs, t.values())), lo, j,
                  {}, range(1, dmax + 1))


def from_scalars(t, dmax):
    """{key: vector} of the dict t of nonzero Scalars with factors Phi_d,
    d <= dmax; None when a numerator or denominator does not convert. The
    tests compare the closed vectors against it."""
    out = {}
    for key, s in t.items():
        num = from_terms(s.num._t, dmax)
        den = from_terms(s.den._t, dmax)
        if num is None or den is None:
            return None
        out[key] = vmul(num, vinv(den))
    return out


def vsum(terms, dmax):
    """The sum of a nonempty list of nonzero vectors: a vector, 0, or None
    when it is not proved to be a vector with the factors of the terms and
    Phi_d, d <= dmax."""
    if len(terms) == 1:
        return terms[0]
    j = terms[0][2]
    lo = terms[0][1]
    # the least exponent of each Phi_d over the terms that carry it, and
    # how many carry it; a term without Phi_d has exponent 0 there
    low = {}
    carried = {}
    for _, i, jj, exps in terms:
        if jj != j:
            return None
        if i < lo:
            lo = i
        for d, e in exps.items():
            if d in low:
                carried[d] += 1
                if e < low[d]:
                    low[d] = e
            else:
                low[d] = e
                carried[d] = 1
    least = {}
    for d, e in low.items():
        if carried[d] < len(terms):
            e = min(e, 0)
        if e:
            least[d] = e
    norms = {d: _cyclotomic(d)[1] for d in low}
    rests = []
    bound = 0
    for sign, i, _, exps in terms:
        rest = {d: -e for d, e in least.items()}
        for d, e in exps.items():
            e += rest.get(d, 0)
            if e:
                rest[d] = e
            else:
                del rest[d]
        rests.append((sign, i - lo, rest))
        b = 1
        for d, e in rest.items():
            b *= norms[d] ** e
        bound += b

    def value_at(k):
        val = 0
        for sign, i, rest in rests:
            x = sign << (k * i)
            for d, e in rest.items():
                x *= _phi_value(d, k) ** e
            val += x
        return val

    return _prove(value_at, bound, lo, j, least,
                  sorted({*low, *range(1, dmax + 1)}))
