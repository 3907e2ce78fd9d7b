"""Coefficients as cyclotomic exponent vectors.

Every coefficient of the closed coproduct formulas, and every ratio of
the closed product formulas, has the shape
sign q^i varsigma^j prod_d Phi_d(q^2)^(e_d), with Phi_d the d-th cyclotomic
polynomial (Phi_1(x) = x - 1) and e_d of either sign. Such a coefficient is
stored as the vector (sign, i, j, exps), sign = +-1, and zero as the int 0.
Distinct Phi_d(x) are coprime irreducibles and none vanishes at 0, so
equal values have equal vectors. For k >= 1, [k] = q^(1-k) prod_{d | k,
d > 1} Phi_d(q^2) and [-k] = -[k], so a ratio of quantum integers is a
vector by counting (``qratio_vector``), and ``to_scalar`` writes a vector
as a Scalar in lowest terms with no gcd. ``to_row`` writes the table row of
a vector, and ``sum_row`` that of a sum of vectors over one common
denominator, with no Scalar.

The exponents are packed into one int, exps = sum_d e_d 2^(16(d-1)): e_d is
the balanced 16-bit field d - 1, in [-2^15, 2^15). The packing is linear,
so a product adds the ints (``vmul``) and equal exponents are equal ints.
It is exact as long as every field stays in range: the balanced base-2^16
digits of an int are unique, and an int sum of in-range vectors whose
fields add to in-range values is the packing of those values, whatever
carries the int addition made between fields on the way. The fields are
read back as the words of (exps + H) ^ H, H the word 2^15 in every field
(``_fields``), the trick ``_unpack`` uses.

The field bound. A vector born here, by ``qratio_vector`` or as the
result of ``vsum``, has every e_d in [-2^12, 2^12); a larger one raises
ResourceLimit instead of carrying into the next field. ``qratio_vector``
bounds |e_d| by its number of indices, and ``vsum`` and ``_prove`` check
the fields of what they return (``_born``). The callers multiply at most
four born vectors before they sum or compare them (a B step: the image
times 1/([n][n-1]) and two factors [c]/(q^2 - 1); the assembly: image, leg
ratio and h-binomial), so every field they sum or compare lies in
[-2^14, 2^14), which ``vsum`` checks of its terms, well inside the 16-bit
field. The constructions at order n take at most 4n + 10 indices in one
ratio, so the limit lies near n = 1000; the checks up to the default
ceiling n = 24 have |e_d| <= 12 and d <= 35.

A sum (``vsum``) first collects like terms, keyed on (i, exps), into int
coefficients: a sum that cancels exactly is 0 with no evaluation, one
term left with coefficient +-1 is that term, and any other single term is
no vector. What is left is proved by evaluation at q = 2^k (``_prove``),
the argument the ``coeff`` docstring makes for GCDHEU. Write the sum of terms
c_t q^(a_t) prod_d Phi_d^(e_(t,d)) as q^A prod_d Phi_d^(E_d) N, with A and
E_d the least exponents over the terms (column minima of their fields),
so that N is a polynomial in q. The coefficients of a product are at most
the product of the factors' 1-norms (||fg||_inf <= ||f||_1 ||g||_1), so
those of N are at most M = sum_t |c_t| prod_d ||Phi_d||_1^(e_(t,d) - E_d).
Take k with 2^(k-1) > M and V = N(2^k). If V = 0, N is 0: its coefficients
are its balanced base-2^k digits. Otherwise strip 2^(k s) while it divides,
then each value Phi_d(4^k) while it divides, counting g_d. If +-1 is left
and 2^(k-1) > G = prod_d ||Phi_d||_1^(g_d), then N and +-q^s prod_d
Phi_d^(g_d) are polynomials with coefficients below 2^(k-1) and equal
values at 2^k, so they are equal. Any other outcome returns None: nothing
is guessed, and the caller decides with Scalars. The Phi_d tried are those
up to the caller's bound and those that any term carries, cancelled terms
included. The rest of a live term over the least exponents,
prod_d Phi_d^(e_(t,d) - E_d), recurs from sum to sum, so its packed
exponents key a memo of its part of M and its values
prod_d Phi_d(4^k)^(e_(t,d) - E_d) at the widths k it was evaluated at.

A sum is not needed where a term is compared with a vector as it is: the
coproduct check (``idp._comult_agrees``) takes away the direct vector of a
key when a term of the assembly equals it as a packed tuple, which is
exact for the products of at most four born vectors that both sides are,
and sums only the other terms of a key with the direct vector left there.
"""

from itertools import repeat
from operator import add, mul, neg

from ._kernel_py import _pack, _unpack
from .coeff import Scalar, format_terms
from .errors import DivisionByZero, ResourceLimit

_SC_ZERO = Scalar.zero()

# the width of one exponent field in bits, and the bound 2^12 on |e_d| of
# the vectors born here (see the module docstring)
_W = 16
_EMAX = 1 << 12

# cyclotomic data keyed by d >= 2, filled on first use: Phi_d(x) as a
# univariate dict {i: c} and its 1-norm; and the data of Phi_1(x) = x - 1
_CYCLOTOMIC_CACHE = {}
_PHI_1 = ({0: -1, 1: 1}, 2)

# the packed exponents of prod_{e | k, e > 1} Phi_e, the factors of [k],
# keyed by k >= 1 and filled on first use
_DIVISOR_MASKS = {}


def _divisor_mask(k):
    """The packed divisors e > 1 of k >= 1, sum 2^(16(e-1)): the exponents
    of [k] = q^(1-k) prod_{e | k, e > 1} Phi_e(q^2). It needs no Phi_e."""
    m = _DIVISOR_MASKS[k] = sum(1 << (_W * (e - 1))
                                for e in range(2, k + 1) if k % e == 0)
    return m


def _cyclotomic(d):
    """(Phi_d, ||Phi_d||_1) for d >= 1.

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
        val = ((1 << (k * d)) - 1) // ((1 << k) - 1)
        for e in range(2, d):
            if not d % e:
                val //= _pack(_cyclotomic(e)[0], k)
        phi = _unpack(val, d, k)
        r = _CYCLOTOMIC_CACHE[d] = phi, sum(map(abs, phi.values()))
    return r


def _size(exps):
    """(prod ||Phi_d||_1^e, sum deg(Phi_d) e) over the (d, e) pairs of
    ``exps`` (e > 0): a bound on the coefficients of the product, and its
    degree."""
    norm = 1
    deg = 0
    for d, e in exps:
        phi, n1 = _cyclotomic(d)
        norm *= n1 ** e
        deg += max(phi) * e
    return norm, deg


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
    norm, deg = _size(exps)
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


def _ones(exps):
    """The int with the word 1 in every field that exps uses and one more,
    so that exps plus a bias below 2^15 per field has no carry out of the
    top field."""
    return ((1 << (exps.bit_length() + 2 * _W) // _W * _W) - 1) // 0xFFFF


def _words(r):
    """The (d, w) pairs of the nonzero 16-bit words w of the int r >= 0, w
    the word of field d - 1, lowest first."""
    if r < 0:
        raise AssertionError("a field below the least exponents")
    out = []
    while r:
        f = ((r & -r).bit_length() - 1) // _W * _W
        w = r >> f & 0xFFFF
        r -= w << f
        out.append((f // _W + 1, w))
    return out


def _fields(exps):
    """The (d, e_d) pairs of the packed exponents, e_d != 0, d ascending:
    the words of (exps + H) ^ H, H = 2^15 in every field, read as signed."""
    h = _ones(exps) << 15
    return [(d, w - (w >> 15 << 16)) for d, w in _words((exps + h) ^ h)]


def _born(exps):
    """exps when every field lies in [-_EMAX, _EMAX); ResourceLimit
    otherwise.

    exps + _EMAX in every field has each field in [0, 2 _EMAX) exactly
    when the fields of exps are in range: then no field borrows or
    carries, and the bits of every field from 2 _EMAX up are clear.
    """
    ones = _ones(exps)
    x = exps + ones * _EMAX
    if x < 0 or x & ones * (0x10000 - 2 * _EMAX):
        raise ResourceLimit(
            f"a cyclotomic exponent reaches {_EMAX}, beyond the packed"
            " fields; lower the order")
    return exps


# the state of qratio_vector before its first index: the net count of zero
# indices, the count of negative indices, the count of all indices, the
# q-shift and the packed exponents
_START = (0, 0, 0, 0, 0)


def _qratio_fold(state, nums, dens):
    """The state of ``qratio_vector`` after the numerator indices ``nums``
    and the denominator indices ``dens``: each index k != 0 adds
    +-(1 - |k|) to the shift and +- the divisors of |k| to the exponents,
    each negative one flips the sign, and a zero one counts +-1."""
    zeros, negative, count, shift, exps = state
    for k in nums:
        if k <= 0:
            if not k:
                zeros += 1
                continue
            negative += 1
            k = -k
        shift += 1 - k
        m = _DIVISOR_MASKS.get(k)
        exps += _divisor_mask(k) if m is None else m
    for k in dens:
        if k <= 0:
            if not k:
                zeros -= 1
                continue
            negative += 1
            k = -k
        shift -= 1 - k
        m = _DIVISOR_MASKS.get(k)
        exps -= _divisor_mask(k) if m is None else m
    return zeros, negative, count + len(nums) + len(dens), shift, exps


def _qratio_finish(state, l=0):
    """The vector of (q varsigma)^l times the ratio of ``state``: 0 when
    zero indices are left over in the numerator, DivisionByZero when they
    are in the denominator. Each |e_d| is at most the number of indices,
    which must stay below _EMAX."""
    zeros, negative, count, shift, exps = state
    if zeros < 0:
        raise DivisionByZero("vanishing quantum integer in a denominator")
    if zeros:
        return 0
    if count >= _EMAX:
        raise ResourceLimit(
            f"{count} quantum integers in one ratio: a cyclotomic exponent"
            f" could reach {_EMAX}, beyond the packed fields; lower the order")
    return -1 if negative % 2 else 1, shift + l, l, exps


def qratio_vector(nums, dens, l=0):
    """The vector of (q varsigma)^l times the product of the quantum
    integers [k] over ``nums`` divided by the product over ``dens``.

    e_d counts the numerator indices that d divides minus the denominator
    indices that d divides, the q-shift sums 1 - |k| over the numerator
    minus the same sum over the denominator, and each negative index flips
    the sign. Zero indices cancel in pairs, one from each list, so a
    removable 0/0 drops out; a zero index left over gives 0 in the
    numerator and DivisionByZero in the denominator. The counts are linear,
    so the indices fold one at a time (``_qratio_fold``), and a caller that
    grows its index lists can carry the state.
    """
    return _qratio_finish(_qratio_fold(_START, nums, dens), l)


def to_scalar(x):
    """The Scalar of the vector x (or 0), built in lowest terms with no gcd."""
    if not x:
        return _SC_ZERO
    sign, shift, l, exps = x
    fields = _fields(exps)
    num = [(d, e) for d, e in fields if e > 0]
    den = [(d, -e) for d, e in fields if e < 0]
    n = {(2 * i + shift, l): sign * c
         for i, c in _cyclotomic_product(num).items()}
    d = {(2 * i, 0): c for i, c in _cyclotomic_product(den).items()}
    return Scalar._make(n, d, cancel=False)


def _text(poly, shift, l, sign=1):
    """The canonical text of sign q^shift varsigma^l poly(q^2), for the
    univariate dict poly {i: c} in ascending order. The terms reach
    ``format_terms`` through C iterators, so no Python frame runs per
    term."""
    keys = zip(map(add, map(mul, poly, repeat(2)), repeat(shift)), repeat(l))
    cs = poly.values()
    return format_terms(zip(keys, cs if sign > 0 else map(neg, cs)))


def to_row(x):
    """(str(to_scalar(x)), integral, positive) of the nonzero vector x, as
    ``verify.table_rows`` reports a coefficient, with no Scalar: the texts
    are written by ``_text`` from the digits of ``_cyclotomic_product``,
    which come in ascending order. The fraction is in lowest terms over
    prod Phi_d(q^2), so it is a Laurent polynomial exactly when no exponent
    is negative; and varsigma -> q^-1 only shifts its terms, which all
    carry varsigma^l, so it is then nonnegative exactly when every
    sign * c is positive: the least c for sign 1, the greatest for -1."""
    sign, shift, l, exps = x
    fields = _fields(exps)
    num = _cyclotomic_product([(d, e) for d, e in fields if e > 0])
    text = _text(num, shift, l, sign)
    den = [(d, -e) for d, e in fields if e < 0]
    if den:
        den = _text(_cyclotomic_product(den), 0, 0)
        return f"({text})/({den})", False, False
    cs = num.values()
    return text, True, min(cs) > 0 if sign > 0 else max(cs) < 0


def sum_row(terms):
    """The row (text, True, positive), as ``to_row`` writes it, of the sum
    of the nonzero vectors ``terms`` when that sum is proved to be a
    Laurent polynomial; 0 when it vanishes; None otherwise, so that the
    caller adds Scalars: when the sum is no Laurent polynomial, when that
    is not proved, and always when the terms differ in l or in the parity
    of their shifts. A sum left as None is not 0: terms that differ so
    cannot cancel, and the first evaluation decides 0. No Scalar and no
    gcd.

    Let F = min(0, e_t) field by field and lo the least shift. Then the sum
    is q^lo varsigma^l N(q^2) / D(q^2), with D = prod_d Phi_d^(-F_d) and
    N = sum_t s_t x^((i_t - lo)/2) prod_d Phi_d^(e_t - F) polynomials in
    x = q^2 (the shifts have one parity). N has coefficients of at most
    B = sum_t prod_d ||Phi_d||_1^(e_t - F). At x = 2^k with 2^(k-1) > B:
    V = N(2^k) = 0 means N = 0, its balanced digits; a remainder of V mod
    D(2^k) proves that D does not divide N, as N = Q D gives
    V = Q(2^k) D(2^k). Otherwise Q, the balanced digits of V / D(2^k), has
    Q D - N vanish at 2^k with coefficients of at most
    ||Q||_1 ||D||_1 + B. When that is below 2^(k-1), N = Q D and the sum
    is the Laurent polynomial q^lo varsigma^l Q(q^2), nonnegative after
    varsigma -> q^-1 exactly when every digit is positive. When D = 1, Q
    is N itself. Otherwise k widens to cover the bound, at most twice; a
    quotient with more digits than deg N - deg D + 1 is not proved.
    """
    l = terms[0][2]
    lo = min(t[1] for t in terms)
    if any(t[2] != l or (t[1] - lo) % 2 for t in terms):
        return None
    fields = [_fields(t[3]) for t in terms]
    floor = {}
    for f in fields:
        for d, e in f:
            if e < floor.get(d, 0):
                floor[d] = e
    den = [(d, -e) for d, e in floor.items()]
    # each term of N as (sign, x-shift, its (d, e) pairs over the floor)
    parts = []
    bound = deg = 0
    for (sign, i, _, _), f in zip(terms, fields):
        rest = dict(den)
        for d, e in f:
            rest[d] = rest.get(d, 0) + e
        rest = [(d, e) for d, e in rest.items() if e]
        a = (i - lo) // 2
        norm, g = _size(rest)
        bound += norm
        deg = max(deg, a + g)
        parts.append((sign, a, rest))
    dnorm, ddeg = _size(den)
    k = _width(bound)
    for _ in range(3):
        val = 0
        for sign, a, rest in parts:
            x = sign << (k * a)
            for d, e in rest:
                x *= _phi_value(d, k // 2) ** e
            val += x
        if not val:
            return 0
        dval = 1
        for d, e in den:
            dval *= _phi_value(d, k // 2) ** e
        quo, rem = divmod(val, dval)
        if rem:
            return None
        q = _unpack(quo, deg - ddeg + 1, k)
        if q is None:
            return None
        need = sum(map(abs, q.values())) * dnorm + bound
        if not den or need.bit_length() < k:
            return _text(q, lo, l), True, min(q.values()) > 0
        k = _width(need)
    return None


def vmul(x, y):
    """The product of the nonzero vectors x and y."""
    return x[0] * y[0], x[1] + y[1], x[2] + y[2], x[3] + y[3]


# Phi_d(4^k), the value of Phi_d(q^2) at q = 2^k, keyed by (d, k);
# _cyclotomic_product and sum_row read Phi_d(x) at x = 2^w as (d, w/2)
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


# the packed rests r >= 0 of the live terms of a sum over their least
# exponents (``vsum``), keyed by r: (prod ||Phi_d||_1^e, {k: prod
# Phi_d(4^k)^e}) over its nonzero fields (d, e), at the widths k it was
# evaluated at. The sums of a check share few rests, evaluated at few
# widths; the fields are read again for a new width, so that the memo
# stays small where the rests recur less (the mult suites)
_REST_CACHE = {}


def _rest(r):
    """The memo entry of the packed rest r (``_REST_CACHE``), with no value
    yet."""
    norm = 1
    for d, e in _words(r):
        norm *= _cyclotomic(d)[1] ** e
    entry = _REST_CACHE[r] = norm, {}
    return entry


def _rest_value(r, k):
    """prod Phi_d(4^k)^e over the nonzero fields (d, e) of the rest r."""
    v = 1
    for d, e in _words(r):
        v *= _phi_value(d, k) ** e
    return v


def _prove(value_at, bound, shift, j, exps, ds):
    """The vector q^shift varsigma^j prod_d Phi_d(q^2)^(exps_d) N, or 0, or
    None (see the module docstring), for a polynomial N in q with
    coefficients of at most ``bound`` and values ``value_at(k)`` = N(2^k),
    stripping Phi_d for d in ``ds``. When +-1 is left but the stripped
    factors need wider digits, N is evaluated once more at a wider k.
    ResourceLimit when an exponent of the result leaves the field bound.
    """
    k = _width(bound)
    for _ in range(2):
        val = value_at(k)
        if not val:
            return 0
        s = ((val & -val).bit_length() - 1) // k
        val >>= k * s
        found = 0
        norm = 1
        for d in ds:
            if val in (1, -1):
                break
            p = _phi_value(d, k)
            while not val % p:
                val //= p
                found += 1 << (_W * (d - 1))
                norm *= _cyclotomic(d)[1]
        if val not in (1, -1):
            return None
        if norm.bit_length() < k:
            return val, shift + s, j, _born(exps + found)
        k = _width(max(bound, norm))
    return None


def vsum(terms, dmax):
    """The sum of a nonempty list of nonzero vectors: a vector, 0, or None
    when it is not proved to be a vector with the factors of the terms and
    Phi_d, d <= dmax."""
    if len(terms) == 1:
        sign, i, j, exps = terms[0]
        return sign, i, j, _born(exps)
    j = terms[0][2]
    # like terms collected into int coefficients
    coeffs = {}
    for sign, i, jj, exps in terms:
        if jj != j:
            return None
        key = i, exps
        coeffs[key] = coeffs.get(key, 0) + sign
    live = [(c, i, exps) for (i, exps), c in coeffs.items() if c]
    if len(live) < 2:
        if not live:
            return 0
        c, i, exps = live[0]
        return (c, i, j, _born(exps)) if c in (1, -1) else None
    # Biased by 4 _EMAX, every field of every key lies in [0, 2^15) while
    # the terms are products of at most four born vectors (module
    # docstring); one OR checks it. Then one subtraction from the words
    # with their top bit set compares all fields at once, so the least
    # exponents are a fieldwise minimum over the live terms. The factors
    # that any key carries, cancelled terms included, are the nonzero
    # fields of another OR.
    ones = _ones(max((exps for _, exps in coeffs), key=abs))
    h = ones * (4 * _EMAX)
    top = ones << 15
    seen = carried = 0
    low = live[0][2] + h
    for (_, exps), c in coeffs.items():
        x = exps + h
        seen |= x
        carried |= x ^ h
        if c:
            # 0xFFFF in the fields where low >= x
            m = ((((low | top) - x) & top) >> 15) * 0xFFFF
            low ^= (low ^ x) & m
    if seen < 0 or seen & top:
        raise ResourceLimit(
            f"a cyclotomic exponent of a sum reaches {4 * _EMAX}, beyond the"
            " packed fields; lower the order")
    # each live term over the least exponents, its fields in [0, 2^15):
    # its packed rest, its part of the bound and its memoized values
    # (``_REST_CACHE``)
    rests = []
    bound = 0
    lo = min(i for _, i, _ in live)
    off = h - low
    for c, i, exps in live:
        r = exps + off
        norm, values = _REST_CACHE.get(r) or _rest(r)
        bound += abs(c) * norm
        rests.append((c, i - lo, r, values))

    def value_at(k):
        val = 0
        for c, i, r, values in rests:
            v = values.get(k)
            if v is None:
                v = values[k] = _rest_value(r, k)
            val += c * v << (k * i)
        return val

    ds = range(1, dmax + 1)
    extra = _words(carried >> (_W * dmax))
    if extra:
        ds = [*ds, *(dmax + d for d, _ in extra)]
    return _prove(value_at, bound, lo, j, low - h, ds)
