"""PBW-ordered elements of the quantized enveloping algebra of sl2.

Monomial basis E^a K^b F^c with a, c >= 0 and b any integer. The pinned
relations are

    K E = q^2 E K,   K F = q^-2 F K,   E F - F E = (K - K^-1)/(q - q^-1),

and every product is rewritten into the basis through the commutation
identity E F^c = F^c E + [c] F^{c-1} (q^{1-c} K - q^{c-1} K^-1)/(q - q^-1).
Products of basis monomials are memoized, which makes repeated
right-multiplications cheap. The PBW images of the divided powers of
B = F + varsigma E K^-1 are built on cyclotomic exponent vectors in
``idp``, by this identity; the products here are the plain construction
those images are checked against.

Beyond the algebra itself this module carries the operators the divided
power laws need: the Cartan-type element h = (K^-2 - 1)/(q^2 - 1) and its
shifted binomials, the bar-twisted anti-involution chi (E, F, K fixed,
coefficients barred, defined on varsigma-free input), and evaluation on a
weight vector (K acts by q^m, E and F keep their symbols).
"""

from .coeff import LaurentPoly, Scalar
from .errors import RequiresSpecialized
from .qcomb import qfact, qint
from .sparse import Sparse, _acc

_SC_ONE = Scalar.one()
_UNIT = (0, 0, 0)

_GEN_MONO = {
    "E": (1, 0, 0),
    "F": (0, 0, 1),
    "K": (0, 1, 0),
    "Kinv": (0, -1, 0),
}

# normal form of m1 * m2, keyed by the monomial pair
_MONO_CACHE = {}

# [c] / (q - q^-1), keyed by c
_CDIV_CACHE = {}


def _cdiv(c):
    s = _CDIV_CACHE.get(c)
    if s is None:
        s = Scalar(qint(c), LaurentPoly.q(1) - LaurentPoly.q(-1))
        _CDIV_CACHE[c] = s
    return s


def _rmul_E(t):
    """Right-multiply a normal-form dict by E."""
    out = {}
    for (a, b, c), s in t.items():
        _acc(out, (a + 1, b, c), s * Scalar.q_power(2 * b))
        if c:
            w = s * _cdiv(c)
            _acc(out, (a, b - 1, c - 1), w * Scalar.q_power(1 - c))
            _acc(out, (a, b + 1, c - 1), -(w * Scalar.q_power(c - 1)))
    return out


def _rmul_K(t, sign):
    return {
        (a, b + sign, c): s * Scalar.q_power(2 * c * sign)
        for (a, b, c), s in t.items()
    }


def _rmul_F(t):
    return {(a, b, c + 1): s for (a, b, c), s in t.items()}


def _mono_mul(m1, m2):
    """Normal form of m1 * m2 as a dict {monomial: Scalar}."""
    if m1 == _UNIT:
        return {m2: _SC_ONE}
    if m2 == _UNIT:
        return {m1: _SC_ONE}
    key = (m1, m2)
    r = _MONO_CACHE.get(key)
    if r is not None:
        return r
    a2, b2, c2 = m2
    if c2 > 0:
        r = _rmul_F(_mono_mul(m1, (a2, b2, c2 - 1)))
    elif b2 > 0:
        r = _rmul_K(_mono_mul(m1, (a2, b2 - 1, 0)), 1)
    elif b2 < 0:
        r = _rmul_K(_mono_mul(m1, (a2, b2 + 1, 0)), -1)
    else:
        r = _rmul_E(_mono_mul(m1, (a2 - 1, 0, 0)))
    _MONO_CACHE[key] = r
    return r


def _check_monomial(m):
    """``m`` as a PBW monomial (a, b, c): three ints with a, c >= 0."""
    if (not isinstance(m, tuple) or len(m) != 3
            or not all(isinstance(e, int) for e in m) or m[0] < 0 or m[2] < 0):
        raise ValueError(f"bad PBW monomial {m}")
    return m


def _format_monomial(m):
    """E^a K^b F^c as ``E^a*K^b*F^c``, omitting zero powers and writing a
    power of one bare; the unit monomial is the empty string."""
    factors = []
    for sym, e in zip("EKF", m):
        if e == 1:
            factors.append(sym)
        elif e:
            factors.append(f"{sym}^{e}")
    return "*".join(factors)


class UElement(Sparse):
    """Finite Scalar combination of PBW monomials."""

    __slots__ = ()

    _check_key = staticmethod(_check_monomial)
    _key_mul = staticmethod(_mono_mul)
    _format = staticmethod(_format_monomial)

    @classmethod
    def one(cls):
        return cls._raw({_UNIT: _SC_ONE})

    @classmethod
    def monomial(cls, a, b, c, coeff=1):
        return cls({(a, b, c): coeff})

    @classmethod
    def gen(cls, name):
        """One of E, F, K, Kinv, or Echeck = varsigma E K^-1."""
        if name == "Echeck":
            return cls._raw({(1, -1, 0): Scalar(LaurentPoly.vs())})
        m = _GEN_MONO.get(name)
        if m is None:
            raise ValueError(f"unknown generator {name!r}")
        return cls._raw({m: _SC_ONE})

    def coeff(self, a, b, c):
        return self._t.get((a, b, c), Scalar.zero())

    def support(self):
        return sorted(self._t)


def u_gen(name):
    return UElement.gen(name)


def divided_power(name, n):
    """E^{(n)}, F^{(n)}, or Echeck^{(n)} = (varsigma E K^-1)^n / [n]!."""
    if n < 0:
        raise ValueError("divided power of negative order")
    if n == 0:
        return UElement.one()
    inv_fact = Scalar(LaurentPoly.one(), qfact(n))
    if name == "E":
        return UElement._raw({(n, 0, 0): inv_fact})
    if name == "F":
        return UElement._raw({(0, 0, n): inv_fact})
    if name == "Echeck":
        # (E K^-1)^n = q^{-n(n-1)} E^n K^-n, then the varsigma^n prefactor
        s = Scalar(LaurentPoly.monomial(-n * (n - 1), n), qfact(n))
        return UElement._raw({(n, -n, 0): s})
    raise ValueError(f"no divided power for generator {name!r}")


def u_h():
    """h = (K^-2 - 1)/(q^2 - 1)."""
    d = LaurentPoly.q(2) - LaurentPoly.one()
    inv = Scalar(LaurentPoly.one(), d)
    return UElement._raw({(0, -2, 0): inv, _UNIT: -inv})


_HBINOM_CACHE = {}


def u_h_binom(a, n):
    """Shifted h-binomial: product over i = 1..n of
    (q^{4a+4i-4} K^-2 - 1)/(q^{4i} - 1)."""
    if n < 0:
        raise ValueError("h-binomial of negative order")
    key = (a, n)
    r = _HBINOM_CACHE.get(key)
    if r is None:
        if n == 0:
            r = UElement.one()
        else:
            prev = u_h_binom(a, n - 1)
            d = LaurentPoly.q(4 * n) - LaurentPoly.one()
            factor = UElement._raw(
                {
                    (0, -2, 0): Scalar(LaurentPoly.q(4 * a + 4 * n - 4), d),
                    _UNIT: Scalar(-LaurentPoly.one(), d),
                }
            )
            r = prev * factor
        _HBINOM_CACHE[key] = r
    return r


def chi(x):
    """Anti-involution: fixes E, F, K, bars every coefficient.

    chi(E^a K^b F^c) is the normal form of F^c K^b E^a with the barred
    coefficient. Only varsigma-free elements are accepted; specialize
    varsigma -> q^-1 first.
    """
    out = {}
    for (a, b, c), s in x._t.items():
        if not s.is_varsigma_free():
            raise RequiresSpecialized(
                "chi is defined after specializing varsigma -> q^-1"
            )
        w = s.bar() * Scalar.q_power(2 * b * c)
        for m, f in _mono_mul((0, b, c), (a, 0, 0)).items():
            _acc(out, m, w * f)
    return UElement._raw(out)


def weight_eval(x, m):
    """Evaluate on a weight vector of weight m: K^b acts by q^{mb}.

    Linear map sending E^a K^b F^c to q^{mb} E^a F^c; the output lives in
    the same PBW dict with all K-exponents zero.
    """
    out = {}
    for (a, b, c), s in x._t.items():
        _acc(out, (a, 0, c), s * Scalar.q_power(m * b))
    return UElement._raw(out)
