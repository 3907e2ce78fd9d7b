"""PBW-ordered elements of the quantized enveloping algebra of sl2.

Monomial basis E^a K^b F^c with a, c >= 0 and b any integer. The pinned
relations are

    K E = q^2 E K,   K F = q^-2 F K,   E F - F E = (K - K^-1)/(q - q^-1),

and the product of two basis monomials is read from one closed formula:
the divided-power commutation formula for F^c E^a (Lusztig, Introduction
to Quantum Groups), written in this order, with one cyclotomic exponent
vector per term E^x K^k F^y (``_commute_vectors``). E^a K^b F^c times
E^a' K^b' F^c' is then, term by term, E^(a+x) K^(b+k+b') F^(y+c') times
q^(2(bx + b'y)) (``_mono_vectors``), and each coefficient is ``to_scalar``
of one vector: no rewriting and no sum. The terms and the Scalar products
are memoized. The B step of the PBW images and the reversed coproduct legs
in ``idp`` read the same vectors.

Beyond the algebra itself this module carries the operators the divided
power laws need: the Cartan-type element h = (K^-2 - 1)/(q^2 - 1) and its
shifted binomials (``_h_binom_vectors``), the bar-twisted anti-involution
chi (E, F, K fixed, coefficients barred, defined on varsigma-free input),
and evaluation on a weight vector (K acts by q^m, E and F keep their
symbols).
"""

from .coeff import LaurentPoly, Scalar
from .cyclo import qratio_vector, to_scalar, vmul
from .errors import RequiresSpecialized
# re-exported: perfbench's tracer looks the names up on this module
from .qcomb import qfact, qint  # noqa: F401
from .sparse import Sparse, _acc

_SC_ONE = Scalar.one()
_UNIT = (0, 0, 0)

_GEN_MONO = {
    "E": (1, 0, 0),
    "F": (0, 0, 1),
    "K": (0, 1, 0),
    "Kinv": (0, -1, 0),
}

# the terms of F^c E^a as {(x, k, y): vector} for E^x K^k F^y, keyed by (c, a)
_COMMUTE_VEC_CACHE = {}


def _commute_vectors(c, a):
    """F^c E^a in PBW order, by the divided-power commutation formula

        F^c E^a = sum_t (-1)^t [c]! [a]! / ([c-t]! [a-t]!)
                  E^(a-t) [K; a+c-t-1; t] F^(c-t),
        [K; N; t] = prod_{s=1..t} (K q^(N-s+1) - K^-1 q^(s-N-1))
                                  / (q^s - q^-s).

    By the q-binomial theorem [K; N; t] is the sum over j = 0..t of
    (-1)^j q^(tN - t(t-1)/2 + j(t-1) - 2jN) K^(t-2j) / ([j]! [t-j]!
    (q - q^-1)^t), and q - q^-1 is q^-1 Phi_1(q^2). Each (t, j) gives its
    own monomial, so every coefficient is one vector.
    """
    r = _COMMUTE_VEC_CACHE.get((c, a))
    if r is None:
        r = {}
        for t in range(min(a, c) + 1):
            n = a + c - t - 1
            for j in range(t + 1):
                v = qratio_vector(
                    [*range(1, c + 1), *range(1, a + 1)],
                    [*range(1, c - t + 1), *range(1, a - t + 1),
                     *range(1, j + 1), *range(1, t - j + 1)])
                e = t * n - t * (t - 1) // 2 + j * (t - 1) - 2 * j * n + t
                r[a - t, t - 2 * j, c - t] = vmul(
                    v, (-1 if (t + j) % 2 else 1, e, 0, -t))
        _COMMUTE_VEC_CACHE[c, a] = r
    return r


def _mono_vectors(m1, m2):
    """Normal form of m1 * m2 as {monomial: vector}, by
    K^b E^x = q^(2bx) E^x K^b and F^y K^b' = q^(2b'y) K^b' F^y."""
    a, b, c = m1
    a2, b2, c2 = m2
    return {(a + x, b + k + b2, y + c2):
            vmul(v, (1, 2 * (b * x + b2 * y), 0, 0))
            for (x, k, y), v in _commute_vectors(c, a2).items()}


# normal form of m1 * m2, keyed by the monomial pair
_MONO_CACHE = {}


def _mono_mul(m1, m2):
    """``_mono_vectors(m1, m2)`` with each vector made a Scalar."""
    if m1 == _UNIT:
        return {m2: _SC_ONE}
    if m2 == _UNIT:
        return {m1: _SC_ONE}
    key = (m1, m2)
    r = _MONO_CACHE.get(key)
    if r is None:
        r = {m: to_scalar(v) for m, v in _mono_vectors(m1, m2).items()}
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
    key = {"E": (n, 0, 0), "F": (0, 0, n), "Echeck": (n, -n, 0)}.get(name)
    if key is None:
        raise ValueError(f"no divided power for generator {name!r}")
    if n == 0:
        return UElement.one()
    # Echeck^{(n)} = (q varsigma)^n q^(-n^2) / [n]! E^n K^-n, as in the legs
    l = n if name == "Echeck" else 0
    x = vmul(qratio_vector([], range(1, n + 1), l), (1, -l * n, 0, 0))
    return UElement._raw({key: to_scalar(x)})


def u_h():
    """h = (K^-2 - 1)/(q^2 - 1)."""
    d = LaurentPoly.q(2) - LaurentPoly.one()
    inv = Scalar(LaurentPoly.one(), d)
    return UElement._raw({(0, -2, 0): inv, _UNIT: -inv})


# the vectors of the coefficients of the shifted h-binomial, keyed by (a, c)
_HBINOM_VEC_CACHE = {}


def _h_binom_vectors(a, c):
    """[v_0, ..., v_c]: v_j is the vector of the coefficient of K^-2j in
    prod_{i=1..c} (z^(a+i-1) K^-2 - 1)/(z^i - 1), z = q^4, which is
    (-1)^(c-j) q^(4aj + 2j(j-1)) / (P_j P_(c-j)) by the q-binomial theorem
    in z, with P_m = prod_{i=1..m} (z^i - 1). As z^i - 1 is the product of
    Phi_d(q^2) over the d dividing 2i, it is Phi_1(q^2) times the Phi_d of
    [2i], and P_m holds Phi_1^m and the Phi_d of [2] [4] ... [2m].
    """
    r = _HBINOM_VEC_CACHE.get((a, c))
    if r is None:
        r = []
        for j in range(c + 1):
            k = c - j
            exps = qratio_vector(
                [], [*range(2, 2 * j + 1, 2), *range(2, 2 * k + 1, 2)])[3]
            # Phi_1^-c: the exponent of Phi_1 is the lowest field
            r.append((-1 if k % 2 else 1, 4 * a * j + 2 * j * (j - 1), 0,
                      exps - c))
        _HBINOM_VEC_CACHE[a, c] = r
    return r


def u_h_binom(a, n):
    """Shifted h-binomial: product over i = 1..n of
    (q^{4a+4i-4} K^-2 - 1)/(q^{4i} - 1), ``to_scalar`` of its vectors."""
    if n < 0:
        raise ValueError("h-binomial of negative order")
    return UElement._raw({(0, -2 * j, 0): to_scalar(v)
                          for j, v in enumerate(_h_binom_vectors(a, n))})


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
