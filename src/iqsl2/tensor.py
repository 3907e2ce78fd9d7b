"""Tensor square of the quantized enveloping algebra, and the coproduct.

TensorElement stores a Scalar for each pair of PBW monomials. The coproduct
acts on generators by

    delta(E) = E x 1 + K x E,      delta(F) = 1 x F + F x K^-1,
    delta(K) = K x K,              delta(K^-1) = K^-1 x K^-1,

and on a PBW monomial by delta(E)^a delta(K)^b delta(F)^c. Each power is
one q-binomial sum: (K x E)(E x 1) = q^2 (E x 1)(K x E) and
(F x K^-1)(1 x F) = q^2 (1 x F)(F x K^-1), so

    delta(E)^a = sum_j q^(j(a-j)) [a choose j] E^j K^(a-j) x E^(a-j),
    delta(F)^c = sum_j q^(-j(c-j)) [c choose j] F^(c-j) x K^(j-c) F^j,

the right leg of the second put in PBW order by F^j K^(j-c) =
q^(-2j(c-j)) K^(j-c) F^j. Each coefficient is one cyclotomic exponent
vector (``cyclo.qratio_vector``), and ``delta_vectors`` composes the two
sums; the Scalar coproduct of a monomial is ``to_scalar`` of its vectors.
The product of TensorElements, leg by leg in the PBW basis, is independent
of these sums and checks them. A small triple-tensor helper supports the
coassociativity checks without a full three-fold element type.
"""

from .coeff import Scalar
from .cyclo import qratio_vector, to_scalar, vmul
from .pbw import _check_monomial, _format_monomial, _mono_mul
from .sparse import Sparse, _acc

_SC_ONE = Scalar.one()
_UNIT = (0, 0, 0)


class TensorElement(Sparse):
    """Finite Scalar combination of pairs of PBW monomials."""

    __slots__ = ()

    @staticmethod
    def _check_key(k):
        m1, m2 = k
        return _check_monomial(m1), _check_monomial(m2)

    @staticmethod
    def _key_mul(k1, k2):
        px = _mono_mul(k1[0], k2[0])
        py = _mono_mul(k1[1], k2[1])
        return {(mx, my): fy if fx is _SC_ONE else fx * fy
                for mx, fx in px.items() for my, fy in py.items()}

    @staticmethod
    def _format(k):
        left = _format_monomial(k[0]) or "1"
        right = _format_monomial(k[1]) or "1"
        return f"({left})⊗({right})"

    @classmethod
    def one(cls):
        return cls._raw({(_UNIT, _UNIT): _SC_ONE})

    @classmethod
    def from_pair(cls, x, y):
        """Tensor product of two UElements."""
        out = {}
        for m1, s1 in x._t.items():
            for m2, s2 in y._t.items():
                s = s1 * s2
                if not s.is_zero():
                    out[(m1, m2)] = s
        return cls._raw(out)

    def coeff(self, m1, m2):
        return self._t.get((tuple(m1), tuple(m2)), Scalar.zero())


_DELTA_MONO_CACHE = {}


def _delta_mono(m):
    """The coproduct of the monomial m, on Scalars."""
    r = _DELTA_MONO_CACHE.get(m)
    if r is None:
        r = TensorElement._raw({k: to_scalar(v) for k, v in
                                delta_vectors({m: (1, 0, 0, 0)}).items()})
        _DELTA_MONO_CACHE[m] = r
    return r


# the coefficients of delta(E)^a and delta(F)^c as {(m1, m2): vector},
# keyed by ("E", a) or ("F", c)
_DELTA_POW_VEC = {}


def _delta_pow_vectors(name, n):
    """delta(E)^n or delta(F)^n as {(m1, m2): vector}, by the q-binomial
    theorem (see the module docstring)."""
    key = (name, n)
    r = _DELTA_POW_VEC.get(key)
    if r is None:
        r = {}
        for j in range(n + 1):
            k = n - j
            v = qratio_vector(range(1, n + 1),
                              [*range(1, j + 1), *range(1, k + 1)])
            if name == "E":
                r[(j, k, 0), (k, 0, 0)] = vmul(v, (1, j * k, 0, 0))
            else:
                r[(0, 0, k), (0, -k, j)] = vmul(v, (1, -j * k, 0, 0))
        _DELTA_POW_VEC[key] = r
    return r


def delta_vectors(x):
    """The coproduct of the element {monomial: vector} x, as
    {(m1, m2): vector}: delta(E^a K^b F^c) = delta(E)^a (K^b x K^b)
    delta(F)^c, each power its closed q-binomial sum. delta(E)^a holds
    only E and K, and delta(F)^c only K and F, so the product needs no
    reordering: each coefficient is a product of vectors, and no sum is
    checked. The key gives back the monomial and both terms (b1 = a2,
    b3 = 0), so no two terms share it.
    """
    out = {}
    for (a, b, c), s in x.items():
        es = _delta_pow_vectors("E", a)
        fs = _delta_pow_vectors("F", c)
        for ((a1, b1, _), (a2, b2, _)), ve in es.items():
            sv = vmul(s, ve)
            for ((_, b3, c1), (_, b4, c2)), vf in fs.items():
                out[(a1, b1 + b + b3, c1), (a2, b2 + b + b4, c2)] = vmul(sv, vf)
    return out


def delta(x):
    """Coproduct of a UElement, as a TensorElement in PBW x PBW form."""
    out = {}
    for m, s in x._t.items():
        for k, f in _delta_mono(m)._t.items():
            _acc(out, k, s * f)
    return TensorElement._raw(out)


def expand_left(t):
    """Apply delta to left legs: dict {(m1, m2, m3): Scalar}."""
    out = {}
    for (x, y), s in t._t.items():
        for (x1, x2), f in _delta_mono(x)._t.items():
            _acc(out, (x1, x2, y), s * f)
    return out


def expand_right(t):
    """Apply delta to right legs: dict {(m1, m2, m3): Scalar}."""
    out = {}
    for (x, y), s in t._t.items():
        for (y1, y2), f in _delta_mono(y)._t.items():
            _acc(out, (x, y1, y2), s * f)
    return out
