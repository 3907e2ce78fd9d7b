"""Tensor square of the quantized enveloping algebra, and the coproduct.

TensorElement stores a Scalar for each pair of PBW monomials. The coproduct
acts on generators by

    delta(E) = E x 1 + K x E,      delta(F) = 1 x F + F x K^-1,
    delta(K) = K x K,              delta(K^-1) = K^-1 x K^-1,

and extends to PBW monomials through delta(E)^a delta(K)^b delta(F)^c, with
the generator powers memoized. A small triple-tensor helper supports the
coassociativity checks without a full three-fold element type.
"""

from .coeff import Scalar
from .cyclo import from_scalars, vmul
from .pbw import UElement, _check_monomial, _format_monomial, _mono_mul
from .sparse import Sparse, _acc, _coerce_scalar, _scalar_arg

_SC_ONE = Scalar.one()
_UNIT = (0, 0, 0)


class TensorElement(Sparse):
    """Finite Scalar combination of pairs of PBW monomials."""

    __slots__ = ()

    def __init__(self, terms=None):
        t = {}
        if terms:
            for k, s in terms.items():
                m1, m2 = k
                k = (_check_monomial(m1), _check_monomial(m2))
                s = _scalar_arg(s)
                if not s.is_zero():
                    t[k] = s
        self._t = t

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

    def terms(self):
        for k in sorted(self._t):
            yield k, self._t[k]

    def coeff(self, m1, m2):
        return self._t.get((tuple(m1), tuple(m2)), Scalar.zero())

    def __mul__(self, other):
        s = _coerce_scalar(other)
        if s is not None:
            return self.scale(s)
        if not isinstance(other, TensorElement):
            return NotImplemented
        out = {}
        for (x1, y1), s1 in self._t.items():
            for (x2, y2), s2 in other._t.items():
                w = s1 * s2
                px = _mono_mul(x1, x2)
                py = _mono_mul(y1, y2)
                for mx, fx in px.items():
                    wf = w * fx
                    for my, fy in py.items():
                        _acc(out, (mx, my), wf * fy)
        return TensorElement._raw(out)

    def __str__(self):
        if not self._t:
            return "0"
        parts = []
        for m1, m2 in sorted(self._t):
            s = self._t[(m1, m2)]
            left = _format_monomial(m1) or "1"
            right = _format_monomial(m2) or "1"
            parts.append(f"({s})*({left})⊗({right})")
        return " + ".join(parts)


_DELTA_GEN = {
    "E": TensorElement._raw(
        {((1, 0, 0), _UNIT): _SC_ONE, ((0, 1, 0), (1, 0, 0)): _SC_ONE}
    ),
    "F": TensorElement._raw(
        {(_UNIT, (0, 0, 1)): _SC_ONE, ((0, 0, 1), (0, -1, 0)): _SC_ONE}
    ),
    "K": TensorElement._raw({((0, 1, 0), (0, 1, 0)): _SC_ONE}),
    "Kinv": TensorElement._raw({((0, -1, 0), (0, -1, 0)): _SC_ONE}),
}


def delta_gen(name):
    """Coproduct of a single generator (Echeck included for convenience)."""
    t = _DELTA_GEN.get(name)
    if t is not None:
        return t
    if name == "Echeck":
        return delta(UElement.gen("Echeck"))
    raise ValueError(f"unknown generator {name!r}")


_DELTA_E_POW = {0: TensorElement.one()}
_DELTA_F_POW = {0: TensorElement.one()}
_DELTA_MONO_CACHE = {}


def _delta_E_pow(a):
    r = _DELTA_E_POW.get(a)
    if r is None:
        r = _delta_E_pow(a - 1) * _DELTA_GEN["E"]
        _DELTA_E_POW[a] = r
    return r


def _delta_F_pow(c):
    r = _DELTA_F_POW.get(c)
    if r is None:
        r = _delta_F_pow(c - 1) * _DELTA_GEN["F"]
        _DELTA_F_POW[c] = r
    return r


def _delta_mono(m):
    r = _DELTA_MONO_CACHE.get(m)
    if r is None:
        a, b, c = m
        r = _delta_E_pow(a)
        if b:
            kk = TensorElement._raw({((0, b, 0), (0, b, 0)): _SC_ONE})
            r = r * kk
        if c:
            r = r * _delta_F_pow(c)
        _DELTA_MONO_CACHE[m] = r
    return r


# the coefficients of delta(E)^a and delta(F)^c as {(m1, m2): vector},
# keyed by ("E", a) or ("F", c); None when one did not convert
_DELTA_POW_VEC = {}


def _delta_pow_vectors(name, n):
    key = (name, n)
    if key not in _DELTA_POW_VEC:
        # q-binomials times powers of q: Phi_d with d <= n
        power = _delta_E_pow(n) if name == "E" else _delta_F_pow(n)
        _DELTA_POW_VEC[key] = from_scalars(power._t, n)
    return _DELTA_POW_VEC[key]


def delta_vectors(x):
    """The coproduct of the element {monomial: vector} x, as
    {(m1, m2): vector}; None when a power of delta(E) or delta(F) does not
    convert. delta(E)^a holds only E and K, and delta(F)^c only K and F, so
    delta(E^a K^b F^c) = delta(E)^a (K^b x K^b) delta(F)^c needs no
    reordering: each coefficient is a product. The key gives back the
    monomial and both terms (b1 = a2, b3 = 0), so no two terms share it.
    """
    out = {}
    for (a, b, c), s in x.items():
        es = _delta_pow_vectors("E", a)
        fs = _delta_pow_vectors("F", c)
        if es is None or fs is None:
            return None
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
