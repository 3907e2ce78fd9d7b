"""Sparse Scalar-coefficient combinations, the shape the element types share.

``BPolynomial`` (keyed by degree in B), ``UElement`` (keyed by PBW monomial)
and ``TensorElement`` (keyed by pairs of PBW monomials) are all finite
combinations of basis keys with nonzero Scalar coefficients. ``Sparse`` holds
everything that depends only on that shape: the validating constructor, the
arithmetic, the product and the printer. Each subclass adds its accessors
and three hooks on keys: ``_check_key`` validates one, ``_key_mul`` gives the
product of two as {key: Scalar}, and ``_format`` gives the text of one ("" for
the unit).
"""

from .coeff import Scalar, _coerce

_SC_ONE = Scalar.one()


def _scalar_arg(x):
    """``x`` as a Scalar; TypeError unless it is a Scalar, LaurentPoly or int."""
    s = _coerce(x)
    if s is None:
        raise TypeError(f"{x!r} is not a Scalar, LaurentPoly or int")
    return s


def _acc(out, k, s):
    """Add ``s`` to ``out[k]``, keeping only nonzero coefficients."""
    v = out.get(k)
    if v is None:
        if not s.is_zero():
            out[k] = s
        return
    v = v + s
    if v.is_zero():
        del out[k]
    else:
        out[k] = v


class Sparse:
    """Finite combination {key: nonzero Scalar}; subclasses define ``one``
    and the key hooks ``_check_key``, ``_key_mul`` and ``_format``."""

    __slots__ = ("_t",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for k, s in terms.items():
                k = self._check_key(k)
                s = _scalar_arg(s)
                if not s.is_zero():
                    t[k] = s
        self._t = t

    @classmethod
    def _raw(cls, t):
        self = cls.__new__(cls)
        self._t = t
        return self

    @classmethod
    def zero(cls):
        return cls._raw({})

    def is_zero(self):
        return not self._t

    def terms(self):
        """Iterate (key, Scalar) in ascending key order."""
        for k in sorted(self._t):
            yield k, self._t[k]

    def __bool__(self):
        return bool(self._t)

    def __len__(self):
        return len(self._t)

    def __eq__(self, other):
        # type-strict: elements of different algebras never compare equal
        if type(other) is not type(self):
            return NotImplemented
        a, b = self._t, other._t
        # stored coefficients are never zero, so supports must match
        if a.keys() != b.keys():
            return False
        return all(a[k] == b[k] for k in a)

    __hash__ = None

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self._t)
        for k, s in other._t.items():
            _acc(out, k, s)
        return self._raw(out)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self._t)
        for k, s in other._t.items():
            v = out.get(k)
            v = -s if v is None else v - s
            if v.is_zero():
                out.pop(k, None)
            else:
                out[k] = v
        return self._raw(out)

    def __neg__(self):
        return self._raw({k: -s for k, s in self._t.items()})

    def scale(self, s):
        s = _scalar_arg(s)
        if s.is_zero():
            return self.zero()
        return self._raw({k: v * s for k, v in self._t.items()})

    def __mul__(self, other):
        s = _coerce(other)
        if s is not None:
            return self.scale(s)
        if type(other) is not type(self):
            return NotImplemented
        key_mul = self._key_mul
        out = {}
        for k1, s1 in self._t.items():
            for k2, s2 in other._t.items():
                w = s1 * s2
                for k, f in key_mul(k1, k2).items():
                    # the shared one is a frequent factor: skip its product
                    _acc(out, k, w if f is _SC_ONE else w * f)
        return self._raw(out)

    def __rmul__(self, other):
        s = _coerce(other)
        if s is not None:
            return self.scale(s)
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError(
                f"{type(self).__name__} powers take a nonnegative int")
        out = self.one()
        for _ in range(n):
            out = out * self
        return out

    def specialize_varsigma(self):
        out = {}
        for k, s in self._t.items():
            v = s.specialize_varsigma()
            if not v.is_zero():
                out[k] = v
        return self._raw(out)

    def __str__(self):
        if not self._t:
            return "0"
        parts = []
        for k in sorted(self._t):
            head = f"({self._t[k]})"
            text = self._format(k)
            parts.append(f"{head}*{text}" if text else head)
        return " + ".join(parts)

    def __repr__(self):
        return f"{type(self).__name__}({self})"
