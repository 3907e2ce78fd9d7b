"""Tests for the arithmetic the three element types share through Sparse."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from iqsl2 import BPolynomial, TensorElement, UElement
from iqsl2.coeff import LaurentPoly, Scalar
from iqsl2.pbw import _format_monomial, _mono_mul
from iqsl2.sparse import _acc

KINDS = (BPolynomial, UElement, TensorElement)


def samples(cls):
    return (cls.zero(), cls.one(), cls.one() + cls.one())


@pytest.mark.parametrize("a, b", itertools.permutations(KINDS, 2))
def test_cross_type_equality_is_false(a, b):
    for x, y in zip(samples(a), samples(b)):
        assert not (x == y)
        assert x != y


@pytest.mark.parametrize("cls", KINDS)
def test_cross_type_arithmetic_is_rejected(cls):
    other = next(k for k in KINDS if k is not cls)
    with pytest.raises(TypeError):
        cls.one() + other.one()
    with pytest.raises(TypeError):
        cls.one() - other.one()


@pytest.mark.parametrize("cls", KINDS)
@pytest.mark.parametrize("bad", [None, "x", 1.5])
def test_scale_rejects_non_scalars(cls, bad):
    with pytest.raises(TypeError):
        cls.one().scale(bad)


@pytest.mark.parametrize("cls, key", [
    (BPolynomial, 1),
    (UElement, (1, 0, 0)),
    (TensorElement, ((1, 0, 0), (0, 0, 0))),
])
@pytest.mark.parametrize("bad", [None, "x", 1.5])
def test_constructors_reject_non_scalars(cls, key, bad):
    with pytest.raises(TypeError):
        cls({key: bad})


@pytest.mark.parametrize("bad", [1.5, 1.0, "1"])
def test_bpolynomial_rejects_non_int_degrees(bad):
    with pytest.raises(TypeError):
        BPolynomial({bad: 1})
    with pytest.raises(TypeError):
        BPolynomial.monomial(bad)


@pytest.mark.parametrize("cls", KINDS)
def test_pow(cls):
    x = cls.one() + cls.one()
    assert x ** 0 == cls.one()
    assert x ** 3 == x * x * x
    with pytest.raises(ValueError):
        x ** -1
    with pytest.raises(ValueError):
        x ** 1.0


@pytest.mark.parametrize("cls", KINDS)
def test_shared_arithmetic(cls):
    one = cls.one()
    two = one + one
    assert two.scale(2) == 2 * two == two + two
    assert two - two == cls.zero()
    assert not (two - two) and len(two) == 1
    assert -two + two == cls.zero()
    assert two.scale(0).is_zero()
    assert repr(two) == f"{cls.__name__}({two})"
    assert two.specialize_varsigma() == two
    with pytest.raises(TypeError):
        hash(two)


def test_bool_coefficient_is_stored_as_an_int():
    # an int subclass is coerced to the int it equals, never printed as True
    assert str(UElement({(0, 0, 0): True})) == "(1)"
    assert str(UElement({(1, 0, 0): True})) == "(1)*E"
    assert str(BPolynomial({2: False})) == "0"


# The per-class products and printers that Sparse replaced, kept as
# references: the shared ones must give the same elements and the same bytes.

def _ref_mul_bpoly(x, y):
    out = {}
    for d1, s1 in x._t.items():
        for d2, s2 in y._t.items():
            _acc(out, d1 + d2, s1 * s2)
    return BPolynomial._raw(out)


def _ref_str_bpoly(x):
    if not x._t:
        return "0"
    parts = []
    for d in sorted(x._t):
        head = f"({x._t[d]})"
        if d == 0:
            parts.append(head)
        elif d == 1:
            parts.append(f"{head}*B")
        else:
            parts.append(f"{head}*B^{d}")
    return " + ".join(parts)


def _ref_mul_u(x, y):
    out = {}
    for m1, s1 in x._t.items():
        for m2, s2 in y._t.items():
            w = s1 * s2
            for m, f in _mono_mul(m1, m2).items():
                _acc(out, m, w * f)
    return UElement._raw(out)


def _ref_str_u(x):
    if not x._t:
        return "0"
    parts = []
    for m in sorted(x._t):
        head = f"({x._t[m]})"
        mono = _format_monomial(m)
        parts.append(f"{head}*{mono}" if mono else head)
    return " + ".join(parts)


def _ref_mul_tensor(x, y):
    out = {}
    for (x1, y1), s1 in x._t.items():
        for (x2, y2), s2 in y._t.items():
            w = s1 * s2
            px = _mono_mul(x1, x2)
            py = _mono_mul(y1, y2)
            for mx, fx in px.items():
                wf = w * fx
                for my, fy in py.items():
                    _acc(out, (mx, my), wf * fy)
    return TensorElement._raw(out)


def _ref_str_tensor(x):
    if not x._t:
        return "0"
    parts = []
    for m1, m2 in sorted(x._t):
        s = x._t[(m1, m2)]
        left = _format_monomial(m1) or "1"
        right = _format_monomial(m2) or "1"
        parts.append(f"({s})*({left})⊗({right})")
    return " + ".join(parts)


_coeffs = st.builds(
    lambda n, i, j, d: Scalar(LaurentPoly.monomial(i, j, n) + 1,
                              LaurentPoly.q(d) - 1 if d else 1),
    st.integers(-3, 3), st.integers(-2, 2), st.integers(-1, 1),
    st.integers(0, 2))
_monos = st.tuples(st.integers(0, 2), st.integers(-2, 2), st.integers(0, 2))
_keys = {
    BPolynomial: st.integers(0, 4),
    UElement: _monos,
    TensorElement: st.tuples(_monos, _monos),
}
REFS = {
    BPolynomial: (_ref_mul_bpoly, _ref_str_bpoly),
    UElement: (_ref_mul_u, _ref_str_u),
    TensorElement: (_ref_mul_tensor, _ref_str_tensor),
}


@pytest.mark.parametrize("cls", KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_shared_product_and_printer_match_the_per_class_ones(cls, data):
    elements = st.dictionaries(_keys[cls], _coeffs, max_size=3).map(cls)
    x, y = data.draw(elements), data.draw(elements)
    ref_mul, ref_str = REFS[cls]
    p = x * y
    assert p == ref_mul(x, y)
    for z in (x, y, p):
        assert str(z) == ref_str(z)
    assert str(p) == ref_str(ref_mul(x, y))
