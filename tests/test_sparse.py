"""Tests for the arithmetic the three element types share through Sparse."""

import itertools

import pytest

from iqsl2 import BPolynomial, TensorElement, UElement

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
