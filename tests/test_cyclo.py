"""Cyclotomic exponent vectors: products, checked sums and checked
conversions against the same Scalar arithmetic, and the vectors of the
coproduct against its Scalar constructions."""

import pytest
from hypothesis import given, settings, strategies as st

from iqsl2 import cyclo, idp, tensor
from iqsl2.coeff import LaurentPoly, Scalar
from iqsl2.cyclo import (
    from_scalars,
    from_terms,
    qratio_vector,
    to_scalar,
    vinv,
    vmul,
    vsum,
)
from iqsl2.qcomb import qint

DMAX = 30


@st.composite
def vectors(draw, j=None):
    exps = draw(st.dictionaries(st.integers(1, DMAX), st.integers(-3, 3),
                                max_size=4))
    return (draw(st.sampled_from((1, -1))), draw(st.integers(-8, 8)),
            draw(st.integers(-2, 2)) if j is None else j,
            {d: e for d, e in exps.items() if e})


def _same(v, s):
    """The vector result v (a vector or 0) and the Scalar s agree, as
    values and as canonical text."""
    got = to_scalar(v)
    assert got == s
    assert str(got) == str(s)


class TestProduct:
    @given(vectors(), vectors())
    @settings(max_examples=60, deadline=None)
    def test_product_is_the_scalar_product(self, x, y):
        _same(vmul(x, y), to_scalar(x) * to_scalar(y))

    @given(vectors())
    @settings(max_examples=30, deadline=None)
    def test_inverse(self, x):
        _same(vinv(x), to_scalar(x).inverse())
        assert vmul(x, vinv(x)) == (1, 0, 0, {})


class TestCheckedSum:
    @given(st.lists(vectors(j=1), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_a_proved_sum_is_the_scalar_sum(self, terms):
        total = Scalar.zero()
        for x in terms:
            total = total + to_scalar(x)
        v = vsum(terms, DMAX)
        if v is not None:
            _same(v, total)

    @given(vectors(), st.integers(1, 15), st.integers(-4, 4), vectors())
    @settings(max_examples=60, deadline=None)
    def test_collapsing_sums_are_proved(self, y, d, s, z):
        # y q^(2d+s) - y q^s = q^s y (q^(2d) - 1) = q^s y prod_{e | d} Phi_e,
        # and z - z cancels
        z = (z[0], z[1], y[2], z[3])
        terms = [vmul(y, (1, 2 * d + s, 0, {})), vmul(y, (-1, s, 0, {})),
                 z, vmul(z, (-1, 0, 0, {}))]
        v = vsum(terms, DMAX)
        assert v is not None
        expected = vmul(y, (1, s, 0, {e: 1 for e in range(1, d + 1)
                                      if d % e == 0}))
        assert v == expected
        _same(v, sum((to_scalar(x) for x in terms), Scalar.zero()))

    def test_a_sum_that_cancels_is_zero(self):
        # [2]^2 - [3] - 1 = 0, with [2] = q^-1 Phi_2 and [3] = q^-2 Phi_3
        terms = [(1, -2, 0, {2: 2}), (-1, -2, 0, {3: 1}), (-1, 0, 0, {})]
        assert vsum(terms, DMAX) == 0
        assert vsum([(1, 3, 1, {5: -2}), (-1, 3, 1, {5: -2})], 2) == 0

    def test_phi_1_is_stripped(self):
        # q^4 - 1 = Phi_1(q^2) Phi_2(q^2) and 1 - q^2 = -Phi_1(q^2)
        assert vsum([(1, 4, 0, {}), (-1, 0, 0, {})], 2) == (1, 0, 0, {1: 1, 2: 1})
        assert vsum([(1, 0, 0, {}), (-1, 2, 0, {})], 2) == (-1, 0, 0, {1: 1})

    @pytest.mark.parametrize("terms,expected", [
        # every term carries Phi_3, least 2 > 0 is kept:
        # Phi_3^3 - Phi_3^2 = Phi_3^2 (q^4 + q^2) = q^2 Phi_2 Phi_3^2
        ([(1, 0, 0, {3: 3}), (-1, 0, 0, {3: 2})], (1, 2, 0, {2: 1, 3: 2})),
        # one term lacks Phi_3, least 0: Phi_3 - 1 = q^2 Phi_2
        ([(1, 0, 0, {3: 1}), (-1, 0, 0, {})], (1, 2, 0, {2: 1})),
        # Phi_3 at -1 in some terms, absent in another, least -1:
        # 1/Phi_3 - 1 = -q^2 Phi_2 / Phi_3
        ([(1, 0, 0, {3: -1}), (-1, 0, 0, {})], (-1, 2, 0, {2: 1, 3: -1})),
        # (1 - Phi_3 + q^2 Phi_2) / Phi_3 = 0
        ([(1, 0, 0, {3: -1}), (-1, 0, 0, {}), (1, 2, 0, {2: 1, 3: -1})], 0),
    ])
    def test_least_exponents(self, terms, expected):
        v = vsum(terms, 2)
        assert v == expected
        _same(v, sum((to_scalar(x) for x in terms), Scalar.zero()))

    def test_mixed_varsigma_exponents_are_not_proved(self):
        assert vsum([(1, 0, 0, {}), (1, 0, 1, {})], 2) is None

    def test_unproved_sum_returns_none(self):
        # 1 + Phi_3(q^2) = 2 + q^2 + q^4 is no product of cyclotomic factors
        assert vsum([(1, 0, 0, {}), (1, 0, 0, {3: 1})], 2) is None

    def test_width(self):
        assert cyclo._width(2 ** 15 - 1) == 16
        assert cyclo._width(2 ** 15) == 32

    def test_wide_factors_are_evaluated_again(self, monkeypatch):
        # (q^2 - 1)^15 has coefficients below 2^13, so k = 16 bounds it,
        # but Phi_1^15 has 1-norm bound 2^15: the proof needs k = 32
        monkeypatch.setattr(cyclo, "_PHI_VALUES", {})
        t = (LaurentPoly.q(2) - 1) ** 15
        assert from_terms(t._t, 1) == (1, 0, 0, {1: 15})
        assert sorted(cyclo._PHI_VALUES) == [(1, 16), (1, 32)]


class TestConversion:
    @given(vectors())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, x):
        s = to_scalar(x)
        v = from_scalars({"key": s}, DMAX)["key"]
        assert v == x
        assert str(to_scalar(v)) == str(s)

    def test_quantum_integers(self):
        for k in range(1, 25):
            v = from_terms(qint(k)._t, k)
            assert v == qratio_vector([k], []), k
            assert str(to_scalar(v)) == str(Scalar(qint(k)))

    @given(st.lists(st.integers(-12, 12).filter(bool), max_size=6),
           st.lists(st.integers(-12, 12).filter(bool), max_size=6),
           st.integers(0, 2), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_ratio_is_the_scalar_ratio(self, nums, dens, zeros, extra):
        # paired zeros cancel; one more zero in the numerator gives 0
        num = LaurentPoly.one()
        for k in nums:
            num = num * qint(k)
        den = LaurentPoly.one()
        for k in dens:
            den = den * qint(k)
        expected = Scalar.zero() if extra else Scalar(num, den)
        v = qratio_vector([*nums, *[0] * (zeros + extra)],
                          [*[0] * zeros, *dens])
        _same(v, expected)
        assert (v == 0) == extra

    def test_negative_index_flips_the_sign(self):
        assert qratio_vector([-3], [2]) == (-1, -1, 0, {2: -1, 3: 1})
        assert qratio_vector([-3], [-2]) == (1, -1, 0, {2: -1, 3: 1})
        s = Scalar(-qint(3), qint(2))
        assert from_scalars({0: s}, 3) == {0: qratio_vector([-3], [2])}

    @pytest.mark.parametrize("text", ["q^2 + 3", "2*q^2 + 1", "2", "q + v"])
    def test_other_shapes_convert_to_none(self, text):
        assert from_terms(LaurentPoly.parse(text)._t, 10) is None

    def test_factor_above_dmax_is_not_found(self):
        t = (LaurentPoly.q(6) - 1)._t  # Phi_1 Phi_3 of q^2
        assert from_terms(t, 3) == (1, 0, 0, {1: 1, 3: 1})
        assert from_terms(t, 2) is None


class TestCoproductVectors:
    """The vectors equal the Scalar constructions on every key."""

    @pytest.mark.parametrize("p", ["ev", "odd"])
    def test_legs(self, p):
        for n in range(9):
            for r in range(n + 1):
                legs = from_scalars(idp.s_component_reversed(p, n, r)._t, n)
                assert legs is not None
                assert idp._leg_vectors(p, n, r) == legs

    @pytest.mark.parametrize("p", ["ev", "odd"])
    def test_images(self, p):
        # against the plain substitution, which shares no step with them
        for n in range(13):
            image = from_scalars(idp.idp_to_pbw(idp.idp_closed(p, n))._t, n)
            assert image is not None
            assert idp._pbw_vectors(p, n) == image

    @pytest.mark.parametrize("p", ["ev", "odd"])
    def test_delta(self, p):
        for n in range(8):
            image = idp._pbw_closed(p, n)
            direct = from_scalars(tensor.delta(image)._t, n)
            assert direct is not None
            assert tensor.delta_vectors(idp._pbw_vectors(p, n)) == direct

    @pytest.mark.parametrize("p", ["ev", "odd"])
    def test_theorem(self, p):
        for n in range(8):
            theorem = from_scalars(idp.comult_theorem(p, n)._t, n)
            assert theorem is not None
            assert idp._theorem_vectors(p, n) == theorem
