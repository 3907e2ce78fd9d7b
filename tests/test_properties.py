"""Property-based tests: ring axioms, canonical serialization, homomorphisms.

Randomized counterparts to the fixed-grid suites: hypothesis searches the
operand space for violations of the algebraic laws everything else rests
on.  Operands stay small so shrunk counterexamples are readable.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from iqsl2 import coeff
from iqsl2.coeff import LaurentPoly, Scalar
from iqsl2.errors import DenominatorVanishes
from iqsl2.pbw import UElement
from iqsl2.qcomb import qbinom, qfact

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")

exponents = st.integers(min_value=-4, max_value=4)
coefficients = st.integers(min_value=-9, max_value=9)


@st.composite
def laurent_polys(draw, max_terms=5, v_exponents=exponents):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n):
        key = (draw(exponents), draw(v_exponents))
        terms[key] = draw(coefficients)
    return LaurentPoly(terms)


@st.composite
def scalars(draw):
    num = draw(laurent_polys())
    den = draw(laurent_polys(max_terms=2).filter(lambda p: not p.is_zero()))
    return Scalar(num, den)


@st.composite
def u_elements(draw, max_terms=2):
    x = UElement.zero()
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        a = draw(st.integers(min_value=0, max_value=2))
        b = draw(st.integers(min_value=-2, max_value=2))
        c = draw(st.integers(min_value=0, max_value=2))
        x = x + UElement.monomial(a, b, c, draw(coefficients))
    return x


class TestLaurentRing:
    @given(laurent_polys(), laurent_polys())
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(laurent_polys(), laurent_polys(), laurent_polys())
    def test_addition_associates(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(laurent_polys(), laurent_polys())
    def test_multiplication_commutes(self, a, b):
        assert a * b == b * a

    @given(laurent_polys(), laurent_polys(), laurent_polys())
    def test_multiplication_associates(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(laurent_polys(), laurent_polys(), laurent_polys())
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(laurent_polys())
    def test_additive_inverse_and_unit(self, a):
        assert (a - a).is_zero()
        assert a * LaurentPoly.one() == a

    @given(laurent_polys(), laurent_polys())
    def test_no_zero_divisors(self, a, b):
        if (a * b).is_zero():
            assert a.is_zero() or b.is_zero()

    # up to 24 terms a side: most products pass kmul's limit of 80 term
    # pairs (_SCHOOLBOOK_MAX) for the dict convolution and go by Kronecker
    # substitution
    @settings(max_examples=25)
    @given(laurent_polys(max_terms=24), laurent_polys(max_terms=24))
    def test_multiplication_commutes_large(self, a, b):
        assert a * b == b * a

    @settings(max_examples=25)
    @given(laurent_polys(max_terms=24), laurent_polys(max_terms=24),
           laurent_polys(max_terms=24))
    def test_multiplication_associates_large(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=25)
    @given(laurent_polys(max_terms=24), laurent_polys(max_terms=24),
           laurent_polys(max_terms=24))
    def test_distributivity_large(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(laurent_polys())
    def test_serialization_roundtrip(self, a):
        assert LaurentPoly.parse(str(a)) == a

    @given(laurent_polys(), laurent_polys())
    def test_serialization_canonical(self, a, b):
        assert (str(a) == str(b)) == (a == b)


class TestScalarField:
    @given(scalars(), scalars())
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(scalars(), scalars(), scalars())
    def test_multiplication_associates(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(scalars(), scalars(), scalars())
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(scalars())
    def test_additive_inverse(self, a):
        assert (a - a) == Scalar.zero()

    @given(scalars(), laurent_polys().filter(lambda p: not p.is_zero()))
    def test_equality_invariant_under_common_factor(self, a, c):
        assert Scalar(a.num * c, a.den * c) == a

    @given(scalars())
    def test_inverse(self, a):
        if a == Scalar.zero():
            return
        assert a * a.inverse() == Scalar.one()

    @given(scalars())
    def test_serialization_roundtrip(self, a):
        assert Scalar.parse(str(a)) == a

    @given(scalars(), scalars())
    def test_specialization_is_a_homomorphism(self, a, b):
        try:
            sa = a.specialize_varsigma()
            sb = b.specialize_varsigma()
            s_sum = (a + b).specialize_varsigma()
            s_prod = (a * b).specialize_varsigma()
        except DenominatorVanishes:
            return
        assert s_sum == sa + sb
        assert s_prod == sa * sb


def _divide(p, m):
    """Quotient of ascending integer coefficient lists p / m, m monic."""
    p = list(p)
    out = [0] * (len(p) - len(m) + 1)
    for i in reversed(range(len(out))):
        out[i] = c = p[i + len(m) - 1]
        for j, mc in enumerate(m):
            p[i + j] -= c * mc
    assert not any(p)
    return out


def _cyclotomic_lists(top):
    """Phi_d for d <= top: q^d - 1 divided by Phi_e for each proper divisor e."""
    out = {}
    for d in range(1, top + 1):
        p = [-1] + [0] * (d - 1) + [1]
        for e in range(1, d):
            if d % e == 0:
                p = _divide(p, out[e])
        out[d] = p
    return out


CYCLOTOMIC = {
    d: LaurentPoly({(i, 0): c for i, c in enumerate(p)})
    for d, p in _cyclotomic_lists(20).items()
}


class TestCanonicalReduction:
    """A common cyclotomic factor cancels to the same text, not just an
    equal value: the reduced form is canonical."""

    def test_cyclotomic_table(self):
        assert str(CYCLOTOMIC[12]) == "1 - q^2 + q^4"
        assert str(CYCLOTOMIC[20]) == "1 - q^2 + q^4 - q^6 + q^8"

    @given(laurent_polys(),
           laurent_polys(v_exponents=st.just(0)).filter(bool),
           st.sampled_from(sorted(CYCLOTOMIC)),
           st.sampled_from(sorted(CYCLOTOMIC)))
    def test_common_factor_cancels_to_same_text(self, a, b, d, e):
        c = CYCLOTOMIC[d] * CYCLOTOMIC[e]
        assert str(Scalar(a * c, b * c)) == str(Scalar(a, b))
        assert str(Scalar(a * c, b * CYCLOTOMIC[d])) == str(
            Scalar(a * CYCLOTOMIC[e], b)
        )

    @given(st.lists(laurent_polys(v_exponents=st.just(0)).filter(bool),
                    min_size=2, max_size=3),
           st.lists(st.integers(-3, 3), min_size=3, max_size=3, unique=True),
           laurent_polys(v_exponents=st.just(0)).filter(bool),
           st.sampled_from(sorted(CYCLOTOMIC)),
           st.sampled_from(sorted(CYCLOTOMIC)))
    def test_common_factor_cancels_across_v_rows(self, rows, js, b, d, e):
        # each v-row of the numerator is one more input of the gcd
        a = sum((r * LaurentPoly.vs(j) for r, j in zip(rows, js)),
                LaurentPoly.zero())
        assert len({j for _, j, _ in a.terms()}) == len(rows)
        c = CYCLOTOMIC[d] * CYCLOTOMIC[e]
        assert str(Scalar(a * c, b * c)) == str(Scalar(a, b))
        assert str(Scalar(a * c, b * CYCLOTOMIC[d])) == str(
            Scalar(a * CYCLOTOMIC[e], b)
        )


@st.composite
def reduced_scalars(draw):
    """Reduced fractions with multi-slice numerators over v-free or
    v-carrying denominators, often built with a cyclotomic common factor
    that the reduction cancels."""
    num = draw(laurent_polys())
    den_vs = draw(st.sampled_from([st.just(0), exponents]))
    den = draw(laurent_polys(max_terms=3, v_exponents=den_vs).filter(bool))
    common = draw(st.sampled_from([1, *sorted(CYCLOTOMIC)]))
    if common > 1:
        num = num * CYCLOTOMIC[common]
        den = den * CYCLOTOMIC[common]
    return Scalar(num, den)


@st.composite
def monomials(draw):
    """c*q^i*v^j/e with nonzero integers c and e."""
    nonzero = st.integers(min_value=-12, max_value=12).filter(bool)
    mono = LaurentPoly.monomial(draw(exponents), draw(exponents), draw(nonzero))
    return Scalar(mono, LaurentPoly.from_int(draw(nonzero)))


def _no_gcd(polys):
    raise AssertionError("product with a monomial ran the gcd")


class TestMonomialProduct:
    """A product with a monomial skips the gcd and still gives the text of
    the fully cancelled fraction."""

    @given(reduced_scalars(), monomials())
    def test_same_text_as_full_reduction(self, x, m):
        full = str(Scalar(x.num * m.num, x.den * m.den))
        with mock.patch.object(coeff, "_uni_gcd", _no_gcd):
            assert str(x * m) == str(m * x) == full

    def test_product_runs_no_gcd(self, monkeypatch):
        x = Scalar(LaurentPoly.parse("1 + q*v + 3*q^2*v^2"),
                   CYCLOTOMIC[12] * CYCLOTOMIC[5])
        m = Scalar(LaurentPoly.monomial(-2, 3, -6), LaurentPoly.from_int(4))
        monkeypatch.setattr(coeff, "_uni_gcd", _no_gcd)
        assert str(x * m) == str(m * x) == (
            "(-3*q^-2*v^3 - 3*q^-1*v^4 - 9*v^5)/"
            "(2 + 2*q + 2*q^4 + 2*q^7 + 2*q^8)")
        # the patch is live: a product of two fractions runs the gcd
        with pytest.raises(AssertionError, match="ran the gcd"):
            x * x


class TestUElementAlgebra:
    @given(u_elements(), u_elements(), u_elements())
    def test_multiplication_associates(self, x, y, z):
        assert (x * y) * z == x * (y * z)

    @given(u_elements(), u_elements(), u_elements())
    def test_distributivity(self, x, y, z):
        assert x * (y + z) == x * y + x * z

    @given(u_elements())
    def test_units(self, x):
        assert x * UElement.one() == x
        assert UElement.one() * x == x


class TestQCombinatorics:
    @given(st.integers(min_value=0, max_value=12),
           st.integers(min_value=0, max_value=12))
    def test_binomial_factorial_relation(self, n, k):
        if k > n:
            return
        assert qbinom(n, k) * qfact(k) * qfact(n - k) == qfact(n)

    @given(st.integers(min_value=0, max_value=12),
           st.integers(min_value=0, max_value=12))
    def test_binomial_symmetry(self, n, k):
        if k > n:
            return
        assert qbinom(n, k) == qbinom(n, n - k)
