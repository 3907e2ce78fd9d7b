"""Divided-power families: oracle equivalence between the closed and
recursive constructions, hand-coded golden examples for the closed
multiplication and comultiplication formulas, and the reversed coproduct
presentation."""

import functools
import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from iqsl2 import coeff
from iqsl2._kernel_py import kmul
from iqsl2.coeff import LaurentPoly, Scalar
from iqsl2.cyclo import _cyclotomic, qratio, qratio_vector
from iqsl2.errors import DivisionByZero, NegativeInput
from iqsl2.idp import (
    _MULT_OFFSETS,
    EV,
    ODD,
    PARITIES,
    BPolynomial,
    _mult_closed_terms,
    _numerator,
    _pbw_closed,
    comult_closed,
    comult_direct,
    comult_theorem,
    comult_theorem_reversed,
    idp_basis_expand,
    idp_closed,
    idp_recursive,
    idp_to_pbw,
    mult_closed,
    mult_direct,
    s_component,
    s_component_reversed,
)
from iqsl2.pbw import UElement, chi, divided_power, u_gen, u_h_binom
from iqsl2.qcomb import qbinom, qfact, qint
from iqsl2.tensor import TensorElement

QVS = Scalar.vs_power(1, 1)


def sc(x):
    return Scalar(x)


def qp(i):
    return Scalar.q_power(i)


def kpow(b):
    return UElement.monomial(0, b, 0)


def dp(name, n):
    return divided_power(name, n)


@functools.lru_cache(maxsize=None)
def plain_b_powers(top):
    """[B^0, ..., B^top], B = F + Echeck, by plain UElement products."""
    b = u_gen("F") + u_gen("Echeck")
    out = [UElement.one()]
    for _ in range(top):
        out.append(out[-1] * b)
    return out


def assert_coeff_maps_equal(actual, expected):
    """Compare degree -> Scalar maps, treating missing entries as zero."""
    for d in set(actual) | set(expected):
        av = actual.get(d, Scalar.zero())
        ev = expected.get(d, Scalar.zero())
        assert av == ev, f"degree {d}: {av} != {ev}"


def product_expand(p, m, n):
    return idp_basis_expand(idp_closed(p, m) * idp_closed(p, n), p)


@functools.cache
def reference_closed(p, n):
    """B^{(n)} as the product of its factors over BPolynomial, each product
    reducing every Scalar coefficient: the reference for ``idp_closed``."""
    k, n_odd = divmod(n, 2)
    b = BPolynomial.b()
    prod = b if n_odd else BPolynomial.one()
    for j in range(1, k + 1):
        if p == EV:
            idx = 2 * j if n_odd else 2 * j - 2
        else:
            idx = 2 * j - 1
        shift = LaurentPoly.monomial(1, 1) * qint(idx) * qint(idx)
        prod = prod * (b * b - BPolynomial.monomial(0, shift))
    return prod.scale(Scalar(LaurentPoly.one(), qfact(n)))


def reference_expand(x, p):
    """The back-substitution on Scalar coefficients: the reference for
    ``idp_basis_expand`` and ``mult_direct``."""
    out = {}
    rem = x
    top = rem.degree()
    if top < 0:
        return out
    for j in range(top, -1, -1):
        c = rem.coeff(j)
        if not c.is_zero():
            c = c * Scalar(qfact(j))
            rem = rem - reference_closed(p, j).scale(c)
            out[j] = c
        elif j % 2 == top % 2:
            out[j] = Scalar.zero()
    assert rem.is_zero()
    return out


def as_text(coeffs):
    """Keys in order and the canonical text of every coefficient."""
    return [(d, str(s)) for d, s in coeffs.items()]


def reference_qratio(nums, dens):
    """The ratio multiplied out and reduced by the gcd: the reference for
    ``qratio``, with the same multiset cancellation first."""
    nc = Counter(nums)
    dc = Counter(dens)
    common = nc & dc
    nc -= common
    dc -= common
    if dc.get(0):
        raise DivisionByZero("vanishing quantum integer in a denominator")
    if nc.get(0):
        return Scalar.zero()
    num = LaurentPoly.one()
    for i in nc.elements():
        num = num * qint(i)
    den = LaurentPoly.one()
    for i in dc.elements():
        den = den * qint(i)
    return Scalar(num, den)


def reference_mult_closed(p, m, n):
    """The closed structure constants as Scalar products of qbinom, the
    multiplied-out ratios and (q varsigma)^l: the reference for
    ``mult_closed``."""
    s = m + n
    dn, dm, dd = _MULT_OFFSETS[p, m % 2, n % 2]
    pref = Scalar(qbinom(s, m))
    out = {s: pref}
    nums, dens = [], []
    for l in range(1, (m + dm - 1) // 2 + 1):
        nums += [n + dn - 2 * l, m + dm - 2 * l]
        dens += [s + dd - 2 * l, 2 * l]
        if p == EV and not m % 2 and not n % 2:
            ratio = reference_qratio(nums + [s - 2 * l], dens + [s])
        elif p == ODD and m % 2 and n % 2:
            ratio = (
                reference_qratio(nums + [s - 2 * l, m + 1 - 2 * l],
                                 dens + [s, m + 1])
                + reference_qratio(nums + [s + 1 - 2 * l, s + 1 - 2 * l, 2 * l],
                                   dens + [s, n + 1 - 2 * l, m + 1])
            )
        else:
            ratio = reference_qratio(nums, dens)
        t = pref * ratio * (QVS ** l)
        if not t.is_zero():
            out[s - 2 * l] = t
    return out


def raw_text(coeffs):
    """Keys in order, and the term dicts and text of every coefficient."""
    return [(d, s.num._t, s.den._t, str(s)) for d, s in coeffs.items()]


class TestBPolynomial:
    def test_basics(self):
        b = BPolynomial.b()
        one = BPolynomial.one()
        assert BPolynomial.zero().is_zero()
        assert (b - b).is_zero()
        assert b * one == b
        assert (b * b).coeff(2) == Scalar.one()
        assert b ** 3 == b * b * b
        assert b.degree() == 1
        assert BPolynomial.zero().degree() == -1

    def test_scalar_coercion_and_scale(self):
        b = BPolynomial.b()
        x = b.scale(qint(2))
        assert x.coeff(1) == sc(qint(2))
        assert 2 * b == b + b
        assert b * 0 == BPolynomial.zero()
        with pytest.raises(ValueError):
            BPolynomial.monomial(-1)

    def test_str(self):
        b = BPolynomial.b()
        assert str(BPolynomial.zero()) == "0"
        assert str(BPolynomial.one()) == "(1)"
        assert str(b) == "(1)*B"
        assert str(b * b + BPolynomial.one()) == "(1) + (1)*B^2"

    def test_specialize(self):
        x = BPolynomial.monomial(2, Scalar.vs_power(1))
        assert x.specialize_varsigma().coeff(2) == qp(-1)


class TestQRatio:
    def test_plain(self):
        assert qratio([4], [2]) == Scalar(qint(4), qint(2))
        assert qratio([], []) == Scalar.one()
        assert qratio([2, 3], [3, 2]) == Scalar.one()
        assert qratio([-3], [2]) == -Scalar(qint(3), qint(2))
        assert qratio([-3, 4], [-2]) == Scalar(qint(3) * qint(4), qint(2))

    def test_zero_numerator(self):
        assert qratio([0], []).is_zero()
        assert qratio([0, 5], [3]).is_zero()

    def test_removable_pair_cancels(self):
        assert qratio([3, 0], [0, 2]) == Scalar(qint(3), qint(2))

    def test_zero_denominator_raises(self):
        with pytest.raises(DivisionByZero):
            qratio([5], [0])

    def test_quantum_integers_are_cyclotomic_products(self):
        # [k] = q^(1-k) prod_{d | k, d > 1} Phi_d(q^2)
        for k in range(1, 65):
            t = {(1 - k, 0): 1}
            for d in range(2, k + 1):
                if k % d == 0:
                    phi, norm, mask = _cyclotomic(d)
                    assert norm == sum(map(abs, phi.values()))
                    # the divisors e > 1 of d, one 16-bit field each
                    assert mask == sum(1 << 16 * (e - 1)
                                       for e in range(2, d + 1) if d % e == 0)
                    t = kmul(t, {(2 * i, 0): c for i, c in phi.items()})
            assert t == qint(k)._t, k
            assert str(qratio([k], [])) == str(Scalar(qint(k))), k

    @given(st.lists(st.integers(-30, 30), max_size=7),
           st.lists(st.integers(-30, 30), max_size=7))
    @settings(deadline=None, max_examples=200)
    def test_matches_the_multiplied_out_ratio(self, nums, dens):
        try:
            expected = reference_qratio(nums, dens)
        except DivisionByZero:
            with pytest.raises(DivisionByZero):
                qratio(nums, dens)
            return
        got = qratio(nums, dens)
        assert got.num._t == expected.num._t
        assert got.den._t == expected.den._t
        assert str(got) == str(expected)


class TestClosedForm:
    def test_small_values_ev(self):
        b = BPolynomial.b()
        assert idp_closed(EV, 0) == BPolynomial.one()
        assert idp_closed(EV, 1) == b
        assert idp_closed(EV, 2) == (b * b).scale(
            Scalar(LaurentPoly.one(), qint(2))
        )
        shift = BPolynomial.monomial(
            0, LaurentPoly.monomial(1, 1) * qint(2) * qint(2)
        )
        assert idp_closed(EV, 3) == (b * (b * b - shift)).scale(
            Scalar(LaurentPoly.one(), qfact(3))
        )

    def test_small_values_odd(self):
        b = BPolynomial.b()
        assert idp_closed(ODD, 0) == BPolynomial.one()
        assert idp_closed(ODD, 1) == b
        qvs = BPolynomial.monomial(0, LaurentPoly.monomial(1, 1))
        assert idp_closed(ODD, 2) == (b * b - qvs).scale(
            Scalar(LaurentPoly.one(), qint(2))
        )
        assert idp_closed(ODD, 3) == (b * (b * b - qvs)).scale(
            Scalar(LaurentPoly.one(), qfact(3))
        )

    def test_leading_coefficient(self):
        for p in PARITIES:
            for n in range(9):
                x = idp_closed(p, n)
                assert x.degree() == n
                assert x.coeff(n) == Scalar(LaurentPoly.one(), qfact(n))

    def test_negative_rejected(self):
        with pytest.raises(NegativeInput):
            idp_closed(EV, -1)
        with pytest.raises(NegativeInput):
            idp_recursive(ODD, -2)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            idp_closed("neither", 1)


class TestOracleEquivalence:
    @pytest.mark.parametrize("p", PARITIES)
    def test_closed_equals_recursive(self, p):
        for n in range(17):
            assert idp_closed(p, n) == idp_recursive(p, n), (p, n)


class TestBasisExpand:
    def test_basis_element(self):
        x = idp_closed(EV, 5)
        assert idp_basis_expand(x, EV) == {5: Scalar.one(), 3: Scalar.zero(),
                                           1: Scalar.zero()}

    def test_square_ev(self):
        b = BPolynomial.b()
        out = idp_basis_expand(b * b, EV)
        assert out == {2: sc(qint(2)), 0: Scalar.zero()}

    def test_square_odd(self):
        b = BPolynomial.b()
        out = idp_basis_expand(b * b, ODD)
        assert out == {2: sc(qint(2)), 0: QVS}

    def test_zero(self):
        assert idp_basis_expand(BPolynomial.zero(), EV) == {}

    @pytest.mark.parametrize("p", PARITIES)
    def test_roundtrip(self, p):
        x = (idp_closed(p, 4).scale(qint(3))
             + idp_closed(p, 2).scale(QVS)
             + idp_closed(p, 1).scale(Scalar.from_int(-2)))
        out = idp_basis_expand(x, p)
        rebuilt = BPolynomial.zero()
        for d, s in out.items():
            rebuilt = rebuilt + idp_closed(p, d).scale(s)
        assert rebuilt == x


class TestIntegralNumerators:
    """The monic numerators P_n with B^{(n)} = P_n / [n]!, and the
    back-substitution on them, against the Scalar constructions."""

    @pytest.mark.parametrize("p", PARITIES)
    def test_numerator_is_monic_on_the_parity_lattice(self, p):
        for n in range(17):
            num = _numerator(p, n)
            assert max(num) == n and num[n] == {(0, 0): 1}, (p, n)
            assert all(t and d % 2 == n % 2 for d, t in num.items()), (p, n)

    @pytest.mark.parametrize("p", PARITIES)
    def test_closed_matches_the_factor_product(self, p):
        for n in range(17):
            assert str(idp_closed(p, n)) == str(reference_closed(p, n)), (p, n)

    @pytest.mark.parametrize("p", PARITIES)
    def test_products_match_the_scalar_back_substitution(self, p):
        for m in range(15):
            for n in range(15 - m):
                x = reference_closed(p, m) * reference_closed(p, n)
                expected = as_text(reference_expand(x, p))
                assert as_text(mult_direct(p, m, n)) == expected, (m, n)
                assert as_text(product_expand(p, m, n)) == expected, (m, n)

    @pytest.mark.parametrize("p", PARITIES)
    def test_expand_over_mixed_denominators(self, p):
        vden = Scalar(LaurentPoly.one(), LaurentPoly.vs() + qint(3))
        mixed = (idp_closed(p, 4).scale(qint(3))
                 + idp_closed(p, 2).scale(QVS)
                 + idp_closed(p, 1).scale(Scalar.from_int(-2)))
        for x in (mixed, mixed + idp_closed(p, 3).scale(vden)):
            out = idp_basis_expand(x, p)
            expected = reference_expand(x, p)
            assert list(out) == list(expected)
            assert all(out[d] == expected[d] for d in out)

    @pytest.mark.parametrize("p", PARITIES)
    def test_pbw_image_matches_the_substituted_closed_form(self, p):
        for n in range(9):
            assert str(_pbw_closed(p, n)) == str(idp_to_pbw(idp_closed(p, n)))

    def test_mult_direct_rejects_bad_input(self):
        with pytest.raises(NegativeInput):
            mult_direct(EV, 2, -1)
        with pytest.raises(ValueError):
            mult_direct("neither", 1, 1)


class TestMultGoldenEven:
    """The six displayed products of the "ev" family, transcribed verbatim
    and compared against both the closed formula and the polynomial
    product."""

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_b2_times_odd(self, a):
        expected = {
            2 * a + 1: sc(qbinom(2 * a + 1, 2)),
            2 * a - 1: Scalar(qint(2 * a) * qint(2 * a), qint(2)) * QVS,
        }
        assert_coeff_maps_equal(mult_closed(EV, 2, 2 * a - 1), expected)
        assert_coeff_maps_equal(product_expand(EV, 2, 2 * a - 1), expected)

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_b2_times_even(self, a):
        expected = {
            2 * a + 2: sc(qbinom(2 * a + 2, 2)),
            2 * a: Scalar(qint(2 * a) * qint(2 * a), qint(2)) * QVS,
        }
        assert_coeff_maps_equal(mult_closed(EV, 2, 2 * a), expected)
        assert_coeff_maps_equal(product_expand(EV, 2, 2 * a), expected)

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_b3_times_odd(self, a):
        expected = {
            2 * a + 2: sc(qbinom(2 * a + 2, 3)),
            2 * a: Scalar(
                qint(2 * a + 2) * qint(2 * a) * qint(2 * a - 2), qfact(3)
            ) * QVS,
        }
        assert_coeff_maps_equal(mult_closed(EV, 3, 2 * a - 1), expected)
        assert_coeff_maps_equal(product_expand(EV, 3, 2 * a - 1), expected)

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_b3_times_even(self, a):
        expected = {
            2 * a + 3: sc(qbinom(2 * a + 3, 3)),
            2 * a + 1: Scalar(qint(4), qint(2)) * sc(qbinom(2 * a + 2, 3))
            * QVS,
            2 * a - 1: Scalar(
                qint(2 * a + 2) * qint(2 * a) * qint(2 * a - 2), qfact(3)
            ) * QVS * QVS,
        }
        assert_coeff_maps_equal(mult_closed(EV, 3, 2 * a), expected)
        assert_coeff_maps_equal(product_expand(EV, 3, 2 * a), expected)

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_b4_times_odd(self, a):
        expected = {
            2 * a + 3: sc(qbinom(2 * a + 3, 4)),
            2 * a + 1: Scalar(
                qint(2 * a + 2) * qint(2 * a + 1) * qint(2 * a) * qint(2 * a),
                qint(3) * qint(2) * qint(2),
            ) * QVS,
            2 * a - 1: Scalar(
                qint(2 * a + 2) * qint(2 * a) * qint(2 * a) * qint(2 * a - 2),
                qfact(4),
            ) * QVS * QVS,
        }
        assert_coeff_maps_equal(mult_closed(EV, 4, 2 * a - 1), expected)
        assert_coeff_maps_equal(product_expand(EV, 4, 2 * a - 1), expected)

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_b4_times_even(self, a):
        expected = {
            2 * a + 4: sc(qbinom(2 * a + 4, 4)),
            2 * a + 2: Scalar(
                qint(2 * a + 2) * qint(2 * a + 2) * qint(2 * a + 1)
                * qint(2 * a),
                qint(3) * qint(2) * qint(2),
            ) * QVS,
            2 * a: Scalar(
                qint(2 * a + 2) * qint(2 * a) * qint(2 * a) * qint(2 * a - 2),
                qfact(4),
            ) * QVS * QVS,
        }
        assert_coeff_maps_equal(mult_closed(EV, 4, 2 * a), expected)
        assert_coeff_maps_equal(product_expand(EV, 4, 2 * a), expected)


class TestMultGoldenOdd:
    """The six displayed products of the "odd" family."""

    @pytest.mark.parametrize("a", [0, 1, 2, 3])
    def test_b2_times_even(self, a):
        expected = {
            2 * a + 2: sc(qbinom(2 * a + 2, 2)),
            2 * a: Scalar(qint(2 * a + 2) * qint(2 * a), qint(2)) * QVS,
        }
        assert_coeff_maps_equal(mult_closed(ODD, 2, 2 * a), expected)
        assert_coeff_maps_equal(product_expand(ODD, 2, 2 * a), expected)

    @pytest.mark.parametrize("a", [0, 1, 2, 3])
    def test_b2_times_odd(self, a):
        expected = {
            2 * a + 3: sc(qbinom(2 * a + 3, 2)),
            2 * a + 1: Scalar(qint(2 * a + 2) * qint(2 * a), qint(2)) * QVS,
        }
        assert_coeff_maps_equal(mult_closed(ODD, 2, 2 * a + 1), expected)
        assert_coeff_maps_equal(product_expand(ODD, 2, 2 * a + 1), expected)

    @pytest.mark.parametrize("a", [0, 1, 2, 3])
    def test_b3_times_even(self, a):
        expected = {
            2 * a + 3: sc(qbinom(2 * a + 3, 3)),
            2 * a + 1: sc(qbinom(2 * a + 2, 3)) * QVS,
        }
        assert_coeff_maps_equal(mult_closed(ODD, 3, 2 * a), expected)
        assert_coeff_maps_equal(product_expand(ODD, 3, 2 * a), expected)

    @pytest.mark.parametrize("a", [0, 1, 2, 3])
    def test_b3_times_odd(self, a):
        middle = Scalar(
            qint(2 * a + 2) * qint(2 * a + 2) * qint(2 * a)
            + qint(2 * a + 3) * qint(2 * a + 3) * qint(2 * a + 2),
            qfact(3),
        )
        expected = {
            2 * a + 4: sc(qbinom(2 * a + 4, 3)),
            2 * a + 2: middle * QVS,
            2 * a: sc(qbinom(2 * a + 2, 3)) * QVS * QVS,
        }
        assert_coeff_maps_equal(mult_closed(ODD, 3, 2 * a + 1), expected)
        assert_coeff_maps_equal(product_expand(ODD, 3, 2 * a + 1), expected)

    @pytest.mark.parametrize("a", [0, 1, 2, 3])
    def test_b4_times_even(self, a):
        expected = {
            2 * a + 4: sc(qbinom(2 * a + 4, 4)),
            2 * a + 2: Scalar(qint(2 * a + 4), qint(2))
            * sc(qbinom(2 * a + 2, 3)) * QVS,
            2 * a: Scalar(
                qint(2 * a + 4) * qint(2 * a + 2) * qint(2 * a)
                * qint(2 * a - 2),
                qfact(4),
            ) * QVS * QVS,
        }
        assert_coeff_maps_equal(mult_closed(ODD, 4, 2 * a), expected)
        assert_coeff_maps_equal(product_expand(ODD, 4, 2 * a), expected)

    @pytest.mark.parametrize("a", [0, 1, 2, 3])
    def test_b4_times_odd(self, a):
        expected = {
            2 * a + 5: sc(qbinom(2 * a + 5, 4)),
            2 * a + 3: Scalar(qint(2 * a), qint(2))
            * sc(qbinom(2 * a + 4, 3)) * QVS,
            2 * a + 1: Scalar(
                qint(2 * a + 4) * qint(2 * a + 2) * qint(2 * a)
                * qint(2 * a - 2),
                qfact(4),
            ) * QVS * QVS,
        }
        assert_coeff_maps_equal(mult_closed(ODD, 4, 2 * a + 1), expected)
        assert_coeff_maps_equal(product_expand(ODD, 4, 2 * a + 1), expected)


class TestMultAgainstProduct:
    @pytest.mark.parametrize("p", PARITIES)
    def test_grid(self, p):
        for m in range(9):
            for n in range(9 - m):
                assert_coeff_maps_equal(
                    mult_closed(p, m, n), product_expand(p, m, n)
                )

    @pytest.mark.parametrize("p", PARITIES)
    def test_symmetry(self, p):
        for m in range(9):
            for n in range(9 - m):
                assert_coeff_maps_equal(
                    mult_closed(p, m, n), mult_closed(p, n, m)
                )

    def test_negative_rejected(self):
        with pytest.raises(NegativeInput):
            mult_closed(EV, -1, 2)

    @pytest.mark.parametrize("p", PARITIES)
    def test_matches_the_scalar_products(self, p):
        # m + n <= 16 includes the removable 0/0 of the odd both-odd case
        for m in range(17):
            for n in range(17 - m):
                assert (raw_text(mult_closed(p, m, n))
                        == raw_text(reference_mult_closed(p, m, n))), (m, n)

    def test_reduces_only_the_odd_both_odd_sum(self, monkeypatch):
        # every coefficient is built in lowest terms; only the sum of two
        # fractions in the odd family with m, n odd runs a reduction
        calls = []
        real = coeff._reduce
        monkeypatch.setattr(coeff, "_reduce",
                            lambda n, d: calls.append(1) or real(n, d))
        for p in PARITIES:
            for m in range(17):
                for n in range(17 - m):
                    if not (p == ODD and m % 2 and n % 2):
                        mult_closed(p, m, n)
                        assert not calls, (p, m, n)


    def test_carried_counts_are_the_ratios_of_the_full_lists(self):
        # _mult_closed_terms carries the counts of the ratio from l - 1 to
        # l; count the whole index lists of each l instead
        zero_pairs = 0
        for p, s in itertools.product(PARITIES, range(25)):
            for m in range(s + 1):
                n = s - m
                dn, dm, dd = _MULT_OFFSETS[p, m % 2, n % 2]
                nums = list(range(1, s + 1))
                dens = [*range(1, m + 1), *range(1, n + 1)]
                expected = {s: [qratio_vector(nums, dens)]}
                for l in range(1, (m + dm - 1) // 2 + 1):
                    nums += [n + dn - 2 * l, m + dm - 2 * l]
                    dens += [s + dd - 2 * l, 2 * l]
                    if p == EV and not m % 2 and not n % 2:
                        lists = [(nums + [s - 2 * l], dens + [s])]
                    elif p == ODD and m % 2 and n % 2:
                        lists = [
                            (nums + [s - 2 * l, m + 1 - 2 * l],
                             dens + [s, m + 1]),
                            (nums + [s + 1 - 2 * l, s + 1 - 2 * l, 2 * l],
                             dens + [s, n + 1 - 2 * l, m + 1]),
                        ]
                    else:
                        lists = [(nums, dens)]
                    zero_pairs += sum(0 in a and 0 in b for a, b in lists)
                    terms = [qratio_vector(a, b, l) for a, b in lists]
                    if any(terms):
                        expected[s - 2 * l] = [x for x in terms if x]
                assert _mult_closed_terms(p, m, n) == expected, (p, m, n)
        # a zero index in both lists cancels as the pair 0/0
        assert zero_pairs


class TestComultGolden:
    """The four displayed coproducts, transcribed term by term."""

    def test_ev_2_legs(self):
        Ec, F, Kinv = u_gen("Echeck"), u_gen("F"), u_gen("Kinv")
        h0 = u_h_binom(0, 1)
        assert s_component(EV, 2, 0) == kpow(-2)
        assert s_component(EV, 2, 1) == (
            (Ec * Kinv).scale(qp(-1)) + (Kinv * F).scale(qp(-1))
        )
        assert s_component(EV, 2, 2) == (
            dp("Echeck", 2) + (Ec * F).scale(qp(-1)) + dp("F", 2)
            + h0.scale(qp(1) * QVS)
        )

    def test_ev_3_legs(self):
        Ec, F, Kinv = u_gen("Echeck"), u_gen("F"), u_gen("Kinv")
        h0 = u_h_binom(0, 1)
        hm1 = u_h_binom(-1, 1)
        assert s_component(EV, 3, 0) == kpow(-3)
        assert s_component(EV, 3, 1) == (
            (Ec * kpow(-2)).scale(qp(-2)) + (kpow(-2) * F).scale(qp(-2))
        )
        assert s_component(EV, 3, 2) == (
            (dp("Echeck", 2) * Kinv).scale(qp(-2))
            + (Ec * Kinv * F).scale(qp(-3))
            + (Kinv * dp("F", 2)).scale(qp(-2))
            + (h0 * Kinv).scale(qp(3) * QVS)
        )
        assert s_component(EV, 3, 3) == (
            dp("Echeck", 3)
            + (dp("Echeck", 2) * F).scale(qp(-2))
            + (Ec * dp("F", 2)).scale(qp(-2))
            + dp("F", 3)
            + (Ec * hm1).scale(qp(3) * QVS)
            + (hm1 * F).scale(qp(3) * QVS)
        )

    def test_odd_2_legs(self):
        Ec, F, Kinv = u_gen("Echeck"), u_gen("F"), u_gen("Kinv")
        h0 = u_h_binom(0, 1)
        assert s_component(ODD, 2, 0) == kpow(-2)
        assert s_component(ODD, 2, 1) == (
            (Ec * Kinv).scale(qp(-1)) + (Kinv * F).scale(qp(-1))
        )
        assert s_component(ODD, 2, 2) == (
            dp("Echeck", 2) + (Ec * F).scale(qp(-1)) + dp("F", 2)
            + h0.scale(qp(3) * QVS)
        )

    def test_odd_3_legs(self):
        Ec, F, Kinv = u_gen("Echeck"), u_gen("F"), u_gen("Kinv")
        h0 = u_h_binom(0, 1)
        assert s_component(ODD, 3, 0) == kpow(-3)
        assert s_component(ODD, 3, 1) == (
            (Ec * kpow(-2)).scale(qp(-2)) + (kpow(-2) * F).scale(qp(-2))
        )
        assert s_component(ODD, 3, 2) == (
            (dp("Echeck", 2) * Kinv).scale(qp(-2))
            + (Ec * Kinv * F).scale(qp(-3))
            + (Kinv * dp("F", 2)).scale(qp(-2))
            + (h0 * Kinv).scale(qp(1) * QVS)
        )
        assert s_component(ODD, 3, 3) == (
            dp("Echeck", 3)
            + (dp("Echeck", 2) * F).scale(qp(-2))
            + (Ec * dp("F", 2)).scale(qp(-2))
            + dp("F", 3)
            + (Ec * h0).scale(qp(1) * QVS)
            + (h0 * F).scale(qp(1) * QVS)
        )

    def test_out_of_range_leg_is_zero(self):
        assert s_component(EV, 3, 4).is_zero()
        assert s_component(EV, 3, -1).is_zero()

    def test_leg_count(self):
        assert len(comult_closed(ODD, 4)) == 5
        assert [r for r, _ in comult_closed(EV, 3)] == [0, 1, 2, 3]


class TestComultTheorem:
    @pytest.mark.parametrize("p", PARITIES)
    def test_order_zero_and_one(self, p):
        assert comult_direct(p, 0) == TensorElement.one()
        assert comult_theorem(p, 0) == TensorElement.one()
        b = idp_to_pbw(idp_closed(p, 1))
        expected = TensorElement.from_pair(b, kpow(-1)) + TensorElement.from_pair(
            UElement.one(), u_gen("F") + u_gen("Echeck")
        )
        assert comult_direct(p, 1) == expected
        assert comult_theorem(p, 1) == expected

    @pytest.mark.parametrize("p", PARITIES)
    @pytest.mark.parametrize("n", range(6))
    def test_theorem_matches_direct(self, p, n):
        assert comult_theorem(p, n) == comult_direct(p, n), (p, n)

    @pytest.mark.parametrize("p", PARITIES)
    @pytest.mark.parametrize("n", range(5))
    def test_reversed_legs_match(self, p, n):
        for r in range(n + 1):
            assert s_component_reversed(p, n, r) == s_component(p, n, r), (
                p, n, r,
            )

    @pytest.mark.parametrize("p", PARITIES)
    def test_reversed_assembly(self, p):
        assert comult_theorem_reversed(p, 4) == comult_direct(p, 4)

    def test_reversed_sign_matters(self):
        # dropping the (-1)^c sign must break the reversed legs: the c = 1
        # portion of the n = 2, r = 2 leg changes sign, so compare the two
        # presentations after flipping it
        plain = s_component(ODD, 2, 2)
        rev = s_component_reversed(ODD, 2, 2)
        assert plain == rev
        h0 = u_h_binom(0, 1)
        unsigned = rev + h0.scale(qp(3) * QVS) + h0.scale(qp(3) * QVS)
        assert unsigned != plain


class TestPBWImage:
    def test_generator_image(self):
        assert idp_to_pbw(BPolynomial.b()) == u_gen("F") + u_gen("Echeck")
        assert idp_to_pbw(BPolynomial.one()) == UElement.one()

    def test_divided_square(self):
        b = u_gen("F") + u_gen("Echeck")
        expected = (b * b).scale(Scalar(LaurentPoly.one(), qint(2)))
        assert idp_to_pbw(idp_closed(EV, 2)) == expected

    @pytest.mark.parametrize("p", PARITIES)
    def test_closed_image_matches_plain_uelement_arithmetic(self, p):
        # independent of the exponent vectors: B^d by UElement products,
        # which go through _mono_mul on Scalar coefficients
        powers = plain_b_powers(10)
        for n in range(11):
            x = UElement.zero()
            for d, t in _numerator(p, n).items():
                x = x + powers[d].scale(Scalar(LaurentPoly(t)))
            expected = x.scale(Scalar(LaurentPoly.one(), qfact(n)))
            assert str(_pbw_closed(p, n)) == str(expected), n

    @pytest.mark.parametrize("p", PARITIES)
    def test_chi_fixes_divided_powers(self, p):
        for n in range(7):
            img = idp_to_pbw(idp_closed(p, n)).specialize_varsigma()
            assert chi(img) == img, (p, n)
