"""PBW rewriting: pinned relations, normal form laws, the closed
commutation formula against the defining relations, chi, h-binomials."""

import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from iqsl2 import pbw
from iqsl2.coeff import LaurentPoly, Scalar
from iqsl2.errors import RequiresSpecialized
from iqsl2.pbw import (
    UElement,
    chi,
    divided_power,
    u_gen,
    u_h,
    u_h_binom,
    weight_eval,
)
from iqsl2.qcomb import qbinom, qfact, qint
from oracles import mono_mul

E = u_gen("E")
F = u_gen("F")
K = u_gen("K")
Ki = u_gen("Kinv")
ECH = u_gen("Echeck")

ONE = UElement.one()
q = LaurentPoly.q


def sc(num, den=1):
    return Scalar(num, den)


_EF_COMM = (K - Ki).scale(sc(LaurentPoly.one(), q(1) - q(-1)))


class TestRelations:
    def test_kk_inverse(self):
        assert K * Ki == ONE
        assert Ki * K == ONE

    def test_ke_relation(self):
        assert K * E == (E * K).scale(Scalar.q_power(2))
        assert Ki * E == (E * Ki).scale(Scalar.q_power(-2))

    def test_kf_relation(self):
        assert K * F == (F * K).scale(Scalar.q_power(-2))
        assert Ki * F == (F * Ki).scale(Scalar.q_power(2))

    def test_ef_relation(self):
        assert E * F - F * E == _EF_COMM

    def test_fe_normal_form(self):
        # F*E lands in the PBW basis with the commutator subtracted
        assert F * E == E * F - _EF_COMM

    def test_unit_and_zero(self):
        assert ONE * E == E
        assert E * ONE == E
        assert UElement.zero() * E == UElement.zero()
        assert E - E == UElement.zero()

    def test_echeck_definition(self):
        assert ECH == (E * Ki).scale(sc(LaurentPoly.vs()))


def _assert_reference_product(m1, m2):
    """pbw._mono_mul(m1, m2) equals the reference normal form, term by
    term, as values and as canonical text."""
    got, ref = pbw._mono_mul(m1, m2), mono_mul(m1, m2)
    assert got.keys() == ref.keys(), (m1, m2)
    for m, s in ref.items():
        assert got[m] == s and str(got[m]) == str(s), (m1, m2, m)


class TestClosedCommutation:
    """The products of ``pbw``, read from the closed formula for F^c E^a,
    against ``oracles.mono_mul``, which multiplies by one generator at a
    time with the defining relations."""

    def test_pinned_grid(self):
        # the formula reads c and a' (F^c E^a') and the K shifts read b
        # and b'; a and c' only offset the result
        for a, c2 in ((0, 0), (2, 1)):
            for c, a2 in itertools.product(range(6), repeat=2):
                for b, b2 in itertools.product((-2, 0, 1, 3), repeat=2):
                    _assert_reference_product((a, b, c), (a2, b2, c2))

    def test_every_commutation_the_suites_reach(self):
        # F^c E^a for c, a <= 12, and for min(c, a) <= 2 up to 24: every
        # (c, a) the B step (F^c E) and the suites up to order 24 read
        pairs = {(c, a) for c in range(13) for a in range(13)}
        pairs |= {(c, a) for c in range(25) for a in range(3)}
        pairs |= {(c, a) for c in range(3) for a in range(25)}
        for c, a in sorted(pairs):
            _assert_reference_product((0, 0, c), (a, 0, 0))

    MONOMIALS = st.tuples(st.integers(0, 6), st.integers(-4, 4),
                          st.integers(0, 6))

    @given(MONOMIALS, MONOMIALS)
    @settings(max_examples=100, deadline=None)
    def test_random_monomials(self, m1, m2):
        _assert_reference_product(m1, m2)


def _rand_element(rng, nterms=3, with_vs=True):
    out = UElement.zero()
    for _ in range(nterms):
        a = rng.randrange(0, 3)
        b = rng.randrange(-2, 3)
        c = rng.randrange(0, 3)
        i = rng.randrange(-2, 3)
        j = rng.randrange(0, 3) if with_vs else 0
        n = rng.randrange(-3, 4)
        out = out + UElement.monomial(a, b, c, sc(LaurentPoly.monomial(i, j, n)))
    return out


def test_associativity_randomized():
    import random

    rng = random.Random(20240822)
    for _ in range(25):
        x = _rand_element(rng)
        y = _rand_element(rng)
        z = _rand_element(rng)
        assert (x * y) * z == x * (y * z)


def test_rewriting_confluence_random_words():
    # multiply a random word of generators in two association orders
    import random

    rng = random.Random(7)
    gens = [E, F, K, Ki]
    for _ in range(30):
        word = [gens[rng.randrange(4)] for _ in range(rng.randrange(2, 7))]
        left = ONE
        for g in word:
            left = left * g
        right = ONE
        for g in reversed(word):
            right = g * right
        assert left == right


class TestDividedPowers:
    def test_small_cases(self):
        assert divided_power("E", 0) == ONE
        assert divided_power("E", 1) == E
        assert divided_power("F", 2) == UElement.monomial(
            0, 0, 2, sc(LaurentPoly.one(), qint(2))
        )

    def test_echeck_closed_form_matches_recipe(self):
        for n in range(0, 6):
            power = ONE
            for _ in range(n):
                power = power * ECH
            assert power.scale(sc(LaurentPoly.one(), qfact(n))) == divided_power(
                "Echeck", n
            )

    def test_echeck_exponent(self):
        # (varsigma E K^-1)^2 / [2] = varsigma^2 q^-2 E^2 K^-2 / [2]
        got = divided_power("Echeck", 2)
        want = UElement.monomial(
            2, -2, 0, sc(LaurentPoly.monomial(-2, 2), qint(2))
        )
        assert got == want

    def test_mf_product_rule(self):
        # F^{(m)} F^{(n)} = [m+n choose n] F^{(m+n)}, same for E
        for name in ("E", "F"):
            for m in range(0, 7):
                for n in range(0, 7 - m):
                    lhs = divided_power(name, m) * divided_power(name, n)
                    rhs = divided_power(name, m + n).scale(sc(qbinom(m + n, n)))
                    assert lhs == rhs

    def test_text_is_byte_identical(self):
        # sha256 of the texts, one a line, as produced from the Scalar
        # 1 / [n]! with the factorial qfact(n)
        h = hashlib.sha256()
        for name in ("E", "F", "Echeck"):
            for n in range(25):
                h.update(f"{name} {n} {divided_power(name, n)}\n".encode())
        assert h.hexdigest() == (
            "a22f76d16be7b8f822fa2a18b13b435ffea77f50ccb8ae8432394d04d82ae4b5")

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            divided_power("E", -1)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_unknown_generator_rejected_at_every_order(self, n):
        # order 0 is checked like any other, not answered with 1
        with pytest.raises(ValueError, match="no divided power for generator"):
            divided_power("X", n)


class TestCartan:
    def test_h_definition(self):
        d = q(2) - LaurentPoly.one()
        want = (Ki * Ki - ONE).scale(sc(LaurentPoly.one(), d))
        assert u_h() == want

    def test_h_binom_base_cases(self):
        assert u_h_binom(3, 0) == ONE
        # [h; a]_1 = (q^{4a} K^-2 - 1)/(q^4 - 1)
        for a in (-2, 0, 1):
            d = q(4) - LaurentPoly.one()
            want = (Ki * Ki).scale(sc(q(4 * a), d)) - ONE.scale(
                sc(LaurentPoly.one(), d)
            )
            assert u_h_binom(a, 1) == want

    def test_h_binom_example(self):
        # [h; 0]_2 = (K^-2 - 1)(q^4 K^-2 - 1) / ((q^4 - 1)(q^8 - 1))
        den = (q(4) - 1) * (q(8) - 1)
        f1 = Ki * Ki - ONE
        f2 = (Ki * Ki).scale(sc(q(4))) - ONE
        assert u_h_binom(0, 2) == (f1 * f2).scale(sc(LaurentPoly.one(), den))

    def test_h_binom_text_is_byte_identical(self):
        # sha256 of the texts, one a line, as produced by the product of the
        # factors on Scalars
        h = hashlib.sha256()
        for a in range(-12, 13):
            for n in range(13):
                h.update(f"{u_h_binom(a, n)}\n".encode())
        assert h.hexdigest() == (
            "96dcd57ef266b7f8611749d48abb3a7ad4cade107803edfe25a48e7a60a93f70")

    def test_h_commutation_with_f_and_echeck(self):
        # [h; a]_n F = F [h; a+1]_n and [h; a]_n Echeck = Echeck [h; a-1]_n
        for a in (-2, -1, 0, 1, 2):
            for n in (1, 2, 3):
                hb = u_h_binom(a, n)
                assert hb * F == F * u_h_binom(a + 1, n)
                assert hb * ECH == ECH * u_h_binom(a - 1, n)

    def test_fek_relation(self):
        # F Echeck - q^-2 Echeck F = q varsigma h
        lhs = F * ECH - (ECH * F).scale(Scalar.q_power(-2))
        rhs = u_h().scale(sc(LaurentPoly.monomial(1, 1)))
        assert lhs == rhs


class TestChi:
    def test_fixes_generators(self):
        for g in (E, F, K, Ki):
            assert chi(g) == g

    def test_reverses_products(self):
        assert chi(E * F) == F * E
        assert chi(F * E) == E * F
        assert chi(K * E) == E * K

    def test_bars_coefficients(self):
        x = E.scale(sc(q(3) + q(1)))
        assert chi(x) == E.scale(sc(q(-3) + q(-1)))

    def test_involution_randomized(self):
        import random

        rng = random.Random(11)
        for _ in range(15):
            x = _rand_element(rng, with_vs=False)
            assert chi(chi(x)) == x

    def test_antimultiplicative_randomized(self):
        import random

        rng = random.Random(13)
        for _ in range(15):
            x = _rand_element(rng, nterms=2, with_vs=False)
            y = _rand_element(rng, nterms=2, with_vs=False)
            assert chi(x * y) == chi(y) * chi(x)

    def test_chi_of_h(self):
        assert chi(u_h()) == u_h().scale(-Scalar.q_power(2))

    def test_chi_of_h_binom(self):
        # chi([h; a]_n) = (-1)^n q^{2n(n+1)} [h; 1-a-n]_n
        for a in (-2, -1, 0, 1, 2):
            for n in (0, 1, 2, 3):
                sign = Scalar.from_int((-1) ** n)
                want = u_h_binom(1 - a - n, n).scale(
                    sign * Scalar.q_power(2 * n * (n + 1))
                )
                assert chi(u_h_binom(a, n)) == want

    def test_rejects_symbolic_varsigma(self):
        with pytest.raises(RequiresSpecialized):
            chi(ECH)
        # at varsigma = q^-1 the twisted generator q^-1 E K^-1 is chi-fixed
        fixed = ECH.specialize_varsigma()
        assert chi(fixed) == fixed


class TestWeightEval:
    def test_kills_k_exponent(self):
        x = UElement.monomial(1, 2, 1)
        got = weight_eval(x, 3)
        assert got == UElement.monomial(1, 0, 1, Scalar.q_power(6))

    def test_linear(self):
        x = E * F
        y = K * E
        for m in (-2, 0, 5):
            assert weight_eval(x + y, m) == weight_eval(x, m) + weight_eval(y, m)

    def test_h_binom_eigenvalue(self):
        # on weight m, [h; a]_n evaluates to prod_i (q^{4a+4i-4-2m} - 1)/(q^{4i} - 1)
        for a in (-1, 0, 2):
            for n in (1, 2):
                for m in (-2, 0, 3):
                    got = weight_eval(u_h_binom(a, n), m)
                    val = Scalar.one()
                    for i in range(1, n + 1):
                        val = val * Scalar(
                            q(4 * a + 4 * i - 4 - 2 * m) - 1, q(4 * i) - 1
                        )
                    assert got == ONE.scale(val)
