"""Cyclotomic exponent vectors: products, checked sums and checked
conversions against the same Scalar arithmetic and against the dict forms
of the exponents, and the vectors of the coproduct against its Scalar
constructions."""

import pytest
from hypothesis import given, settings, strategies as st

from iqsl2 import cyclo, idp, pbw, tensor
from iqsl2._kernel import kmul
from iqsl2.coeff import LaurentPoly, Scalar
from iqsl2.cyclo import (
    qratio_vector,
    sum_row,
    to_row,
    to_scalar,
    vmul,
    vsum,
)
from iqsl2.errors import NotIntegral, ResourceLimit
from iqsl2.qcomb import qint
from oracles import (
    from_scalars,
    from_terms,
    h_binom,
    oracle_products,
    theorem_vectors,
    vinv,
)

DMAX = 30


def pack(exps):
    """The packed exponents of {d: e_d}: e_d in the 16-bit field d - 1."""
    return sum(e << (16 * (d - 1)) for d, e in exps.items())


@st.composite
def dict_vectors(draw, j=None, emax=3):
    exps = draw(st.dictionaries(st.integers(1, DMAX),
                                st.integers(-emax, emax), max_size=4))
    return (draw(st.sampled_from((1, -1))), draw(st.integers(-8, 8)),
            draw(st.integers(-2, 2)) if j is None else j,
            {d: e for d, e in exps.items() if e})


def packed(x):
    """The vector x of dict form, or 0, with its exponents packed."""
    return x and (*x[:3], pack(x[3]))


def vectors(j=None):
    return dict_vectors(j).map(packed)


# The dict forms of the exponents, {d: e_d} with every e_d != 0, as the
# vectors were stored before they were packed: the reference of the
# packed products, sums and conversions.

def dict_vmul(x, y):
    s1, i1, j1, e1 = x
    s2, i2, j2, e2 = y
    exps = dict(e1)
    for d, e in e2.items():
        e += exps.get(d, 0)
        if e:
            exps[d] = e
        else:
            del exps[d]
    return s1 * s2, i1 + i2, j1 + j2, exps


def dict_vinv(x):
    sign, i, j, exps = x
    return sign, -i, -j, {d: -e for d, e in exps.items()}


def dict_to_scalar(x):
    if not x:
        return Scalar.zero()
    sign, shift, l, exps = x
    num = [(d, e) for d, e in exps.items() if e > 0]
    den = [(d, -e) for d, e in exps.items() if e < 0]
    n = {(2 * i + shift, l): sign * c
         for i, c in cyclo._cyclotomic_product(num).items()}
    d = {(2 * i, 0): c for i, c in cyclo._cyclotomic_product(den).items()}
    return Scalar._make(n, d, cancel=False)


def dict_prove(value_at, bound, shift, j, exps, ds):
    k = cyclo._width(bound)
    for _ in range(2):
        val = value_at(k)
        if not val:
            return 0
        s = ((val & -val).bit_length() - 1) // k
        val >>= k * s
        found = {}
        norm = 1
        for d in ds:
            if val in (1, -1):
                break
            p = cyclo._phi_value(d, k)
            while not val % p:
                val //= p
                found[d] = found.get(d, 0) + 1
                norm *= cyclo._cyclotomic(d)[1]
        if val not in (1, -1):
            return None
        if norm.bit_length() < k:
            return dict_vmul((val, shift + s, j, exps), (1, 0, 0, found))
        k = cyclo._width(max(bound, norm))
    return None


def dict_vsum(terms, dmax):
    if len(terms) == 1:
        return terms[0]
    j = terms[0][2]
    lo = terms[0][1]
    low = {}
    carried = {}
    for _, i, jj, exps in terms:
        if jj != j:
            return None
        if i < lo:
            lo = i
        for d, e in exps.items():
            if d in low:
                carried[d] += 1
                if e < low[d]:
                    low[d] = e
            else:
                low[d] = e
                carried[d] = 1
    least = {}
    for d, e in low.items():
        if carried[d] < len(terms):
            e = min(e, 0)
        if e:
            least[d] = e
    norms = {d: cyclo._cyclotomic(d)[1] for d in low}
    rests = []
    bound = 0
    for sign, i, _, exps in terms:
        rest = dict_vmul((1, 0, 0, exps), dict_vinv((1, 0, 0, least)))[3]
        rests.append((sign, i - lo, rest))
        b = 1
        for d, e in rest.items():
            b *= norms[d] ** e
        bound += b

    def value_at(k):
        val = 0
        for sign, i, rest in rests:
            x = sign << (k * i)
            for d, e in rest.items():
                x *= cyclo._phi_value(d, k) ** e
            val += x
        return val

    return dict_prove(value_at, bound, lo, j, least,
                      sorted({*low, *range(1, dmax + 1)}))


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
        assert vmul(x, vinv(x)) == (1, 0, 0, 0)


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
        terms = [vmul(y, (1, 2 * d + s, 0, 0)), vmul(y, (-1, s, 0, 0)),
                 z, vmul(z, (-1, 0, 0, 0))]
        v = vsum(terms, DMAX)
        assert v is not None
        expected = vmul(y, (1, s, 0, pack({e: 1 for e in range(1, d + 1)
                                           if d % e == 0})))
        assert v == expected
        _same(v, sum((to_scalar(x) for x in terms), Scalar.zero()))

    def test_a_sum_that_cancels_is_zero(self):
        # [2]^2 - [3] - 1 = 0, with [2] = q^-1 Phi_2 and [3] = q^-2 Phi_3
        terms = [(1, -2, 0, pack({2: 2})), (-1, -2, 0, pack({3: 1})), (-1, 0, 0, 0)]
        assert vsum(terms, DMAX) == 0
        assert vsum([(1, 3, 1, pack({5: -2})), (-1, 3, 1, pack({5: -2}))], 2) == 0

    def test_phi_1_is_stripped(self):
        # q^4 - 1 = Phi_1(q^2) Phi_2(q^2) and 1 - q^2 = -Phi_1(q^2)
        assert vsum([(1, 4, 0, 0), (-1, 0, 0, 0)], 2) == (1, 0, 0, pack({1: 1, 2: 1}))
        assert vsum([(1, 0, 0, 0), (-1, 2, 0, 0)], 2) == (-1, 0, 0, pack({1: 1}))

    @pytest.mark.parametrize("terms,expected", [
        # every term carries Phi_3, least 2 > 0 is kept:
        # Phi_3^3 - Phi_3^2 = Phi_3^2 (q^4 + q^2) = q^2 Phi_2 Phi_3^2
        ([(1, 0, 0, pack({3: 3})), (-1, 0, 0, pack({3: 2}))], (1, 2, 0, pack({2: 1, 3: 2}))),
        # one term lacks Phi_3, least 0: Phi_3 - 1 = q^2 Phi_2
        ([(1, 0, 0, pack({3: 1})), (-1, 0, 0, 0)], (1, 2, 0, pack({2: 1}))),
        # Phi_3 at -1 in some terms, absent in another, least -1:
        # 1/Phi_3 - 1 = -q^2 Phi_2 / Phi_3
        ([(1, 0, 0, pack({3: -1})), (-1, 0, 0, 0)], (-1, 2, 0, pack({2: 1, 3: -1}))),
        # (1 - Phi_3 + q^2 Phi_2) / Phi_3 = 0
        ([(1, 0, 0, pack({3: -1})), (-1, 0, 0, 0), (1, 2, 0, pack({2: 1, 3: -1}))], 0),
    ])
    def test_least_exponents(self, terms, expected):
        v = vsum(terms, 2)
        assert v == expected
        _same(v, sum((to_scalar(x) for x in terms), Scalar.zero()))

    def test_mixed_varsigma_exponents_are_not_proved(self):
        assert vsum([(1, 0, 0, 0), (1, 0, 1, 0)], 2) is None
        # also when the terms of one exponent cancel
        assert vsum([(1, 0, 1, 0), (-1, 0, 1, 0), (1, 0, 0, 0)], 2) is None

    def test_unproved_sum_returns_none(self):
        # 1 + Phi_3(q^2) = 2 + q^2 + q^4 is no product of cyclotomic factors
        assert vsum([(1, 0, 0, 0), (1, 0, 0, pack({3: 1}))], 2) is None

    def test_width(self):
        assert cyclo._width(2 ** 15 - 1) == 16
        assert cyclo._width(2 ** 15) == 32

    def test_wide_factors_are_evaluated_again(self, monkeypatch):
        # (q^2 - 1)^15 has coefficients below 2^13, so k = 16 bounds it,
        # but Phi_1^15 has 1-norm bound 2^15: the proof needs k = 32
        monkeypatch.setattr(cyclo, "_PHI_VALUES", {})
        t = (LaurentPoly.q(2) - 1) ** 15
        assert from_terms(t._t, 1) == (1, 0, 0, pack({1: 15}))
        assert sorted(cyclo._PHI_VALUES) == [(1, 16), (1, 32)]


class TestDictForms:
    """The packed vectors against the dict forms of their exponents."""

    @given(dict_vectors(emax=4095), dict_vectors(emax=4095))
    @settings(max_examples=100, deadline=None)
    def test_product_and_inverse_up_to_the_field_bound(self, x, y):
        assert vmul(packed(x), packed(y)) == packed(dict_vmul(x, y))
        assert vinv(packed(x)) == packed(dict_vinv(x))
        assert cyclo._fields(packed(x)[3]) == sorted(x[3].items())

    @given(dict_vectors())
    @settings(max_examples=60, deadline=None)
    def test_to_scalar(self, x):
        got, expected = to_scalar(packed(x)), dict_to_scalar(x)
        assert got == expected and str(got) == str(expected)

    @given(st.lists(dict_vectors(j=1), min_size=1, max_size=4),
           st.dictionaries(st.integers(1, DMAX), st.integers(-4000, 4000),
                           max_size=3),
           st.data())
    @settings(max_examples=80, deadline=None)
    def test_sum(self, terms, common, data):
        # repeated and negated terms, so that like terms collect and
        # cancel, times a common factor with exponents near the bound
        again = data.draw(st.lists(
            st.tuples(st.integers(0, len(terms) - 1), st.sampled_from((1, -1))),
            max_size=4))
        terms += [(sign * terms[t][0], *terms[t][1:]) for t, sign in again]
        common = (1, 0, 0, {d: e for d, e in common.items() if e})
        terms = [dict_vmul(x, common) for x in terms]
        got = vsum([packed(x) for x in terms], DMAX)
        expected = dict_vsum(terms, DMAX)
        # the proofs run at widths that may differ, as the collected bound
        # is smaller, but a proved sum is the sum
        assert (got == 0) == (expected == 0)
        if got is not None and expected is not None:
            assert got == packed(expected)


class TestCollectedSum:
    """vsum collects like terms before it evaluates anything."""

    def test_a_sum_that_cancels_exactly_is_not_evaluated(self, monkeypatch):
        def evaluated(*args):
            raise AssertionError("evaluated")

        monkeypatch.setattr(cyclo, "_phi_value", evaluated)
        monkeypatch.setattr(cyclo, "_prove", evaluated)
        x = (1, -2, 1, pack({2: 2, 7: -1}))
        y = (-1, 3, 1, pack({5: 1}))
        assert vsum([x, y, vinv(vinv(x)), (-1, *x[1:]), (1, *y[1:]),
                     (-1, *x[1:])], DMAX) == 0
        # what is left is one term with coefficient +-1
        assert vsum([x, y, (-y[0], *y[1:])], DMAX) == x

    @pytest.mark.parametrize("sign", [1, -1])
    def test_a_term_left_twice_is_not_proved(self, sign):
        # 2 q^3 Phi_5 is no vector, as 1 + 1 was not before terms collected
        x = (sign, 3, 0, pack({5: 1}))
        y = (1, 0, 0, pack({2: 1}))
        assert vsum([x, x], DMAX) is None
        assert vsum([x, y, x, (-1, *y[1:])], DMAX) is None
        assert dict_vsum([(sign, 3, 0, {5: 1})] * 2, DMAX) is None

    def test_a_cancelled_term_keeps_its_strip_candidates(self):
        # q^14 - 1 = Phi_1(q^2) Phi_7(q^2), and 7 > dmax: Phi_7 is tried
        # because two terms that cancel carry it, as before terms collected
        live = [(1, 14, 0, 0), (-1, 0, 0, 0)]
        cancelled = [(1, 0, 0, pack({7: 1})), (-1, 0, 0, pack({7: 1}))]
        assert vsum(live + cancelled, 2) == (1, 0, 0, pack({1: 1, 7: 1}))
        assert dict_vsum([(1, 14, 0, {}), (-1, 0, 0, {}), (1, 0, 0, {7: 1}),
                          (-1, 0, 0, {7: 1})], 2) == (1, 0, 0, {1: 1, 7: 1})
        assert vsum(live, 2) is None


class TestRestMemo:
    """vsum memoizes the rests of its live terms over their least
    exponents (``cyclo._REST_CACHE``): a warm memo gives what an empty one
    gives."""

    # 0, vectors, None, ResourceLimit before and after the rests are
    # taken, and a proof at width 32: (x - 1)^14 (x - 1) + x + 1 - Phi_2
    # at x = q^2, whose bound passes 2^15
    SUMS = [
        ([(1, -2, 0, pack({2: 2})), (-1, -2, 0, pack({3: 1})), (-1, 0, 0, 0)],
         DMAX),
        ([(1, 0, 0, pack({3: -1})), (-1, 0, 0, 0)], 2),
        ([(1, 0, 0, pack({3: 3})), (-1, 0, 0, pack({3: 2}))], 2),
        ([(1, 0, 0, 0), (1, 0, 0, pack({3: 1}))], 2),
        ([(1, 14, 0, 0), (-1, 0, 0, 0)], 2),
        ([(1, 0, 0, pack({5: 2 ** 14})), (-1, 0, 0, 0)], 3),
        ([(1, 2, 0, pack({1: 4095, 4: 3})), (-1, 0, 0, pack({1: 4095, 4: 3}))],
         2),
        ([(1, 30, 0, 0), (-1, 0, 0, 0)], 15),
        ([(1, 2, 0, pack({1: 14})), (-1, 0, 0, pack({1: 14})), (1, 2, 0, 0),
          (1, 0, 0, 0), (-1, 0, 0, pack({2: 1}))], 2),
    ]

    @staticmethod
    def _outcome(terms, dmax):
        try:
            return vsum(terms, dmax)
        except ResourceLimit:
            return ResourceLimit

    def _compare(self, sums, monkeypatch):
        monkeypatch.setattr(cyclo, "_REST_CACHE", {})
        cold = []
        for terms, dmax in sums:
            cyclo._REST_CACHE.clear()
            cold.append(self._outcome(terms, dmax))
        for _ in range(2):
            assert [self._outcome(t, d) for t, d in sums] == cold
        return cold

    def test_every_outcome(self, monkeypatch):
        outcomes = self._compare(self.SUMS, monkeypatch)
        assert outcomes == [0, (-1, 2, 0, pack({2: 1, 3: -1})),
                            (1, 2, 0, pack({2: 1, 3: 2})), None, None,
                            ResourceLimit, ResourceLimit,
                            (1, 0, 0, pack({1: 1, 3: 1, 5: 1, 15: 1})),
                            (1, 0, 0, pack({1: 15}))]
        assert {k for _, values in cyclo._REST_CACHE.values()
                for k in values} == {16, 32}

    def test_the_sums_of_the_suites(self, monkeypatch):
        sums = []
        checked = idp.vsum

        def spy(terms, dmax):
            sums.append((list(terms), dmax))
            return checked(terms, dmax)

        monkeypatch.setattr(idp, "vsum", spy)
        monkeypatch.setattr(idp, "_PBW_VEC_CACHE", {})
        for p in (idp.EV, idp.ODD):
            idp._mult_agrees(idp._mult_closed_terms(p, 5, 6), 5, 6,
                             idp._point_values(p, 11))
            for n in range(8):
                assert idp._comult_agrees(p, n)
        assert len(sums) > 100
        assert 0 in self._compare(sums, monkeypatch)

    @given(st.lists(vectors(j=1), min_size=2, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_random_sums(self, terms):
        with pytest.MonkeyPatch.context() as monkeypatch:
            self._compare([(terms, DMAX)], monkeypatch)


class TestFieldBound:
    """Every vector born in cyclo has its exponents in [-2^12, 2^12), and
    a larger one raises instead of carrying into the next field: 2^15 in
    field 1 would read as -2^15 in field 1 and 1 in field 2."""

    def test_index_count(self):
        # [2] = q^-1 Phi_2: e_2 counts the indices
        assert qratio_vector([2] * 4095, []) == (1, -4095, 0, pack({2: 4095}))
        assert qratio_vector([], [2] * 4095)[3] == pack({2: -4095})
        with pytest.raises(ResourceLimit):
            qratio_vector([2] * 4096, [])
        with pytest.raises(ResourceLimit):
            qratio_vector([2] * 2048, [3] * 2048)

    @pytest.mark.parametrize("e,ok", [(4094, True), (4095, False),
                                      (-4097, True), (-4098, False)])
    def test_stripped_count(self, e, ok):
        # x (q^2 - 1) strips one more Phi_1 onto e_1 = e
        x = (1, 0, 0, pack({1: e, 4: 3}))
        terms = [vmul(x, (1, 2, 0, 0)), vmul(x, (-1, 0, 0, 0))]
        if ok:
            assert vsum(terms, 2) == (1, 0, 0, pack({1: e + 1, 4: 3}))
        else:
            with pytest.raises(ResourceLimit):
                vsum(terms, 2)

    @pytest.mark.parametrize("e,ok", [(4095, True), (4096, False),
                                      (-4096, True), (-4097, False)])
    def test_a_single_term(self, e, ok):
        x = (1, 3, 0, pack({2: 1, 5: e}))
        for terms in ([x], [x, (1, 0, 0, 0), (-1, 0, 0, 0)]):
            if ok:
                assert vsum(terms, 2) == x
            else:
                with pytest.raises(ResourceLimit):
                    vsum(terms, 2)

    @pytest.mark.parametrize("e,ok", [(2 ** 14 - 1, True), (2 ** 14, False),
                                      (-2 ** 14, True), (-2 ** 14 - 1, False),
                                      (2 ** 15 - 1, False)])
    def test_terms_of_a_sum(self, e, ok):
        # the terms may be products of four born vectors, each field in
        # [-2^14, 2^14); beyond that vsum raises before it evaluates.
        # x ([2]^2 - [3] - 1) = 0
        x = (1, 0, 0, pack({5: e}))
        terms = [vmul(x, y) for y in ((1, -2, 0, pack({2: 2})),
                                      (-1, -2, 0, pack({3: 1})),
                                      (-1, 0, 0, 0))]
        if ok:
            assert vsum(terms, 3) == 0
        else:
            with pytest.raises(ResourceLimit):
                vsum(terms, 3)


def _kmul_product(exps):
    """prod Phi_d(x)^e over the (d, e) pairs of exps, by kmul of term dicts."""
    out = {(0, 0): 1}
    for d, e in exps:
        phi = {(i, 0): c for i, c in cyclo._cyclotomic(d)[0].items()}
        for _ in range(e):
            out = kmul(out, phi)
    return {i: c for (i, _), c in out.items()}


def _digit_width(exps):
    """The digit width of _cyclotomic_product before it is rounded up."""
    norm = 1
    for d, e in exps:
        norm *= cyclo._cyclotomic(d)[1] ** e
    return norm.bit_length() + 1


class TestCyclotomicProduct:
    # up to a digit width of 64 bits the product is read as machine words,
    # above it by one shift per slot
    WORDS = [[], [(1, 1)], [(1, 7)], [(5, 2), (7, 1)], [(3, 39)],
             [(1, 62)], [(2, 30), (4, 32)]]
    SLOTS = [[(1, 63)], [(3, 40)], [(31, 8), (29, 9), (12, 3)]]

    @pytest.mark.parametrize("exps", WORDS + SLOTS)
    def test_equals_the_kmul_product(self, exps):
        assert (_digit_width(exps) <= 64) == (exps in self.WORDS)
        assert cyclo._cyclotomic_product(exps) == _kmul_product(exps)

    @given(st.dictionaries(st.integers(1, 40), st.integers(1, 6), max_size=5))
    @settings(deadline=None, max_examples=80)
    def test_random_products(self, exps):
        exps = list(exps.items())
        assert cyclo._cyclotomic_product(exps) == _kmul_product(exps)


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
        assert qratio_vector([-3], [2]) == (-1, -1, 0, pack({2: -1, 3: 1}))
        assert qratio_vector([-3], [-2]) == (1, -1, 0, pack({2: -1, 3: 1}))
        s = Scalar(-qint(3), qint(2))
        assert from_scalars({0: s}, 3) == {0: qratio_vector([-3], [2])}

    @pytest.mark.parametrize("text", ["q^2 + 3", "2*q^2 + 1", "2", "q + v"])
    def test_other_shapes_convert_to_none(self, text):
        assert from_terms(LaurentPoly.parse(text)._t, 10) is None

    def test_factor_above_dmax_is_not_found(self):
        t = (LaurentPoly.q(6) - 1)._t  # Phi_1 Phi_3 of q^2
        assert from_terms(t, 3) == (1, 0, 0, pack({1: 1, 3: 1}))
        assert from_terms(t, 2) is None


def _scalar_row(x):
    """(text, integral, positive) of the vector x by the Scalar route of
    ``verify.table_rows``: the text of ``to_scalar``, then varsigma -> q^-1
    and the division of the numerator by the denominator."""
    return _scalar_text_row(to_scalar(x))


def _scalar_sum_row(terms):
    """The row of the sum of the vectors ``terms`` by the Scalar route:
    ``to_scalar`` of each, added; None when the sum vanishes."""
    s = sum(map(to_scalar, terms[1:]), to_scalar(terms[0]))
    return None if s.is_zero() else _scalar_text_row(s)


def _scalar_text_row(s):
    try:
        lp = s.specialize_varsigma().to_laurent()
    except NotIntegral:
        return str(s), False, False
    return str(s), True, lp.is_nonneg()


class TestRow:
    """``to_row`` writes a table row from a vector with no Scalar. No
    pinned table reaches its denominator or a negative sign, so only these
    tests cover them."""

    @given(st.lists(st.integers(-12, 12).filter(bool), max_size=6),
           st.lists(st.integers(-12, 12).filter(bool), max_size=6),
           st.integers(0, 6), vectors(j=0))
    @settings(max_examples=100, deadline=None)
    def test_is_the_scalar_row(self, nums, dens, l, y):
        # y brings Phi_1, fields of either sign, a sign and an odd shift
        x = qratio_vector(nums, dens, l)
        assert to_row(x) == _scalar_row(x)
        x = vmul(x, y)
        assert to_row(x) == _scalar_row(x)

    # (nums, dens, l, sign, shift) -> (integral, positive)
    FLAGS = {
        ((3, 4), (), 2, 1, 0): (True, True),
        ((3, 4), (), 0, -1, 1): (True, False),
        ((-3, -5), (), 1, 1, 0): (True, True),
        ((-3,), (), 0, 1, 0): (True, False),
        ((4,), (2,), 3, 1, -1): (True, True),
        ((3,), (2,), 1, 1, 0): (False, False),
        ((), (3,), 0, -1, 0): (False, False),
        ((), (), 5, -1, 3): (True, False),
    }

    @pytest.mark.parametrize("key", sorted(FLAGS))
    def test_flags(self, key):
        nums, dens, l, sign, shift = key
        x = vmul(qratio_vector(nums, dens, l), (sign, shift, 0, 0))
        row = to_row(x)
        assert row == _scalar_row(x)
        assert row[1:] == self.FLAGS[key]


class TestSumRow:
    """``sum_row`` writes the row of a sum of ratios, or proves that it
    vanishes, with no Scalar; what it leaves unproved takes the Scalar
    path of ``verify._table_row``."""

    @staticmethod
    def check(terms):
        want = _scalar_sum_row(terms)
        row = sum_row(terms)
        if row == 0:
            assert want is None
        elif row is not None:
            assert row == want and row[1]
        else:
            l, parity = terms[0][2], terms[0][1] % 2
            mixed = any(t[2] != l or t[1] % 2 != parity for t in terms)
            assert want is not None and (mixed or not want[1])
        return row

    @given(vectors(), vectors(), st.integers(-4, 4))
    @settings(max_examples=150, deadline=None)
    def test_is_the_scalar_sum(self, x, y, t):
        # as drawn, the terms often differ in l or in shift parity
        self.check([x, y])
        # y on the l and the shift parity of x
        same = (y[0], x[1] + 2 * t, x[2], y[3])
        self.check([x, same])
        self.check([x, (-x[0], *x[1:])])
        self.check([x, x])
        # one step off in l, or in the shift
        assert sum_row([x, (same[0], same[1], same[2] + 1, same[3])]) is None
        assert sum_row([x, (same[0], same[1] + 1, *same[2:])]) is None

    @given(st.integers(1, 9), st.integers(1, 9), vectors(j=0),
           st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_an_integral_sum_over_a_denominator(self, m, n, z, l):
        # q^n [m] / [m+n] + q^-m [n] / [m+n] = 1, times z: the sum has the
        # factors of [m + n] in D, divided out; z brings fields of either
        # sign, so the sum is integral only when z is
        x = vmul(qratio_vector([m], [m + n], l), (1, n, 0, 0))
        y = vmul(qratio_vector([n], [m + n], l), (1, -m, 0, 0))
        one = str(LaurentPoly.monomial(l, l))
        assert self.check([x, y]) == (one, True, True)
        row = self.check([vmul(x, z), vmul(y, z)])
        if not any(e < 0 for _, e in cyclo._fields(z[3])):
            assert row is not None

    def test_the_pairs_of_the_order_24_table(self):
        pairs = {tuple(terms) for m in range(25) for n in range(25 - m)
                 for terms in idp._mult_closed_terms(idp.ODD, m, n).values()
                 if len(terms) == 2}
        assert len(pairs) == 70
        for terms in pairs:
            assert self.check(list(terms)) is not None


class TestCoproductVectors:
    """The vectors equal the Scalar constructions on every key."""

    @pytest.mark.parametrize("p", ["ev", "odd"])
    def test_legs(self, p):
        for n in range(9):
            for r in range(n + 1):
                legs = from_scalars(idp.s_component_reversed(p, n, r)._t, n)
                assert legs is not None
                assert idp._leg_vectors(p, n, r) == legs

    def test_h_binomials(self):
        # against the product of the factors on Scalars, value and text of
        # each coefficient, at every (shift, order) that the legs, the
        # reversed legs, pbw-core and chi reach up to order 24
        reached = {(a, n) for a in range(-7, 6) for n in range(5)}
        for r in range(25):
            for g in {(r - 2) // 2, (r - 1) // 2}:
                for c in range(r // 2 + 1):
                    reached |= {(-g, c), (1 - c + g, c)}
        for a, c in sorted(reached):
            want = h_binom(a, c)._t
            got = {(0, -2 * j, 0): to_scalar(v)
                   for j, v in enumerate(pbw._h_binom_vectors(a, c))}
            assert got == want, (a, c)
            assert {m: str(s) for m, s in got.items()} == {
                m: str(s) for m, s in want.items()}, (a, c)

    @pytest.mark.parametrize("p", ["ev", "odd"])
    def test_images(self, p, monkeypatch):
        # against the plain substitution, its products on the reference
        # normal form so that it shares no step with the B step on vectors,
        # which reads the commutation formula of pbw._mono_mul
        oracle_products(monkeypatch)
        for n in range(13):
            image = from_scalars(idp.idp_to_pbw(idp.idp_closed(p, n))._t, n)
            assert image is not None
            assert idp._pbw_vectors(p, n) == image

    @pytest.mark.parametrize("p", ["ev", "odd"])
    def test_delta(self, p, monkeypatch):
        # against delta(E)^a (K^b x K^b) delta(F)^c built by TensorElement
        # products of the generator coproducts, on the plain substitution,
        # all products on the reference normal form: neither side takes a
        # q-binomial sum, a commutation formula or a vector from the other
        oracle_products(monkeypatch)
        one = pbw.UElement.one()
        e, f, k, ki = (pbw.u_gen(g) for g in ("E", "F", "K", "Kinv"))
        pair = tensor.TensorElement.from_pair
        d_e = pair(e, one) + pair(k, e)
        d_f = pair(one, f) + pair(f, ki)
        mono_delta = {}
        for n in range(8):
            image = idp.idp_to_pbw(idp.idp_closed(p, n))
            direct = tensor.TensorElement.zero()
            for (a, b, c), s in image.terms():
                if (a, b, c) not in mono_delta:
                    kk = pbw.UElement.monomial(0, b, 0)
                    mono_delta[a, b, c] = d_e ** a * pair(kk, kk) * d_f ** c
                direct = direct + mono_delta[a, b, c].scale(s)
            direct = from_scalars(direct._t, n)
            assert direct is not None
            assert tensor.delta_vectors(idp._pbw_vectors(p, n)) == direct

    @pytest.mark.parametrize("p", ["ev", "odd"])
    def test_theorem(self, p):
        for n in range(8):
            theorem = from_scalars(idp.comult_theorem(p, n)._t, n)
            assert theorem is not None
            assert theorem_vectors(p, n) == theorem
