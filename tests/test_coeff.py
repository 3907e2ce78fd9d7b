"""Laurent polynomial and scalar arithmetic: frozen oracles plus field laws."""

from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from iqsl2 import coeff
from iqsl2._kernel import kadd, kmul
from iqsl2._kernel_py import _SCHOOLBOOK_MAX, _unpack
from iqsl2.coeff import LaurentPoly, Scalar
from iqsl2.errors import (
    DenominatorVanishes,
    DivisionByZero,
    NotIntegral,
    RequiresSpecialized,
)
from iqsl2.qcomb import qint
from oracles import format_terms_reference

q = LaurentPoly.q
vs = LaurentPoly.vs
mono = LaurentPoly.monomial


def test_zero_and_one():
    assert LaurentPoly.zero().is_zero()
    assert LaurentPoly.one().is_one()
    assert not LaurentPoly.zero()
    assert LaurentPoly.from_int(0) == LaurentPoly.zero()
    assert LaurentPoly.from_int(1) == LaurentPoly.one()


@pytest.mark.parametrize("terms", [
    {(0, 0): 0.5}, {(0, 0): 1.9}, {(0.7, 0): 3}, {(0, 1.0): 1}, {(0, 0): "1"},
])
def test_constructor_rejects_non_int_terms(terms):
    # a float would be stored as a zero coefficient or truncated silently
    with pytest.raises(TypeError):
        LaurentPoly(terms)


@pytest.mark.parametrize("build", [
    lambda: LaurentPoly.monomial(0, 0, 0.5),
    lambda: LaurentPoly.monomial(0.7, 0),
    lambda: LaurentPoly.monomial(0, "1"),
    lambda: LaurentPoly.q(0.5),
    lambda: LaurentPoly.vs(1.0),
    lambda: LaurentPoly.from_int(1.5),
    lambda: LaurentPoly.from_int("1"),
], ids=["monomial-coeff", "monomial-q", "monomial-v", "q", "vs",
        "from_int-float", "from_int-str"])
def test_factories_reject_non_int_terms(build):
    # the factories check what the constructor checks
    with pytest.raises(TypeError, match="needs int exponents"):
        build()


def test_factories_keep_int_terms():
    assert LaurentPoly.monomial(2, -1, 3) == LaurentPoly({(2, -1): 3})
    assert LaurentPoly.monomial(2, -1, 0).is_zero()
    assert LaurentPoly.q(-3) == LaurentPoly({(-3, 0): 1})
    assert LaurentPoly.from_int(-4) == LaurentPoly({(0, 0): -4})
    assert LaurentPoly.from_int(0).is_zero()


def test_basic_arithmetic():
    # (q + q^-1)(q - q^-1) = q^2 - q^-2
    assert (q(1) + q(-1)) * (q(1) - q(-1)) == q(2) - q(-2)
    assert q(1) * q(-1) == LaurentPoly.one()
    assert (q(1) + 1) - (q(1) + 1) == LaurentPoly.zero()
    assert -(q(2) - 1) == 1 - q(2)
    assert (q(1) + vs(1)) ** 2 == q(2) + 2 * mono(1, 1) + vs(2)
    assert 3 * q(1) == q(1) + q(1) + q(1)


def test_pow_zero_and_identity():
    assert (q(5) + vs(-3)) ** 0 == LaurentPoly.one()
    assert (q(2) + 1) ** 1 == q(2) + 1
    with pytest.raises(ValueError):
        (q(1)) ** -1


def test_shift_and_substitutions():
    p = q(2) + vs(1)
    assert p.shift(1, -1) == q(3) * vs(-1) + q(1)
    assert (q(3) + q(-3)).subst_q_inv() == q(3) + q(-3)
    assert (q(3) - q(-3)).subst_q_inv() == q(-3) - q(3)
    # varsigma -> q^-1 merges terms: q^-1 + v |-> 2 q^-1
    assert (q(-1) + vs(1)).subst_v_qinv() == 2 * q(-1)
    assert mono(2, 3).subst_v_qinv() == q(-1)


def test_exact_div():
    a = (q(1) + q(-1)) * (q(2) + 1 + q(-2))
    assert a.exact_div(q(2) + 1 + q(-2)) == q(1) + q(-1)
    assert (q(2) - q(-2)).exact_div(q(1) - q(-1)) == q(1) + q(-1)
    assert (q(1) + 1).exact_div(q(1) - 1) is None
    # integer coefficient obstruction
    assert (2 * q(1) + 1).exact_div(LaurentPoly.from_int(2)) is None
    assert LaurentPoly.zero().exact_div(q(1) + 1) == LaurentPoly.zero()
    with pytest.raises(DivisionByZero):
        (q(1) + 1).exact_div(LaurentPoly.zero())
    # bivariate, Laurent supports on both sides
    b = mono(-1, 1) + mono(2, -1)
    c = mono(0, 2) + q(1)
    assert (b * c).exact_div(b) == c
    assert (b * c).exact_div(c) == b
    # q^5 would land in the slot of q^2*v when slots are deg_q(a) + 1 wide
    assert (1 + mono(2, 1)).exact_div(1 + q(5)) is None
    # slots (1 + X) * X^2, but the quotient slot X^2 read as q^2 times
    # 1 + q reaches q^3, past the slot row: no quotient
    assert (q(2) + vs(1)).exact_div(1 + q(1)) is None
    # a = prod_{i<8} (1 - q^(2^i)) has coefficients +-1 (Thue-Morse signs),
    # yet a / (1 - q)^8 = prod_{i<8} [2^i]_q has coefficients above 2^20
    a = LaurentPoly.one()
    cof = LaurentPoly.one()
    for i in range(8):
        a = a * (1 - q(2 ** i))
        cof = cof * sum((q(e) for e in range(2 ** i)), LaurentPoly.zero())
    assert a.exact_div((1 - q(1)) ** 8) == cof
    assert max(abs(c) for *_, c in cof.terms()) > 2 ** 20
    # q + 2 does not divide q^15 - 2: its value at q = -2 is not 0
    assert (q(15) - 2).exact_div(q(1) + 2) is None


def test_str_canonical_grammar():
    assert str(LaurentPoly.zero()) == "0"
    assert str(LaurentPoly.one()) == "1"
    assert str(LaurentPoly.from_int(-7)) == "-7"
    assert str(q(1) + q(-1)) == "q^-1 + q"
    assert str(q(1) - q(-1)) == "-q^-1 + q"
    assert str(2 * mono(2, 1) - 3 * vs(2)) == "-3*v^2 + 2*q^2*v"
    assert str(mono(1, 1)) == "q*v"
    assert str(mono(-2, -1)) == "q^-2*v^-1"
    assert str(-mono(0, 1)) == "-v"


@given(
    st.dictionaries(
        st.tuples(st.integers(-6, 6), st.integers(-4, 4)),
        st.integers(-9, 9).filter(bool),
        max_size=8,
    )
)
def test_str_parse_round_trip(d):
    p = LaurentPoly(d)
    assert LaurentPoly.parse(str(p)) == p


# the canonical text as a per-term formatter writes it: the body q^i*v^j
# of each term apart, then the sign and the magnitude around it
def _reference_body(i, j):
    parts = []
    if i == 1:
        parts.append("q")
    elif i != 0:
        parts.append(f"q^{i}")
    if j == 1:
        parts.append("v")
    elif j != 0:
        parts.append(f"v^{j}")
    return "*".join(parts)


def _reference_str(t):
    if not t:
        return "0"
    parts = []
    for k in sorted(t):
        c = t[k]
        body = _reference_body(*k)
        if not body:
            mag = str(abs(c))
        elif abs(c) == 1:
            mag = body
        else:
            mag = f"{abs(c)}*{body}"
        if not parts:
            parts.append(mag if c > 0 else "-" + mag)
        else:
            parts.append((" + " if c > 0 else " - ") + mag)
    return "".join(parts)


# term dicts with constants, pure-v terms, exponents +-1 and negative ones,
# and coefficients +-1 as often as any other
_TERMS = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.one_of(st.sampled_from([1, -1]),
              st.integers(-10**6, 10**6).filter(bool)),
    max_size=12,
)


@pytest.mark.parametrize("t", [
    {}, {(0, 0): 1}, {(0, 0): -1}, {(0, 0): 12}, {(0, 1): 1}, {(0, -1): -1},
    {(0, 2): -5}, {(1, 0): -1, (0, 0): 1}, {(-1, -1): 1, (0, 1): -3},
    {(-7, 3): -1, (2, 0): 1, (2, 1): 2},
])
def test_str_equals_the_per_term_reference_on_edge_terms(t):
    assert str(LaurentPoly._raw(dict(t))) == _reference_str(t)


@given(_TERMS)
@settings(max_examples=300)
def test_str_equals_the_per_term_reference(t):
    assert str(LaurentPoly._raw(dict(t))) == _reference_str(t)


@pytest.mark.parametrize("t", [
    {}, {(0, 0): 1}, {(0, 0): -1}, {(0, 0): -12}, {(1, 0): 1}, {(1, 0): -1},
    {(0, 1): 1}, {(0, 1): -1}, {(1, 1): -1}, {(-1, 0): 1, (0, 0): -1},
    {(0, -2): -3, (0, 1): 1, (1, -1): 1, (3, 0): -1},
])
def test_format_terms_equals_the_reference_on_edge_terms(t):
    items = sorted(t.items())
    assert coeff.format_terms(items) == format_terms_reference(items)


@given(_TERMS)
@settings(max_examples=300)
def test_format_terms_equals_the_reference(t):
    # constants, +-1, q^1, v^1, v-only terms and negative exponents
    items = sorted(t.items())
    assert coeff.format_terms(iter(items)) == format_terms_reference(items)


def _reference_subst_v_qinv(t):
    out = {}
    for (i, j), c in t.items():
        out[i - j, 0] = out.get((i - j, 0), 0) + c
    return {k: c for k, c in out.items() if c}


@pytest.mark.parametrize("t, expected", [
    # no two terms meet: the substituted dict as it is built
    ({(1, 0): 2, (0, 2): 3}, {(1, 0): 2, (-2, 0): 3}),
    # terms meet and add up
    ({(1, 1): 2, (0, 0): 3, (4, 1): 1}, {(0, 0): 5, (3, 0): 1}),
    # terms meet and cancel, down to zero
    ({(-1, 0): 1, (0, 1): -1}, {}),
    ({(2, 1): 1, (1, 0): -1, (5, 0): 4}, {(5, 0): 4}),
    ({(3, 2): 2, (1, 0): -2, (2, 1): 1, (0, -1): -1}, {}),
])
def test_subst_v_qinv_both_branches(t, expected):
    assert LaurentPoly._raw(dict(t)).subst_v_qinv()._t == expected


@given(_TERMS)
def test_subst_v_qinv_equals_the_merge(t):
    assert LaurentPoly._raw(dict(t)).subst_v_qinv()._t == _reference_subst_v_qinv(t)


@given(_TERMS, st.booleans())
def test_den_one_make_keeps_the_normal_form(t, cancel):
    # the same dicts as _normalize, so the same text, not just the same value
    n, d = coeff._normalize(dict(t), {(0, 0): 1})
    s = Scalar._make(dict(t), {(0, 0): 1}, cancel)
    assert list(s._n._t.items()) == list(n.items())
    assert list(s._d._t.items()) == list(d.items())
    assert str(s) == _reference_str(t)


_SMALL = st.dictionaries(
    st.tuples(st.integers(-4, 4), st.integers(-2, 2)),
    st.integers(-5, 5).filter(bool),
    max_size=5,
).map(LaurentPoly)


@given(_SMALL, _SMALL, _SMALL)
@settings(deadline=None, max_examples=60)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + LaurentPoly.zero() == a
    assert a * LaurentPoly.one() == a
    assert a - a == LaurentPoly.zero()


@given(_SMALL, _SMALL)
@settings(deadline=None, max_examples=60)
def test_exact_div_recovers_factor(a, b):
    if a.is_zero() or b.is_zero():
        return
    assert (a * b).exact_div(b) == a


_VFREE = st.dictionaries(
    st.tuples(st.integers(-4, 4), st.just(0)),
    st.integers(-5, 5).filter(bool),
    min_size=1,
    max_size=4,
).map(LaurentPoly)


@given(_SMALL, _VFREE, st.one_of(st.just(LaurentPoly.zero()), _SMALL))
@settings(deadline=None, max_examples=150)
def test_exact_div_agrees_with_the_gcd(c, b, noise):
    # the reduction's gcd is an independent oracle: a v-free b divides a
    # exactly when a/b reduces to denominator 1, with a/b as its numerator
    a = b * c + noise
    s = Scalar(a, b)
    if s.den.is_one():
        assert a.exact_div(b) == s.num
    else:
        assert a.exact_div(b) is None


class TestScalar:
    def test_construction_and_reduce(self):
        s = Scalar(q(2) - q(-2), q(1) - q(-1))
        assert s == Scalar(q(1) + q(-1))
        assert s.den.is_one()
        with pytest.raises(DivisionByZero):
            Scalar(q(1), LaurentPoly.zero())

    def test_equality_cross_multiplication(self):
        a = Scalar(q(1) + q(-1), q(2) + 1)
        b = Scalar(LaurentPoly.one(), q(1))
        assert a == b
        assert not (a == Scalar(LaurentPoly.one(), q(2)))
        assert a == Scalar.q_power(-1)

    def test_arithmetic(self):
        half = Scalar(1, 2)
        assert half + half == Scalar.one()
        assert half * 2 == Scalar.one()
        assert Scalar(q(1)) / Scalar(q(1)) == Scalar.one()
        x = Scalar(q(2) + 1, q(1) - q(-1))
        y = Scalar(q(1), q(1) - q(-1))
        assert x - y == Scalar(q(2) - q(1) + 1, q(1) - q(-1))
        assert (x / y) * y == x
        assert -x + x == Scalar.zero()
        assert x ** 0 == Scalar.one()
        assert x ** 2 == x * x
        assert x ** -1 == Scalar.one() / x
        with pytest.raises(DivisionByZero):
            x / Scalar.zero()
        with pytest.raises(DivisionByZero):
            Scalar.zero().inverse()

    @pytest.mark.parametrize("text", ["(q + 1)/(q^2 + 3)",
                                      "(q^-1*v - 2)/(1 + q*v)", "-3", "0"])
    def test_pow_equals_repeated_product(self, text):
        x = Scalar.parse(text)
        for n in range(-5, 13):
            if n < 0 and x.is_zero():
                with pytest.raises(DivisionByZero):
                    x ** n
                continue
            base = x.inverse() if n < 0 else x
            expected = Scalar.one()
            for _ in range(abs(n)):
                expected = expected * base
            assert str(x ** n) == str(expected)

    def test_bar(self):
        s = Scalar(q(2) + q(1), q(1) - q(-1))
        t = s.bar()
        assert t == Scalar(q(-2) + q(-1), q(-1) - q(1))
        assert t.bar() == s
        with pytest.raises(RequiresSpecialized):
            Scalar(vs(1)).bar()
        with pytest.raises(RequiresSpecialized):
            Scalar(q(1), vs(1) + q(1)).bar()

    def test_specialize_varsigma(self):
        s = Scalar(mono(1, 1))  # q * vs -> 1
        assert s.specialize_varsigma() == Scalar.one()
        t = Scalar(vs(2), q(2))
        assert t.specialize_varsigma() == Scalar.q_power(-4)
        with pytest.raises(DenominatorVanishes):
            Scalar(q(1), vs(1) - q(-1)).specialize_varsigma()

    def test_to_laurent(self):
        assert Scalar(q(2) - q(-2), q(1) - q(-1)).to_laurent() == q(1) + q(-1)
        with pytest.raises(NotIntegral):
            Scalar(LaurentPoly.one(), q(1) + q(-1)).to_laurent()

    def test_den_sign_and_shift_normalization(self):
        s = Scalar(q(1), -q(2) + q(-2))
        # denominator ends ordinary with positive leading coefficient
        assert s.den.coeff(4) > 0 or s.den.coeff(0) != 0
        lead = max(i for i, j, c in s.den.terms())
        assert s.den.coeff(lead) > 0
        mins = min(i for i, j, c in s.den.terms())
        assert mins == 0

    def test_str_and_parse(self):
        s = Scalar(vs(1) * q(3), q(2) + 1)
        assert str(s) == "(q^3*v)/(1 + q^2)"
        assert Scalar.parse(str(s)) == s
        assert str(Scalar.from_int(5)) == "5"
        assert Scalar.parse("5") == Scalar.from_int(5)
        assert str(Scalar.zero()) == "0"


_SC = st.builds(
    lambda n, d: Scalar(n, d),
    _SMALL,
    _SMALL.filter(lambda p: not p.is_zero()),
)


@given(_SC, _SC, _SC)
@settings(deadline=None, max_examples=40)
def test_field_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if not a.is_zero():
        assert a * a.inverse() == Scalar.one()


@given(_SC, _SC)
@settings(deadline=None, max_examples=40)
def test_reduction_preserves_value(a, b):
    # equality is cross-multiplied, so a freshly built unreduced fraction
    # must agree with its reduced self
    if b.is_zero():
        return
    quot = a / b
    assert quot * b == a


# --- kmul: dict convolution for small operands, Kronecker substitution above ---


def _schoolbook(a, b):
    """Reference product of term dicts, independent of the kernel."""
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


_TERMS = st.dictionaries(
    st.tuples(st.integers(-12, 12), st.integers(-3, 3)),
    st.one_of(st.integers(-2, 2), st.integers(-10**30, 10**30)).filter(bool),
    min_size=1,
    max_size=40,
)


@given(_TERMS, _TERMS)
@settings(deadline=None, max_examples=100)
def test_kmul_equals_schoolbook(a, b):
    assert kmul(a, b) == _schoolbook(a, b)


def _row(n, c=1, j=0, i0=0):
    """c * (q^i0 + q^(i0+1) + ... + q^(i0+n-1)) * v^j as a term dict."""
    return {(i0 + i, j): c for i in range(n)}


def test_kmul_cancellation_leaves_no_zero_terms():
    # a product of nonzero polynomials is never zero, but its terms may
    # cancel: (1 + q + ... + q^64)(1 - q) = 1 - q^65, 130 term pairs
    a = _row(65)
    assert kmul(a, {(0, 0): 1, (1, 0): -1}) == {(0, 0): 1, (65, 0): -1}
    # P(q)(1 + v) * Q(q)(1 - v) = PQ(1 - v^2): the whole v^1 row cancels
    p = {**_row(12, 3, 0, -5), **_row(12, 3, 1, -5)}
    r = {**_row(12, 1, 0, 2), **_row(12, -1, 1, 2)}
    got = kmul(p, r)
    assert got == _schoolbook(p, r)
    assert {j for _, j in got} == {0, 2}
    assert all(got.values())


def test_kmul_empty_and_one_term_operands():
    big = _row(40, 7, -2, -9)
    assert kmul({}, big) == kmul(big, {}) == kmul({}, {}) == {}
    one = {(3, -2): -5}
    shifted = {(i + 3, j - 2): -5 * c for (i, j), c in big.items()}
    assert kmul(one, big) == kmul(big, one) == shifted
    assert kmul(one, one) == {(6, -4): 25}


def test_kmul_bivariate_slots_wrap_across_v_rows():
    # q-span 10 in each operand, 20 in the product: with slot rows only as
    # wide as one operand, q^20 would land in the next v row
    a = {(i, j): i - 3 * j + 1 or 7 for i in range(-4, 7) for j in range(-1, 2)}
    b = {(i, j): 2 * j - i or -1 for i in range(3, 14) for j in range(2, 5)}
    assert len(a) * len(b) > 128
    got = kmul(a, b)
    assert got == _schoolbook(a, b)
    assert max(i for i, _ in got) - min(i for i, _ in got) == 20


@pytest.mark.parametrize("ca, cb", [(1, 1), (5, -3), (-(2**40) - 1, 2**40 + 3)])
def test_kmul_coefficients_at_the_bound(ca, cb):
    # the middle coefficient of (ca * row)(cb * row) is
    # max|a| * max|b| * min(len a, len b), the bound the slot width is cut to
    a, b = _row(16, ca, 1, -8), _row(16, cb, -1)
    got = kmul(a, b)
    assert got == _schoolbook(a, b)
    assert got[(7, 0)] == ca * cb * 16
    assert max(map(abs, got.values())) == abs(ca * cb) * 16


@st.composite
def _strided_pair(draw):
    """Two term dicts past the convolution limit, with q-stride s on one or
    several v rows, whose bound M = max|a| * max|b| * min(len a, len b)
    lies just below 2^e or just above it, for the word widths e + 1."""
    s = draw(st.integers(1, 4))
    rows = draw(st.sampled_from([1, 3]))
    e = draw(st.sampled_from([7, 15, 31, 63]))
    above = draw(st.booleans())
    # a dense run (t = 0..n-1, constant coefficients) puts a coefficient of
    # absolute value M into the product when rows == 1
    dense = draw(st.booleans())
    la, lb = draw(st.integers(9, 24)), draw(st.integers(9, 24))
    cb = draw(st.integers(1, 3))
    big = rows * min(la, lb) * cb
    ca = (1 << e) // big + 1 if above else ((1 << e) - 1) // big
    assume(ca > 0)
    ops = []
    for n, c in ((la, ca), (lb, cb)):
        # all positive, all negative, or mixed signs
        sign = draw(st.sampled_from([1, -1, 0]))
        i0, j0 = draw(st.integers(-30, 30)), draw(st.integers(-3, 3))
        if dense:
            ts = range(n)
        else:
            # t = 0 and 1 fix the stride at s; the rest spread out sparsely
            ts = [0, 1] + draw(st.lists(st.integers(2, 4 * n), min_size=n - 2,
                                        max_size=n - 2, unique=True))
        t = {}
        for x in ts:
            for j in range(j0, j0 + rows):
                if dense:
                    cx = -c if sign == -1 or (sign == 0 and x % 2) else c
                else:
                    lo, hi = {1: (1, c), -1: (-c, -1), 0: (-c, c)}[sign]
                    cx = draw(st.integers(lo, hi).filter(bool))
                t[(i0 + s * x, j)] = cx
        # pin max|t| at c, so that M is the bound drawn
        t[(i0, j0)] = c if sign == 1 else -c
        ops.append(t)
    return tuple(ops)


@given(_strided_pair())
@settings(deadline=None, max_examples=200)
def test_kmul_strided_operands_at_every_word_width(pair):
    a, b = pair
    assert len(a) * len(b) > _SCHOOLBOOK_MAX
    assert kmul(a, b) == _schoolbook(a, b)
    assert kmul(b, a) == _schoolbook(a, b)


def test_kmul_qint_products_pinned():
    for x in range(1, 41):
        ta = qint(x)._t
        for y in range(1, 41):
            tb = qint(y)._t
            assert kmul(ta, tb) == _schoolbook(ta, tb)


def _reference_unpack(x, n, k):
    """The balanced base-2^k digits of x by one shift per slot, as _unpack
    reads them at widths that are no machine word."""
    half = 1 << (k - 1)
    mask = (1 << k) - 1
    out = {}
    for s in range(n):
        c = x & mask
        x >>= k
        if c >= half:
            c -= mask + 1
            x += 1
        if c:
            out[s] = c
    return None if x else out


@st.composite
def _digit_runs(draw):
    """(x, n, k) at a word width k: x from up to six digits, the extremes
    -2^(k-1) and 2^(k-1) - 1 among them, and some just outside the digit
    range, which carry; n one digit short of, equal to or past their
    number."""
    k = draw(st.sampled_from([8, 16, 32, 64]))
    half = 1 << (k - 1)
    digit = st.one_of(
        st.sampled_from([0, 1, -1, -half, half - 1, half, -half - 1]),
        st.integers(-half, half - 1),
    )
    ds = draw(st.lists(digit, max_size=6))
    n = draw(st.integers(max(len(ds) - 1, 0), len(ds) + 1))
    return sum(c << (k * s) for s, c in enumerate(ds)), n, k


@given(_digit_runs())
@settings(max_examples=400)
def test_unpack_words_equal_the_slot_loop(run):
    assert _unpack(*run) == _reference_unpack(*run)


@pytest.mark.parametrize("k", [8, 16, 32, 64])
def test_unpack_words_at_the_edges(k):
    half = 1 << (k - 1)
    top = 1 << (k * 3)
    cases = {
        (0, 3): {},
        (0, 0): {},
        # one digit too many, by value and by a top digit of 2^(k-1)
        (top, 3): None,
        (half << (2 * k), 3): None,
        (top, 4): {3: 1},
        # negative top digits, down to -2^(k-1), and one below that
        (-(1 << (2 * k)), 3): {2: -1},
        (-half << (2 * k), 3): {2: -half},
        (-(half + 1) << (2 * k), 3): None,
        (-1, 1): {0: -1},
        # every digit at an extreme of the range
        ((half - 1) * (1 + (1 << k)), 2): {0: half - 1, 1: half - 1},
        (-half * (1 + (1 << k)), 2): {0: -half, 1: -half},
    }
    for (x, n), expected in cases.items():
        assert _reference_unpack(x, n, k) == expected
        assert _unpack(x, n, k) == expected


# --- the reduction helpers: exact division and the gcd ---

_BIG = st.dictionaries(
    st.tuples(st.integers(-3, 4), st.integers(-2, 2)),
    st.integers(-10**12, 10**12).filter(bool),
    min_size=1,
    max_size=6,
)


@given(_BIG, _BIG)
@settings(deadline=None, max_examples=150)
def test_div_exact_raw_recovers_cofactor(b, c):
    assert coeff._div_exact_raw(_schoolbook(b, c), b) == c


@given(_BIG, _BIG, st.dictionaries(
    st.tuples(st.integers(-3, 6), st.integers(-2, 3)),
    st.integers(-3, 3).filter(bool),
    max_size=2,
))
@settings(deadline=None, max_examples=150)
def test_div_exact_raw_quotient_is_exact(b, c, noise):
    # a product, perturbed or not: any quotient returned multiplies back
    a = kadd(_schoolbook(b, c), noise)
    quot = coeff._div_exact_raw(a, b)
    if quot is not None:
        assert _schoolbook(quot, b) == a
    if not noise:
        assert quot == c


def _prs_gcd(polys):
    """_uni_gcd with the heuristic trying no point: the primitive PRS alone."""
    with mock.patch.object(coeff, "_HEU_POINTS", 0):
        return coeff._uni_gcd(polys)


def _uni_mul(a, b):
    return {i: c for (i, _), c in _schoolbook(
        {(e, 0): c for e, c in a.items()}, {(e, 0): c for e, c in b.items()}
    ).items()}


def _low0(p):
    """p divided by its lowest power of q, as _uni_gcd expects its inputs."""
    m = min(p)
    return {e - m: c for e, c in p.items()}


def _assert_gcd_and_cofactors(polys, got):
    g, cofs = got
    assert g[max(g)] > 0
    assert len(cofs) == len(polys)
    for p, c in zip(polys, cofs):
        assert _uni_mul(g, c) == p


_UNI = st.dictionaries(
    st.integers(-3, 5), st.integers(-20, 20).filter(bool), min_size=1, max_size=5
)


@given(_UNI, st.lists(_UNI, min_size=1, max_size=4))
@settings(deadline=None, max_examples=150)
def test_uni_gcd_divides_both_and_equals_prs(g, xs):
    # a drawn common factor g, which carries content and a power of q in
    # general; the gcd is its primitive part times whatever the xs share
    polys = [_low0(_uni_mul(g, x)) for x in xs]
    got = coeff._uni_gcd(polys)
    prs = _prs_gcd(polys)
    assert got[0] == prs[0]
    _assert_gcd_and_cofactors(polys, got)
    _assert_gcd_and_cofactors(polys, prs)


@given(st.dictionaries(st.integers(1, 8), st.integers(-20, 20).filter(bool),
                       min_size=1, max_size=5),
       st.integers(-20, 20).filter(bool), st.integers(-10**6, 10**6).filter(bool))
@settings(deadline=None, max_examples=150)
def test_uni_gcd_with_a_constant_is_constant(d, d0, c):
    # a monomial numerator slice, divided by its q-power, is the constant c;
    # against a denominator with a nonzero constant term the primitive gcd
    # is 1, which is why _reduce runs no gcd for a one-term numerator
    d = {0: d0, **d}
    g, cofs = coeff._uni_gcd([d, {0: c}])
    assert g == {0: 1}
    assert cofs == [d, {0: c}]


def test_uni_gcd_cofactors_on_a_known_factorization():
    # 2(1 + q) and 4(1 + q)(1 - q): the integer gcd at the point carries
    # content 2, which the gcd drops and the cofactors keep
    g, cofs = coeff._uni_gcd([{0: 2, 1: 2}, {0: 4, 2: -4}])
    assert g == {0: 1, 1: 1}
    assert cofs == [{0: 2}, {0: 4, 1: -4}]


def _record_pack_widths(monkeypatch):
    widths = []
    real = coeff._pack
    monkeypatch.setattr(coeff, "_pack", lambda t, k: widths.append(k) or real(t, k))
    return widths


def test_gcdheu_retries_at_a_wider_point(monkeypatch):
    # at 2^6 > 2*3 + 29 the integer gcd of a and b is 131, whose digits
    # 3 + 2q divide a but not b (the cofactor digits of b(2^6) / 131 fail
    # the check); the next point finds gcd 1
    a = {0: 3, 1: 2, 2: 3, 3: 2}
    b = {0: 2, 1: 1, 2: -3, 3: 3}
    widths = _record_pack_widths(monkeypatch)
    assert coeff._uni_gcd([a, b]) == ({0: 1}, [a, b])
    assert widths == [6, 6, 12, 12]
    assert _prs_gcd([a, b]) == ({0: 1}, [a, b])


def test_gcdheu_kmul_decides_when_the_norm_bound_fails(monkeypatch):
    # at 2^5 > 2*1 + 29, gcd(2^5 - 1, 2^640 - 1) = 31 reads back as q - 1;
    # the cofactor 1 + q + ... + q^127 of q^128 - 1 has ||g||_2^2 *
    # ||c||_2^2 = 2 * 128 = 2^(2*5 - 2), not below it, so kmul checks it
    widths = _record_pack_widths(monkeypatch)
    products = []
    real = coeff._k.kmul
    monkeypatch.setattr(
        coeff._k, "kmul", lambda a, b: products.append(len(a) * len(b)) or real(a, b)
    )
    got = coeff._uni_gcd([{0: -1, 1: 1}, {0: -1, 128: 1}])
    assert got == ({0: -1, 1: 1}, [{0: 1}, {i: 1 for i in range(128)}])
    assert widths == [5, 5]
    assert products == [2 * 128]


def test_uni_gcd_falls_back_to_prs(monkeypatch):
    cases = [
        [{0: 1, 2: -1}, {0: -1, 1: 1}],
        [{0: 3, 1: 6, 2: 3}, {0: 2, 1: 2}],
        [{0: 3, 1: 2, 2: 3, 3: 2}, {0: 2, 1: 1, 2: -3, 3: 3}],
        [{0: 4, 2: -4}, {0: 7}],
        [{0: -6, 1: 3}],
        [{0: 2, 1: 2}, {0: 4, 2: -4}, {0: 6, 1: 12, 2: 6}],
    ]
    expected = [coeff._uni_gcd(polys) for polys in cases]
    assert [g for g, _ in expected] == [
        {0: -1, 1: 1}, {0: 1, 1: 1}, {0: 1}, {0: 1}, {0: -2, 1: 1}, {0: 1, 1: 1}
    ]
    prem_calls = []
    real = coeff._uni_prem
    monkeypatch.setattr(coeff, "_HEU_POINTS", 0)
    monkeypatch.setattr(
        coeff, "_uni_prem", lambda a, b: prem_calls.append(1) or real(a, b)
    )
    got = [coeff._uni_gcd(polys) for polys in cases]
    assert got == expected
    assert prem_calls
    for polys, out in zip(cases, got):
        _assert_gcd_and_cofactors(polys, out)
